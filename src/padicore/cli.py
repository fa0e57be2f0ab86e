"""Batch command-line front end.

One invocation, one result, deterministic output.  Exit codes: 0 on
success, 1 for domain errors (non-residue square roots, divergent
logarithms, mismatched primes, ...), 2 for parse and usage errors.
``--prec`` always means absolute precision in digits; ``--order`` means
T-adic order for series.  The environment variable PADICORE_PREC_CAP
overrides the construction-time precision cap (default 64).
"""

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import textforms
from .errors import DomainError, ParseError
from .intmath import int_prints, str_digit_limit
from .padics import DEFAULT_PRECISION_CAP

# Each command group builds its own subcommands and imports its own
# modules inside its runner, so that one call loads only its group.


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ParseError (exit 2)."""

    def error(self, message):
        raise ParseError(message)


def _precision_cap():
    raw = os.environ.get("PADICORE_PREC_CAP")
    if raw is None:
        return DEFAULT_PRECISION_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ParseError(f"PADICORE_PREC_CAP must be an integer, got {raw!r}")
    if cap < 1:
        raise ParseError("PADICORE_PREC_CAP must be positive")
    return cap


def _check_prec(prec, cap):
    if prec is None:
        raise ParseError("--prec is required here")
    if prec < 1:
        raise ParseError("--prec must be at least 1")
    if prec > cap:
        raise ParseError(f"--prec {prec} exceeds the precision cap {cap}")
    return prec


def _maybe_json(obj):
    """Canonical JSON for report fields and simple values."""
    if isinstance(obj, Fraction):
        return str(obj)
    if obj is math.inf:
        return "inf"
    return obj


def _check_prints(q):
    """A rational or int answer whose numerator or denominator has more
    digits than str() prints is a DomainError."""
    if not (int_prints(q.numerator) and int_prints(q.denominator)):
        raise DomainError(f"the answer has more than {str_digit_limit()} digits")


def _value_text(v):
    """A sum or norm of the summation checks: a rational or a Padic."""
    if not isinstance(v, Fraction):
        return v.pretty()
    _check_prints(v)
    return str(v)


def _emit(args, pretty_text, json_obj):
    if args.format == "json":
        print(json.dumps(json_obj, sort_keys=True))
    else:
        print(pretty_text)
    return 0


def _format(sp):
    sp.add_argument("--format", choices=("pretty", "json"), default="pretty")


def _common(sp):
    sp.add_argument("--p", type=int, help="prime of the ambient field")
    sp.add_argument("--prec", type=int, help="absolute precision in digits")
    _format(sp)


# ------------------------------------------------------------------- padic


def _run_padic(args, cap):
    p = args.p
    prec = _check_prec(args.prec, cap)
    ops = [textforms.parse_padic(t, p, prec, cap) for t in args.operands]

    def emit(x):
        return _emit(args, x.pretty(), x.to_json_dict())

    cmd = args.subcommand
    if cmd in ("add", "sub", "mul", "div"):
        if len(ops) != 2:
            raise ParseError(f"padic {cmd} takes exactly two operands")
        a, b = ops
        out = {
            "add": lambda: a + b,
            "sub": lambda: a - b,
            "mul": lambda: a * b,
            "div": lambda: a / b,
        }[cmd]()
        return emit(out)
    if len(ops) != 1:
        raise ParseError(f"padic {cmd} takes exactly one operand")
    x = ops[0]
    if cmd == "invert":
        return emit(x.invert())
    if cmd == "valuation":
        if x.is_zero:
            return _emit(args, f">= {x.abs_prec}", {"at_least": x.abs_prec})
        return _emit(args, str(x.valuation()), {"valuation": x.valuation()})
    if cmd == "digits":
        return _emit(
            args,
            f"digits {x.digits()} from exponent {x.valuation_bound}, "
            f"known mod {x.p}^{x.abs_prec}",
            {
                "digits": x.digits(),
                "valuation": None if x.is_zero else x.v,
                "abs_prec": x.abs_prec,
            },
        )
    if cmd == "reduce":
        r = x.residue(args.level)
        return _emit(
            args,
            f"{r.value} mod {r.p}^{r.level}",
            {"p": r.p, "level": r.level, "value": r.value},
        )
    raise ParseError(f"unknown padic subcommand {cmd!r}")


def _padic_commands(sub):
    for name in ("add", "sub", "mul", "div", "invert", "valuation", "digits"):
        sp = sub.add_parser(name)
        _common(sp)
        sp.add_argument("operands", nargs="+")
    sp = sub.add_parser("reduce")
    _common(sp)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("operands", nargs="+")


# ------------------------------------------------------------------ series


def _series_operand(text, args):
    from .series import PowerSeries

    field = textforms.parse_field(args.field) if args.field else None
    s = textforms.parse_series(text, field)
    if args.order is not None:
        if isinstance(s, PowerSeries):
            s = s.truncate(min(args.order, s.prec))
        else:
            s = s._truncated(min(args.order, s.prec_exponent))
    return s


def _emit_series(args, s):
    unit = getattr(s, "unit", s)  # a LaurentSeries is T**tail * unit
    for c in unit.coeffs if unit is not None else ():
        _check_prints(c)
    return _emit(args, s.pretty(), json.loads(textforms.series_to_json(s)))


def _run_series(args, cap):
    from .series import LaurentSeries, PowerSeries

    cmd = args.subcommand
    ops = [_series_operand(t, args) for t in args.operands]
    if cmd in ("add", "sub", "mul", "compose"):
        if len(ops) != 2:
            raise ParseError(f"series {cmd} takes exactly two operands")
        a, b = ops
        if cmd == "compose":
            if not isinstance(a, PowerSeries) or not isinstance(b, PowerSeries):
                raise DomainError("composition is defined for power series")
            return _emit_series(args, a.compose(b))
        if isinstance(a, LaurentSeries) or isinstance(b, LaurentSeries):
            if isinstance(a, PowerSeries):
                a = LaurentSeries.from_power_series(a)
            if isinstance(b, PowerSeries):
                b = LaurentSeries.from_power_series(b)
        out = {
            "add": lambda: a + b,
            "sub": lambda: a - b,
            "mul": lambda: a * b,
        }[cmd]()
        return _emit_series(args, out)
    if len(ops) != 1:
        raise ParseError(f"series {cmd} takes exactly one operand")
    s = ops[0]
    if cmd == "derive":
        if not isinstance(s, PowerSeries):
            raise DomainError("derivative is provided for power series")
        return _emit_series(args, s.derive())
    if cmd == "invert":
        if isinstance(s, PowerSeries):
            s = LaurentSeries.from_power_series(s)
        return _emit_series(args, s.invert())
    if cmd == "order":
        n = s.order()
        if n is None:
            bound = s.prec if isinstance(s, PowerSeries) else s.order_bound
            return _emit(args, f">= {bound}", {"at_least": bound})
        return _emit(args, str(n), {"order": n})
    if cmd == "norm":
        r = textforms.parse_ratio(args.ratio)
        value = s.norm(r)
        pretty = "0" if value.is_zero else f"({r})^{value.exponent}"
        return _emit(
            args,
            pretty,
            {"r": str(r), "exponent": value.exponent},
        )
    raise ParseError(f"unknown series subcommand {cmd!r}")


def _series_commands(sub):
    for name in ("add", "sub", "mul", "compose", "derive", "invert", "order"):
        sp = sub.add_parser(name)
        sp.add_argument("--field", help="coefficient field, e.g. fp:3 or q")
        sp.add_argument("--order", type=int, help="truncate operands to this order")
        _format(sp)
        sp.add_argument("operands", nargs="+")
    sp = sub.add_parser("norm")
    sp.add_argument("--field", help="coefficient field, e.g. fp:3 or q")
    sp.add_argument("--order", type=int)
    sp.add_argument("--ratio", default="1/2", help="the ratio r in (0,1)")
    _format(sp)
    sp.add_argument("operands", nargs="+")


# ---------------------------------------------------------------- analytic


def _run_analytic(args, cap):
    from . import analytic

    p = args.p
    prec = _check_prec(args.prec, cap)
    poly = textforms.parse_polynomial(args.poly, p, prec)
    cmd = args.subcommand
    if cmd == "eval":
        x = textforms.parse_padic(args.operands[0], p, prec, cap)
        out = poly.evaluate(x, min_valuation=args.ball_exp)
        return _emit(args, out.pretty(), out.to_json_dict())
    if cmd == "recenter":
        x0 = textforms.parse_padic(args.operands[0], p, prec, cap)
        out = poly.recenter(x0)
        pretty = ", ".join(c.pretty() for c in out.coeffs)
        return _emit(
            args, f"[{pretty}]", json.loads(textforms.polynomial_to_json(out))
        )
    if cmd == "bounds":
        m = args.radius_exp
        mu1 = analytic.lipschitz_bound(poly, m)
        mu2 = analytic.quadratic_bound(poly, m)
        return _emit(
            args,
            f"lipschitz valuation {mu1}, second-order valuation {_maybe_json(mu2)}",
            {"lipschitz": mu1, "second_order": _maybe_json(mu2), "radius_exp": m},
        )
    raise ParseError(f"unknown analytic subcommand {cmd!r}")


def _analytic_commands(sub):
    sp = sub.add_parser("eval")
    _common(sp)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--ball-exp", type=int, default=None)
    sp.add_argument("operands", nargs=1)
    sp = sub.add_parser("recenter")
    _common(sp)
    sp.add_argument("--poly", required=True)
    sp.add_argument("operands", nargs=1)
    sp = sub.add_parser("bounds")
    _common(sp)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--radius-exp", type=int, default=0)


# ------------------------------------------------------------------ hensel


def _run_hensel(args, cap):
    from . import hensel

    p = args.p
    prec = _check_prec(args.prec, cap)
    cmd = args.subcommand

    def emit(x):
        return _emit(args, x.pretty(), x.to_json_dict())

    if cmd == "sqrt":
        u = textforms.parse_padic(args.operands[0], p, prec, cap)
        return emit(hensel.sqrt(u))
    if cmd == "nthroot":
        u = textforms.parse_padic(args.operands[0], p, prec, cap)
        # nth_root builds x^n - u densely, so n is a polynomial degree
        if args.n > textforms.MAX_TERMS:
            raise ParseError(f"root degree {args.n} exceeds the limit of {textforms.MAX_TERMS}")
        return emit(hensel.nth_root(u, args.n))
    if cmd == "teichmuller":
        u = textforms.parse_padic(args.operands[0], p, prec, cap)
        return emit(hensel.teichmuller(u))
    poly = textforms.parse_polynomial(args.poly, p, prec)
    x0 = textforms.parse_padic(args.x0, p, prec, cap)
    if cmd == "check":
        report = hensel.check_condition(poly, x0, args.m, args.t)
        obj = {
            "ok": report.ok,
            "ok_nonstrict": report.ok_nonstrict,
            "derivative_valuation": report.derivative_valuation,
            "mu2": _maybe_json(report.mu2),
            "gap": _maybe_json(report.gap),
        }
        pretty = (
            f"strict={'ok' if report.ok else 'fails'} "
            f"nonstrict={'ok' if report.ok_nonstrict else 'fails'} "
            f"v(f'(x0))={report.derivative_valuation} mu2={report.mu2} "
            f"gap={report.gap}"
        )
        return _emit(args, pretty, obj)
    if cmd == "solve":
        z = textforms.parse_padic(args.z, p, prec, cap)
        problem = hensel.HenselProblem(poly, x0, m=args.m, t_exp=args.t)
        return emit(hensel.solve(problem, z))
    if cmd == "image":
        report = hensel.ball_image_check(poly, x0, args.m, args.t, args.level)
        obj = {
            "status": report.status,
            "equal": report.equal,
            "level": report.level,
            "source_size": report.source_size,
            "image_size": report.image_size,
            "target_size": report.target_size,
        }
        pretty = (
            f"{report.status}: image==target is {report.equal} "
            f"(level {report.level}, {report.source_size} source residues)"
        )
        return _emit(args, pretty, obj)
    raise ParseError(f"unknown hensel subcommand {cmd!r}")


def _hensel_commands(sub):
    for name in ("sqrt", "teichmuller"):
        sp = sub.add_parser(name)
        _common(sp)
        sp.add_argument("operands", nargs=1)
    sp = sub.add_parser("nthroot")
    _common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("operands", nargs=1)
    sp = sub.add_parser("solve")
    _common(sp)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--x0", required=True)
    sp.add_argument("--z", default="0")
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--t", type=int, default=None)
    sp = sub.add_parser("check")
    _common(sp)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--x0", required=True)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--t", type=int, required=True)
    sp = sub.add_parser("image")
    _common(sp)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--x0", required=True)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--level", type=int, required=True)


# -------------------------------------------------------------------- plog


def _plog_operand(args):
    """The operand of log or invert, given positionally or by flag."""
    flag = args.x_flag if args.subcommand == "log" else args.z_flag
    if flag is not None and args.operands:
        raise ParseError("give the operand once: positionally or by flag")
    if flag is None and not args.operands:
        raise ParseError("an operand is required")
    return flag if flag is not None else args.operands[0]


def _run_plog(args, cap):
    from . import plog

    cmd = args.subcommand
    operand = _plog_operand(args) if cmd in ("log", "invert") else None
    p = args.p
    prec = _check_prec(args.prec, cap)
    if cmd in ("log", "invert"):
        x = textforms.parse_padic(operand, p, prec, cap)
        out = plog.log1p(x) if cmd == "log" else plog.log_inverse(x)
        return _emit(args, out.pretty(), out.to_json_dict())
    if cmd == "poly":
        poly = plog.log_series_polynomial(p, prec, args.domain_val)
        pretty = ", ".join(c.pretty() for c in poly.coeffs)
        return _emit(
            args, f"[{pretty}]", json.loads(textforms.polynomial_to_json(poly))
        )
    raise ParseError(f"unknown plog subcommand {cmd!r}")


def _plog_commands(sub):
    sp = sub.add_parser("log")
    _common(sp)
    sp.add_argument("--x", dest="x_flag", default=None)
    sp.add_argument("operands", nargs="*")
    sp = sub.add_parser("invert")
    _common(sp)
    sp.add_argument("--z", dest="z_flag", default=None)
    sp.add_argument("operands", nargs="*")
    sp = sub.add_parser("poly")
    _common(sp)
    sp.add_argument("--domain-val", type=int, default=1)


# ----------------------------------------------------------------- measure


def _run_measure(args, cap):
    from . import measure

    cmd = args.subcommand
    if cmd == "count":
        textforms.check_ball_level(args.p, args.level)
        n = measure.residue_count(args.p, args.level)
        return _emit(args, str(n), {"count": n})
    if cmd == "split":
        parts = textforms.parse_ball(args.operands[0], args.p).split()
        obj = [b.to_json_dict() for b in parts]
        pretty = ", ".join(f"{b.center} mod {b.p}^{b.level}" for b in parts)
        return _emit(args, pretty, obj)
    sets = [textforms.parse_clopen(t) for t in args.operands]
    if cmd == "measure":
        (s,) = sets
        m = s.measure()
        return _emit(args, str(m), {"measure": str(m)})
    if cmd == "complement":
        (s,) = sets
        out = s.complement()
    elif cmd == "translate":
        (s,) = sets
        out = s.translate(args.shift)
    else:
        a, b = sets
        out = {
            "union": lambda: a.union(b),
            "intersect": lambda: a.intersect(b),
            "diff": lambda: a.difference(b),
        }[cmd]()
    return _emit(
        args,
        textforms.clopen_to_json(out),
        out.to_json_dict(),
    )


def _measure_commands(sub):
    for name, arity in (
        ("measure", 1),
        ("complement", 1),
        ("union", 2),
        ("intersect", 2),
        ("diff", 2),
    ):
        sp = sub.add_parser(name)
        _format(sp)
        sp.add_argument("operands", nargs=arity)
    sp = sub.add_parser("translate")
    _format(sp)
    sp.add_argument("--shift", type=int, required=True)
    sp.add_argument("operands", nargs=1)
    sp = sub.add_parser("split")
    sp.add_argument("--p", type=int, required=True)
    _format(sp)
    sp.add_argument("operands", nargs=1)
    sp = sub.add_parser("count")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--level", type=int, required=True)
    _format(sp)


# -------------------------------------------------------------------- sums


def _run_sums(args, cap):
    from . import sumlab

    cmd = args.subcommand
    if cmd == "fubini":
        report = sumlab.fubini_check(textforms.parse_grid(args.operands[0]))
        obj = {
            "row_first": _value_text(report.row_first),
            "column_first": _value_text(report.column_first),
            "direct": _value_text(report.direct),
            "equal": report.equal,
        }
        pretty = (
            f"row-first {obj['row_first']}, column-first {obj['column_first']}, "
            f"direct {obj['direct']}, equal={report.equal}"
        )
        return _emit(args, pretty, obj)
    family = textforms.parse_family(args.operands[0])
    if cmd == "bfs":
        text = _value_text(sumlab.bfs_norm(family))
        return _emit(args, text, {"bfs": text})
    if cmd == "norms":
        report = sumlab.norms(family, textforms.parse_norm_exponent(args.r))
        obj = {
            "sup": _value_text(report.sup),
            "r": report.r if report.r == "inf" else int(report.r),
            "lr_power": _value_text(report.lr_power),
        }
        pretty = f"sup {obj['sup']}, ||f||_{report.r}^{report.r} = {obj['lr_power']}"
        if report.r == "inf":
            pretty = f"sup {obj['sup']}"
        return _emit(args, pretty, obj)
    if cmd == "partition":
        report = sumlab.partition_check(family, textforms.parse_blocks(args.blocks))
        obj = {
            "block_totals": [_value_text(v) for v in report.block_totals],
            "total_from_blocks": _value_text(report.total_from_blocks),
            "direct": _value_text(report.direct),
            "equal": report.equal,
        }
        pretty = (
            f"blocks {obj['block_totals']} -> {obj['total_from_blocks']}, "
            f"direct {obj['direct']}, equal={report.equal}"
        )
        return _emit(args, pretty, obj)
    raise ParseError(f"unknown sums subcommand {cmd!r}")


def _sums_commands(sub):
    for name in ("bfs", "fubini"):
        sp = sub.add_parser(name)
        _format(sp)
        sp.add_argument("operands", nargs=1)
    sp = sub.add_parser("norms")
    sp.add_argument("--r", default="1")
    _format(sp)
    sp.add_argument("operands", nargs=1)
    sp = sub.add_parser("partition")
    sp.add_argument("--blocks", required=True)
    _format(sp)
    sp.add_argument("operands", nargs=1)


# ------------------------------------------------------------------ parser

# group name: (help text, subcommand builder, runner)
_GROUPS = {
    "padic": ("p-adic arithmetic", _padic_commands, _run_padic),
    "series": ("formal power and Laurent series", _series_commands, _run_series),
    "analytic": ("p-adic polynomials on balls", _analytic_commands, _run_analytic),
    "hensel": ("ball root solving", _hensel_commands, _run_hensel),
    "plog": ("the p-adic logarithm", _plog_commands, _run_plog),
    "measure": ("clopen ball algebra and measure", _measure_commands, _run_measure),
    "sums": ("finite summation laboratory", _sums_commands, _run_sums),
}


def _build_parser(groups):
    """The top-level parser; it lists every group, and the groups named
    in ``groups`` get their subcommands."""
    parser = _Parser(prog="padicore", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, commands, _) in _GROUPS.items():
        group = top.add_parser(name, help=help_text)
        if name in groups:
            commands(group.add_subparsers(dest="subcommand", required=True))
    return parser


def main(argv=None):
    """Run one command; returns the exit code instead of exiting."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cap = _precision_cap()
        # argparse runs the group named by the first positional token, and
        # the top level has no option that takes a value: the first group
        # name in argv is the only group that can run
        named = next((token for token in argv if token in _GROUPS), None)
        args = _build_parser({named}).parse_args(argv)
        return _GROUPS[args.command][2](args, cap)
    except ParseError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse --help and friends
        code = e.code
        return 0 if code in (None, 0) else int(code)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
