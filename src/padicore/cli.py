"""Batch command-line front end.

One invocation, one result, deterministic output.  Exit codes: 0 on
success, 1 for domain errors (non-residue square roots, divergent
logarithms, mismatched primes, ...), 2 for parse and usage errors, and
141 from the console script, silently, when stdout's reader closed the
pipe before the output was written.
``--prec`` always means absolute precision in digits, to which a
rational operand is read; ``--order`` means T-adic order for series.
PADICORE_PREC_CAP sets the largest ``--prec`` (default 64).
"""

import argparse
import functools
import json
import math
import operator
import os
import sys
from fractions import Fraction

from . import textforms
from .errors import DomainError, ParseError
from .intmath import int_prints, str_digit_limit
from .padics import DEFAULT_PRECISION_CAP

# Each group has one _<group>_arguments(parser, subcommand), which adds the
# arguments of one of its subcommands, beside its _run_<group>, which imports
# the group's modules.  A command builds the parser of its own subcommand
# alone, so that one call builds one parser and loads only its group; that
# parser has no help and never renders text.  The parser of every group
# answers the rest: help and usage errors at the top and group levels, and
# help asked for within a subcommand.


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


def _check_prints(*numbers):
    """An answer with a rational or int whose numerator or denominator has
    more digits than str() prints is a DomainError."""
    for q in numbers:
        if not (int_prints(q.numerator) and int_prints(q.denominator)):
            raise DomainError(f"the answer has more than {str_digit_limit()} digits")


def _check_exponents(x):
    """A Padic answer prints exponents from its valuation to its precision."""
    _check_prints(x.v, x.abs_prec)


def _field(v):
    """A report field as a JSON value: a rational's checked text, a checked
    int, a Padic's checked pretty form, "inf" for infinity, a list for a
    tuple; any other value as it is."""
    if isinstance(v, Fraction):
        _check_prints(v)
        return str(v)
    if isinstance(v, int):
        _check_prints(v)
        return v
    if isinstance(v, tuple):
        return [_field(x) for x in v]
    if v is math.inf:
        return "inf"
    if hasattr(v, "pretty"):
        _check_exponents(v)
        return v.pretty()
    return v


# The textforms serializer of each value answer, by class name: a command
# loads only its own group's modules, so the classes are not imported here.
_TO_JSON = {
    "Padic": "padic_to_json",
    "PowerSeries": "series_to_json",
    "LaurentSeries": "series_to_json",
    "PadicPolynomial": "polynomial_to_json",
    "ClopenSet": "clopen_to_json",
}


def _emit(args, answer, pretty=None, to_json=None):
    """Print one answer, rendered once, in the format asked for.

    With no pretty, the answer is a value (a Padic, series, polynomial or
    clopen set): it prints its canonical textforms JSON, or its pretty()
    form; a clopen set's pretty form is its JSON.  Otherwise the answer is
    a report namedtuple or a dict of fields, each encoded by _field, or a
    list of JSON values; it prints as JSON, or as pretty(fields).  A
    to_json renderer writes the JSON text in place of json.dumps.
    """
    if pretty is None:
        name = type(answer).__name__
        if name in ("Padic", "PadicPolynomial"):
            for x in getattr(answer, "coeffs", (answer,)):
                _check_exponents(x)
        if args.format == "json" or name == "ClopenSet":
            text = getattr(textforms, _TO_JSON[name])(answer)
        else:
            text = answer.pretty()
    else:
        fields = answer._asdict() if hasattr(answer, "_asdict") else answer
        if isinstance(fields, dict):
            fields = {name: _field(v) for name, v in fields.items()}
        if args.format != "json":
            text = pretty(fields)
        else:
            text = to_json(fields) if to_json else json.dumps(fields, sort_keys=True)
    print(text)
    return 0


def _format(sp):
    sp.add_argument("--format", choices=("pretty", "json"), default="pretty")


def _common(sp):
    sp.add_argument("--p", type=int, help="prime of the ambient field")
    sp.add_argument("--prec", type=int, help="absolute precision in digits")
    _format(sp)


def _poly(sp):
    _common(sp)
    sp.add_argument("--poly", required=True)


# the binary operations of padic and series
_ARITHMETIC = dict(add=operator.add, sub=operator.sub, mul=operator.mul, div=operator.truediv)


# ------------------------------------------------------------------- padic


def _run_padic(args, cap):
    p = args.p
    prec = _check_prec(args.prec, cap)
    ops = [textforms.parse_padic(t, p, prec, cap) for t in args.operands]
    cmd = args.subcommand
    if cmd in ("add", "sub", "mul", "div"):
        if len(ops) != 2:
            raise ParseError(f"padic {cmd} takes exactly two operands")
        return _emit(args, _ARITHMETIC[cmd](*ops))
    if len(ops) != 1:
        raise ParseError(f"padic {cmd} takes exactly one operand")
    x = ops[0]
    if cmd == "invert":
        return _emit(args, x.invert())
    if cmd == "valuation":
        if x.is_zero:
            return _emit(args, {"at_least": x.abs_prec}, ">= {at_least}".format_map)
        return _emit(args, {"valuation": x.valuation()}, "{valuation}".format_map)
    if cmd == "digits":
        return _emit(
            args,
            {
                "digits": x.digits(),
                "valuation": None if x.is_zero else x.v,
                "abs_prec": x.abs_prec,
            },
            lambda f: f"digits {f['digits']} from exponent {x.valuation_bound}, "
            f"known mod {x.p}^{x.abs_prec}",
        )
    r = x.residue(args.level)  # reduce
    fields = {"p": r.p, "level": r.level, "value": r.value}
    return _emit(args, fields, "{value} mod {p}^{level}".format_map)


def _padic_arguments(parser, sub):
    _common(parser)
    if sub == "reduce":
        parser.add_argument("--level", type=int, required=True)
    parser.add_argument("operands", nargs="+")


# ------------------------------------------------------------------ series


def _series_operand(text, field, order):
    from .series import PowerSeries

    s = textforms.parse_series(text, field)
    if order is not None:
        if isinstance(s, PowerSeries):
            s = s.truncate(min(order, s.prec))
        else:
            s = s._truncated(min(order, s.prec_exponent))
    return s


def _run_series(args, cap):
    from .series import LaurentSeries, PowerSeries

    cmd = args.subcommand
    field = textforms.parse_field(args.field) if args.field else None
    ops = [_series_operand(t, field, args.order) for t in args.operands]
    if cmd in ("add", "sub", "mul", "compose"):
        if len(ops) != 2:
            raise ParseError(f"series {cmd} takes exactly two operands")
        a, b = ops
        if cmd == "compose":
            if not isinstance(a, PowerSeries) or not isinstance(b, PowerSeries):
                raise DomainError("composition is defined for power series")
            out = a.compose(b)
        else:
            if isinstance(a, LaurentSeries) or isinstance(b, LaurentSeries):
                if isinstance(a, PowerSeries):
                    a = LaurentSeries.from_power_series(a)
                if isinstance(b, PowerSeries):
                    b = LaurentSeries.from_power_series(b)
            out = _ARITHMETIC[cmd](a, b)
    else:
        if len(ops) != 1:
            raise ParseError(f"series {cmd} takes exactly one operand")
        s = ops[0]
        if cmd == "order":
            n = s.order()
            if n is None:
                bound = s.prec if isinstance(s, PowerSeries) else s.order_bound
                return _emit(args, {"at_least": bound}, ">= {at_least}".format_map)
            return _emit(args, {"order": n}, "{order}".format_map)
        if cmd == "norm":
            r = textforms.parse_ratio(args.ratio)
            value = s.norm(r)
            pretty = "0" if value.is_zero else "({r})^{exponent}"
            return _emit(args, {"r": r, "exponent": value.exponent}, pretty.format_map)
        if cmd == "derive":
            if not isinstance(s, PowerSeries):
                raise DomainError("derivative is provided for power series")
            out = s.derive()
        else:  # invert
            if isinstance(s, PowerSeries):
                s = LaurentSeries.from_power_series(s)
            out = s.invert()
    unit = getattr(out, "unit", out)  # a LaurentSeries is T**tail * unit
    for c in unit.coeffs if unit is not None else ():
        _check_prints(c)
    return _emit(args, out)


def _series_arguments(parser, sub):
    parser.add_argument("--field", help="coefficient field, e.g. fp:3 or q")
    parser.add_argument("--order", type=int, help="truncate operands to this order")
    if sub == "norm":
        parser.add_argument("--ratio", default="1/2", help="the ratio r in (0,1)")
    _format(parser)
    parser.add_argument("operands", nargs="+")


# ---------------------------------------------------------------- analytic


def _run_analytic(args, cap):
    from . import analytic

    p = args.p
    prec = _check_prec(args.prec, cap)
    poly = textforms.parse_polynomial(args.poly, p, prec)
    cmd = args.subcommand
    if cmd == "eval":
        x = textforms.parse_padic(args.operands[0], p, prec, cap)
        return _emit(args, poly.evaluate(x, min_valuation=args.ball_exp))
    if cmd == "recenter":
        x0 = textforms.parse_padic(args.operands[0], p, prec, cap)
        return _emit(args, poly.recenter(x0))
    m = args.radius_exp  # bounds
    return _emit(
        args,
        {
            "lipschitz": analytic.lipschitz_bound(poly, m),
            "second_order": analytic.quadratic_bound(poly, m),
            "radius_exp": m,
        },
        "lipschitz valuation {lipschitz}, second-order valuation {second_order}".format_map,
    )


def _analytic_arguments(parser, sub):
    _poly(parser)
    if sub == "eval":
        parser.add_argument("--ball-exp", type=int, default=None)
    if sub == "bounds":
        parser.add_argument("--radius-exp", type=int, default=0)
    else:
        parser.add_argument("operands", nargs=1)


# ------------------------------------------------------------------ hensel


def _run_hensel(args, cap):
    from . import hensel

    p = args.p
    prec = _check_prec(args.prec, cap)
    cmd = args.subcommand
    if cmd == "sqrt":
        u = textforms.parse_padic(args.operands[0], p, prec, cap)
        return _emit(args, hensel.sqrt(u))
    if cmd == "nthroot":
        u = textforms.parse_padic(args.operands[0], p, prec, cap)
        # nth_root builds x^n - u densely, so n is a polynomial degree
        if args.n > textforms.MAX_TERMS:
            raise ParseError(f"root degree {args.n} exceeds the limit of {textforms.MAX_TERMS}")
        return _emit(args, hensel.nth_root(u, args.n))
    if cmd == "teichmuller":
        u = textforms.parse_padic(args.operands[0], p, prec, cap)
        return _emit(args, hensel.teichmuller(u))
    poly = textforms.parse_polynomial(args.poly, p, prec)
    x0 = textforms.parse_padic(args.x0, p, prec, cap)
    if cmd == "check":
        verdict = ("fails", "ok")
        return _emit(
            args,
            hensel.check_condition(poly, x0, args.m, args.t),
            lambda f: f"strict={verdict[f['ok']]} nonstrict={verdict[f['ok_nonstrict']]} "
            f"v(f'(x0))={f['derivative_valuation']} mu2={f['mu2']} gap={f['gap']}",
        )
    if cmd == "solve":
        z = textforms.parse_padic(args.z, p, prec, cap)
        problem = hensel.HenselProblem(poly, x0, m=args.m, t_exp=args.t)
        return _emit(args, hensel.solve(problem, z))
    return _emit(  # image
        args,
        hensel.ball_image_check(poly, x0, args.m, args.t, args.level),
        "{status}: image==target is {equal} "
        "(level {level}, {source_size} source residues)".format_map,
    )


def _hensel_arguments(parser, sub):
    if sub in ("sqrt", "teichmuller", "nthroot"):
        _common(parser)
        if sub == "nthroot":
            parser.add_argument("--n", type=int, required=True)
        parser.add_argument("operands", nargs=1)
        return
    _poly(parser)  # solve, check, image
    parser.add_argument("--x0", required=True)
    if sub == "solve":
        parser.add_argument("--z", default="0")
    parser.add_argument("--m", type=int, default=0)
    if sub == "solve":
        parser.add_argument("--t", type=int, default=None)
    else:
        parser.add_argument("--t", type=int, required=True)
    if sub == "image":
        parser.add_argument("--level", type=int, required=True)


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
        return _emit(args, plog.log1p(x) if cmd == "log" else plog.log_inverse(x))
    return _emit(args, plog.log_series_polynomial(p, prec, args.domain_val))  # poly


def _plog_arguments(parser, sub):
    _common(parser)
    if sub == "poly":
        parser.add_argument("--domain-val", type=int, default=1)
        return
    if sub == "log":
        parser.add_argument("--x", dest="x_flag", default=None)
    else:
        parser.add_argument("--z", dest="z_flag", default=None)
    parser.add_argument("operands", nargs="*")


# ----------------------------------------------------------------- measure


def _run_measure(args, cap):
    from . import measure

    cmd = args.subcommand
    if cmd == "count":
        textforms.check_ball_level(args.p, args.level)
        n = measure.residue_count(args.p, args.level)
        return _emit(args, {"count": n}, "{count}".format_map)
    if cmd == "split":
        ball = textforms.parse_ball(args.operands[0], args.p)
        level, step = ball.level + 1, args.p**ball.level
        mod = f" mod {args.p}^{level}"
        return _emit(
            args,
            range(ball.center, args.p * step, step),  # the centers of the p sub-balls
            lambda centers: (mod + ", ").join(map(str, centers)) + mod,
            lambda centers: f"[{textforms.balls_json_items(level, centers)}]",
        )
    sets = [textforms.parse_clopen(t) for t in args.operands]
    if cmd == "measure":
        return _emit(args, {"measure": sets[0].measure()}, "{measure}".format_map)
    if cmd == "complement":
        out = sets[0].complement()
    elif cmd == "translate":
        out = sets[0].translate(args.shift)
    else:
        a, b = sets
        out = {"union": a.union, "intersect": a.intersect, "diff": a.difference}[cmd](b)
    return _emit(args, out)


def _measure_arguments(parser, sub):
    if sub in ("split", "count"):
        parser.add_argument("--p", type=int, required=True)
    if sub == "count":
        parser.add_argument("--level", type=int, required=True)
    _format(parser)
    if sub == "translate":
        parser.add_argument("--shift", type=int, required=True)
    if sub in ("union", "intersect", "diff"):
        parser.add_argument("operands", nargs=2)
    elif sub != "count":
        parser.add_argument("operands", nargs=1)


# -------------------------------------------------------------------- sums


def _run_sums(args, cap):
    from . import sumlab

    cmd = args.subcommand
    if cmd == "fubini":
        return _emit(
            args,
            sumlab.fubini_check(textforms.parse_grid(args.operands[0])),
            "row-first {row_first}, column-first {column_first}, "
            "direct {direct}, equal={equal}".format_map,
        )
    family = textforms.parse_family(args.operands[0])
    if cmd == "bfs":
        return _emit(args, {"bfs": sumlab.bfs_norm(family)}, "{bfs}".format_map)
    if cmd == "norms":
        report = sumlab.norms(family, textforms.parse_norm_exponent(args.r))
        pretty = "sup {sup}" if report.r == "inf" else "sup {sup}, ||f||_{r}^{r} = {lr_power}"
        return _emit(args, report, pretty.format_map)
    return _emit(  # partition
        args,
        sumlab.partition_check(family, textforms.parse_blocks(args.blocks)),
        "blocks {block_totals} -> {total_from_blocks}, direct {direct}, equal={equal}".format_map,
    )


def _sums_arguments(parser, sub):
    if sub == "norms":
        parser.add_argument("--r", default="1")
    if sub == "partition":
        parser.add_argument("--blocks", required=True)
    _format(parser)
    parser.add_argument("operands", nargs=1)


# ------------------------------------------------------------------ parser

# group name: (help text, subcommand names, arguments, runner); help lists
# the groups and their subcommands in this order
_GROUPS = {
    "padic": (
        "p-adic arithmetic",
        ("add", "sub", "mul", "div", "invert", "valuation", "digits", "reduce"),
        _padic_arguments,
        _run_padic,
    ),
    "series": (
        "formal power and Laurent series",
        ("add", "sub", "mul", "compose", "derive", "invert", "order", "norm"),
        _series_arguments,
        _run_series,
    ),
    "analytic": (
        "p-adic polynomials on balls",
        ("eval", "recenter", "bounds"),
        _analytic_arguments,
        _run_analytic,
    ),
    "hensel": (
        "ball root solving",
        ("sqrt", "teichmuller", "nthroot", "solve", "check", "image"),
        _hensel_arguments,
        _run_hensel,
    ),
    "plog": ("the p-adic logarithm", ("log", "invert", "poly"), _plog_arguments, _run_plog),
    "measure": (
        "clopen ball algebra and measure",
        ("measure", "complement", "union", "intersect", "diff", "translate", "split", "count"),
        _measure_arguments,
        _run_measure,
    ),
    "sums": (
        "finite summation laboratory",
        ("bfs", "fubini", "norms", "partition"),
        _sums_arguments,
        _run_sums,
    ),
}


# argparse builds a formatter for each argument it adds, to check the
# metavar; with a width given, it does not ask the terminal for one
_FixedWidthFormatter = functools.partial(argparse.HelpFormatter, width=78)


def _build_parser():
    """The top-level parser, with every group and subcommand."""
    parser = _Parser(prog="padicore", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, subcommands, arguments, _) in _GROUPS.items():
        group = top.add_parser(name, help=help_text)
        subs = group.add_subparsers(dest="subcommand", required=True)
        for sub in subcommands:
            arguments(subs.add_parser(sub), sub)
    return parser


def _asks_help(tokens):
    """Whether argparse, given -h/--help, could read one of tokens as that
    option or name it in an error: -h alone or joined to more, or a long
    option whose name before any "=" is a prefix of --help, as in --he,
    --help=1 or --=x (ambiguous among every option, --help too).  argparse
    reads every token after the first "--" as an operand."""
    for token in tokens:
        if token == "--":
            return False
        if token.startswith("-h") or (
            token.startswith("--") and "--help".startswith(token.partition("=")[0])
        ):
            return True
    return False


def _parse(argv):
    """argv parsed by its subcommand's parser alone when it starts with a
    group and one of that group's subcommands and asks for no help, and by
    the parser of every group otherwise.  argparse hands a subcommand every
    token after its name, so the two parse such an argv alike.  The
    subcommand's parser reports errors without usage text, so it is built
    without -h/--help and at a fixed width, asking neither gettext nor the
    terminal for text it would never print.
    """
    if (
        len(argv) < 2
        or argv[0] not in _GROUPS
        or argv[1] not in _GROUPS[argv[0]][1]
        or _asks_help(argv[2:])
    ):
        return _build_parser().parse_args(argv)
    parser = _Parser(
        prog=f"padicore {argv[0]} {argv[1]}", add_help=False, formatter_class=_FixedWidthFormatter
    )
    _GROUPS[argv[0]][2](parser, argv[1])
    args = parser.parse_args(argv[2:])
    args.command, args.subcommand = argv[0], argv[1]
    return args


def main(argv=None):
    """Run one command; returns the exit code instead of exiting."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cap = _precision_cap()
        args = _parse(argv)
        return _GROUPS[args.command][3](args, cap)
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
    """The console script: exit with main's code, or 141 when stdout's reader has gone.

    141 is 128 + SIGPIPE, what a shell reports for a process that SIGPIPE
    ended.  Python ignores SIGPIPE, so a write to a closed pipe raises
    BrokenPipeError instead: from ``print`` when stdout is unbuffered,
    from the flush here otherwise.  Stdout then points at os.devnull, so
    that the interpreter's own flush at exit has nowhere to fail.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
