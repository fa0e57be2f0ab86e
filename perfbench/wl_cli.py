"""Workload ``cli``: the batch front end, in process and as processes.

Every round runs ``cli.main`` in process on 26 small commands from all
seven command groups, each in pretty and in json format, plus six inputs
that must be rejected: three domain errors (exit 1: a quadratic
non-residue, a divergent logarithm, inverting zero) and three usage
errors (exit 2: precision above the cap, a malformed series, a missing
required flag).  Values, primes and sizes are seeded.

Why: the compute is tiny, so ``cli`` (argument parsing, which rebuilds
the parser on every call) and ``textforms`` dominate.  This is the bypass
workload for every compute-layer change.

Checks: the exit code; for exit 0 exactly one stdout line equal to the
pretty form, or parsing as JSON equal to the JSON form, of the value the
library computes from the same inputs by direct calls; for exit 1 and 2
an empty stdout and one stderr line.

The same cases, run as ``python -m padicore.cli`` processes, give the
``cli_process_ms`` metric of every workload.
"""

import functools
import io
import json
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import padicore.cli
from harness import OK, Call, Verdict, wrong
from padicore import analytic, hensel, measure, plog, series, sumlab
from padicore.padics import DEFAULT_PRECISION_CAP, Padic

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
_O_TERM = re.compile(r"O\(\d+\^(-?\d+)\)$")

POOL = 6


@dataclass
class CliCase:
    """One command line, its expected exit code and expected output.

    ``expect`` returns the (pretty line, JSON object) that a direct
    library call gives for the same inputs; None for a rejection.
    """

    op: str
    argv: list
    code: int
    fmt: str = "pretty"
    expect: Optional[Callable[[], tuple]] = None
    documented: Optional[int] = None


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = padicore.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_process(root, env, argv, timeout):
    """(exit code, stdout, stderr) and wall seconds of one CLI process."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "padicore.cli", *argv],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return (proc.returncode, proc.stdout, proc.stderr), time.perf_counter() - start


def check_case(case):
    def check(result):
        code, out, err = result
        if code != case.code:
            return wrong(f"exit code {code}, expected {case.code}: {err.strip()[:120]}")
        if code != 0:
            prefix = "usage error:" if code == 2 else "error:"
            if out or len(err.splitlines()) != 1 or not err.startswith(prefix):
                return wrong("a rejection must print one stderr line and no stdout")
            return OK
        lines = out.splitlines()
        if err or len(lines) != 1:
            return wrong("expected exactly one stdout line and no stderr")
        pretty, obj = case.expect()
        if case.fmt == "json":
            try:
                got = json.loads(lines[0])
            except ValueError:
                return wrong("stdout is not JSON")
            if got != obj:
                return wrong("JSON output differs from the direct library result")
            delivered = got.get("abs_prec") if isinstance(got, dict) else None
        else:
            if lines[0] != pretty:
                return wrong("pretty output differs from the direct library result")
            m = _O_TERM.search(lines[0])
            delivered = int(m.group(1)) if m else None
        return Verdict(True, delivered=delivered if case.documented is not None else None)

    return check


def to_call(case):
    argv = case.argv
    return Call(
        "cli." + case.op,
        lambda: run_in_process(argv),
        check_case(case),
        documented=case.documented,
    )


# ------------------------------------------------------------ value helpers


def unit(rng, p, N):
    """A random unit mod p**N."""
    while True:
        s = rng.randrange(1, p**N)
        if s % p:
            return s


def _rational(rng, p):
    """A small positive rational literal that is a p-adic unit.

    Positive, because argparse reads a leading minus sign as an option; a
    unit, so that it is never zero to the command's precision (dividing
    by such a value is a domain error).
    """
    a, b = rng.randint(1, 200), rng.randint(1, 40)
    while a % p == 0 or b % p == 0:
        a, b = rng.randint(1, 200), rng.randint(1, 40)
    return f"{a}/{b}" if b != 1 else str(a)


def _padic(text, p, N):
    return Padic.from_rational(Fraction(text), 1, p, N, cap=DEFAULT_PRECISION_CAP)


def _padic_out(x):
    return x.pretty(), x.to_json_dict()


def _case(op, argv, fmt, compute, documented=None):
    return CliCase(
        op, argv + ["--format", fmt], 0, fmt, functools.cache(compute), documented
    )


# ------------------------------------------------------------ command lines


def padic_case(rng, op, fmt):
    p = rng.choice(SMALL_PRIMES)
    N = rng.randint(4, 24)
    ops = [_rational(rng, p) for _ in range(1 if op == "invert" else 2)]
    compute = {
        "add": lambda a, b: a + b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: a / b,
        "invert": lambda a: a.invert(),
    }[op]
    return _case(
        "padic." + op,
        ["padic", op, "--p", str(p), "--prec", str(N), *ops],
        fmt,
        lambda: _padic_out(compute(*[_padic(t, p, N) for t in ops])),
    )


def _series_text(coeffs, n):
    terms = []
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        terms.append(str(c) if e == 0 else f"{c}*T" if e == 1 else f"{c}*T^{e}")
    return " + ".join(terms + [f"O(T^{n})"])


def _series_json(s):
    def coeff(c):
        return c if s.field.kind == "fp" else str(c)

    field = {"Fp": s.field.p} if s.field.kind == "fp" else "QQ"
    if isinstance(s, series.LaurentSeries):
        unit = s.unit
        return {
            "field": field,
            "order_prec": unit.prec,
            "coeffs": [coeff(c) for c in unit.coeffs],
            "tail_valuation": s.tail,
        }
    return {"field": field, "order_prec": s.prec, "coeffs": [coeff(c) for c in s.coeffs]}


def series_case(rng, op, field_text, n, fmt):
    if field_text == "q":
        field = series.QQ
        draw = lambda: Fraction(rng.randint(0, 9), rng.randint(1, 9))  # see _rational
    else:
        field = series.PrimeFieldCoefficients(int(field_text.split(":")[1]))
        draw = lambda: rng.randrange(field.p)
    operands = []
    for k in range(1 if op in ("invert", "derive") else 2):
        coeffs = [draw() for _ in range(n)]
        if op == "compose" and k == 1:
            coeffs[0] = field.zero
        if op == "invert":
            coeffs[0] = field.coerce(1 + rng.randrange(min(getattr(field, "p", 10), 10) - 1))
        operands.append(coeffs)

    def compute():
        a, *rest = [series.PowerSeries(field, c, n) for c in operands]
        if op == "mul":
            out = a * rest[0]
        elif op == "compose":
            out = a.compose(rest[0])
        elif op == "derive":
            out = a.derive()
        else:
            out = series.LaurentSeries.from_power_series(a).invert()
        return out.pretty(), _series_json(out)

    texts = [_series_text(c, n) for c in operands]
    return _case(
        f"series.{op}", ["series", op, "--field", field_text, *texts], fmt, compute
    )


def _cubic(rng, p):
    """Coefficients c0..c3 >= 1 and a center x0 with f'(x0) a unit mod p."""
    while True:
        c = [rng.randint(1, 9) for _ in range(4)]
        x0 = rng.randrange(p)
        if (3 * c[3] * x0 * x0 + 2 * c[2] * x0 + c[1]) % p:
            return c, x0


def _poly_text(c):
    return f"{c[3]}*x^3 + {c[2]}*x^2 + {c[1]}*x + {c[0]}"


def analytic_case(rng, op, fmt):
    p = rng.choice(SMALL_PRIMES)
    N = rng.randint(4, 16)
    c, _ = _cubic(rng, p)
    x = _rational(rng, p)

    def compute():
        poly = analytic.PadicPolynomial(p, [Fraction(v) for v in c], abs_prec=N)
        if op == "eval":
            return _padic_out(poly.evaluate(_padic(x, p, N)))
        out = poly.recenter(_padic(x, p, N))
        pretty = "[" + ", ".join(k.pretty() for k in out.coeffs) + "]"
        return pretty, {"p": p, "coeffs": [k.to_json_dict() for k in out.coeffs]}

    argv = ["analytic", op, "--p", str(p), "--prec", str(N), "--poly", _poly_text(c), x]
    return _case("analytic." + op, argv, fmt, compute)


def hensel_case(rng, op, fmt, p=None):
    N = rng.randint(4, 24)
    if op == "solve":
        p = p or rng.choice(SMALL_PRIMES)
        c, x0 = _cubic(rng, p)
        r = x0 + p * rng.randrange(p**3)
        z = sum(k * r**j for j, k in enumerate(c))

        def compute():
            poly = analytic.PadicPolynomial(p, [Fraction(v) for v in c], abs_prec=N)
            problem = hensel.HenselProblem(poly, _padic(str(x0), p, N), m=0, t_exp=1)
            return _padic_out(hensel.solve(problem, _padic(str(z), p, N)))

        argv = ["hensel", "solve", "--p", str(p), "--prec", str(N), "--poly", _poly_text(c)]
        argv += ["--x0", str(x0), "--z", str(z), "--t", "1"]
        return _case("hensel.solve", argv, fmt, compute, N)
    if op == "nthroot":
        p = p or rng.choice((5, 7, 11, 13))
        u = pow(unit(rng, p, N), 3, p**N)
        compute = lambda: _padic_out(hensel.nth_root(_padic(str(u), p, N), 3))
        argv = ["hensel", "nthroot", "--p", str(p), "--prec", str(N), "--n", "3", str(u)]
        return _case("hensel.nthroot", argv, fmt, compute, N)
    p = p or rng.choice(SMALL_PRIMES[1:])
    s = unit(rng, p, N)
    if op == "sqrt":
        u = s * s % p**N
        compute = lambda: _padic_out(hensel.sqrt(_padic(str(u), p, N)))
        documented = N - 1 if p == 2 else N
    else:
        u = s
        compute = lambda: _padic_out(hensel.teichmuller(_padic(str(u), p, N)))
        documented = N
    argv = ["hensel", op, "--p", str(p), "--prec", str(N), str(u)]
    return _case(f"hensel.{op}" + (".p2" if p == 2 else ""), argv, fmt, compute, documented)


def plog_case(rng, op, fmt, p=None):
    p = p or rng.choice(SMALL_PRIMES)
    if op == "poly":
        N = rng.randint(4, 10)
        argv = ["plog", "poly", "--p", str(p), "--prec", str(N)]

        def compute():
            poly = plog.log_series_polynomial(p, N, 1)
            pretty = "[" + ", ".join(k.pretty() for k in poly.coeffs) + "]"
            return pretty, {"p": p, "coeffs": [k.to_json_dict() for k in poly.coeffs]}

        return _case("plog.poly", argv, fmt, compute)
    N = rng.randint(4, 24)
    shift = 2 if (op == "invert" and p == 2) else 1
    value = p**shift * rng.randrange(1, p ** (N - shift))
    fn = plog.log1p if op == "log" else plog.log_inverse
    argv = ["plog", op, "--p", str(p), "--prec", str(N), str(value)]
    return _case("plog." + op, argv, fmt, lambda: _padic_out(fn(_padic(str(value), p, N))), N)


def _clopen_json(rng, p, level):
    balls = [
        {"level": lvl, "center": rng.randrange(p**lvl)}
        for lvl in [rng.randint(1, level) for _ in range(rng.randint(1, 3))]
    ]
    return {"p": p, "balls": balls}


def measure_case(rng, op, fmt, p=None, level=None):
    p = p or rng.choice((2, 3, 5))
    level = level or rng.randint(2, {2: 6, 3: 4, 5: 3}[p])
    sets = [_clopen_json(rng, p, level) for _ in range(2 if op in ("union", "intersect", "diff") else 1)]
    shift = rng.randrange(p**level)
    argv = ["measure", op] + (["--shift", str(shift)] if op == "translate" else [])
    argv += [json.dumps(s) for s in sets]

    def compute():
        a, *rest = [measure.ClopenSet.from_json_dict(s) for s in sets]
        if op == "measure":
            m = a.measure()
            return str(m), {"measure": str(m)}
        out = {
            "complement": lambda: a.complement(),
            "translate": lambda: a.translate(shift),
            "union": lambda: a.union(rest[0]),
            "intersect": lambda: a.intersect(rest[0]),
            "diff": lambda: a.difference(rest[0]),
        }[op]()
        return json.dumps(out.to_json_dict(), sort_keys=True), out.to_json_dict()

    return _case("measure." + op, argv, fmt, compute)


def bfs_case(rng, fmt, n=None):
    n = n or rng.randint(5, 8)
    values = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(n)]
    family = {"mode": "rational", "values": [str(v) for v in values]}

    def compute():
        value = sumlab.bfs_norm(sumlab.FiniteFamily(range(n), values))
        return str(value), {"bfs": str(value)}

    return _case("sums.bfs", ["sums", "bfs", json.dumps(family)], fmt, compute)


def rejections(rng):
    """Inputs the CLI must refuse: three domain errors, three usage errors."""
    p = rng.choice((7, 11, 13))
    nonresidue = next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)
    divergent = unit(rng, p, 1)
    return [
        CliCase("reject.nonresidue", ["hensel", "sqrt", "--p", str(p), "--prec", "8", str(nonresidue)], 1),
        CliCase("reject.divergent", ["plog", "log", "--p", str(p), "--prec", "8", str(divergent)], 1),
        CliCase("reject.zero", ["padic", "invert", "--p", str(p), "--prec", "8", "0"], 1),
        CliCase(
            "reject.cap",
            ["padic", "add", "--p", str(p), "--prec", str(DEFAULT_PRECISION_CAP + 1), "1", "2"],
            2,
        ),
        CliCase("reject.malformed", ["series", "mul", "--field", f"fp:{p}", "1 + T + O(X^3", "T + O(T^3)"], 2),
        CliCase("reject.missing_flag", ["hensel", "nthroot", "--p", str(p), "--prec", "8", "1"], 2),
    ]


def make_round(rng, index):
    cases = []
    for fmt in ("pretty", "json"):
        cases += [padic_case(rng, op, fmt) for op in ("add", "mul", "div", "invert")]
        cases += [
            series_case(rng, "mul", f"fp:{rng.choice(SMALL_PRIMES)}", rng.randint(4, 12), fmt),
            series_case(rng, "compose", f"fp:{rng.choice(SMALL_PRIMES)}", rng.randint(4, 12), fmt),
            series_case(rng, "invert", f"fp:{rng.choice(SMALL_PRIMES)}", rng.randint(4, 12), fmt),
            series_case(rng, "derive", "q", rng.randint(4, 12), fmt),
            series_case(rng, "mul", "q", rng.randint(4, 12), fmt),
        ]
        cases += [analytic_case(rng, op, fmt) for op in ("eval", "recenter")]
        cases += [hensel_case(rng, op, fmt) for op in ("sqrt", "nthroot", "teichmuller", "solve")]
        cases.append(hensel_case(rng, "sqrt", fmt, p=2))
        cases += [plog_case(rng, op, fmt) for op in ("log", "invert", "poly")]
        cases += [
            measure_case(rng, op, fmt)
            for op in ("complement", "union", "intersect", "diff", "measure", "translate")
        ]
        cases.append(bfs_case(rng, fmt))
    cases += rejections(rng)
    calls = [to_call(c) for c in cases]
    rng.shuffle(calls)
    return calls


def process_cases(rng):
    """A cross-section of the mix for the process timing."""
    return [
        padic_case(rng, "add", "pretty"),
        series_case(rng, "derive", "q", 8, "json"),
        measure_case(rng, "measure", "pretty"),
    ]
