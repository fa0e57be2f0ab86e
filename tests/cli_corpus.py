"""A seeded corpus of CLI argument lists and a digest of what each prints.

``argvs()`` draws command lines for every subcommand of the seven groups,
in pretty and json format, from fixed seeds; adds the edge and repro argv
of ``test_cli.py`` in both formats; and adds many-ball ``measure`` cases.
``tests/cli_corpus.txt`` holds one line per argv, in order:

    <group> <subcommand> <sha256 of the argv, 12 hex> <exit code> <sha256 of stdout> <sha256 of stderr>

``test_cli_corpus.py`` runs every argv through ``cli.main`` in process and
compares.  The corpus holds only argv whose text padicore writes: no help,
and nothing that argparse itself rejects, since argparse words those
messages differently from one Python version to the next
(``test_cli_groups.py`` keeps them).  A change that alters an answer on
purpose rewrites the file and lists the changed rows:

    PYTHONPATH=src python tests/cli_corpus.py
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from padicore import cli

CORPUS = Path(__file__).with_name("cli_corpus.txt")
SEED = 2718
ROUNDS = 12

PRIMES = (2, 3, 5, 7, 11, 13)
FORMATS = ("pretty", "json")


def _rational(rng, p=None):
    """A nonnegative rational literal, sometimes divisible by p or zero."""
    a, b = rng.randint(0, 300), rng.randint(1, 40)
    if p is not None and rng.random() < 0.3:
        a *= p
    return f"{a}/{b}" if b != 1 else str(a)


def _padic_text(rng, p):
    digits = [rng.randrange(p) for _ in range(rng.randint(1, 4))]
    terms = [f"{d}*{p}^{e}" for e, d in enumerate(digits) if d]
    return " + ".join(terms + [f"O({p}^{len(digits) + rng.randint(0, 2)})"])


def _operand(rng, p):
    return _padic_text(rng, p) if rng.random() < 0.25 else _rational(rng, p)


def _base(rng, p=None):
    p = p or rng.choice(PRIMES)
    return p, ["--p", str(p), "--prec", str(rng.randint(1, 20))]


def _padic(rng, sub):
    p, base = _base(rng)
    count = 2 if sub in ("add", "sub", "mul", "div") else 1
    if rng.random() < 0.05:
        count = 3 - count  # the wrong number of operands
    level = ["--level", str(rng.randint(0, 8))] if sub == "reduce" else []
    return base + level + [_operand(rng, p) for _ in range(count)]


def _series_text(rng, n, field, low=0):
    terms = []
    for e in range(low, n):
        c = rng.randrange(field) if field else rng.choice(["0", "1", "2", "1/2", "3/7", "5"])
        if c not in (0, "0"):
            terms.append(str(c) if e == 0 else f"{c}*T^{e}")
    return " + ".join(terms + [f"O(T^{n})"])


def _series(rng, sub):
    p = rng.choice(PRIMES + (0,))
    field = ["--field", f"fp:{p}" if p else "q"]
    n = rng.randint(1, 8)
    count = 2 if sub in ("add", "sub", "mul", "compose") else 1
    ops = [_series_text(rng, n, p, rng.choice((-2, 0, 0, 0, 0))) for _ in range(count)]
    if sub == "compose" and rng.random() < 0.8:
        ops[1] = _series_text(rng, n, p, 1)  # no constant term
    extra = ["--order", str(rng.randint(0, n))] if rng.random() < 0.2 else []
    if sub == "norm":
        extra += ["--ratio", rng.choice(["1/2", "1/3", "2/3", "1", "0.25"])]
    return field + extra + ops


def _poly_text(rng):
    c = [rng.randint(0, 9) for _ in range(rng.randint(2, 4))]
    terms = [f"{k}*x^{e}" for e, k in enumerate(c) if k]
    return "+".join(terms) or "0"


def _analytic(rng, sub):
    p, base = _base(rng)
    base += ["--poly", _poly_text(rng)]
    if sub == "bounds":
        return base + ["--radius-exp", str(rng.randint(-3, 5))]
    extra = ["--ball-exp", str(rng.randint(0, 3))] if sub == "eval" and rng.random() < 0.3 else []
    return base + extra + [_operand(rng, p)]


def _hensel(rng, sub):
    p, base = _base(rng)
    n = 2 if sub == "sqrt" else rng.randint(1, 6)
    if sub in ("sqrt", "teichmuller", "nthroot"):
        a, b = rng.randint(1, 30), rng.randint(1, 30)
        if rng.random() < 0.8:  # mostly a unit n-th power
            a, b = (a * p + 1) ** n, (b * p + 1) ** n
        return base + (["--n", str(n)] if sub == "nthroot" else []) + [f"{a}/{b}"]
    c = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 5)]
    x0 = rng.randrange(p)
    # the leading term first: a poly that starts with "-" reads as an option
    poly = f"{c[-1]}*x^{len(c) - 1}" + "".join(f" {'-+'[k > 0]} {abs(k)}*x^{e}" for e, k in enumerate(c[:-1]) if k)
    base += ["--poly", poly, "--x0", str(x0)]
    if rng.random() < 0.2:
        base += ["--m", str(rng.randint(0, 2))]
    if sub == "solve":
        t = rng.randint(1, 3)
        r = x0 + p**t * rng.randrange(p**3)
        z = sum(k * r**e for e, k in enumerate(c))
        return base + ["--z", str(abs(z)), "--t", str(t)]
    base += ["--t", str(rng.randint(0, 3))]
    return base + (["--level", str(rng.randint(2, 4))] if sub == "image" else [])


def _plog(rng, sub):
    p, base = _base(rng)
    if sub == "poly":
        return base + ["--domain-val", str(rng.randint(1, 3))]
    x = str(p ** rng.randint(0, 3) * rng.randint(1, 50))
    if rng.random() < 0.3:
        return base + ["--x" if sub == "log" else "--z", x]
    return base + [x]


def _balls(rng, p, count, top):
    balls = []
    for _ in range(count):
        level = rng.randint(0 if rng.random() < 0.05 else 1, top)
        balls.append({"level": level, "center": rng.randrange(p ** (level + 1))})
    return json.dumps({"p": p, "balls": balls})


def _measure(rng, sub):
    p = rng.choice((2, 3, 5, 7))
    top = {2: 7, 3: 5, 5: 3, 7: 3}[p]
    if sub == "count":
        return ["--p", str(rng.choice(PRIMES)), "--level", str(rng.randint(0, 40))]
    if sub == "split":
        level = rng.randint(0, 6)
        return ["--p", str(p), json.dumps({"level": level, "center": rng.randrange(p ** (level + 2))})]
    count = 2 if sub in ("union", "intersect", "diff") else 1
    ops = [_balls(rng, p, rng.randint(0, 5), top) for _ in range(count)]
    shift = ["--shift", str(rng.randrange(p ** (top + 1)))] if sub == "translate" else []
    return shift + ops


def _family(rng, n, padic=False):
    if padic:
        p = rng.choice((3, 5, 7))
        values = [
            {"p": p, "valuation": rng.randint(-2, 2), "digits": [rng.randint(1, p - 1)], "abs_prec": 4}
            for _ in range(n)
        ]
        return {"mode": "padic", "values": values}
    return {"mode": "rational", "values": [f"{rng.randint(-30, 30)}/{rng.randint(1, 9)}" for _ in range(n)]}


def _sums(rng, sub):
    if sub == "fubini":
        rows = [[f"{rng.randint(-9, 9)}/{rng.randint(1, 5)}" for _ in range(3)] for _ in range(rng.randint(1, 3))]
        return [json.dumps({"mode": "rational", "rows": rows})]
    n = rng.randint(1, 7)
    family = json.dumps(_family(rng, n, padic=sub == "bfs" and rng.random() < 0.4))
    if sub == "norms":
        return ["--r", rng.choice(["1", "2", "3", "inf"]), family]
    if sub == "partition":
        cut = rng.randint(1, max(n - 1, 1))
        return ["--blocks", json.dumps([list(range(cut)), list(range(cut, n))]), family]
    return [family]


_DRAW = {
    "padic": _padic,
    "series": _series,
    "analytic": _analytic,
    "hensel": _hensel,
    "plog": _plog,
    "measure": _measure,
    "sums": _sums,
}


def _many_balls():
    """Many-ball measure commands: the complement of 100 level-2 balls at
    p = 251 (25,151 balls out) and 20,000 level-16 balls at p = 2 (in)."""
    rng = random.Random(SEED)
    holes = json.dumps(
        {"p": 251, "balls": [{"level": 2, "center": c + 251 * rng.randrange(251)} for c in range(100)]}
    )
    fine = json.dumps({"p": 2, "balls": [{"level": 16, "center": rng.getrandbits(16)} for _ in range(20000)]})
    return [
        ["measure", "complement", holes],
        ["measure", "measure", fine],
        ["measure", "union", fine, holes.replace('"p": 251', '"p": 2')],
        ["measure", "split", "--p", "100003", '{"level": 0, "center": 0}'],
    ]


def _repros():
    from test_cli import (
        DISCARDED_POWER_REPROS,
        EDGE_VALUE_CASES,
        MALFORMED_OPTION_AND_SHAPE_REPROS,
        UNBOUNDED_INPUT_REPROS,
    )

    listed = DISCARDED_POWER_REPROS + UNBOUNDED_INPUT_REPROS
    return MALFORMED_OPTION_AND_SHAPE_REPROS + EDGE_VALUE_CASES + [argv for argv, _, _ in listed]


def argvs():
    """Every corpus argv, in the order of the file; new rows go at the end."""
    out = []
    for i in range(ROUNDS):
        rng = random.Random(SEED + i)
        for group, (_, subcommands) in cli._GROUPS.items():
            for sub in subcommands:
                for fmt in FORMATS:
                    out.append([group, sub, *_DRAW[group](rng, sub), "--format", fmt])
    from test_cli import RATIONAL_OPERAND_REPROS

    for argv in _repros() + _many_balls() + RATIONAL_OPERAND_REPROS:
        out += [argv + ["--format", fmt] for fmt in FORMATS]
    return out


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def row(argv):
    """The corpus line of one argv, run through cli.main in process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    key = _sha(json.dumps(argv))[:12]
    return f"{argv[0]} {argv[1]} {key} {code} {_sha(out.getvalue())} {_sha(err.getvalue())}"


if __name__ == "__main__":
    rows = [row(argv) for argv in argvs()]
    CORPUS.write_text("".join(r + "\n" for r in rows))
    print(f"wrote {len(rows)} rows to {CORPUS}")
