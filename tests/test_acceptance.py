"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Every expected value is either checked against an
independent brute-force oracle inside the test or asserted as stated
arithmetic; time budgets are asserted where the criterion states one.
"""

import io
import time
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations

import pytest

from padicore import (
    DivergenceError,
    FiniteFamily,
    HenselProblem,
    Padic,
    PadicPolynomial,
    PrimeFieldCoefficients,
    QQ,
    ValuationGrowthRule,
    ball_image_check,
    bfs_norm,
    check_condition,
    fubini_check,
    log1p,
    lr_norm_le,
    partition_check,
    radius_of_convergence,
    residue_count,
    solve,
    sup_le_lr,
    teichmuller,
)
from padicore.cli import main as cli_main
from padicore.textforms import clopen_to_json
from helpers import (
    compose_by_monomials,
    enumerated_complement,
    enumerated_difference,
    enumerated_intersect,
    random_fp_series,
    random_padic,
    random_q_series,
    random_unit,
    rng_for,
    split_tree_leaves,
)

PRIMES = [2, 3, 5, 7]


def _report(number, text, started=None, budget=None):
    stamp = ""
    if started is not None:
        elapsed = time.perf_counter() - started
        stamp = f" [{elapsed:.2f}s]"
        if budget is not None:
            assert elapsed < budget, f"criterion {number} exceeded {budget}s"
    print(f"PASS criterion {number}: {text}{stamp}")


def _cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue().strip()


def test_criterion_01_hensel_sqrt2_in_z7():
    started = time.perf_counter()
    code, out = _cli(["hensel", "sqrt", "--p", "7", "--prec", "3", "2"])
    assert code == 0
    assert out == "3 + 1*7 + 2*7^2 + O(7^3)"
    # oracle: exhaustive search over all residues mod 343
    hits = [x for x in range(343) if x * x % 343 == 2 and x % 7 == 3]
    assert hits == [108]
    assert [108 % 7, 108 // 7 % 7, 108 // 49 % 7] == [3, 1, 2]
    _report(1, "sqrt(2) in Z_7 has digits [3, 1, 2]", started, budget=1.0)


def test_criterion_02_teichmuller_two_ways():
    started = time.perf_counter()
    # oracle: iterate x -> x^5 mod 125 until fixed
    x = 2
    while pow(x, 5, 125) != x:
        x = pow(x, 5, 125)
    assert x == 57
    via_power = teichmuller(Padic.from_int(2, 5, 3))
    assert via_power.residue(3) == 57
    f = PadicPolynomial(5, [-1, 0, 0, 0, 1], abs_prec=3)
    problem = HenselProblem(f, Padic.from_int(2, 5, 3), m=0, t_exp=1)
    via_hensel = solve(problem, Padic.zero(5, 3))
    assert via_hensel.residue(3) == 57
    _report(2, "Teichmuller lift of 2 in Z_5 is 57 both ways", started, budget=1.0)


def test_criterion_03_log_value():
    # oracle: partial sums with 2^-1 = 63 mod 125; the j = 3 term vanishes
    assert 2 * 63 % 125 == 1
    oracle = (5 - 5**2 * 63 + 0) % 125
    assert oracle == 55
    value = log1p(Padic.from_int(5, 5, 3))
    assert value.residue(3) == oracle
    _report(3, "log(1 + 5) in Q_5 is 55 mod 125")


def test_criterion_04_log_homomorphism():
    started = time.perf_counter()
    rng = rng_for("acc-log-hom")
    checked = 0
    for p in PRIMES:
        for _ in range(250):
            y = random_unit(rng, p, 24) * Padic.from_int(p, p, 25)
            z = random_unit(rng, p, 24) * Padic.from_int(p, p, 25)
            w = (1 + y) * (1 + z) - 1
            assert (log1p(w) - (log1p(y) + log1p(z))).is_zero
            checked += 1
    assert checked == 1000
    _report(4, "log homomorphism on 1000 random pairs", started, budget=30.0)


def test_criterion_05_log_isometry():
    started = time.perf_counter()
    rng = rng_for("acc-log-isometry")
    checked = 0
    for p in PRIMES:
        t = 2 if p == 2 else 1
        for _ in range(250):
            shift = rng.randrange(t, t + 4)
            x = random_unit(rng, p, 24) * Padic.from_int(p**shift, p, 24 + shift)
            assert log1p(x).valuation() == x.valuation()
            checked += 1
    assert checked == 1000
    # threshold failure at p = 2: log(-1) = log(1 + (-2)) = 0 despite v = 1
    minus_two = Padic.from_int(-2, 2, 24)
    assert minus_two.valuation() == 1
    assert log1p(minus_two).is_zero
    _report(5, "log isometry on 1000 random points plus the p=2 threshold", started)


def test_criterion_06_ultrametric_laws():
    started = time.perf_counter()
    rng = rng_for("acc-ultrametric")
    for p in PRIMES:
        for _ in range(10**4):
            x = random_padic(rng, p, 32, -4, 4)
            y = random_padic(rng, p, 32, -4, 4)
            s = x + y
            assert s.valuation_bound >= min(x.v, y.v)
            if x.v != y.v:
                assert s.valuation() == min(x.v, y.v)
            assert (x * y).valuation() == x.v + y.v
    _report(6, "ultrametric laws on 4 x 10^4 random pairs", started, budget=10.0)


def test_criterion_07_formal_rules():
    started = time.perf_counter()
    prec = 63
    fields = [
        ("fp2", PrimeFieldCoefficients(2)),
        ("fp3", PrimeFieldCoefficients(3)),
        ("fp5", PrimeFieldCoefficients(5)),
        ("q", QQ),
    ]
    rng = rng_for("acc-formal-rules")

    def sample(field, zero_constant=False):
        if field is QQ:
            return random_q_series(rng, prec, zero_constant)
        return random_fp_series(rng, field.p, prec, zero_constant)

    for _, field in fields:
        for _ in range(200):
            f = sample(field)
            g = sample(field)
            assert (f * g).derive() == f.derive() * g + f * g.derive()
            h = sample(field, zero_constant=True)
            lhs = f.compose(h).derive()
            rhs = f.derive().compose(h.truncate(prec - 1)) * h.derive()
            assert lhs == rhs
    # composition against the monomial-enumeration oracle up to degree 8
    for _, field in fields:
        for _ in range(5):
            small_f = (
                random_q_series(rng, 9)
                if field is QQ
                else random_fp_series(rng, field.p, 9)
            )
            small_g = (
                random_q_series(rng, 9, True)
                if field is QQ
                else random_fp_series(rng, field.p, 9, True)
            )
            assert small_f.compose(small_g) == compose_by_monomials(small_f, small_g)
    _report(
        7,
        "product and chain rules mod T^63, composition vs monomial oracle",
        started,
        budget=30.0,
    )


def test_criterion_08_ball_image_and_rigidity():
    started = time.perf_counter()
    f = PadicPolynomial(3, [0, 0, 1], abs_prec=12)
    x0 = Padic.from_int(1, 3, 12)
    report = ball_image_check(f, x0, 0, 1, 3)
    assert report.status == "verified" and report.equal
    # independent enumeration of the image set mod 27
    image = {x * x % 27 for x in range(1, 27, 3)}
    target = {y % 27 for y in range(1, 27, 3)}
    assert image == target
    # rigidity and scaled isometry on a thousand random in-ball pairs
    rng = rng_for("acc-rigidity")
    vfp = check_condition(f, x0, 0, 1).derivative_valuation
    fprime = f.derivative()
    step = Padic.from_int(3, 3, 13)
    for _ in range(10**3):
        x = x0 + random_unit(rng, 3, 12) * step
        y = x0 + random_unit(rng, 3, 12) * step
        assert fprime.evaluate(x).valuation() == vfp
        d = x - y
        if not d.is_zero:
            assert (f.evaluate(x) - f.evaluate(y)).valuation() == vfp + d.valuation()
    _report(8, "ball image mod 27 plus rigidity and scaled isometry", started)


def test_criterion_09_p_power_dichotomy():
    started = time.perf_counter()
    rng = rng_for("acc-dichotomy")
    for p in (3, 5, 7):
        for _ in range(10**3):
            x = random_unit(rng, p, 16)
            y = random_unit(rng, p, 16)
            d = x - y
            if d.is_zero:
                continue
            power_gap = (x**p - y**p).valuation()
            if d.valuation() >= 1:
                assert power_gap == d.valuation() + 1
            else:
                assert power_gap == 0
    _report(9, "p-power dichotomy on 10^3 unit pairs per odd prime", started)


def test_criterion_10_measure():
    started = time.perf_counter()
    from padicore import Ball, ClopenSet

    for p in (2, 3, 5):
        for j in range(7):
            assert residue_count(p, j) == split_tree_leaves(p, j) == p**j
    rng = rng_for("acc-measure")

    def random_clopen(p):
        n = rng.randrange(0, 6)
        balls = [
            Ball(p, lvl := rng.randrange(0, 5), rng.randrange(p**lvl))
            for _ in range(n)
        ]
        return ClopenSet(p, balls)

    checked = 0
    for p in (2, 3, 5, 7):
        assert ClopenSet.full(p).measure() == 1
        for j in range(5):
            assert ClopenSet(p, [Ball(p, j, 1 % p**j)]).measure() == Fraction(
                1, p**j
            )
        while checked < 125 * ((2, 3, 5, 7).index(p) + 1):
            a = random_clopen(p)
            other = random_clopen(p)
            # the ball algebra against refine-and-enumerate, byte for byte
            for got, want in (
                (a.intersect(other), enumerated_intersect(a, other)),
                (a.difference(other), enumerated_difference(a, other)),
                (other.difference(a), enumerated_difference(other, a)),
                (a.complement(), enumerated_complement(a)),
            ):
                assert clopen_to_json(got) == clopen_to_json(want)
            b = other.difference(a)
            assert a.union(b).measure() == a.measure() + b.measure()
            assert a.measure() + a.complement().measure() == 1
            shift = rng.randrange(-(p**4), p**4)
            assert a.translate(shift).measure() == a.measure()
            checked += 1
    assert checked == 500
    _report(10, "residue counts, Haar laws, enumeration oracle on 500 sets", started)


def test_criterion_11_summation():
    started = time.perf_counter()
    rng = rng_for("acc-summation")

    def oracle_bfs(fam):
        best = Fraction(0)
        for k in range(1, len(fam) + 1):
            for combo in combinations(range(len(fam)), k):
                total = fam.values[combo[0]]
                for i in combo[1:]:
                    total = total + fam.values[i]
                if isinstance(total, Padic):
                    size = (
                        Fraction(0)
                        if total.is_zero
                        else Fraction(total.p) ** (-total.valuation())
                    )
                else:
                    size = abs(total)
                best = max(best, size)
        return best

    for i in range(500):
        n = rng.randrange(1, 13)
        if i % 2 == 0:
            fam = FiniteFamily(
                range(n),
                [
                    Fraction(rng.randrange(-9, 10), rng.choice([1, 2, 3]))
                    for _ in range(n)
                ],
            )
            c = bfs_norm(fam)
            assert sum(abs(v) for v in fam.values) <= 2 * c
            if n <= 8:
                assert c == oracle_bfs(fam)
        else:
            p = rng.choice(PRIMES)
            fam = FiniteFamily(
                range(n), [random_padic(rng, p, 8, -2, 4) for _ in range(n)]
            )
            assert bfs_norm(fam) == fam.sup_norm()
        assert lr_norm_le(fam, 2, 1) and lr_norm_le(fam, 3, 2)
        assert sup_le_lr(fam, 1) and sup_le_lr(fam, 3)
    for _ in range(40):
        rows = [
            [Fraction(rng.randrange(-9, 10)) for _ in range(rng.randrange(1, 5))]
        ]
        width = len(rows[0])
        for _ in range(rng.randrange(1, 4)):
            rows.append([Fraction(rng.randrange(-9, 10)) for _ in range(width)])
        assert fubini_check(rows).equal
        flat = [v for row in rows for v in row]
        fam = FiniteFamily(range(len(flat)), flat)
        blocks, i = [], 0
        while i < len(flat):
            j = min(len(flat), i + rng.randrange(1, 4))
            blocks.append(list(range(i, j)))
            i = j
        assert partition_check(fam, blocks).equal
    _report(
        11,
        "BFS/sup, 2C bound, Fubini, partitions, l^r monotonicity",
        started,
        budget=20.0,
    )


def test_criterion_12_divergence_certificates():
    with pytest.raises(DivergenceError) as err:
        log1p(Padic.from_int(3, 5, 8))
    assert err.value.witness_index == 1
    assert err.value.witness_valuation <= 0
    report = radius_of_convergence(ValuationGrowthRule(0, 1, 0))
    assert report.rho_exponent == 0  # radius p^0 = 1
    assert not report.terms_vanish_on_boundary
    _report(12, "divergence witness for v(x)=0 and the log boundary rule")
