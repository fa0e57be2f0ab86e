"""Polynomials on balls: evaluation, recentering, quantitative bounds."""

import math
from fractions import Fraction

import pytest

from padicore import (
    DomainError,
    Padic,
    PadicPolynomial,
    ValuationGrowthRule,
    lipschitz_bound,
    quadratic_bound,
    radius_of_convergence,
)
from padicore.errors import UnsupportedRuleError
from helpers import horner_evaluate, horner_recenter, parts, random_padic, random_unit, rng_for


def _poly(p, coeffs, prec=12):
    return PadicPolynomial(p, coeffs, abs_prec=prec)


# ----------------------------------------------------------------- examples


def test_eval_examples():
    f = _poly(7, [1, 0, 1])
    assert f.evaluate(Padic.from_int(3, 7, 6)).residue(2).value == 10
    c = _poly(5, [9])
    assert c.evaluate(Padic.from_int(123, 5, 6)).residue(3).value == 9
    g = _poly(5, [0, 0, 1])
    x = Padic.from_int(10, 5, 6)
    assert g.evaluate(x).valuation() == 2


def test_eval_outside_ball_rejected():
    f = _poly(5, [0, 1])
    with pytest.raises(DomainError):
        f.evaluate(Padic.from_int(3, 5, 6), min_valuation=1)


def test_recenter_examples():
    f = _poly(7, [0, 0, 1])
    g = f.recenter(Padic.from_int(3, 7, 8))
    values = [c.residue(3).value for c in g.coeffs]
    assert values == [9, 6, 1]
    h = f.recenter(Padic.zero(7, 12))
    assert [c.residue(3).value for c in h.coeffs] == [0, 0, 1]


def test_recenter_p_power_coefficient_sizes():
    """Recentring x^p at a unit gives middle coefficients of size 1/p."""
    p = 5
    f = _poly(p, [0] * p + [1])
    x0 = Padic.from_int(2, p, 12)
    g = f.recenter(x0)
    for ell in range(1, p):
        assert g.coeffs[ell].valuation() == 1
    assert g.coeffs[p].valuation() == 0
    assert g.coeffs[0].valuation() == 0


def test_bounds_examples():
    assert lipschitz_bound(_poly(7, [0, 0, 1]), 0) == 0
    assert lipschitz_bound(_poly(7, [0, 7]), 0) == 1
    assert lipschitz_bound(_poly(7, [0, 1, 0, 1]), 1) == 0
    assert quadratic_bound(_poly(7, [0, 0, 1]), 0) == 0
    assert quadratic_bound(_poly(5, [0] * 5 + [1]), 0) == 0
    assert quadratic_bound(_poly(7, [3, 4]), 2) == math.inf
    with pytest.raises(DomainError):
        lipschitz_bound(_poly(7, [3]), 0)


def test_derivative_example():
    f = _poly(5, [1, 2, 3])
    d = f.derivative()
    assert [c.residue(2).value for c in d.coeffs] == [2, 6]


def test_trailing_literal_zeros_trimmed():
    f = PadicPolynomial(5, [1, 2, 0, 0])
    assert f.degree == 1
    g = PadicPolynomial(5, [1, 2, Padic.zero(5, 4)])
    assert g.degree == 2  # uncertainty is not an exact zero


# ------------------------------------------------------- Horner on parts


def _differential_coefficient(rng, p):
    """A coefficient of any kind the polynomials hold: a unit or non-unit of
    random valuation (negative included) and relative precision, a zero to
    a random precision, or exact int and Fraction data."""
    kind = rng.randrange(5)
    if kind == 0:
        return Padic.zero(p, rng.randrange(-3, 9))
    if kind == 1:
        return rng.choice([0, 1, -1, p, -3 * p**2 + 2, Fraction(1, p), Fraction(-2, 3)])
    return random_padic(rng, p, rng.randrange(1, 9), -3, 4)


def _differential_argument(rng, p):
    """An argument of any kind: random valuation and precision, a zero to
    precision, a large valuation that vanishes at the sums' precision, an
    int or a Fraction."""
    kind = rng.randrange(6)
    if kind == 0:
        return Padic.zero(p, rng.randrange(-2, 7))
    if kind == 1:
        return Padic(p, rng.randrange(6, 12), 1, rng.randrange(1, 3))
    if kind == 2:
        return rng.choice([3, -p, Fraction(1, p), Fraction(p + 1, 5)])
    return random_padic(rng, p, rng.randrange(1, 9), -3, 4)


@pytest.mark.parametrize("p", [2, 7, 65537, 2**61 - 1])
def test_horner_on_parts_matches_padic_horner(p):
    """evaluate and recenter give, part for part, what Horner's rule on
    Padic values gives, on every kind of coefficient and argument."""
    rng = rng_for(f"horner-parts-{p}")
    kinds = set()
    for _ in range(300):
        coeffs = [_differential_coefficient(rng, p) for _ in range(rng.randrange(1, 7))]
        f = PadicPolynomial(p, coeffs, abs_prec=rng.choice([None, 3, 8]))
        x = _differential_argument(rng, p)
        px = x if isinstance(x, Padic) else Padic.from_rational(Fraction(x), 1, p)
        assert parts(f.evaluate(x)) == parts(horner_evaluate(f, px)), (f, x)
        shifted = f.recenter(x)
        assert [parts(c) for c in shifted.coeffs] == [parts(c) for c in horner_recenter(f, px)]
        kinds.add(type(x).__name__)
        kinds.add("x zero" if px.is_zero else "x vanishes" if px.v > 5 else "x below 0" if px.v < 0 else "x")
        kinds.update("c zero" if c.is_zero else "c below 0" if c.v < 0 else "c" for c in f.coeffs)
        if len({c.abs_prec for c in f.coeffs}) > 1:
            kinds.add("mixed precisions")
    assert kinds == {
        "int", "Fraction", "Padic", "x zero", "x vanishes", "x below 0", "x",
        "c zero", "c below 0", "c", "mixed precisions",
    }


@pytest.mark.parametrize("p", [2, 7, 65537])
def test_exact_arguments_never_bound_a_result(p):
    """An int or Fraction argument of evaluate and recenter gives, part for
    part, what it gives as a Padic known to far more digits, also where the
    coefficients are known past the default 64-digit cap."""
    rng = rng_for(f"exact-argument-{p}")
    for _ in range(150):
        coeffs = [_differential_coefficient(rng, p) for _ in range(rng.randrange(1, 7))]
        f = PadicPolynomial(p, coeffs, abs_prec=rng.choice([None, 3, 100, 150]))
        x = rng.choice([0, 3, -p, p**70 + 1, Fraction(1, p), Fraction(p + 1, 5), Fraction(-2, p**2)])
        far = Padic.from_rational(x, 1, p, 1000, cap=1100)
        assert parts(f.evaluate(x)) == parts(f.evaluate(far)), (f, x)
        assert [parts(c) for c in f.recenter(x).coeffs] == [parts(c) for c in f.recenter(far).coeffs]
    f = _poly(7, [-2, 0, 1], 100)
    assert f.evaluate(3) == f.evaluate(Padic.from_int(3, 7, 100, cap=100)) == Padic(7, 1, 1, 99)
    assert [c.abs_prec for c in f.recenter(3).coeffs] == [100, 100, 100]


def test_a_bool_coefficient_is_refused():
    for coeffs in ([True, 1], [1, False]):
        with pytest.raises(DomainError, match="as a coefficient"):
            PadicPolynomial(7, coeffs)
    assert PadicPolynomial(7, [Fraction(1, 2), 1], 4).coeffs[0] == Padic.from_rational(1, 2, 7, 4)


def test_exact_arguments_are_ints_or_fractions():
    f = _poly(7, [-2, 0, 1])
    for x in (0.5, 3.0, True, "3"):
        with pytest.raises(DomainError, match="expected a Padic, int or Fraction"):
            f.evaluate(x)
        with pytest.raises(DomainError, match="expected a Padic, int or Fraction"):
            f.recenter(x)


# --------------------------------------------------------------- invariants


@pytest.mark.parametrize("p", [2, 3, 7])
def test_recenter_evaluate_consistency(p):
    rng = rng_for(f"recenter-eval-{p}")
    for _ in range(40):
        coeffs = [random_padic(rng, p, 10, 0, 2) for _ in range(rng.randrange(2, 6))]
        f = PadicPolynomial(p, coeffs)
        x0 = random_padic(rng, p, 10, 0, 3)
        y = random_padic(rng, p, 10, 0, 3)
        g = f.recenter(x0)
        direct = f.evaluate(x0 + y)
        shifted = g.evaluate(y)
        assert (direct - shifted).is_zero


@pytest.mark.parametrize("p", [3, 5])
def test_recentered_coefficient_bound(p):
    """With |x0| <= 1, v of each recentered coefficient >= min of the tail."""
    rng = rng_for(f"recenter-bound-{p}")
    for _ in range(40):
        coeffs = [random_padic(rng, p, 10, 0, 3) for _ in range(rng.randrange(2, 7))]
        f = PadicPolynomial(p, coeffs)
        x0 = random_padic(rng, p, 10, 0, 2)
        g = f.recenter(x0)
        for ell in range(len(g.coeffs)):
            tail_min = min(c.valuation_bound for c in f.coeffs[ell:])
            assert g.coeffs[ell].valuation_bound >= tail_min


@pytest.mark.parametrize("p", [3, 5, 7])
def test_first_and_second_order_laws(p):
    rng = rng_for(f"m-laws-{p}")
    for _ in range(60):
        m = rng.randrange(0, 2)
        coeffs = [random_padic(rng, p, 12, 0, 2) for _ in range(rng.randrange(2, 6))]
        f = PadicPolynomial(p, coeffs)
        mu1 = lipschitz_bound(f, m)
        mu2 = quadratic_bound(f, m)
        x = random_padic(rng, p, 12, m, m + 3)
        y = random_padic(rng, p, 12, m, m + 3)
        d = x - y
        if d.is_zero:
            continue
        left = f.evaluate(x) - f.evaluate(y)
        assert left.valuation_bound >= mu1 + d.valuation()
        if mu2 != math.inf:
            fprime_y = f.derivative().evaluate(y)
            rem = left - fprime_y * d
            assert rem.valuation_bound >= mu2 + 2 * d.valuation()


@pytest.mark.parametrize("p,n", [(5, 3), (7, 2), (3, 4), (7, 12)])
def test_monomial_isometry_prime_to_p(p, n):
    """x -> x^n with gcd(n, p) = 1 is an isometry near a unit."""
    assert n % p != 0
    rng = rng_for(f"isometry-{p}-{n}")
    for _ in range(200):
        x = random_unit(rng, p, 12)
        y = random_unit(rng, p, 12)
        if (x - y).is_zero or (x - y).valuation() < 1:
            continue
        lhs = x**n - y**n
        assert lhs.valuation() == (x - y).valuation()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_p_power_dichotomy(p):
    rng = rng_for(f"dichotomy-{p}")
    for _ in range(300):
        x = random_unit(rng, p, 14)
        y = random_unit(rng, p, 14)
        d = x - y
        if d.is_zero:
            continue
        lhs = x**p - y**p
        if d.valuation() >= 1:
            assert lhs.valuation() == d.valuation() + 1
        else:
            assert lhs.valuation() == 0


def test_derivative_never_grows():
    """Each coefficient of f' has the parts of c_j * j, the product with the
    int j, and a valuation no lower than c_j's: at degrees 2p to p**2 + 1,
    so that j meets multiples of p and of p**2, with zeros to precision
    among the coefficients, and at degree 65537 over Z_65537."""
    rng = rng_for("derivative-growth")

    def coefficient(p):
        if rng.random() < 0.25:
            return Padic.zero(p, rng.randrange(-2, 12))
        return random_padic(rng, p, rng.randrange(1, 10), -2, 2)

    polys = [
        PadicPolynomial(p, [coefficient(p) for _ in range(rng.randrange(2 * p, p * p + 2) + 1)])
        for p in (2, 3, 5)
        for _ in range(20)
    ]
    p = 65537
    sparse = [Padic.zero(p, 7)] * (p + 1)
    for j in (1, 2, 3, p - 1, p):
        sparse[j] = coefficient(p)
    polys.append(PadicPolynomial(p, sparse))
    for f in polys:
        derivative = f.derivative().coeffs
        assert len(derivative) == f.degree
        for j, c in enumerate(derivative, 1):
            assert parts(c) == parts(f.coeffs[j] * j)
            assert c.valuation_bound >= f.coeffs[j].valuation_bound


# --------------------------------------------------- radius of convergence


def test_radius_geometric_rule():
    report = radius_of_convergence(ValuationGrowthRule(0, 0, 0))
    assert report.rho_exponent == 0
    assert not report.terms_vanish_on_boundary


def test_radius_log_rule():
    report = radius_of_convergence(ValuationGrowthRule(0, 1, 0))
    assert report.rho_exponent == 0
    assert not report.terms_vanish_on_boundary
    assert "unbounded" in report.witness


def test_radius_slope_rule():
    report = radius_of_convergence(ValuationGrowthRule(Fraction(1), 0, 0))
    assert report.rho_exponent == 1


def test_radius_unsupported_shapes():
    with pytest.raises(UnsupportedRuleError):
        ValuationGrowthRule(Fraction(-1), 0, 0)
    with pytest.raises(UnsupportedRuleError):
        ValuationGrowthRule(0, 2, 0)
    with pytest.raises(UnsupportedRuleError):
        radius_of_convergence("not a rule")
