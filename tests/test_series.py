"""Formal series: Cauchy products, inversion, composition, calculus rules."""

from fractions import Fraction

import pytest

from padicore import (
    QQ,
    DivisionByZeroError,
    DomainError,
    FieldMismatchError,
    LaurentSeries,
    PowerSeries,
    PrimeFieldCoefficients,
    RPower,
)
from helpers import (
    compose_by_monomials,
    horner_compose_rational,
    newton_inverse_full,
    random_fp_series,
    random_q_series,
    rng_for,
)

F2 = PrimeFieldCoefficients(2)
F3 = PrimeFieldCoefficients(3)
F5 = PrimeFieldCoefficients(5)


# ----------------------------------------------------------------- examples


def test_product_examples():
    a = PowerSeries(F3, [1, 1, 0], 3)
    b = PowerSeries(F3, [1, 2, 0], 3)
    assert (a * b).coeffs == (1, 0, 2)
    aq = PowerSeries(QQ, [1, 1, 0], 3)
    bq = PowerSeries(QQ, [1, -1, 0], 3)
    assert (aq * bq).coeffs == (1, 0, -1)
    assert (a + PowerSeries(F3, [], 3)).coeffs == a.coeffs


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatchError):
        PowerSeries(F3, [1], 1) + PowerSeries(F5, [1], 1)
    with pytest.raises(FieldMismatchError):
        PowerSeries(F3, [1], 1) * PowerSeries(QQ, [1], 1)


def test_order_examples():
    f = PowerSeries(QQ, [0, 0, 1, 1], 4)
    assert f.order() == 2
    zero = PowerSeries(QQ, [], 8)
    assert zero.order() is None
    t = PowerSeries(QQ, [0, 1, 0, 0], 4)
    u = PowerSeries(QQ, [1, 1, 0, 0], 4)
    t2 = PowerSeries(QQ, [0, 0, 1, 0], 4)
    assert (t * u * t2).order() == 3


def test_invert_one_minus_examples():
    t = PowerSeries(F5, [0, 1, 0, 0], 4)
    assert t.invert_one_minus().coeffs == (1, 1, 1, 1)
    zero = PowerSeries(F5, [], 4)
    assert zero.invert_one_minus().coeffs == (1, 0, 0, 0)
    a = PowerSeries(F2, [0, 1, 1, 0, 0], 5)
    inv = a.invert_one_minus()
    one_minus_a = PowerSeries(F2, [1], 5) - a
    assert (inv * one_minus_a).coeffs == (1, 0, 0, 0, 0)
    with pytest.raises(DomainError):
        PowerSeries(F2, [1, 1], 2).invert_one_minus()


def test_laurent_invert_examples():
    f = LaurentSeries(F2, [1, 1, 0, 0, 0, 0], -1, 6)
    inv = f.invert()
    assert inv.order() == 1
    prod = f * inv
    assert prod.order() == 0
    assert all(c == 0 for c in prod.unit.coeffs[1:])
    t = LaurentSeries(QQ, [0, 1], 0, 2)
    assert t.invert().order() == -1
    c = LaurentSeries(QQ, [Fraction(3, 2)], 0, 1)
    assert c.invert().unit.coeffs[0] == Fraction(2, 3)
    with pytest.raises(DivisionByZeroError):
        LaurentSeries(QQ, [], 0, 4).invert()


def test_compose_examples():
    f = PowerSeries(F2, [0, 0, 1, 0, 0], 5)
    g = PowerSeries(F2, [0, 1, 1, 0, 0], 5)
    assert f.compose(g).coeffs == (0, 0, 1, 0, 1)
    h = PowerSeries(F3, [2, 1, 2, 1], 4)
    ident = PowerSeries(F3, [0, 1, 0, 0], 4)
    assert h.compose(ident) == h
    ones = PowerSeries(QQ, [1, 1, 1, 1], 4)
    gq = PowerSeries(QQ, [0, 1, 1, 0], 4)
    assert ones.compose(gq).coeffs == (1, 1, 2, 3)
    with pytest.raises(DomainError):
        ones.compose(PowerSeries(QQ, [1, 1], 2))


def test_derive_examples():
    cube = PowerSeries(F3, [0, 0, 0, 1], 4)
    assert cube.derive().coeffs == (0, 0, 0)
    f = PowerSeries(QQ, [1, 1, 1], 3)
    assert f.derive().coeffs == (1, 2)
    const = PowerSeries(QQ, [5], 1)
    assert const.derive().coeffs == ()


def test_norm_examples():
    r = Fraction(1, 2)
    f = PowerSeries(QQ, [0, 0, 1, 0, 0, 0], 6)
    assert f.norm(r) == RPower(r, 2)
    zero = PowerSeries(QQ, [], 3)
    assert zero.norm(r).is_zero
    g = PowerSeries(QQ, [0, 1, 0, 0, 0, 0], 6)
    assert (f * g).norm(r) == f.norm(r) * g.norm(r)
    s = f + g
    assert s.norm(r) <= f.norm(r) or s.norm(r) <= g.norm(r)


# --------------------------------------------------------------- invariants


@pytest.mark.parametrize("make", ["fp2", "fp3", "fp5", "q"])
def test_order_additivity(make):
    rng = rng_for(f"order-add-{make}")
    for _ in range(50):
        f, g = _pair(rng, make, 12)
        if f.order() is None or g.order() is None:
            continue
        prod = f * g
        if f.order() + g.order() < prod.prec:
            assert prod.order() == f.order() + g.order()


def _pair(rng, make, prec, zero_constant=False):
    if make == "q":
        return (
            random_q_series(rng, prec, zero_constant),
            random_q_series(rng, prec, zero_constant),
        )
    p = int(make[2:])
    return (
        random_fp_series(rng, p, prec, zero_constant),
        random_fp_series(rng, p, prec, zero_constant),
    )


@pytest.mark.parametrize("make", ["fp2", "fp3", "fp5", "q"])
def test_product_rule(make):
    rng = rng_for(f"product-rule-{make}")
    for _ in range(40):
        f, g = _pair(rng, make, 16)
        lhs = (f * g).derive()
        rhs = f.derive() * g + f * g.derive()
        assert lhs == rhs.truncate(lhs.prec)


@pytest.mark.parametrize("make", ["fp2", "fp3", "fp5", "q"])
def test_chain_rule(make):
    rng = rng_for(f"chain-rule-{make}")
    for _ in range(25):
        f, _ = _pair(rng, make, 14)
        g, _ = _pair(rng, make, 14, zero_constant=True)
        lhs = f.compose(g).derive()
        rhs = f.derive().compose(g.truncate(13)) * g.derive()
        assert lhs == rhs


@pytest.mark.parametrize("make", ["fp2", "fp3", "fp5", "q"])
def test_composition_associativity(make):
    rng = rng_for(f"compose-assoc-{make}")
    for _ in range(15):
        f, _ = _pair(rng, make, 10)
        g, h = _pair(rng, make, 10, zero_constant=True)
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


@pytest.mark.parametrize("make", ["fp2", "fp3", "fp5", "q"])
def test_compose_matches_monomial_enumeration(make):
    rng = rng_for(f"compose-oracle-{make}")
    for _ in range(6):
        f, _ = _pair(rng, make, 7)
        g, _ = _pair(rng, make, 7, zero_constant=True)
        assert f.compose(g) == compose_by_monomials(f, g)


@pytest.mark.parametrize("n", list(range(20)) + [33, 64, 128])
def test_rational_compose_matches_horner(n):
    """QQ composition against Horner's rule on the same integer problem."""
    rng = rng_for(f"compose-horner-{n}")
    for denominators, size in (((1, 1, 2, 3), 9), (tuple(range(1, 30)), 10**6)):
        if n > 64 and size > 9:
            continue
        draw = lambda: Fraction(rng.randint(-size, size), rng.choice(denominators))
        f = PowerSeries(QQ, [draw() for _ in range(n)], n)
        g = PowerSeries(QQ, [0] + [draw() for _ in range(n - 1)], n)
        assert f.compose(g) == horner_compose_rational(f, g)
        longer = PowerSeries(QQ, list(f.coeffs) + [Fraction(1, 7)], n + 1)  # only the first n count
        assert longer.compose(g) == horner_compose_rational(f, g)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_derivative_zero_structure(p):
    """Over GF(p), f' = 0 forces vanishing away from p-th power exponents."""
    rng = rng_for(f"deriv-zero-{p}")
    field = PrimeFieldCoefficients(p)
    for _ in range(30):
        base = random_fp_series(rng, p, 18)
        f = PowerSeries(
            field,
            [base.coeffs[j // p] if j % p == 0 else 0 for j in range(18)],
            18,
        )
        assert all(c == 0 for c in f.derive().coeffs)
    for _ in range(30):
        f = random_fp_series(rng, p, 18)
        if all(c == 0 for c in f.derive().coeffs):
            for j, c in enumerate(f.coeffs[: f.prec - 1]):
                if j % p != 0:
                    assert c == 0


@pytest.mark.parametrize("make", ["fp2", "fp5", f"fp{2**61 - 1}", "q"])
def test_inversion_contracts(make):
    """Inverses multiply back to 1 at exactly the input's precision.

    Every order from 1 to 70 is tried, so Newton's doubling ends on powers
    of two and between them.
    """
    rng = rng_for(f"inv-contract-{make}")
    for order in range(1, 71):
        a, _ = _pair(rng, make, order, zero_constant=True)
        inv = a.invert_one_minus()
        one = PowerSeries(a.field, [a.field.one], order)
        assert inv.prec == order
        assert (one - a) * inv == one
        # Laurent inversion multiplies back to 1 as well
        f, _ = _pair(rng, make, order)
        if f.order() is None:
            continue
        tail = rng.randrange(-3, 4)
        laurent = LaurentSeries(f.field, list(f.coeffs), tail, f.prec)
        linv = laurent.invert()
        assert linv.tail == -laurent.tail
        assert linv.unit.prec == laurent.unit.prec
        prod = laurent * linv
        assert prod.order() == 0
        assert prod.unit.prec == laurent.unit.prec
        assert prod.unit.coeffs[0] == f.field.one
        assert all(c == f.field.zero for c in prod.unit.coeffs[1:])


INVERSE_ORDERS = list(range(10)) + [2**k + d for k in range(4, 9) for d in (-1, 0, 1)]


@pytest.mark.parametrize("make", ["fp2", "fp5", "fp65537", f"fp{2**61 - 1}", "q"])
def test_half_size_newton_matches_full_products(make):
    """_inverse, Laurent invert and invert_one_minus equal today's full-product Newton iteration.

    Orders 0-9 and 2**k - 1, 2**k, 2**k + 1 up to 257 end the doubling on
    and between powers of two; Laurent tails run from -3 to 3.
    """
    rng = rng_for(f"inv-half-size-{make}")
    for order in INVERSE_ORDERS:
        f, g = _pair(rng, make, order)
        if order and f.coeffs[0] == f.field.zero:
            f = f + PowerSeries.one(f.field, order)
        expect = newton_inverse_full(f)
        assert f._inverse() == expect
        if order:
            tail = order % 7 - 3
            inverse = LaurentSeries.from_power_series(f, tail).invert()
            assert inverse.tail == -tail and inverse.unit == expect
        g = g - PowerSeries(g.field, g.coeffs[:1], order)  # zero constant term
        assert g.invert_one_minus() == newton_inverse_full(PowerSeries.one(g.field, order) - g)


def test_norm_multiplicativity_and_ultranorm():
    rng = rng_for("norm-laws")
    r = Fraction(1, 3)
    for _ in range(60):
        f = random_fp_series(rng, 3, 8)
        g = random_fp_series(rng, 3, 8)
        nf, ng = f.norm(r), g.norm(r)
        if f.order() is not None and g.order() is not None:
            if f.order() + g.order() < 8:
                assert (f * g).norm(r) == nf * ng
        s = (f + g).norm(r)
        assert s <= nf or s <= ng


def test_laurent_addition_alignment():
    f = LaurentSeries(QQ, [1, 1], -1, 4)  # T^-1 + 1 + O(T^3)
    g = LaurentSeries(QQ, [1, 0, 1], 0, 3)  # 1 + T^2 + O(T^3)
    s = f + g
    assert s.order() == -1
    assert s._coeff_at(0) == 2
    assert s.prec_exponent == 3


def test_truncate_guards():
    f = PowerSeries(QQ, [1, 2, 3], 3)
    assert f.truncate(2).coeffs == (1, 2)
    with pytest.raises(DomainError):
        f.truncate(5)
    with pytest.raises(DomainError):
        f.truncate(-1)


def _assert_checked_equal(s):
    """s equals the series the public constructor builds from its coefficients, value types included."""
    raw_type = int if s.field.kind == "fp" else Fraction
    assert type(s.coeffs) is tuple and len(s.coeffs) == s.prec
    assert all(type(c) is raw_type for c in s.coeffs)
    checked = PowerSeries(s.field, list(s.coeffs), s.prec)
    assert s == checked and s.coeffs == checked.coeffs and hash(s) == hash(checked)


@pytest.mark.parametrize("make", ["fp2", "fp5", "fp65537", f"fp{2**61 - 1}", "q"])
def test_trusted_results_match_the_public_constructor(make):
    """Results built without re-coercion equal the checked constructor's, op by op."""
    rng = rng_for(f"raw-results-{make}")
    for _ in range(40):
        n = rng.randrange(0, 40)
        f, g = _pair(rng, make, n)
        _, h = _pair(rng, make, n, zero_constant=True)
        results = [f + g, f - g, -f, f * g, f.compose(h), f.derive(), f.truncate(rng.randrange(n + 1))]
        if n and f.coeffs[0] != f.field.zero:
            inverse = f._inverse()
            results.append(inverse)
            assert f * inverse == PowerSeries.one(f.field, n)
            results.append(h.invert_one_minus())
            laurent = LaurentSeries(f.field, list(f.coeffs), rng.randrange(-3, 4), n)
            inverted = laurent.invert()
            _assert_checked_equal(inverted.unit)
            assert inverted == LaurentSeries.from_power_series(inverted.unit, inverted.tail)
            assert inverted.tail == -laurent.tail and inverted.order_bound is None
        for result in results:
            _assert_checked_equal(result)


def test_a_bool_coefficient_is_refused():
    for field in (F5, QQ):
        with pytest.raises(DomainError, match="cannot coerce True"):
            PowerSeries(field, [True, 1], 3)
        assert PowerSeries(field, [1, 1], 3).coeffs == PowerSeries(field, [Fraction(1), 1], 3).coeffs
