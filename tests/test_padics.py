"""Truncated p-adic arithmetic: representation, precision rules, laws."""

import operator
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicore import (
    DivisionByZeroError,
    DomainError,
    NotAnIntegerError,
    Padic,
    PrecisionError,
    PrimeMismatchError,
    ResidueClass,
)
from helpers import lift_oracle, parts, random_padic, random_unit, rng_for

PRIMES = [2, 3, 5, 7]


# ------------------------------------------------------------- construction


def test_from_rational_half_base5():
    x = Padic.from_rational(1, 2, 5, 4)
    assert x.valuation() == 0
    assert x.digits() == [3, 2, 2, 2]
    assert 2 * x.unit % 5**4 == 1


def test_minus_one_is_all_ones_base2():
    x = Padic.from_int(-1, 2, 4)
    assert x.digits() == [1, 1, 1, 1]


def test_zero_to_precision():
    z = Padic.from_rational(0, 1, 7, 6)
    assert z.is_zero
    assert z.abs_prec == 6
    with pytest.raises(PrecisionError):
        z.valuation()


def test_from_rational_zero_denominator():
    with pytest.raises(DivisionByZeroError):
        Padic.from_rational(1, 0, 5, 4)


def test_precision_cap_sets_only_the_default():
    """A given abs_prec is the ball asked for, whatever the cap; the cap
    sets the precision only when none is given."""
    x = Padic.from_rational(1, 3, 5, 100, cap=10)
    assert (x.abs_prec, x.rel) == (100, 100)
    assert Padic.from_int(3, 5, 100, cap=10).abs_prec == 100
    assert Padic.from_rational(1, 5**70, 5, 8, cap=10) == Padic(5, -70, 1, 78)
    assert Padic.from_rational(1, 3, 5, cap=10).rel == 10
    assert Padic.from_int(25, 5, cap=10) == Padic(5, 2, 1, 10)
    assert Padic.from_int(0, 5, cap=10) == Padic.zero(5, 10)


def test_default_precisions():
    assert Padic.from_int(49, 7).abs_prec == 66
    assert Padic.from_rational(1, 7, 7).abs_prec == 63
    assert Padic.from_rational(49, 1, 7).abs_prec == 64
    assert Padic.from_rational(0, 49, 7).abs_prec == 64
    assert Padic.from_rational(0, 49, 7, 5) == Padic.zero(7, 5)


def _valuation(q, p):
    """v_p of a nonzero int or Fraction; infinity for zero."""
    q = Fraction(q)
    if not q:
        return float("inf")
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


@pytest.mark.parametrize("p", [2, 7, 65537, 2**61 - 1])
def test_exact_numbers_are_read_to_the_precision_asked(p):
    """from_int and from_rational give exactly the ball q + O(p**abs_prec):
    that precision (or zero at it), and a lift congruent to q."""
    rng = rng_for(f"exact-read-{p}")
    for _ in range(150):
        num = rng.randrange(-10**6, 10**6) * p ** rng.randrange(0, 40)
        n = rng.randrange(-50, 301)
        if rng.random() < 0.3:
            q, x = num, Padic.from_int(num, p, n)
        else:
            q = Fraction(num, rng.randrange(1, 10**4) * p ** rng.randrange(0, 40))
            x = Padic.from_rational(q, 1, p, n)
        assert x.abs_prec == n
        assert _valuation(x.lift() - q, p) >= n
        if x.is_zero:
            assert _valuation(q, p) >= n
        else:
            assert x.valuation() == _valuation(q, p) < n


def test_from_rational_strips_common_p_powers():
    x = Padic.from_rational(50, 10, 5, 6)
    assert x.valuation() == 1
    assert x.lift() == 5


# ----------------------------------------------------------------- examples


def test_valuation_examples():
    assert Padic.from_int(12, 2, 10).valuation() == 2
    assert Padic.from_int(5, 5, 8).invert().valuation() == -1
    z = Padic.zero(3, 8)
    assert z.valuation_bound == 8


def test_digit_examples():
    assert Padic.from_int(108, 7, 3).digits() == [3, 1, 2]
    assert Padic.from_int(1, 7, 1).digits() == [1]
    assert Padic.zero(7, 5).digits() == []


def test_invert_examples():
    i = Padic.from_int(3, 7, 2).invert()
    assert i.digits() == [5, 4]
    assert 3 * 33 % 49 == 1
    assert Padic.from_int(1, 5, 4).invert().digits() == [1, 0, 0, 0]
    ip = Padic.from_int(5, 5, 4).invert()
    assert ip.valuation() == -1 and ip.unit == 1
    with pytest.raises(DivisionByZeroError):
        Padic.zero(5, 3).invert()


def test_reduce_examples():
    x = Padic.from_int(108, 7, 3)
    assert x.residue(2) == ResidueClass(7, 2, 10)
    assert x.residue(0).value == 0
    assert Padic.from_int(-1, 2, 5).residue(3).value == 7
    with pytest.raises(NotAnIntegerError):
        Padic.from_int(5, 5, 4).invert().residue(1)
    with pytest.raises(PrecisionError):
        Padic.from_int(3, 5, 2).residue(4)


def test_forced_valuation_of_sum():
    x = Padic.from_int(25, 5, 8)
    y = Padic.from_int(5, 5, 8)
    assert (x + y).valuation() == 1


def test_product_valuation_mixed_signs():
    x = Padic.from_int(50, 5, 8)  # v = 2
    y = Padic.from_rational(3, 5, 5, 8)  # v = -1
    assert (x * y).valuation() == 1


@pytest.mark.parametrize(
    "p, v, unit, rel, message",
    [
        (4, 0, 1, 2, "4 is not prime"),
        (7, 0, 1.5, 2, "must be integers"),
        (7, 0, True, 2, "must be integers"),
        (7, 0, 1, -1, "relative precision -1 is negative"),
        (7, 0, 14, 2, "not in normal form"),
        (7, 0, 49, 2, "not in normal form"),
        (7, 3, 0, 2, "not in normal form"),
    ],
    ids=["composite-p", "float-unit", "bool-unit", "negative-rel", "p-divides-unit", "unit-past-p-rel", "zero-with-rel"],
)
def test_public_constructor_refuses_parts_it_cannot_hold(p, v, unit, rel, message):
    with pytest.raises(DomainError, match=message):
        Padic(p, v, unit, rel)


def test_public_constructor_takes_normal_form_parts():
    assert (Padic(7, -2, 48, 2).abs_prec, Padic(2, 5, 0, 0).abs_prec) == (0, 5)
    assert Padic(7, 0, 1, 10**8 + 1).rel == 10**8 + 1  # decided without building 7**rel


@pytest.mark.parametrize(
    "build",
    [
        lambda: Padic.from_int(Fraction(1, 2), 7),
        lambda: Padic.from_int(0.5, 7),
        lambda: Padic.from_int(True, 7),
        lambda: Padic.from_int(3.0, 7, 4),
        lambda: Padic.from_rational(0.5, 1, p=7, abs_prec=4),
        lambda: Padic.from_rational("1/2", 1, p=7, abs_prec=4),
        lambda: Padic.from_rational(False, 1, p=7, abs_prec=4),
        lambda: Padic.from_rational(1, 2.0, p=7, abs_prec=4),
        lambda: Padic.from_rational(Fraction(1, 3), Fraction(1, 2), p=7, abs_prec=4),
    ],
    ids=["from_int-fraction", "from_int-float", "from_int-bool", "from_int-float-int-valued",
         "from_rational-float", "from_rational-str", "from_rational-bool", "from_rational-float-b",
         "from_rational-fraction-b"],
)
def test_classmethods_refuse_what_is_not_an_integer_or_rational(build):
    """They read an int (and from_rational a Fraction over an int) and
    nothing else: 1/2 was read as 0 and 0.5 as O(7^4)."""
    with pytest.raises(DomainError, match="needs an int"):
        build()


@pytest.mark.parametrize(
    "combine",
    [operator.add, operator.sub, operator.mul, operator.truediv, lambda x, b: b + x, lambda x, b: b / x],
    ids=["add", "sub", "mul", "truediv", "radd", "rtruediv"],
)
def test_a_bool_operand_is_refused_as_a_float_is(combine):
    """x + True was x + 1; a bool, like a float, is no exact operand."""
    with pytest.raises(TypeError):
        combine(Padic.from_int(3, 7, 4), True)


def test_a_bool_exponent_is_refused():
    x = Padic.from_int(3, 7, 4)
    for e in (True, False):
        with pytest.raises(TypeError):
            x**e


def test_classmethods_read_fractions_over_ints():
    assert Padic.from_rational(Fraction(1, 2), 3, p=7, abs_prec=4) == Padic.from_rational(1, 6, 7, 4)
    assert Padic.from_int(-49, 7, 5) == Padic(7, 2, 7**3 - 1, 3)


def test_residue_class_refuses_a_float_value():
    with pytest.raises(DomainError, match="must be integers"):
        ResidueClass(7, 2, 1.5)


def test_exact_cancellation_gives_zero():
    a = Padic.from_rational(1, 2, 5, 4)
    b = Padic.from_rational(-1, 2, 5, 4)
    assert (a + b).is_zero
    assert (a + b).abs_prec == 4


def test_operand_vanishing_at_the_sum_precision_builds_no_power():
    """With v(x) >= N = min(N_x, N_y), x + y is y to N, and p**v(x) is never built.

    Building 7**(10**7) takes seconds, so the time bound fails, not hangs,
    if the power comes back.
    """
    huge = Padic.from_json_dict({"p": 7, "valuation": 10**7, "digits": [1], "abs_prec": 10**7 + 1})
    one = Padic.from_int(1, 7, 8)
    started = time.perf_counter()
    assert parts(huge + one) == parts(one + huge) == parts(one)
    assert parts(one - huge) == parts(one)
    assert parts(huge - one) == parts(-one)
    r = huge.residue(2)
    assert (r.p, r.level, r.value) == (7, 2, 0)
    assert time.perf_counter() - started < 0.5


@pytest.mark.parametrize("p", [2, 7])
def test_sum_and_residue_agree_with_the_lifts(p):
    """Every valuation against the precision: the sum is the lifts' sum reduced."""
    for v in range(-2, 10):
        x = Padic.from_json_dict({"p": p, "valuation": v, "digits": [1, 1], "abs_prec": v + 2})
        for y in (Padic.from_int(3, p, 6), Padic.from_rational(1, p, p, 5), Padic.zero(p, 4)):
            n = min(x.abs_prec, y.abs_prec)
            expected = Padic.from_rational(x.lift() + y.lift(), 1, p, n, cap=100)
            assert parts(x + y) == parts(y + x) == parts(expected)
        for j in range(0, min(x.abs_prec, 8) + 1):
            if v >= 0:
                r = x.residue(j)
                assert r.value == x.lift() % p**j


def _lift_operands(p):
    """Zero to several precisions, negative valuations, units, p in denominators."""
    yield from (Padic.zero(p, n) for n in (-2, 0, 3))
    for v in (-3, -1, 0, 2):
        yield Padic.from_json_dict({"p": p, "valuation": v, "digits": [1, p - 1, 1], "abs_prec": v + 3})
    yield Padic.from_int(-1, p, 5)
    yield Padic.from_int(3 * p**2 + 1, p, 6)
    yield Padic.from_rational(5, p * 3, p, 4)
    yield Padic.from_rational(p - 1, p**2, p, 1)


def _check_against_lifts(op, a, b, run):
    expected = lift_oracle(op, a, b)
    if isinstance(expected, type):
        with pytest.raises(expected):
            run()
        return
    got = run()
    assert parts(got) == expected, (op, a, b)
    _, _, unit, rel = expected
    assert (0 < unit < got.p**rel and unit % got.p) or unit == rel == 0


@pytest.mark.parametrize("p", [2, 7, 65537, 2**61 - 1])
def test_operations_agree_with_the_lifts(p):
    """Every operation against lift_oracle: exact parts, in normal form."""
    xs = list(_lift_operands(p))
    exacts = [0, 1, -3, p, -5 * p**2, Fraction(1, p), Fraction(-2, 3), Fraction(p**2, 5)]
    binary = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
    for a in xs:
        for b in xs + exacts:
            for op, fn in binary.items():
                _check_against_lifts(op, a, b, lambda: fn(a, b))
                if not isinstance(b, Padic):
                    _check_against_lifts(op, b, a, lambda: fn(b, a))
        _check_against_lifts("neg", a, None, lambda: -a)
        _check_against_lifts("invert", a, None, a.invert)
        for e in range(-2, 4):
            _check_against_lifts("**", a, e, lambda: a**e)
        for n in {a.abs_prec + 1, a.abs_prec, a.abs_prec - 1, a.v, a.v - 1}:
            _check_against_lifts("truncate", a, n, lambda: a.truncate(n))
    assert all(x.truncate(x.abs_prec) == x for x in xs)


@pytest.mark.parametrize("p", [2, 7, 65537, 2**61 - 1])
def test_subtraction_is_adding_the_negative(p):
    """a - b has the parts of a + (-b), with either operand vanishing at
    the shared precision or exact."""
    xs = list(_lift_operands(p)) + [Padic(p, 6, 1, 1), Padic(p, 3, p - 1, 4)]
    exacts = [0, 1, -3, p, Fraction(1, p), Fraction(-2, 3)]
    vanishing = set()
    for a in xs:
        for b in xs + exacts:
            assert parts(a - b) == parts(a + (-b)), (a, b)
            if not isinstance(b, Padic):
                assert parts(b - a) == parts(b + (-a)), (b, a)
                continue
            n = min(a.abs_prec, b.abs_prec)
            vanishing.add((a.v >= n, b.v >= n))
    assert vanishing == {(False, False), (True, False), (False, True), (True, True)}


def test_add_sub_mul_precision_rules():
    x = random_padic(rng_for("prec-rules-x"), 5, 6, 0, 2)
    y = random_padic(rng_for("prec-rules-y"), 5, 4, 0, 2)
    s = x + y
    if not s.is_zero:
        assert s.abs_prec == min(x.abs_prec, y.abs_prec)
    m = x * y
    assert m.abs_prec == min(x.v + y.abs_prec, y.v + x.abs_prec)


def test_mismatched_primes():
    with pytest.raises(PrimeMismatchError):
        Padic.from_int(1, 5, 4) + Padic.from_int(1, 7, 4)


def test_pow_matches_repeated_product():
    x = Padic.from_int(3, 7, 6)
    assert x**4 == x * x * x * x
    assert (x**0).unit == 1
    assert (x**-2) == (x * x).invert()


# --------------------------------------------------------------- invariants


@pytest.mark.parametrize("p", PRIMES)
def test_ultrametric_and_multiplicativity(p):
    rng = rng_for(f"ultrametric-{p}")
    for _ in range(500):
        x = random_padic(rng, p, 12)
        y = random_padic(rng, p, 12)
        s = x + y
        sv = s.valuation_bound
        assert sv >= min(x.v, y.v)
        if x.v != y.v:
            assert not s.is_zero
            assert s.valuation() == min(x.v, y.v)
        prod = x * y
        assert prod.valuation() == x.v + y.v


@pytest.mark.parametrize("p", PRIMES)
def test_nonarchimedean_integers(p):
    for n in range(1, 200):
        assert Padic.from_int(n, p, 8).valuation() >= 0


@pytest.mark.parametrize("p", PRIMES)
def test_round_trip_rational_to_digits(p):
    rng = rng_for(f"roundtrip-{p}")
    for _ in range(200):
        a = rng.randrange(-(10**6), 10**6)
        b = rng.randrange(1, 10**4)
        while b % p == 0:
            b = rng.randrange(1, 10**4)
        if a == 0:
            continue
        n = 12
        x = Padic.from_rational(a, b, p, n)
        if x.is_zero:
            continue
        rebuilt = sum(d * p**i for i, d in enumerate(x.digits()))
        lhs = Fraction(a, b) - Fraction(p) ** x.v * rebuilt
        # the difference must be divisible by p**abs_prec
        if lhs:
            num = lhs.numerator
            den = lhs.denominator
            v = 0
            while num % p == 0:
                num //= p
                v += 1
            while den % p == 0:
                den //= p
                v -= 1
            assert v >= x.abs_prec
        assert x.residue(min(n, x.abs_prec)).value == (
            a * pow(b, -1, p**n) % p ** min(n, x.abs_prec)
            if x.v >= 0
            else x.residue(min(n, x.abs_prec)).value
        )


@pytest.mark.parametrize("op", ["add", "mul"])
@pytest.mark.parametrize("p", [2, 5])
def test_precision_soundness_by_truncation(op, p):
    """Truncating inputs moves the result by at most the declared O-term."""
    rng = rng_for(f"soundness-{op}-{p}")
    for _ in range(300):
        x = random_padic(rng, p, 14, -2, 2)
        y = random_padic(rng, p, 14, -2, 2)
        nx = rng.randrange(x.v + 1, x.abs_prec + 1)
        ny = rng.randrange(y.v + 1, y.abs_prec + 1)
        xt, yt = x.truncate(nx), y.truncate(ny)
        if op == "add":
            full, cut = x + y, xt + yt
        else:
            full, cut = x * y, xt * yt
        diff = full.truncate(min(full.abs_prec, cut.abs_prec)) - cut.truncate(
            min(full.abs_prec, cut.abs_prec)
        )
        assert diff.is_zero


@pytest.mark.parametrize("p", PRIMES)
def test_reduce_is_ring_homomorphism(p):
    rng = rng_for(f"hom-{p}")
    for _ in range(200):
        x = random_unit(rng, p, 10)
        y = random_unit(rng, p, 10)
        for j in (0, 1, 3, 7):
            assert (x + y).residue(j) == x.residue(j) + y.residue(j)
            assert (x * y).residue(j) == x.residue(j) * y.residue(j)


@settings(max_examples=200)
@given(
    st.sampled_from(PRIMES),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.integers(min_value=-(10**9), max_value=10**9),
)
def test_integer_model_agreement(p, a, b):
    """Padic arithmetic on exact integers agrees with integer arithmetic."""
    n = 16
    xa = Padic.from_int(a, p, n)
    xb = Padic.from_int(b, p, n)
    s = xa + xb
    m = xa * xb
    if not s.is_zero and a + b != 0:
        assert (a + b) % p ** min(s.abs_prec, n) == (
            s.unit * p**s.v % p ** min(s.abs_prec, n)
            if s.v >= 0
            else (a + b) % p ** min(s.abs_prec, n)
        )
    if not xa.is_zero and not xb.is_zero:
        assert m.valuation() == xa.valuation() + xb.valuation()


def test_lifting_the_exponent_law():
    """v((1 + p)^n - 1) = v(n) + 1 for odd p, an independent classical law."""
    for p in (3, 5, 7):
        x = Padic.from_int(1 + p, p, 24)
        for k in range(4):
            y = x ** (p**k) - 1
            assert y.valuation() == k + 1
        for n in (2, 6, p * 2, p * p * 3):
            vn = 0
            m = n
            while m % p == 0:
                m //= p
                vn += 1
            assert (x**n - 1).valuation() == vn + 1
    # p = 2 variant: for u = 1 mod 4, v(u^n - 1) = v(n) + 2
    u = Padic.from_int(5, 2, 24)
    for k in range(4):
        assert (u ** (2**k) - 1).valuation() == k + 2


# --------------------------------------------------------------- rendering


def test_pretty_and_compact_forms():
    x = Padic.from_int(108, 7, 3)
    assert x.pretty() == "3 + 1*7 + 2*7^2 + O(7^3)"
    assert x.compact() == "7^0*[3,1,2]+O(7^3)"
    assert Padic.zero(7, 3).pretty() == "O(7^3)"
    y = Padic.from_rational(1, 7, 7, 2)
    assert y.pretty() == "1*7^-1 + O(7^2)"


def test_json_round_trip():
    x = Padic.from_rational(22, 21, 7, 9)
    data = x.to_json_dict()
    assert Padic.from_json_dict(data) == x
    z = Padic.zero(3, 4)
    assert Padic.from_json_dict(z.to_json_dict()) == z


def test_huge_powers_of_p_are_decided_before_they_are_built():
    """A residue of at least p**v and a unit known mod p**(abs_prec - v) are
    refused when those powers do not print; every residue that prints still
    answers, and at once."""
    far = Padic(7, 10**8, 1, 1)
    started = time.perf_counter()
    with pytest.raises(DomainError, match="^the residue has more than 4300 digits$"):
        far.residue(10**8 + 1)
    assert far.residue(10**8) == ResidueClass(7, 10**8, 0)
    fine = Padic(7, 0, 1, 10**8 + 1)
    assert fine.residue(10**8 + 1).value == fine.residue(3).value == 1
    data = {"p": 7, "valuation": 0, "digits": [1], "abs_prec": 10**8 + 1}
    with pytest.raises(DomainError, match="relative precision too fine"):
        Padic.from_json_dict(data)
    assert Padic.from_json_dict(dict(data, digits=[0, 0])) == Padic.zero(7, 10**8 + 1)
    assert time.perf_counter() - started < 1
    deepest = Padic(7, 5075, 3, 1)  # 3 * 7**5075 has 4290 digits
    assert deepest.residue(5076).value == 3 * 7**5075
    with pytest.raises(DomainError, match="more than 4300 digits"):
        Padic(7, 5090, 3, 1).residue(5091)


# ------------------------------------------------- exact constants and precision


@pytest.mark.parametrize("prec", [64, 200])
@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    m=st.integers(min_value=1, max_value=10**80),
    shift=st.integers(min_value=0, max_value=3),
    c=st.integers(min_value=1, max_value=10**6),
)
def test_exact_constants_never_bound_precision(prec, p, m, shift, c):
    """Delivered absolute precision is at least the documented one."""
    from padicore import PadicPolynomial, log1p, sqrt
    from padicore.intmath import int_valuation

    vc = int_valuation(c, p)
    x = Padic.from_int(m, p, prec, cap=prec)
    n = x.abs_prec
    assert (x + c).abs_prec >= n and (c - x).abs_prec >= n
    assert (x * c).abs_prec >= n + vc
    assert (x / c).abs_prec >= n - vc
    unit = Padic.from_int(8 * m + 1 if p == 2 else m * m * p + 1, p, prec, cap=prec)
    assert sqrt(unit * unit).abs_prec >= (prec - 1 if p == 2 else prec)
    deep = Padic.from_int(p ** (shift + 2) * (m * p + 1), p, prec, cap=prec)
    assert log1p(deep).abs_prec >= prec
    f = PadicPolynomial(p, [x, x, x, x])
    for j, coeff in enumerate(f.derivative().coeffs, start=1):
        assert coeff.abs_prec >= n + int_valuation(j, p)
