"""The p-adic logarithm: values, laws, truncation, inversion."""

import pytest

from padicore import plog
from padicore import (
    DivergenceError,
    DomainError,
    Padic,
    isometry_threshold,
    log1p,
    log_inverse,
    log_series_polynomial,
)
from helpers import (
    best_time,
    log1p_by_terms,
    log_inverse_by_hensel,
    log_partial_sum,
    random_unit,
    rng_for,
)

PRIMES = [2, 3, 5, 7]


def test_log_of_five_matches_partial_sums():
    x = Padic.from_int(5, 5, 3)
    value = log1p(x)
    # oracle: 5 - 25/2 with 2^-1 = 63 mod 125; deeper terms vanish mod 125
    oracle = (5 - 25 * 63) % 125
    assert oracle == 55
    assert value.residue(3).value == oracle


def test_log_one_is_zero():
    assert log1p(Padic.zero(5, 4)).is_zero


def test_log_of_minus_one_is_zero():
    x = Padic.from_int(-2, 2, 12)
    assert log1p(x).is_zero


def test_divergence_with_witness():
    with pytest.raises(DivergenceError) as err:
        log1p(Padic.from_int(3, 5, 4))
    assert err.value.witness_valuation <= 0
    assert err.value.witness_index == 1


def test_log_values_against_integer_oracle():
    rng = rng_for("log-oracle")
    for p in PRIMES:
        n = 10
        for _ in range(20):
            k = rng.randrange(1, p**(n - 1))
            x_int = p * k
            x = Padic.from_int(x_int, p, n)
            if x.is_zero:
                continue
            value = log1p(x)
            oracle = log_partial_sum(x_int, p, n)
            level = min(n, value.abs_prec)
            assert value.residue(level).value == oracle % p**level


# --------------------------------------------------------------- invariants


def test_homomorphism_random_pairs():
    rng = rng_for("log-hom")
    for p in PRIMES:
        for _ in range(50):
            y = random_unit(rng, p, 10) * Padic.from_int(p, p, 11)
            z = random_unit(rng, p, 10) * Padic.from_int(p, p, 11)
            w = (1 + y) * (1 + z) - 1
            assert (log1p(w) - (log1p(y) + log1p(z))).is_zero


def test_isometry_in_regime():
    rng = rng_for("log-isometry")
    for p in PRIMES:
        t = isometry_threshold(p)
        for _ in range(100):
            shift = rng.randrange(t, t + 3)
            x = random_unit(rng, p, 10) * Padic.from_int(p**shift, p, 10 + shift)
            assert log1p(x).valuation() == x.valuation() == shift


def test_contraction_outside_isometry_range():
    rng = rng_for("log-contraction")
    for p in PRIMES:
        for _ in range(60):
            x = random_unit(rng, p, 10) * Padic.from_int(p, p, 11)
            value = log1p(x)
            assert value.valuation_bound >= x.valuation()


def test_lipschitz_equality_in_regime():
    rng = rng_for("log-lipschitz")
    for p in PRIMES:
        t = isometry_threshold(p)
        for _ in range(60):
            y = random_unit(rng, p, 12) * Padic.from_int(p**t, p, 12 + t)
            z = random_unit(rng, p, 12) * Padic.from_int(p**t, p, 12 + t)
            d = y - z
            if d.is_zero:
                continue
            ld = log1p(y) - log1p(z)
            assert ld.valuation() == d.valuation()


def test_power_law_small_integers():
    rng = rng_for("log-power")
    for p in (3, 5):
        for n in (2, 3, 4):
            for _ in range(20):
                x = random_unit(rng, p, 10) * Padic.from_int(p, p, 11)
                u = (1 + x) ** n - 1
                lhs = log1p(u)
                rhs = log1p(x) * n
                assert (lhs - rhs.truncate(min(lhs.abs_prec, rhs.abs_prec))).is_zero


# --------------------------------------------------------------- truncation


def test_truncation_degree_examples():
    assert log_series_polynomial(5, 3, 1).degree == 2
    assert log_series_polynomial(5, 1, 1).degree == 1
    assert log_series_polynomial(3, 1, 1).degree == 1
    assert log_series_polynomial(5, 1, 4).degree == 1
    with pytest.raises(DomainError):
        log_series_polynomial(5, 3, 0)


def test_truncated_polynomial_agrees_with_series():
    rng = rng_for("log-truncation")
    for p in (2, 3, 5):
        n = 8
        poly = log_series_polynomial(p, n, 1)
        for _ in range(30):
            x = random_unit(rng, p, n) * Padic.from_int(p, p, n + 1)
            a = poly.evaluate(x)
            b = log1p(x)
            level = min(n, a.abs_prec, b.abs_prec)
            assert (a.truncate(level) - b.truncate(level)).is_zero


# ---------------------------------------------------------------- inversion


def test_log_inverse_examples():
    x = log_inverse(Padic.from_int(55, 5, 3))
    assert (x - Padic.from_int(5, 5, 3)).is_zero
    assert log_inverse(Padic.zero(5, 6)).is_zero
    with pytest.raises(DomainError):
        log_inverse(Padic.from_int(2, 2, 8))  # v = 1 < threshold at p = 2


def test_log_inverse_round_trip():
    rng = rng_for("log-inverse-roundtrip")
    for p in PRIMES:
        t = isometry_threshold(p)
        for _ in range(25):
            z = random_unit(rng, p, 10) * Padic.from_int(p**t, p, 10 + t)
            x = log_inverse(z)
            assert x.valuation() == z.valuation()
            assert (log1p(x) - z.truncate(min(z.abs_prec, x.abs_prec))).is_zero
            # two-sided: feeding a log value back recovers it
            y = random_unit(rng, p, 10) * Padic.from_int(p**t, p, 10 + t)
            w = log1p(y)
            back = log_inverse(w)
            assert (back - y.truncate(min(y.abs_prec, back.abs_prec))).is_zero


# ------------------------------------------------ integer kernels vs oracles

ORACLE_PRIMES = [2, 3, 5, 7, 101, 65537, 2**61 - 1]
ORACLE_PRECISIONS = [1, 2, 3, 16, 64, 256]


def _expected(value, p, n):
    """The Padic that holds the integer value mod p**n, to absolute precision n."""
    return Padic.from_int(value, p, n, cap=n)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("n", ORACLE_PRECISIONS)
def test_log1p_matches_oracles(p, n):
    """log1p equals the partial sum and the Padic term loop in v, unit and rel."""
    rng = rng_for(f"log1p-oracles-{p}-{n}")
    cases = [p**v * rng.randrange(1, p**n) for v in (1, 2, 3, 4)]
    if p == 2:
        cases.append(-2)  # log(-1) = 0
    # below the input's precision too, where that stays cheap
    precisions = {n, max(n - 1, 0), n // 2} if n <= 64 else {n}
    for x_int in cases:
        x = Padic.from_int(x_int, p, n, cap=n)
        for abs_prec in precisions:
            value = log1p(x, abs_prec)
            expected = _expected(log_partial_sum(x_int, p, abs_prec), p, abs_prec)
            assert value == expected
            if n <= 64:
                assert value == log1p_by_terms(x, abs_prec)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("n", ORACLE_PRECISIONS)
def test_log_inverse_matches_oracles(p, n):
    """log_inverse inverts the partial sum and agrees with the Hensel route."""
    rng = rng_for(f"log-inverse-oracles-{p}-{n}")
    s = isometry_threshold(p)
    for v in range(s, s + 4):
        y = p**v * rng.randrange(1, p**n) % p**n
        z = _expected(log_partial_sum(y, p, n), p, n)
        assert log_inverse(z) == _expected(y, p, n)
        if n <= 64:
            for abs_prec in (max(n - 1, 0), n // 2):
                assert log_inverse(z, abs_prec) == _expected(y, p, abs_prec)
        if n <= 64 and p <= 65537:
            assert log_inverse(z) == log_inverse_by_hensel(z)


@pytest.mark.parametrize("p", [2, 3, 5, 65537])
def test_valuation_at_or_past_the_precision(p):
    """Inputs with v >= N are 0 + O(p^N) both ways, the isometry's answer."""
    s = isometry_threshold(p)
    for n in (1, 2, 5):
        assert log1p(Padic.zero(p, n)) == Padic.zero(p, n)
        assert log_inverse(Padic.zero(p, n)) == Padic.zero(p, n)
        for v in (max(n, s), n + 3):
            x = Padic.from_int(p**v * 7, p, v + 4)
            assert log1p(x, n) == Padic.zero(p, n)
            assert log_inverse(x, n) == Padic.zero(p, n)


# ---------------------------------------- one-denominator baby-step sum


def _with_valuation(rng, p, v, n):
    """A random integer of valuation exactly v below p**n."""
    return p**v * (p * rng.randrange(p ** (n - v - 1)) + rng.randrange(1, p))


@pytest.mark.parametrize("p", [2, 5, 65537])
@pytest.mark.parametrize("v", [1, 2])
def test_log_sum_at_high_precision(p, v):
    """At N = 1024 the baby-step/giant-step sum equals the term-by-term one."""
    rng = rng_for(f"log-bsgs-{p}-{v}")
    n = 1024
    x = _with_valuation(rng, p, v, n)
    assert plog._log_int(x, p, n) == log_partial_sum(x, p, n)


@pytest.mark.parametrize(
    "p, n, v, deep",
    [
        (65537, 64, 2, False),  # a p**k-th power costs more than it saves
        (10**6 + 3, 32, 1, False),
        (101, 16, 2, False),
        (2, 64, 2, True),
        (7, 64, 1, True),
        (5003, 256, 1, True),
    ],
)
def test_log_sum_with_and_without_argument_reduction(p, n, v, deep):
    """Inputs on both sides of the cost rule: k = 0 and k >= 1."""
    k = plog._plan(p, n, v)[0]
    assert (k >= 1) == deep
    rng = rng_for(f"log-depth-{p}-{n}-{v}")
    for _ in range(5):
        x = _with_valuation(rng, p, v, n)
        assert plog._log_int(x, p, n) == log_partial_sum(x, p, n)


@pytest.mark.parametrize("p, n", [(2, 64), (2, 256), (3, 64), (3, 200)])
def test_log_sum_with_terms_divisible_by_p_squared(p, n):
    """The degree reaches p**2 and beyond, so the common denominator carries
    p**e with e >= 2 and terms lose up to e digits to their index."""
    rng = rng_for(f"log-deep-index-{p}-{n}")
    for v in (1, 2, 3):
        assert plog._plan(p, n, v)[2] >= 2
        for _ in range(5):
            x = _with_valuation(rng, p, v, n)
            assert plog._log_int(x, p, n) == log_partial_sum(x, p, n)


def test_log_sum_makes_one_modular_inversion(monkeypatch):
    """Each _log_int call inverts once, whatever the degree."""
    inversions = []

    def counting_pow(base, exp, mod=None):
        if exp == -1:
            inversions.append(mod)
        return pow(base, exp, mod)

    monkeypatch.setattr(plog, "pow", counting_pow, raising=False)
    for p, n in ((2, 256), (7, 64), (65537, 64)):
        inversions.clear()
        assert plog._log_int(p * 12345, p, n) == log_partial_sum(p * 12345, p, n)
        assert len(inversions) == 1


def test_log_inverse_certificate_rejects_an_unconverged_iterate(monkeypatch):
    """The full-precision residual check refuses an iterate Newton left short."""
    monkeypatch.setattr(plog, "newton_lift", lambda step, x, start, n: x)
    with pytest.raises(AssertionError):
        log_inverse(Padic.from_int(5 * 12345, 5, 16))


def test_scaling_budgets():
    """log1p(15) at N = 1024 and log_inverse(15) at N = 256 over Q_5.

    Budgets are several times the measured costs (about 3 ms and 0.6 ms
    on a 2-vCPU container); the term-by-term series and the Hensel route
    took 98 ms and 68 ms there.
    """
    x = Padic.from_int(15, 5, 1024, cap=1024)
    z = Padic.from_int(15, 5, 256, cap=256)
    assert best_time(lambda: log1p(x)) <= 0.030
    assert best_time(lambda: log_inverse(z)) <= 0.010
