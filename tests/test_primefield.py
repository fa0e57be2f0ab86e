"""Prime-field arithmetic: reductions, inverses, field axioms, Frobenius."""

from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicore import DivisionByZeroError, FpElement, PrimeMismatchError
from padicore.errors import DomainError
from padicore.intmath import (
    _PRIME_CACHE_SIZE,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    check_prime,
)
from helpers import arnault_composite

SMALL_PRIMES = [2, 3, 5, 7]


def test_add_mul_sub_reductions():
    assert (FpElement(3, 5) + FpElement(4, 5)).value == 2
    assert (FpElement(3, 5) * FpElement(4, 5)).value == 2
    assert (FpElement(0, 7) - FpElement(1, 7)).value == 6


def test_inverse_matches_exhaustive_search():
    # independent oracle: scan all candidates
    expected = next(c for c in range(7) if 3 * c % 7 == 1)
    assert expected == 5
    assert FpElement(3, 7).inverse().value == expected


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_inverse_of_one_and_minus_one(p):
    assert FpElement(1, p).inverse().value == 1
    assert FpElement(p - 1, p).inverse().value == p - 1


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_all_inverses(p):
    for a in range(1, p):
        assert (FpElement(a, p) * FpElement(a, p).inverse()).value == 1


def test_inverse_of_zero_rejected():
    with pytest.raises(DivisionByZeroError):
        FpElement(0, 5).inverse()


def test_mismatched_primes_rejected():
    with pytest.raises(PrimeMismatchError):
        FpElement(1, 5) + FpElement(1, 7)
    with pytest.raises(PrimeMismatchError):
        FpElement(1, 5) * FpElement(1, 7)


def test_non_integer_value_rejected():
    with pytest.raises(DomainError, match="must be an integer"):
        FpElement(3.5, 7)


def test_composite_modulus_rejected():
    with pytest.raises(DomainError):
        FpElement(1, 6)
    with pytest.raises(DomainError):
        FpElement(1, 1)


def test_check_prime_is_exact():
    with pytest.raises(DomainError):
        check_prime(1000003 * 1000033)  # both factors above 10**6
    assert check_prime(2**61 - 1) == 2**61 - 1
    assert check_prime(4294967311) == 4294967311
    for n in range(10**5):
        by_trial_division = n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
        try:
            accepted = check_prime(n) == n
        except DomainError:
            accepted = False
        assert accepted == by_trial_division, n


def test_check_prime_cache_is_bounded():
    primes = [n for n in range(10**4, 2 * 10**4) if all(n % d for d in range(2, isqrt(n) + 1))]
    assert len(primes) > 2 * _PRIME_CACHE_SIZE
    for p in primes:
        assert check_prime(p) == p
    info = check_prime.cache_info()
    assert info.maxsize == _PRIME_CACHE_SIZE
    assert info.currsize == _PRIME_CACHE_SIZE
    # the most recent moduli are the ones kept
    hits = info.hits
    check_prime(primes[-1])
    assert check_prime.cache_info().hits == hits + 1


def test_check_prime_rejects_a_strong_pseudoprime_to_bases_2_to_41():
    n = arnault_composite()
    assert n > 3.3 * 10**24
    assert _strong_probable_prime(n, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
    with pytest.raises(DomainError, match="is not prime"):
        check_prime(n)
    with pytest.raises(DomainError):
        FpElement(1, n)


def test_baillie_psw_above_the_miller_rabin_bound():
    for p in (2**61 - 1, 2**127 - 1, 2**521 - 1, 2**89 - 1, 2**64 - 59):
        assert check_prime(p) == p
    q = 2**127 - 1
    for n in (q * q, q * (2**89 - 1), 3 * q, 2**128):
        with pytest.raises(DomainError):
            check_prime(n)


def test_baillie_psw_matches_a_sieve_below_10_6():
    """Base-2 Miller-Rabin with the strong Lucas test accepts exactly the odd primes below 10**6.

    The strong Lucas test alone passes a few composites, the least of them
    5459, 5777, 10877 and 16109; none of these passes base 2.
    """
    limit = 10**6
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for q in range(2, isqrt(limit) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, limit, q)))
    for n in range(3, limit, 2):
        assert (_strong_probable_prime(n, (2,)) and _strong_lucas_probable_prime(n)) == sieve[n], n
    lucas_only = [n for n in range(3, 20000, 2) if not sieve[n] and _strong_lucas_probable_prime(n)]
    assert lucas_only == [5459, 5777, 10877, 16109, 18971]


def test_pow_examples():
    assert (FpElement(2, 5) ** 3).value == 3
    assert (FpElement(4, 7) ** 0).value == 1


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_fermat_little(p):
    for a in range(1, p):
        assert (FpElement(a, p) ** (p - 1)).value == 1


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_frobenius_additivity(p):
    for a in range(p):
        for b in range(p):
            lhs = (FpElement(a, p) + FpElement(b, p)) ** p
            rhs = FpElement(a, p) ** p + FpElement(b, p) ** p
            assert lhs == rhs


def test_frobenius_char3_instance():
    # (1 + 1)^3 = 2 = 1^3 + 1^3 in GF(3)
    assert ((FpElement(1, 3) + FpElement(1, 3)) ** 3).value == 2


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_field_axioms_exhaustive(p):
    elems = [FpElement(a, p) for a in range(p)]
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@given(
    st.sampled_from(SMALL_PRIMES + [11, 101]),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=-(10**6), max_value=10**6),
)
def test_negation_and_subtraction(p, a, b):
    x, y = FpElement(a, p), FpElement(b, p)
    assert x - y == x + (-y)
    assert (x - y) + y == x


def test_a_bool_operand_or_exponent_is_refused():
    x = FpElement(3, 5)
    for combine in (lambda b: x + b, lambda b: b * x, lambda b: x - b, lambda b: x / b):
        with pytest.raises(TypeError):
            combine(True)
    with pytest.raises(ValueError, match="exponent must be a nonnegative integer"):
        x**True
