"""Kernels: the Kronecker-substitution convolution against schoolbook oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padicore._kernels as kernels
from padicore import PowerSeries, PrimeFieldCoefficients
from helpers import rng_for, schoolbook_compose, schoolbook_mul

LARGE_PRIMES = [2**61 - 1, 2**64 - 59]
PRIMES = [2, 3, 5, 65537, 2**31 + 11, 2**61 - 1, 2**64 - 59, 2**89 - 1]


@st.composite
def signed_lists(draw, max_size=24):
    """Signed integers of one size from 1 to 300 bits, sometimes all zero."""
    bits = draw(st.integers(min_value=1, max_value=300))
    xs = draw(st.lists(st.integers(min_value=-(2**bits), max_value=2**bits), max_size=max_size))
    all_zero = draw(st.integers(min_value=0, max_value=3)) == 0
    return [0] * len(xs) if all_zero else xs


def lengths_past_the_product(a, b):
    return st.integers(min_value=0, max_value=len(a) + len(b) + 3)


def test_square_over_a_prime_above_2_32():
    p = 4294967311
    assert kernels.convolve_mod([p - 1, p - 1], [p - 1, p - 1], 2, p) == [1, 2]
    f = PowerSeries(PrimeFieldCoefficients(p), [p - 1, p - 1], 2)
    assert list((f * f).coeffs) == [1, 2]


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_large_prime_products_match_schoolbook(p):
    rng = rng_for(f"kernel-mul-{p}")
    for n in (1, 2, 7, 24):
        a = [rng.randrange(p) for _ in range(n)]
        b = [rng.randrange(p) for _ in range(rng.randrange(1, n + 1))]
        assert kernels.convolve_mod(a, b, n, p) == schoolbook_mul(a, b, n, p)


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_large_prime_compositions_match_schoolbook(p):
    rng = rng_for(f"kernel-compose-{p}")
    for n in (1, 2, 7, 16):
        f = [rng.randrange(p) for _ in range(n)]
        g = [0] + [rng.randrange(p) for _ in range(n - 1)]
        assert kernels.compose_mod(f, g, n, p) == schoolbook_compose(f, g, n, p)


def test_edge_operands():
    big = [2**300 - 1, -(2**299), 12345]
    assert kernels.convolve([], big, 4) == [0, 0, 0, 0]
    assert kernels.convolve([0, 0], big, 4) == [0, 0, 0, 0]
    assert kernels.convolve(big, [0], 2) == [0, 0]
    assert kernels.convolve(big, big, 0) == []
    assert kernels.convolve([-1], [1, -1], 5) == [-1, 1, 0, 0, 0]
    assert kernels.compose_mod([3, 1], [], 3, 5) == [3, 0, 0]
    assert kernels.compose_mod([], [0, 1], 2, 5) == [0, 0]
    assert kernels.compose_mod([1, 2], [0, 1], 0, 5) == []


@settings(max_examples=300)
@given(st.data(), signed_lists(), signed_lists())
def test_convolve_matches_schoolbook(data, a, b):
    n = data.draw(lengths_past_the_product(a, b))
    assert kernels.convolve(a, b, n) == schoolbook_mul(a, b, n)


@settings(max_examples=300)
@given(st.data(), st.sampled_from(PRIMES), signed_lists(), signed_lists())
def test_convolve_mod_matches_schoolbook(data, p, a, b):
    n = data.draw(lengths_past_the_product(a, b))
    assert kernels.convolve_mod(a, b, n, p) == schoolbook_mul(a, b, n, p)


@settings(max_examples=200)
@given(
    st.sampled_from(PRIMES),
    signed_lists(max_size=16),
    signed_lists(max_size=16),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=0, max_value=20),
)
def test_compose_mod_matches_schoolbook(p, f, g, k, n):
    g = [k * p] + g[1:]  # a constant term that is 0 mod p, unreduced
    assert kernels.compose_mod(f, g, n, p) == schoolbook_compose(f, g, n, p)


@pytest.mark.parametrize("p", PRIMES)
def test_compose_rejects_nonzero_constant(p):
    with pytest.raises(ValueError):
        kernels.compose_mod([1, 2], [p + 1, 1], 2, p)
    with pytest.raises(ValueError):
        kernels.compose_mod([1, 2], [-1, 1], 2, p)
