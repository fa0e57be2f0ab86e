"""Kernels: large primes on any backend, and compiled against pure."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padicore._kernels as kernels
from padicore import PowerSeries, PrimeFieldCoefficients
from padicore._kernels import available_backends, get_backend
from helpers import rng_for, schoolbook_compose, schoolbook_mul

pure = get_backend("pure")
HAVE_COMPILED = "compiled" in available_backends()

needs_compiled = pytest.mark.skipif(
    not HAVE_COMPILED, reason="compiled kernel not built; nothing to compare"
)
LARGE_PRIMES = [2**61 - 1, 2**64 - 59]


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


def test_primes_from_2_31_never_reach_the_compiled_kernel(monkeypatch):
    def overflow(*args):
        raise OverflowError("int64 overflow")

    int64_kernel = SimpleNamespace(convolve_mod=overflow, compose_mod=overflow)
    monkeypatch.setattr(kernels, "_impl", int64_kernel)
    p = 2**31 + 11
    assert kernels.convolve_mod([p - 1], [p - 1], 1, p) == [1]
    assert kernels.compose_mod([0, 1], [0, p - 1], 2, p) == [0, p - 1]
    with pytest.raises(OverflowError):
        kernels.convolve_mod([1], [1], 1, 2**31 - 1)


def _compiled():
    return get_backend("compiled")


@needs_compiled
@settings(max_examples=150)
@given(
    st.sampled_from([2, 3, 5, 7, 101, 65537]),
    st.lists(st.integers(min_value=-50, max_value=10**6), max_size=40),
    st.lists(st.integers(min_value=-50, max_value=10**6), max_size=40),
    st.integers(min_value=0, max_value=48),
)
def test_convolve_agreement(p, a, b, n):
    assert _compiled().convolve_mod(a, b, n, p) == pure.convolve_mod(a, b, n, p)


@needs_compiled
@settings(max_examples=150)
@given(
    st.sampled_from([2, 3, 5, 7, 101, 65537]),
    st.lists(st.integers(min_value=0, max_value=10**6), max_size=24),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=24),
    st.integers(min_value=1, max_value=24),
)
def test_compose_agreement(p, f, g, n):
    g = [0] + g[1:]
    assert _compiled().compose_mod(f, g, n, p) == pure.compose_mod(f, g, n, p)


@needs_compiled
def test_compose_rejects_nonzero_constant():
    for mod in (pure, _compiled()):
        with pytest.raises(ValueError):
            mod.compose_mod([1, 2], [1, 1], 2, 5)


@needs_compiled
def test_large_prime_reduction_path():
    # exercises the per-term reduction branch of the compiled kernel
    p = 2**31 - 1
    a = [p - 1] * 20
    b = [p - 2] * 20
    assert _compiled().convolve_mod(a, b, 20, p) == pure.convolve_mod(a, b, 20, p)
