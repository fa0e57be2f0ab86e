"""Kernels: the Kronecker-substitution convolution and the baby-step/giant-step
composition against schoolbook oracles."""

import pytest
from math import isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

import padicore._kernels as kernels
from padicore import QQ, PowerSeries, PrimeFieldCoefficients
from padicore.intmath import check_prime
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
        assert kernels.compose(f, g, n, p) == schoolbook_compose(f, g, n, p)


# slot width in bytes -> the least prime above the slot's largest value 2**(8w - 1) - 1
SLOT_PRIMES = {1: 131, 2: 32771, 4: 2147483659, 8: 9223372036854775837, 9: 2361183241434822606859}


def test_slot_widths_round_up_to_machine_words():
    """Natural widths 1-8 round up to 1, 2, 4 or 8 bytes; wider slots keep their width."""
    rounded = {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8, 9: 9, 10: 10, 17: 17}
    for natural, width in rounded.items():
        for bits in (8 * natural - 8, 8 * natural - 1):  # the natural width's first and last bit counts
            assert kernels._slots(bits) == (width, 1 << (8 * width - 1)), bits
    assert sorted(kernels._WORDS) == [1, 2, 4, 8]


@pytest.mark.parametrize("width", sorted(SLOT_PRIMES))
def test_products_fill_each_slot_width(width):
    """Product coefficients of +-(2**(8w-1) - 1) fill a slot of w bytes: words, then bytes at 9."""
    top = 2 ** (8 * width - 1) - 1
    assert kernels._slots(top.bit_length())[0] == width < kernels._slots(top.bit_length() + 1)[0]
    rng = rng_for(f"kernel-slot-{width}")
    a = [top * rng.choice((-1, 0, 1)) for _ in range(40)] + [top, -top]
    for b in ([1], [-1], [0, 1], [-1, 0, 0]):
        assert kernels.convolve(a, b, len(a) + 3) == schoolbook_mul(a, b, len(a) + 3)
        assert kernels.convolve(b, a, 45) == schoolbook_mul(b, a, 45)
    c = [1, -1, 0, 1, -1]
    assert kernels.convolve(c, [top], 6) == [top, -top, 0, top, -top, 0]
    assert kernels.convolve([-top], c, 6) == [-top, top, 0, -top, top, 0]
    p = check_prime(SLOT_PRIMES[width])
    a = [rng.randrange(top + 1) for _ in range(40)] + [top, top - p]  # top - p reduces to top
    for b in ([1], [1 + p], [0, -p + 1]):
        out = kernels.convolve_mod(a, b, 45, p)
        assert out == schoolbook_mul(a, b, 45, p) and max(out) == top


@pytest.mark.parametrize("width", sorted(SLOT_PRIMES))
def test_compositions_fill_each_slot_width(width):
    """f = [+-top] fills a chunk slot of w bytes; f = +-top*T spreads +-top over f(g)."""
    top = 2 ** (8 * width - 1) - 1
    p = SLOT_PRIMES[width]
    g = [0, 1, -1, 0, 1, -1, 1]
    for f in ([top], [-top], [0, top], [0, -top], [top, -top]):
        for n in (1, 2, 7, 9):
            assert kernels.compose(f, g, n) == schoolbook_compose(f, g, n)
            assert kernels.compose(f, g, n, p) == schoolbook_compose(f, g, n, p)
    assert kernels.compose([0, top], g, 7) == [0, top, -top, 0, top, -top, top]


@pytest.mark.parametrize("natural", range(1, 10))
def test_random_operands_in_each_natural_width(natural):
    """Operands whose product bound needs `natural` bytes, rounded up or not, against schoolbook."""
    rng = rng_for(f"kernel-natural-width-{natural}")
    for n in (1, 5, 33):
        bits = max(1, (8 * natural - 1 - n.bit_length()) // 2)  # product bound about 2*bits + log2(n)
        a = [rng.randrange(-(2**bits), 2**bits) for _ in range(n)]
        b = [rng.randrange(-(2**bits), 2**bits) for _ in range(n)]
        assert kernels.convolve(a, b, 2 * n) == schoolbook_mul(a, b, 2 * n)
        f, g = a, [0] + [rng.randrange(-3, 4) for _ in range(n - 1)]
        assert kernels.compose(f, g, n) == schoolbook_compose(f, g, n)


COMPOSE_ORDERS = list(range(12)) + [16, 17, 37, 64, 100, 128, 256]


@pytest.mark.parametrize("n", COMPOSE_ORDERS)
def test_compose_matches_schoolbook_at_each_order(n):
    """Orders 0-256, over the integers and mod p; f longer than n, g shorter."""
    rng = rng_for(f"kernel-compose-order-{n}")
    p = rng.choice(PRIMES[:5]) if n > 100 else rng.choice(PRIMES)
    f = [rng.randrange(p) for _ in range(n + rng.randrange(3))]
    g = [rng.randrange(-2, 3) * p] + [rng.randrange(p) for _ in range(max(n - rng.randrange(3), 0))]
    assert kernels.compose(f, g, n, p) == schoolbook_compose(f, g, n, p)
    if n <= 128:
        f = [rng.randrange(-(2**40), 2**40) for _ in range(n + rng.randrange(3))]
        g = [0] + [rng.randrange(-9, 10) for _ in range(max(n - 1, 0))]
        assert kernels.compose(f, g, n) == schoolbook_compose(f, g, n)


@settings(max_examples=100)
@given(
    signed_lists(max_size=20),
    signed_lists(max_size=20),
    st.integers(min_value=-10**6, max_value=10**6).filter(bool),
    st.integers(min_value=0, max_value=24),
)
def test_compose_with_a_denominator_is_the_homogenised_composition(f, g, d, n):
    """compose(f, g, n, d=d) sums f_j * g**j * d**(k-1-j), k = len(f[:n])."""
    g = [0] + g[1:]
    k = len(f[:n])
    scaled = [c * d ** (k - 1 - j) for j, c in enumerate(f[:n])]
    assert kernels.compose(f, g, n, d=d) == schoolbook_compose(scaled, g, n)


def test_compose_slots_hold_a_full_chunk():
    """Chunk coefficients reach m * max|f| * max|g**i|, past one slot's byte slack.

    With g = T + T**2 and equal coefficients of f, a chunk coefficient sums
    several binomials; f = (2**B - 1) // c for B = 7 mod 8 puts
    max|f| * max|g**i| just under a byte boundary for some c.
    """
    g = [0, 1, 1]
    for n in (9, 16, 30):
        for bits in (23, 63, 127):
            for c in range(1, 40):
                f = [(2**bits - 1) // c] * n
                assert kernels.compose(f, g, n) == schoolbook_compose(f, g, n), (n, bits, c)


def test_compose_makes_about_2_sqrt_n_products(monkeypatch):
    """Baby and giant steps: at most 2*ceil(sqrt(n)) + 1 convolutions per call."""
    calls = []
    convolve = kernels.convolve
    monkeypatch.setattr(kernels, "convolve", lambda *args: calls.append(1) or convolve(*args))
    rng = rng_for("kernel-compose-count")
    for n in list(range(40)) + [64, 128, 256]:
        bound = 2 * (isqrt(max(n - 1, 0)) + 1) + 1  # 2*ceil(sqrt(n)) + 1
        for field in (PrimeFieldCoefficients(2**61 - 1), QQ):
            f = PowerSeries(field, [rng.randrange(1, 9) for _ in range(n)], n)
            g = PowerSeries(field, [0] + [rng.randrange(1, 9) for _ in range(n - 1)], n)
            calls.clear()
            f.compose(g)
            assert len(calls) <= bound, (n, field, len(calls))
            if n >= 16:
                assert len(calls) >= isqrt(n)  # the count is not trivially zero


def test_edge_operands():
    big = [2**300 - 1, -(2**299), 12345]
    assert kernels.convolve([], big, 4) == [0, 0, 0, 0]
    assert kernels.convolve([0, 0], big, 4) == [0, 0, 0, 0]
    assert kernels.convolve(big, [0], 2) == [0, 0]
    assert kernels.convolve(big, big, 0) == []
    assert kernels.convolve([-1], [1, -1], 5) == [-1, 1, 0, 0, 0]
    assert kernels.compose([3, 1], [], 3, 5) == [3, 0, 0]
    assert kernels.compose([], [0, 1], 2, 5) == [0, 0]
    assert kernels.compose([1, 2], [0, 1], 0, 5) == []
    assert kernels.compose([-3, 1], [], 3) == [-3, 0, 0]
    assert kernels.compose([7], [0, 5], 3) == [7, 0, 0]


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
def test_compose_matches_schoolbook_mod_p(p, f, g, k, n):
    g = [k * p] + g[1:]  # a constant term that is 0 mod p, unreduced
    assert kernels.compose(f, g, n, p) == schoolbook_compose(f, g, n, p)


@settings(max_examples=200)
@given(signed_lists(max_size=16), signed_lists(max_size=16), st.integers(min_value=0, max_value=20))
def test_compose_matches_schoolbook_over_the_integers(f, g, n):
    g = [0] + g[1:]
    assert kernels.compose(f, g, n) == schoolbook_compose(f, g, n)


@pytest.mark.parametrize("p", PRIMES)
def test_compose_rejects_nonzero_constant(p):
    with pytest.raises(ValueError):
        kernels.compose([1, 2], [p + 1, 1], 2, p)
    with pytest.raises(ValueError):
        kernels.compose([1, 2], [-1, 1], 2, p)
    with pytest.raises(ValueError):
        kernels.compose([1, 2], [p, 1], 2)  # over the integers g[0] must be 0


# ------------------------------------------------ two evaluation points


# (slot width in bytes, coefficient bound M): operands in [-M, M], of the
# lengths at which they pack to about _TWO_POINT_BYTES, take slots of this
# width; 10 and 17 bytes are the byte path, 101 the width QQ compositions reach
TWO_POINT_CASES = [(2, 7), (4, 2**11 - 1), (8, 2**25 - 1), (10, 2**33 - 1), (17, 2**61 - 2), (101, 2**400 - 1)]


def two_point_lengths(width):
    """Lengths that pack to just below, at and just above the two-point size rule."""
    at = -(-kernels._TWO_POINT_BYTES // width)  # the least length packing to at least the rule
    return at - 1, at, at + 1


def slot_width(a, b):
    ma, mb = max(map(abs, a)), max(map(abs, b))
    bound = ma * mb * min(len(a), len(b))
    return kernels._slots(max(ma.bit_length(), mb.bit_length(), bound.bit_length()))[0]


@pytest.mark.parametrize("width, top", TWO_POINT_CASES)
def test_two_point_products_match_schoolbook(width, top):
    """Signed and unsigned operands of odd, even and unequal lengths about the size rule.

    n runs below, at and above the operand lengths; below the shorter
    length it truncates the operands and takes the one-point product.
    """
    rng = rng_for(f"kernel-two-point-{width}")
    for i, (length, low) in enumerate((k, lo) for k in two_point_lengths(width) for lo in (-top, 0)):
        a = [rng.randint(low, top) for _ in range(length)] + [top]
        b = [rng.randint(low, top) for _ in range(length + i % 3)] + [low or top]
        assert slot_width(a, b) == width
        la, lb = len(a), len(b)
        for n in ((la - 2, la, lb + 1), (la + 1, la + lb - 1), (lb, la + lb + 2))[i % 3]:
            assert kernels.convolve(a, b, n) == schoolbook_mul(a, b, n), (length, low, n)
            assert kernels.convolve(b, a, n) == schoolbook_mul(b, a, n), (length, low, n)


def test_two_point_products_mod_p_and_zero_operands():
    """convolve_mod at p = 2**61 - 1 about the size rule, and a 1-byte slot of an all-zero operand."""
    p = 2**61 - 1
    rng = rng_for("kernel-two-point-mod-p")
    for length in two_point_lengths(17):
        a = [rng.randrange(p) for _ in range(length)]
        b = [rng.randrange(-p, p) for _ in range(length + 1)]
        for n in (length, 2 * length + 2):
            assert kernels.convolve_mod(a, b, n, p) == schoolbook_mul(a, b, n, p)
    length = kernels._TWO_POINT_BYTES
    zeros, small = [0] * length, [rng.randint(-63, 63) for _ in range(length)]
    assert slot_width(zeros, small) == 1
    assert kernels.convolve(zeros, small, length + 1) == [0] * (length + 1)
    assert kernels.convolve(small, zeros, 2 * length) == [0] * (2 * length)


@pytest.mark.parametrize("width, top", TWO_POINT_CASES + [(1, 0)])
def test_only_the_packed_operand_size_decides_the_evaluation_points(monkeypatch, width, top):
    """The one-point product packs each operand once, the two-point product its even and odd halves.

    The shorter operand, truncated to n, decides: two points from
    _TWO_POINT_BYTES of packed slots, one point below.
    """
    packs = []
    pack = kernels._pack
    monkeypatch.setattr(kernels, "_pack", lambda xs, w, bias: packs.append(w) or pack(xs, w, bias))
    for length in two_point_lengths(width):
        a, b = [top] * length, [top or 1] * (3 * length)
        assert slot_width(a, b) == width
        for n, shorter in ((length, length), (length - 1, length - 1), (4 * length, length)):
            packs.clear()
            kernels.convolve(b, a, n)
            w = slot_width(a[:n], b[:n])
            expect = 4 if w * shorter >= kernels._TWO_POINT_BYTES else 2
            assert packs == [w] * expect, (width, length, n)
