"""The printability checks against a brute-force p**k < 10**limit."""

import sys

import pytest

from padicore.intmath import int_prints, power_prints, str_digit_limit

# p = 2 and 10 put p**k on a power of two or of ten; 999983 is the largest prime below 10**6
BASES = (2, 10, 999983)

needs_int_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit on this Python"
)


def _boundary(p, limit):
    """The least k with p**k >= 10**limit, by bisection: p**(4 * limit) >= 16**limit."""
    lo, hi = 0, 4 * limit
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if p**mid < 10**limit else (lo, mid)
    return hi


def _check_around_the_boundary(limit):
    for p in BASES:
        edge = _boundary(p, limit)
        for k in [0, 1, 2] + list(range(max(edge - 3, 0), edge + 4)):
            assert power_prints(p, k) == (p**k < 10**limit), (p, k, limit)
        assert not power_prints(p, 10**12)  # decided without the power
    power = 10**limit
    for n in (power - 1, power, power + 1, 2 ** (power.bit_length() - 1), 2 ** power.bit_length() - 1):
        for m in (n, -n):
            assert int_prints(m) == (abs(m) < power), (m.bit_length(), limit)
    assert int_prints(0) and int_prints(-1)


def test_power_and_int_prints_match_brute_force():
    _check_around_the_boundary(str_digit_limit())


@needs_int_limit
def test_a_changed_limit_moves_the_bound():
    old = sys.get_int_max_str_digits()
    try:
        for limit in (640, 5000, old):
            sys.set_int_max_str_digits(limit)
            assert str_digit_limit() == limit
            _check_around_the_boundary(limit)
    finally:
        sys.set_int_max_str_digits(old)


@needs_int_limit
def test_no_limit_and_no_limit_api_mean_4300(monkeypatch):
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)  # no limit: 4300 stands
        assert str_digit_limit() == 4300
        _check_around_the_boundary(4300)
        sys.set_int_max_str_digits(5000)
        monkeypatch.delattr(sys, "get_int_max_str_digits")  # Python before 3.10.7
        assert str_digit_limit() == 4300
        _check_around_the_boundary(4300)
    finally:
        monkeypatch.undo()
        sys.set_int_max_str_digits(old)


def test_large_exponents_are_decided_without_the_power():
    """A level far past the limit answers as fast as a small one."""
    for p in BASES:
        assert not power_prints(p, 10**15)
        assert power_prints(p, 3)
    assert not int_prints(1 << 10**6)
