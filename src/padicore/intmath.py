"""Small integer helpers used across the package."""

import sys
from functools import lru_cache

from .errors import DivisionByZeroError, DomainError

# Miller-Rabin bases, exact below 3317044064679887385961981 (Sorenson and
# Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def int_valuation(n, p):
    """Largest e with p**e dividing n, for nonzero integer n."""
    if n == 0:
        raise ValueError("the zero integer has no finite valuation")
    e = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        e += 1
    return e


def inv_mod(a, m):
    """Inverse of a modulo m, via the extended Euclidean algorithm."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise DivisionByZeroError(f"{a} is not invertible modulo {m}") from None


def newton_lift(step, x, start, n):
    """Newton's method on integers mod p**k, doubling the precision k.

    x is correct mod p**start, with start >= 2, and step(x, k) takes an x
    correct mod p**m, for any m with 2m - 1 >= k, to one correct mod
    p**k.  The steps run at n, n//2 + 1, n//4 + 1, ... read from the
    bottom, so each needs only what the one before delivers, and the
    result is correct mod p**n.
    """
    ks = []
    while n > start:
        ks.append(n)
        n = n // 2 + 1
    for k in reversed(ks):
        x = step(x, k)
    return x


def str_digit_limit():
    """The most digits str() prints of an int.

    CPython refuses to print an int of more digits than its limit.  Where
    there is no limit (0, or Python before 3.10.7) the default 4300 stands.
    """
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def power_prints(p, k):
    """Whether str() prints p**k, for p >= 2.

    Past 2**(4*limit) the power is too long without computing it, so a
    huge k is answered at once.
    """
    limit = str_digit_limit()
    return (p.bit_length() - 1) * k <= 4 * limit and p**k < 10**limit


def floor_log(n, base):
    """Largest e >= 0 with base**e <= n, for n >= 1."""
    if n < 1:
        raise ValueError("floor_log needs n >= 1")
    e = 0
    power = base
    while power <= n:
        power *= base
        e += 1
    return e


@lru_cache(maxsize=None)
def check_prime(p):
    """Return p if it is prime, else raise DomainError.

    Deterministic Miller-Rabin on the prime bases 2..41, which is exact for
    p < 3.3 * 10**24.  Above that bound a p that passes every base is
    accepted as a probable prime.
    """
    if not isinstance(p, int) or p < 2:
        raise DomainError(f"modulus must be an integer >= 2, got {p!r}")
    if p in _MR_BASES:
        return p
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise DomainError(f"{p} is not prime")
    return p


def sqrt_mod(a, p):
    """A square root of the quadratic residue a modulo the odd prime p.

    Tonelli-Shanks: write p - 1 = q * 2**s with q odd; a non-residue c
    generates the 2-Sylow subgroup, and each pass halves the order of the
    remaining error t until it is 1.
    """
    a %= p
    if a == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    c, t, r = pow(c, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r
