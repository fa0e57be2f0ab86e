"""Small integer helpers used across the package."""

import math
import sys
from functools import lru_cache

from .errors import DivisionByZeroError, DomainError

# Miller-Rabin on these bases is exact below _MR_BOUND (Sorenson and
# Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981
# check_prime remembers this many of the moduli it passed most recently.
_PRIME_CACHE_SIZE = 256

# The precision, in digits, of an exact number read with none given, and
# the largest --prec the CLI takes unless PADICORE_PREC_CAP sets another.
# It lives here so that the text forms and the CLI read it without loading
# padics, which re-exports it.
DEFAULT_PRECISION_CAP = 64


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


def is_fraction(x):
    """Whether x is a Fraction, found without importing fractions.

    No Fraction exists before the module is imported, so a process whose
    operands are all integers never loads it, nor decimal and numbers
    with it.
    """
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def doubling_ladder(start, n, gain=1):
    """The precisions of a Newton lift from start to n, in increasing order.

    They are n, n//2 + 1, n//4 + 1, ... above start, read from the
    bottom: each k is at most 2m - 1, m the one before it (start for the
    first), so a step that takes what is correct to m digits to what is
    correct to 2m - 1 reaches each rung from the one below.  A step known
    to gain at least `gain` digits, 1 <= gain < start, rises at least that
    far: a rung below m + gain is raised to it, which is still at most
    2m - 1 and below the rung above, so no rung is passed.  Empty when
    start >= n.  A step from one
    digit reaches 2m - 1 = 1 digit and gains nothing, so start must be at
    least 2: a caller that knows one digit takes its first step itself,
    or counts its digits from a shifted origin where the start is at
    least 2, as hensel.solve does.
    """
    if start < 2:  # n//2 + 1 never falls below 2, so the ladder would not end
        raise ValueError(f"a doubling ladder needs start >= 2, got {start}")
    if gain >= start:
        raise ValueError(f"a doubling ladder needs gain < start, got {gain} >= {start}")
    ks = []
    while n > start:
        ks.append(n)
        n = n // 2 + 1
    ks.reverse()
    # once a rung k is not raised, none above it is: k + gain <= 2k - 2,
    # at most the rung above, as gain < start < k
    i, m = 0, start + gain
    while i < len(ks) - 1 and ks[i] < m:  # the top, n, is never raised
        ks[i] = m
        i, m = i + 1, m + gain
    return ks


def newton_lift(step, x, start, n):
    """Newton's method on integers mod p**k, doubling the precision k.

    x is correct mod p**start, with start >= 2, and step(x, k) takes an x
    correct mod p**m, for any m with 2m - 1 >= k, to one correct mod
    p**k.  The steps run up doubling_ladder(start, n), so each needs only
    what the one before delivers, and the result is correct mod p**n.
    """
    for k in doubling_ladder(start, n):
        x = step(x, k)
    return x


def str_digit_limit():
    """The most digits str() prints of an int.

    CPython refuses to print an int of more digits than its limit.  Where
    there is no limit (0, or Python before 3.10.7) the default 4300 stands.
    """
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


@lru_cache(maxsize=2)
def _power_of_ten(limit):
    """10**limit and its bit length, built once per limit."""
    power = 10**limit
    return power, power.bit_length()


def int_prints(n):
    """Whether str() prints the integer n, that is |n| < 10**limit.

    The bit lengths decide unless n has exactly as many bits as 10**limit.
    """
    power, bits = _power_of_ten(str_digit_limit())
    n = abs(n)
    return n.bit_length() < bits or (n.bit_length() == bits and n < power)


def power_prints(p, k):
    """Whether str() prints p**k, for p >= 2 and k >= 0.

    p**k has between k*(b - 1) + 1 and k*b bits, b the bit length of p,
    so comparing those with the bit length of 10**limit decides every k,
    a huge one at once, but a window of about 3.3*limit/b**2 exponents.
    Only inside it is p**k built.
    """
    power, bits = _power_of_ten(str_digit_limit())
    b = p.bit_length()
    if k * b < bits:
        return True
    if k * (b - 1) >= bits:
        return False
    return p & (p - 1) == 0 or p**k < power  # 2**(bits - 1) < 10**limit


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


def _strong_probable_prime(n, bases):
    """Whether n > 2 passes the strong (Miller-Rabin) test to every base; every even n fails."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n):
    """The strong Lucas test of odd n > 1 with Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4.  With n + 1 = d * 2**s, d odd, n passes when
    U_d = 0 or V_(d * 2**r) = 0 mod n for some r < s.  U_k and V_k are
    built from the bits of d by doubling (U_2k = U_k V_k, V_2k = V_k**2 -
    2Q**k) and adding one (U_k+1 = (P U_k + V_k)/2, V_k+1 = (D U_k +
    P V_k)/2).  A square has no such D, so it is rejected first.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (symbol := _jacobi(D, n)) != -1:
        if symbol == 0 and abs(D) != n:
            return False  # D shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4

    def half(x):
        x %= n
        return (x + n if x % 2 else x) // 2

    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    u, v, qk = 1, 1, Q % n  # U_1, V_1, Q**1 with P = 1
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(D * u + v), qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


@lru_cache(maxsize=_PRIME_CACHE_SIZE)
def check_prime(p):
    """Return p if it is prime, else raise DomainError.

    Below 3.3 * 10**24, deterministic Miller-Rabin on the prime bases
    2..41, which is exact there.  Above it, Baillie-PSW: the base-2
    Miller-Rabin test and a strong Lucas test with Selfridge's
    parameters.  No composite is known to pass Baillie-PSW, and none
    below 2**64 does, so a p above the bound is accepted as a probable
    prime.
    """
    if not isinstance(p, int) or p < 2:
        raise DomainError(f"modulus must be an integer >= 2, got {p!r}")
    if p in _MR_BASES:
        return p
    if p < _MR_BOUND:
        prime = _strong_probable_prime(p, _MR_BASES)
    else:
        prime = _strong_probable_prime(p, (2,)) and _strong_lucas_probable_prime(p)
    if not prime:
        raise DomainError(f"{p} is not prime")
    return p
