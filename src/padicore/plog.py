"""The p-adic logarithm of 1 + x on the open unit ball, and its inversion.

log(1 + x) = sum over j >= 1 of (-1)**(j+1) x**j / j converges exactly
when v(x) >= 1: each term has valuation j*v(x) - v_p(j), which tends to
infinity there and fails to for v(x) = 0 (witnessed by the first term).

Radius thresholds live in the value group: the isometry regime
|x| < p**(-1/(p-1)) collapses to v(x) >= 1 for odd p and v(x) >= 2 for
p = 2.  That p = 2 special case is hard-coded wherever it matters, since
p**(-1/(p-1)) itself is not a value of the absolute value; log(-1) = 0
shows the threshold is sharp at p = 2.

Both directions work on integers mod p**N and build a Padic only at the
end.  log1p sums the series after argument reduction (Brent 1976):
log(1 + x) = p**-k log((1 + x)**(p**k)), with the series in the p**k-th
power summed to N + k digits.  k is chosen per call from the cost of
each side: about k*log2(p) squarings for the power against the shorter
series, whose degree d falls as (N + k) / (v(x) + k).  The d terms are
put over one denominator, lcm(1..d), so a sum makes one modular
inversion, and summed by baby steps and giant steps (Paterson and
Stockmeyer 1973) in about 2*sqrt(d) full products; the other d products
are by coefficients of about 1.44*d bits.  There is no p-adic
exponential here: log_inverse is Newton's method on log1p itself, whose
derivative 1/(1 + x) inverts exactly, at doubling precision, and the
isometry v(log(1 + x) - log(1 + y)) = v(x - y) turns one vanishing
residual at full precision into the certificate that pins x mod p**N.
The truncated polynomial of log_series_polynomial serves the plog poly
command and, with the Hensel solver, the inversion oracle in the tests.
"""

import math
from functools import lru_cache
from operator import mul

from .analytic import PadicPolynomial
from .errors import DivergenceError, DomainError
from .intmath import check_prime, floor_log, int_valuation, newton_lift
from .padics import Padic


def isometry_threshold(p):
    """Least valuation t with |x| < p**(-1/(p-1)) whenever v(x) >= t."""
    return 2 if p == 2 else 1


def series_degree(p, abs_prec, domain_valuation):
    """Largest term index whose valuation bound stays below abs_prec.

    Term j has valuation at least j*s - floor(log_p j) for v(x) >= s;
    that bound is nondecreasing in j when s >= 1, so indices beyond the
    returned degree contribute nothing modulo p**abs_prec.  The bound is
    at most j*s, so the scan starts at (abs_prec - 1) // s and steps past
    it only about log_p(degree) / s times.
    """
    if domain_valuation < 1:
        raise DomainError("domain valuation bound must be at least 1")
    j = max(abs_prec - 1, 0) // domain_valuation
    while (j + 1) * domain_valuation - floor_log(j + 1, p) < abs_prec:
        j += 1
    return j


@lru_cache(maxsize=256)
def _plan(p, n, v):
    """How _log_int sums log(1 + x) mod p**n at v(x) = v: (k, d, e, s).

    k is the depth of the argument reduction, d the degree of the series
    in y = (1 + x)**(p**k) - 1, e = floor_log(d, p) and s ~ sqrt(d) the
    number of baby steps.  k is chosen from the cost of each side: the
    power costs about k*log2(p) squarings; the series has degree about
    (n + k) / (v + k) and costs about 2*sqrt(d) products, plus d products
    by coefficients of about 1.44*d bits (lcm(1..d) ~ exp(d)), each that
    many bits over the (n + k)*log2(p) of a full product.  k runs from 0
    to Brent's isqrt(n // bitlen(p)), the fixed rule, which ignores v and
    at large p spends more on the power than the shorter series saves.
    """
    bits = math.log2(p)
    k, best = 0, math.inf
    for depth in range(math.isqrt(n // p.bit_length()) + 1):
        m = n + depth
        d = m // (v + depth) + 1
        cost = depth * bits + 2 * math.sqrt(d) + d * min(1.0, 1.44 * d / (m * bits))
        if cost < best:
            k, best = depth, cost
    # v(y) = v + k for odd p; at p = 2 the first squaring gains 2 when v = 1
    w = v + k if p > 2 or k == 0 else max(v, 2) + k
    degree = series_degree(p, n + k, w)
    if degree == 0:  # y = 0 mod p**(n + k)
        return k, 0, 0, 1
    return k, degree, floor_log(degree, p), math.isqrt(degree) + 1


_COEFFICIENTS = {}  # degree -> _log_coefficients(degree), for degrees up to 128


def _log_coefficients(degree):
    """lcm(1..degree) and the list of c_j = (-1)**(j+1) * lcm / j, j = 0..degree (c_0 = 0)."""
    found = _COEFFICIENTS.get(degree)
    if found is None:
        lcm = math.lcm(*range(1, degree + 1))
        found = lcm, [0] + [lcm // j if j % 2 else -(lcm // j) for j in range(1, degree + 1)]
        if degree <= 128:
            _COEFFICIENTS[degree] = found
    return found


def _log_int(x, p, n):
    """log(1 + x) mod p**n, for an integer x divisible by p and n >= 1.

    Argument reduction (Brent 1976): y = (1 + x)**(p**k) - 1 has
    v(y) >= v(x) + k and log(1 + y) = p**k * log(1 + x), so the series in
    y is summed mod p**(n + k) and divided by p**k; _plan picks k.

    The terms share one denominator, so a call makes one modular
    inversion.  With d the degree, e = floor_log(d, p) and L the p-free
    part of lcm(1..d) = L * p**e, each c_j = (-1)**(j+1) * L * p**e / j is
    an integer, and S = sum of c_j * y**j mod p**(n + k + e) is divisible
    by p**e, with log(1 + y) = (S / p**e) * L**-1 mod p**(n + k).

    S is summed by baby steps and giant steps (Paterson and Stockmeyer
    1973), as _kernels.compose sums a series: the powers y**0 .. y**(s-1)
    with s ~ sqrt(d); the chunk sums of c_(i*s+t) * y**t, which multiply
    by coefficients only; and Horner's rule in y**s.  That is about
    2*sqrt(d) full products in place of d.
    """
    k, degree, e, s = _plan(p, n, int_valuation(x, p) if x else n)
    modulus = p ** (n + k)
    y = (pow(1 + x, p**k, modulus) - 1) % modulus
    if y == 0:
        return 0
    top = modulus * p**e
    lcm, coeffs = _log_coefficients(degree)
    powers = [1, y]
    while len(powers) <= s:  # baby steps y**0 .. y**s
        powers.append(powers[-1] * y % top)
    giant = powers.pop()
    total = 0
    for i in reversed(range(0, degree + 1, s)):  # giant steps, from the top
        total = (total * giant + sum(map(mul, coeffs[i : i + s], powers))) % top
    return total // p**e * pow(lcm // p**e, -1, modulus) % modulus // p**k


def log1p(x, abs_prec=None):
    """log(1 + x) for v(x) >= 1, exact to the tracked precision.

    Divergent inputs (v(x) = 0) raise DivergenceError carrying a witness
    term of non-positive valuation.
    """
    if not isinstance(x, Padic):
        raise DomainError("log1p expects a p-adic value")
    if abs_prec is None:
        abs_prec = x.abs_prec
    elif abs_prec > x.abs_prec:
        raise DomainError(
            f"requested precision {abs_prec} exceeds input precision {x.abs_prec}"
        )
    if x.is_zero:
        return Padic.zero(x.p, min(abs_prec, x.abs_prec))
    v = x.valuation()
    if v <= 0:
        raise DivergenceError(
            f"log series diverges for v(x) = {v}: term x^1/1 has valuation "
            f"{v} and the terms never tend to 0",
            witness_index=1,
            witness_valuation=v,
        )
    if 2 * v - (x.p == 2) >= abs_prec:  # every term past x vanishes mod p**abs_prec
        return x.truncate(abs_prec)
    value = _log_int(x.unit * x.p**v, x.p, abs_prec)
    return Padic.from_int(value, x.p, abs_prec)


def log_series_polynomial(p, abs_prec, domain_valuation):
    """Polynomial agreeing with log(1 + x) mod p**abs_prec on v(x) >= s.

    The degree is the largest j with j*s - floor(log_p j) < abs_prec; the
    coefficients (-1)**(j+1)/j are exact rationals carried to enough
    precision that every evaluation error stays below p**abs_prec.
    """
    check_prime(p)
    if domain_valuation < 1:
        raise DomainError("no valid truncation for domain valuation below 1")
    degree = series_degree(p, abs_prec, domain_valuation)
    coeffs = [Padic.zero(p, abs_prec)]
    for j in range(1, degree + 1):
        sign = 1 if j % 2 == 1 else -1
        coeffs.append(Padic.from_rational(sign, j, p, abs_prec))
    if degree == 0:
        coeffs.append(Padic.from_int(1, p, abs_prec))
    return PadicPolynomial(p, coeffs)


def log_inverse(z, abs_prec=None):
    """The x with log(1 + x) = z, for v(z) past the isometry threshold.

    Newton's method x -> x - (log(1 + x) - z) * (1 + x) from x = z, at
    doubling precision; the isometry pins v(x) = v(z), so z = 0 returns
    0.  The residual log(1 + x) - z is checked at full precision: by the
    isometry, its vanishing mod p**N proves x mod p**N.
    """
    if not isinstance(z, Padic):
        raise DomainError("log_inverse expects a p-adic value")
    p = z.p
    s = isometry_threshold(p)
    if abs_prec is None:
        abs_prec = z.abs_prec
    n = min(abs_prec, z.abs_prec)
    if z.is_zero:
        return Padic.zero(p, n)
    if z.valuation() < s:
        raise DomainError(
            f"inversion needs v(z) >= {s} for p = {p}; got v(z) = {z.valuation()}"
        )
    if 2 * z.v - (p == 2) >= n:  # log(1 + x) = x mod p**n, so x = z
        return z.truncate(n)
    target = z.unit * p**z.v % p**n

    def step(x, k):
        modulus = p**k
        return (x - (_log_int(x, p, k) - target) * (1 + x)) % modulus

    # z - x = -x**2/2 + x**3/3 - ... lies deeper than v(x) = v(z), so the
    # start x = z is correct to v(z) + 1 digits
    x = newton_lift(step, target, z.v + 1, n)
    if _log_int(x, p, n) != target:
        raise AssertionError("log_inverse: nonzero residual at full precision")
    return Padic.from_int(x, p, n)
