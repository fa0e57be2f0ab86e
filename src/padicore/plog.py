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
power summed to N + k digits.  There is no p-adic exponential here:
log_inverse is Newton's method on log1p itself, whose derivative
1/(1 + x) inverts exactly, at doubling precision, and the isometry
v(log(1 + x) - log(1 + y)) = v(x - y) turns one vanishing residual at
full precision into the certificate that pins x mod p**N.  The
truncated polynomial of log_series_polynomial serves the plog poly
command and, with the Hensel solver, the inversion oracle in the tests.
"""

import math

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
    returned degree contribute nothing modulo p**abs_prec.
    """
    if domain_valuation < 1:
        raise DomainError("domain valuation bound must be at least 1")
    j = 1
    last = 0
    while j * domain_valuation - floor_log(j, p) < abs_prec:
        last = j
        j += 1
    return last


def _log_int(x, p, n):
    """log(1 + x) mod p**n, for an integer x divisible by p and n >= 1.

    Argument reduction (Brent 1976): y = (1 + x)**(p**k) - 1 has
    v(y) >= v(x) + k and log(1 + y) = p**k * log(1 + x), so the series in
    y is summed mod p**(n + k) and divided by p**k.  A p-th power costs
    about log2(p) squarings, so k ~ sqrt(n / log2(p)) balances the
    powering against the ~ (n + k) / (v(x) + k) terms of the series.
    """
    k = math.isqrt(n // p.bit_length())
    m = n + k
    y = pow(1 + x, p**k, p**m) - 1
    if y == 0:
        return 0
    degree = series_degree(p, m, int_valuation(y, p))
    # y**j / j needs y**j to v_p(j) more digits than the sum
    top = p ** (m + floor_log(degree, p))
    modulus = p**m
    total = 0
    power = 1
    for j in range(1, degree + 1):
        power = power * y % top
        e, rest = 0, j
        while rest % p == 0:
            e, rest = e + 1, rest // p
        term = power // p**e * pow(rest, -1, modulus)
        total += term if j % 2 else -term
    return total % modulus // p**k


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
    return Padic.from_int(value, x.p, abs_prec, cap=abs_prec)


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
        needed = abs_prec + floor_log(j, p)
        coeffs.append(
            Padic.from_rational(sign, j, p, abs_prec=abs_prec, cap=needed + 1)
        )
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
    return Padic.from_int(x, p, n, cap=n)
