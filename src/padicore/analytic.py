"""Polynomials over the p-adics viewed as analytic functions on balls.

Everything here is exact: evaluation is Horner's rule on the parts
(valuation, unit, relative precision) of tracked-precision values, each
step following the precision rules of ``Padic`` multiplication and
addition, so it gives the parts that Horner on ``Padic`` values gives
while building only the result.  Taylor recentering is n - 1
synthetic-division passes of the same Horner step, and the two
quantitative bounds are integer minima over coefficient valuations.
The derivative is taken on parts too: with j = p**e * k and k prime to
p, the coefficient j * c_j of parts (v, u, r) is (v + e, u * k mod p**r,
r), the product of c_j with j exact to r digits, and a zero to precision
O(p**v) becomes O(p**(v + e)).  An int or Fraction argument is exact:
it is read to as many digits as Horner's rule on the coefficients can
use, so it never bounds a result.  Exact coefficients and arguments are
recognised as ``padics`` recognises an exact operand: ``int`` itself or a
Fraction found through ``intmath.is_fraction``, with no import of
``fractions``; only a ``ValuationGrowthRule`` builds a Fraction here.

Radii are restricted to integer powers of p and handled through their
exponents.  Real thresholds that fall between value-group elements (the
classic p = 2 pitfall) are translated into valuation inequalities by the
callers that need them; see the log module.

For a ball of radius p**-m and a polynomial sum a_j x^j:

* ``lipschitz_bound`` returns mu1 = min over j >= 1 of
  v(a_j) + (j - 1) * m, guaranteeing
  v(f(x) - f(y)) >= mu1 + v(x - y) on the ball;
* ``quadratic_bound`` returns mu2 = min over j >= 2 of
  v(a_j) + (j - 2) * m, guaranteeing
  v(f(x) - f(y) - f'(y)(x - y)) >= mu2 + 2 * v(x - y).

Zero-to-precision coefficients enter these minima through their valuation
lower bound, which can only weaken (never falsify) the guarantees.
"""

import math
from collections import namedtuple

from .errors import DomainError, PrimeMismatchError, UnsupportedRuleError
from .intmath import check_prime, int_valuation, is_fraction
from .padics import Padic, _add_parts, _mul_parts, _padic, _read_exact


class PadicPolynomial:
    """A finite-degree polynomial with tracked-precision p-adic coefficients."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs, abs_prec=None):
        check_prime(p)
        converted = []
        literal_zero = []
        for c in coeffs:
            if isinstance(c, Padic):
                if c.p != p:
                    raise PrimeMismatchError("coefficient from a different prime")
                converted.append(c)
                literal_zero.append(False)
            elif type(c) is int or is_fraction(c):  # a bool is not an int
                converted.append(Padic.from_rational(c, 1, p, abs_prec))
                literal_zero.append(c == 0)
            else:
                raise DomainError(f"cannot use {c!r} as a coefficient")
        # trailing exact (literal) zeros are trimmed; zero-to-precision
        # Padic coefficients are uncertainty and stay
        while converted and literal_zero[-1]:
            converted.pop()
            literal_zero.pop()
        if not converted:
            converted = [Padic.zero(p, abs_prec if abs_prec is not None else 1)]
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(converted))

    def __setattr__(self, name, value):
        raise AttributeError("PadicPolynomial is immutable")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if not isinstance(other, PadicPolynomial):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        inner = ", ".join(c.compact() for c in self.coeffs)
        return f"PadicPolynomial(p={self.p}, [{inner}])"

    def pretty(self):
        """Human form: the coefficients from the constant up, ``[c0, c1, ...]``."""
        return f"[{', '.join(c.pretty() for c in self.coeffs)}]"

    def evaluate(self, x, min_valuation=None):
        """Exact Horner evaluation at x.

        When min_valuation is given, x must lie in the declared ball
        (v(x) >= min_valuation) or a DomainError is raised.
        """
        if not isinstance(x, Padic):
            x = _exact_argument(self, x)
        if x.p != self.p:
            raise PrimeMismatchError("argument from a different prime")
        if min_valuation is not None and x.valuation_bound < min_valuation:
            raise DomainError(
                f"argument valuation {x.valuation_bound} below the declared "
                f"ball exponent {min_valuation}"
            )
        parts = [(c.v, c.unit, c.rel) for c in self.coeffs]
        _horner(self.p, parts, (x.v, x.unit, x.rel), 0)
        return _padic(self.p, *parts[0])

    def derivative(self):
        """Formal derivative with the integer factors folded in exactly.

        With j = p**e * k, k prime to p, the coefficient j * c_j has the
        parts of the product of c_j with (e, k, rel(c_j)), j exact to the
        coefficient's relative precision: (v + e, unit * k mod p**rel, rel),
        or (v + e, 0, 0) for a zero to precision.
        """
        p, out = self.p, []
        for j in range(1, len(self.coeffs)):
            c, e = self.coeffs[j], int_valuation(j, p)
            out.append(_padic(p, *_mul_parts(p, (c.v, c.unit, c.rel), (e, j // p**e, c.rel))))
        if not out:
            return PadicPolynomial(p, [Padic.zero(p, 1)])
        return PadicPolynomial(p, out)

    def recenter(self, x0):
        """The polynomial g with g(y) = f(x0 + y), by exact Taylor shift."""
        if not isinstance(x0, Padic):
            x0 = _exact_argument(self, x0)
        if x0.p != self.p:
            raise PrimeMismatchError("center from a different prime")
        p, x = self.p, (x0.v, x0.unit, x0.rel)
        parts = [(c.v, c.unit, c.rel) for c in self.coeffs]
        for low in range(len(parts) - 1):
            _horner(p, parts, x, low)
        return PadicPolynomial(p, [_padic(p, *part) for part in parts])


def _exact_argument(f, x, least=1):
    """The int or Fraction x as a Padic that no evaluation or Taylor shift
    of f is bounded by, known to at least max(least, 1) digits past its
    valuation; DomainError for any other type.

    x is read to max_j N(c_j) - min(0, min_j v(c_j)) digits.  A nonzero
    Horner value keeps at most the largest relative precision of the
    coefficients, max_j N(c_j) - v(c_j), and a zero x that many digits
    puts every product x * acc at or past max_j N(c_j); so x gives the
    parts that it gives known to any more digits.
    """
    rel = max(max(c.abs_prec for c in f.coeffs) - min([0] + [c.v for c in f.coeffs]), least, 1)
    return _read_exact(f.p, x, None, rel)


def _horner(p, parts, x, low):
    """Horner's rule at x on (v, unit, rel) parts, in place.

    For j from len(parts) - 2 down to low, parts[j] becomes
    parts[j + 1] * x + parts[j] through the part functions of
    ``Padic.__mul__`` and ``Padic.__add__``.  So parts[low] ends as the
    value at x of the polynomial of coefficients parts[low:].
    """
    acc = parts[-1]
    for j in range(len(parts) - 2, low - 1, -1):
        acc = parts[j] = _add_parts(p, _mul_parts(p, acc, x), parts[j])


def lipschitz_bound(f, radius_exp):
    """Valuation mu1 of the Lipschitz constant of f on p**-radius_exp balls.

    Guarantee: v(f(x) - f(y)) >= mu1 + v(x - y) for x, y in the ball.
    Constant polynomials have no Lipschitz data and raise DomainError.
    """
    if f.degree < 1:
        raise DomainError("constant polynomial: Lipschitz constant is 0")
    return min(
        f.coeffs[j].valuation_bound + (j - 1) * radius_exp
        for j in range(1, len(f.coeffs))
    )


def quadratic_bound(f, radius_exp):
    """Valuation mu2 of the second-order remainder constant of f.

    Guarantee: v(f(x) - f(y) - f'(y)(x - y)) >= mu2 + 2*v(x - y) on the
    ball of radius p**-radius_exp.  Degree below 2 gives +infinity (the
    bound is vacuous).
    """
    if f.degree < 2:
        return math.inf
    return min(
        f.coeffs[j].valuation_bound + (j - 2) * radius_exp
        for j in range(2, len(f.coeffs))
    )


class ValuationGrowthRule(namedtuple("ValuationGrowthRule", "slope logflag offset")):
    """Certified lower bound v(a_j) >= slope*j - logflag*floor(log_p j) - offset.

    Describes the coefficient decay of the two infinite-tail shapes this
    package needs: geometric tails (logflag = 0) and the logarithm tail
    (logflag = 1).  The bound is treated as tight when deciding boundary
    behaviour.  The slope is kept as a Fraction.
    """

    __slots__ = ()

    def __new__(cls, slope, logflag=0, offset=0):
        from fractions import Fraction

        slope = Fraction(slope)
        if slope < 0:
            raise UnsupportedRuleError("negative slope is not a supported shape")
        if logflag not in (0, 1):
            raise UnsupportedRuleError("logflag must be 0 or 1")
        return super().__new__(cls, slope, logflag, offset)


class RadiusReport(namedtuple("RadiusReport", "rho_exponent terms_vanish_on_boundary witness")):
    """Radius of convergence p**rho_exponent plus boundary behaviour."""

    __slots__ = ()


def radius_of_convergence(rule):
    """Radius exponent and boundary behaviour for a growth rule.

    With v(a_j) = slope*j - logflag*floor(log_p j) - offset, terms a_j x^j
    satisfy v = j*(slope + v(x)) - logflag*floor(log_p j) - offset, which
    tends to +infinity exactly when v(x) > -slope; so the radius is
    p**slope.  On the boundary v(x) = -slope the term valuations along
    j = p**k are -logflag*k - offset, which never tend to +infinity:
    the series diverges there for every supported shape.
    """
    if not isinstance(rule, ValuationGrowthRule):
        raise UnsupportedRuleError("expected a ValuationGrowthRule")
    if rule.logflag:
        witness = (
            "terms at indices j = p^k have boundary valuation -k - "
            f"{rule.offset}, unbounded below"
        )
    else:
        witness = (
            f"terms have constant boundary valuation -{rule.offset}, "
            "never tending to +infinity"
        )
    return RadiusReport(
        rho_exponent=rule.slope,
        terms_vanish_on_boundary=False,
        witness=witness,
    )
