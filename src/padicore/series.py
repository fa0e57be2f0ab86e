"""Formal power series and Laurent series truncated modulo T**N.

Series are plain coefficient tuples over a coefficient field descriptor:
the prime field (raw values: reduced ints) or the exact rationals (raw
values: Fraction).  Everything is an identity modulo T**N, so the
representation is truncated rather than lazy.

Products and compositions run through the one integer convolution in
the kernel layer: prime-field coefficients as residues, rational ones
scaled by a common denominator, so Fraction arithmetic happens only once
per output coefficient.  Inverses come from Newton's iteration on these
products.

The T-adic size |f| = r**order(f) is kept symbolically as an RPower pair
(r, exponent); no real arithmetic is ever done on it.
"""

from fractions import Fraction
from math import lcm

from . import _kernels
from .errors import DivisionByZeroError, DomainError, FieldMismatchError
from .intmath import check_prime
from .primefield import FpElement


class PrimeFieldCoefficients:
    """Coefficient field of integers mod p; raw values are reduced ints."""

    __slots__ = ("p",)
    kind = "fp"

    def __init__(self, p):
        check_prime(p)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("field descriptor is immutable")

    zero = 0

    @property
    def one(self):
        return 1

    def coerce(self, x):
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise FieldMismatchError("FpElement from a different prime")
            return x.value
        if type(x) is int:  # a bool is not an int
            return x % self.p
        if isinstance(x, Fraction) and x.denominator == 1:
            return x.numerator % self.p
        raise DomainError(f"cannot coerce {x!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZeroError(f"0 has no inverse mod {self.p}")
        return pow(a, -1, self.p)

    def mul_int(self, n, a):
        return n * a % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeFieldCoefficients) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalCoefficients:
    """Coefficient field of exact rationals; raw values are Fractions."""

    __slots__ = ()
    kind = "q"

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if type(x) is int or isinstance(x, Fraction):  # a bool is not an int
            return Fraction(x)
        raise DomainError(f"cannot coerce {x!r} into the rationals")

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise DivisionByZeroError("0 has no inverse")
        return 1 / a

    def mul_int(self, n, a):
        return n * a

    def __eq__(self, other):
        return isinstance(other, RationalCoefficients)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "QQ"


QQ = RationalCoefficients()


class RPower:
    """The exact value r**exponent for a fixed ratio 0 < r < 1.

    ``exponent is None`` encodes the value 0 (the norm of the zero
    series).  Comparisons reverse on exponents; products add them.
    """

    __slots__ = ("r", "exponent")

    def __init__(self, r, exponent):
        r = Fraction(r)
        if not 0 < r < 1:
            raise DomainError("ratio must lie strictly between 0 and 1")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "exponent", exponent)

    def __setattr__(self, name, value):
        raise AttributeError("RPower is immutable")

    @property
    def is_zero(self):
        return self.exponent is None

    def _check(self, other):
        if not isinstance(other, RPower) or other.r != self.r:
            raise DomainError("RPower values with different ratios")

    def __mul__(self, other):
        self._check(other)
        if self.is_zero or other.is_zero:
            return RPower(self.r, None)
        return RPower(self.r, self.exponent + other.exponent)

    def __le__(self, other):
        self._check(other)
        if self.is_zero:
            return True
        if other.is_zero:
            return False
        return self.exponent >= other.exponent

    def __lt__(self, other):
        return self <= other and self != other

    def __eq__(self, other):
        if not isinstance(other, RPower):
            return NotImplemented
        return self.r == other.r and self.exponent == other.exponent

    def __hash__(self):
        return hash((self.r, self.exponent))

    def __repr__(self):
        if self.is_zero:
            return "0"
        return f"({self.r})^{self.exponent}"


def _pretty(field, coeffs, first, end):
    """``c*T^e + ... + O(T^end)`` for the coefficients of T**first, T**(first + 1), ..."""
    terms = []
    for e, c in enumerate(coeffs, first):
        if c == field.zero:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            var = "T" if e == 1 else f"T^{e}"
            terms.append(var if c == field.one else f"{c}*{var}")
    terms.append(f"O(T^{end})")
    return " + ".join(terms)


def _common_denominator(coeffs):
    # a list, not a generator: star-unpacking the generator form let the
    # `series` benchmark's peak RSS creep up by 1 MiB at the same live memory
    return lcm(*[c.denominator for c in coeffs])


def _product(field, a, b, n):
    """The first n raw coefficients of the product of raw coefficient sequences a and b."""
    if field.kind == "fp":
        return _kernels.convolve_mod(a, b, n, field.p)
    a, b = a[:n], b[:n]
    da, db = _common_denominator(a), _common_denominator(b)
    ia = [c.numerator * (da // c.denominator) for c in a]
    ib = [c.numerator * (db // c.denominator) for c in b]
    d = da * db
    return [Fraction(c, d) for c in _kernels.convolve(ia, ib, n)]


class PowerSeries:
    """A formal power series known modulo T**prec."""

    __slots__ = ("field", "prec", "coeffs")

    def __init__(self, field, coeffs, prec=None):
        coeffs = [field.coerce(c) for c in coeffs]
        if prec is None:
            prec = len(coeffs)
        if prec < 0:
            raise DomainError("order precision must be nonnegative")
        if len(coeffs) < prec:
            coeffs.extend([field.zero] * (prec - len(coeffs)))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "coeffs", tuple(coeffs[:prec]))

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    @classmethod
    def _raw(cls, field, coeffs, prec):
        """A series of a list or tuple of exactly prec raw field values.

        Nothing is coerced or checked: the results of series arithmetic are
        already raw values.  (A sized sequence also gives ``tuple`` the exact
        length; built from an iterator, small tuples would drift between
        CPython's per-length free lists.)
        """
        series = object.__new__(cls)
        object.__setattr__(series, "field", field)
        object.__setattr__(series, "prec", prec)
        object.__setattr__(series, "coeffs", tuple(coeffs))
        return series

    @classmethod
    def one(cls, field, prec):
        return cls(field, [field.one], prec)

    def _check(self, other):
        if not isinstance(other, PowerSeries):
            raise DomainError("expected a PowerSeries")
        if other.field != self.field:
            raise FieldMismatchError(
                f"cannot combine series over {self.field!r} and {other.field!r}"
            )

    # ----------------------------------------------------------- arithmetic

    def __add__(self, other):
        self._check(other)
        n = min(self.prec, other.prec)
        return PowerSeries._raw(self.field, list(map(self.field.add, self.coeffs, other.coeffs)), n)

    def __neg__(self):
        return PowerSeries._raw(self.field, list(map(self.field.neg, self.coeffs)), self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        n = min(self.prec, other.prec)
        return PowerSeries._raw(self.field, _product(self.field, self.coeffs, other.coeffs, n), n)

    def scale(self, a):
        a = self.field.coerce(a)
        mul = self.field.mul
        return PowerSeries(self.field, [mul(a, c) for c in self.coeffs], self.prec)

    # -------------------------------------------------------------- queries

    def truncate(self, prec):
        """The same series known only modulo T**prec (prec <= self.prec)."""
        if prec > self.prec:
            raise DomainError(
                f"cannot raise series precision from {self.prec} to {prec}"
            )
        if prec < 0:
            raise DomainError("order precision must be nonnegative")
        return PowerSeries._raw(self.field, self.coeffs[:prec], prec)

    def order(self):
        """Index of the first nonzero stored coefficient, or None.

        None means the order is only known to be >= prec (the order of the
        zero series being +infinity).
        """
        for i, c in enumerate(self.coeffs):
            if c != self.field.zero:
                return i
        return None

    def norm(self, r):
        """The T-adic size r**order as an exact RPower; zero maps to 0."""
        return RPower(r, self.order())

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return (
            self.field == other.field
            and self.prec == other.prec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.prec, self.coeffs))

    # ------------------------------------------------- inversion/composition

    def invert_one_minus(self):
        """Inverse of (1 - a) for this series a with zero constant term."""
        if self.prec > 0 and self.coeffs[0] != self.field.zero:
            raise DomainError("geometric inversion needs zero constant term")
        return (PowerSeries.one(self.field, self.prec) - self)._inverse()

    def _inverse(self):
        """Inverse of a series with nonzero constant term, to its precision.

        Newton's iteration x <- x + x*(1 - self*x) doubles the number of
        correct coefficients per step (Brent & Kung, 1978).  With x correct
        mod T**h and m = min(2h, n), e = self*x mod T**m is 1 + T**h * E,
        so the correction x*(1 - e) = -T**h * x*E needs only x and E mod
        T**(m - h): one full-size product for e and one of half the size,
        whose negation is appended to x as its coefficients h, ..., m - 1.
        """
        field, n = self.field, self.prec
        x = [field.inv(self.coeffs[0])] if n else []
        while len(x) < n:
            h = len(x)
            m = min(2 * h, n)
            e = _product(field, self.coeffs, x, m)
            x += map(field.neg, _product(field, x, e[h:], m - h))
        return PowerSeries._raw(field, x, n)

    def compose(self, other):
        """The series self(other(T)); other must have zero constant term."""
        self._check(other)
        n = min(self.prec, other.prec)
        if n > 0 and other.coeffs[0] != other.field.zero:
            raise DomainError("composition requires zero constant term")
        if self.field.kind == "fp":
            out = _kernels.compose(list(self.coeffs), list(other.coeffs), n, self.field.p)
            return PowerSeries._raw(self.field, out, n)
        # F = df*f and G = dg*g have integer coefficients, and the kernel
        # returns dg**(n-1) * F(G/dg) = df * dg**(n-1) * f(g)
        df = _common_denominator(self.coeffs[:n])
        dg = _common_denominator(other.coeffs[:n])
        fi = [c.numerator * (df // c.denominator) for c in self.coeffs[:n]]
        gi = [c.numerator * (dg // c.denominator) for c in other.coeffs[:n]]
        d = df * dg ** (n - 1) if n else 1
        out = _kernels.compose(fi, gi, n, d=dg)
        return PowerSeries._raw(self.field, [Fraction(c, d) for c in out], n)

    # -------------------------------------------------------------- calculus

    def derive(self):
        """Formal derivative; output precision drops by one."""
        n = max(self.prec - 1, 0)
        mul_int = self.field.mul_int
        return PowerSeries._raw(
            self.field,
            [mul_int(j, self.coeffs[j]) for j in range(1, self.prec)],
            n,
        )

    # ------------------------------------------------------------ rendering

    def pretty(self):
        """Human form, e.g. ``1 + 2*T^2 + O(T^4)``."""
        return _pretty(self.field, self.coeffs, 0, self.prec)

    def __str__(self):
        return self.pretty()

    def __repr__(self):
        return f"PowerSeries({self.field!r}, {self.pretty()})"


class LaurentSeries:
    """A formal Laurent series: T**tail times a unit power series.

    The unit part has nonzero constant term.  The zero Laurent series is
    stored as ``unit is None`` with an order bound (order known >= bound).
    """

    __slots__ = ("field", "tail", "unit", "order_bound")

    def __init__(self, field, coeffs, tail=0, prec=None):
        """Series sum coeffs[i] * T**(tail + i), known to T**(tail + prec)."""
        coeffs = [field.coerce(c) for c in coeffs]
        if prec is None:
            prec = len(coeffs)
        if len(coeffs) < prec:
            coeffs.extend([field.zero] * (prec - len(coeffs)))
        coeffs = coeffs[:prec]
        shift = 0
        while shift < len(coeffs) and coeffs[shift] == field.zero:
            shift += 1
        object.__setattr__(self, "field", field)
        if shift == len(coeffs):
            object.__setattr__(self, "unit", None)
            object.__setattr__(self, "tail", 0)
            object.__setattr__(self, "order_bound", tail + prec)
        else:
            unit = PowerSeries(field, coeffs[shift:], prec - shift)
            object.__setattr__(self, "unit", unit)
            object.__setattr__(self, "tail", tail + shift)
            object.__setattr__(self, "order_bound", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    @classmethod
    def from_power_series(cls, ps, tail=0):
        return cls(ps.field, list(ps.coeffs), tail, ps.prec)

    @classmethod
    def _of_unit(cls, unit, tail):
        """T**tail times a PowerSeries with nonzero constant term, kept as it is."""
        series = object.__new__(cls)
        object.__setattr__(series, "field", unit.field)
        object.__setattr__(series, "unit", unit)
        object.__setattr__(series, "tail", tail)
        object.__setattr__(series, "order_bound", None)
        return series

    @property
    def is_zero(self):
        return self.unit is None

    @property
    def prec_exponent(self):
        """Exponent e such that the series is known modulo T**e."""
        if self.is_zero:
            return self.order_bound
        return self.tail + self.unit.prec

    def _check(self, other):
        if not isinstance(other, LaurentSeries):
            raise DomainError("expected a LaurentSeries")
        if other.field != self.field:
            raise FieldMismatchError("mismatched coefficient fields")

    def order(self):
        """Exact tail valuation, or None when only a lower bound is known."""
        return None if self.is_zero else self.tail

    def norm(self, r):
        return RPower(r, self.order())

    def __add__(self, other):
        self._check(other)
        if self.is_zero and other.is_zero:
            return LaurentSeries(
                self.field, [], 0, min(self.order_bound, other.order_bound)
            )
        if self.is_zero:
            return other._truncated(min(self.order_bound, other.prec_exponent))
        if other.is_zero:
            return self._truncated(min(other.order_bound, self.prec_exponent))
        tail = min(self.tail, other.tail)
        end = min(self.prec_exponent, other.prec_exponent)
        add = self.field.add
        coeffs = []
        for e in range(tail, end):
            coeffs.append(add(self._coeff_at(e), other._coeff_at(e)))
        return LaurentSeries(self.field, coeffs, tail, max(end - tail, 0))

    def _coeff_at(self, e):
        if self.is_zero:
            return self.field.zero
        i = e - self.tail
        if 0 <= i < self.unit.prec:
            return self.unit.coeffs[i]
        return self.field.zero

    def _truncated(self, end):
        if self.is_zero:
            return LaurentSeries(self.field, [], 0, min(self.order_bound, end))
        keep = end - self.tail
        if keep <= 0:
            return LaurentSeries(self.field, [], 0, end)
        return LaurentSeries(
            self.field, list(self.unit.coeffs[:keep]), self.tail, keep
        )

    def __neg__(self):
        if self.is_zero:
            return self
        return LaurentSeries.from_power_series(-self.unit, self.tail)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        if self.is_zero or other.is_zero:
            bound_a = self.order_bound if self.is_zero else self.tail
            bound_b = other.order_bound if other.is_zero else other.tail
            return LaurentSeries(self.field, [], 0, bound_a + bound_b)
        prod = self.unit * other.unit
        return LaurentSeries.from_power_series(prod, self.tail + other.tail)

    def invert(self):
        """Multiplicative inverse; the tail valuation negates.

        The unit part is inverted by Newton's iteration to its own
        precision, so the inverse is known to T**(unit.prec - tail).
        """
        if self.is_zero:
            raise DivisionByZeroError("cannot invert a zero-to-order series")
        return LaurentSeries._of_unit(self.unit._inverse(), -self.tail)

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if self.field != other.field:
            return False
        if self.is_zero or other.is_zero:
            return (
                self.is_zero
                and other.is_zero
                and self.order_bound == other.order_bound
            )
        return self.tail == other.tail and self.unit == other.unit

    def __hash__(self):
        return hash((self.field, self.tail, self.unit, self.order_bound))

    def pretty(self):
        """Human form, e.g. ``T^-1 + 1 + T + O(T^3)``."""
        if self.is_zero:
            return _pretty(self.field, (), 0, self.order_bound)
        return _pretty(self.field, self.unit.coeffs, self.tail, self.prec_exponent)

    def __str__(self):
        return self.pretty()

    def __repr__(self):
        return f"LaurentSeries({self.field!r}, {self.pretty()})"
