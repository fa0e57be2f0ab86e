"""Truncated-precision exact arithmetic in the p-adic field.

A nonzero value is stored as ``p**v * m + O(p**(v + r))`` with an integer
valuation ``v``, a unit mantissa ``m`` (``0 < m < p**r``, not divisible by
p), and a relative precision ``r >= 1``.  A value indistinguishable from
zero stores only an absolute precision bound ``N`` and means
``0 + O(p**N)``: its valuation is known only to be ``>= N``.

Absolute values are never materialised as floating reals.  All size
comparisons go through integer valuations (larger valuation means smaller
number), so every arithmetic fact here is exact.

Precision rules per operation:

* add/sub: absolute precision ``min(N_x, N_y)``; the valuation of the sum
  is computed, never assumed, so full cancellation yields a
  zero-to-precision result rather than an error.
* mul: absolute precision ``min(v_x + N_y, v_y + N_x)``, i.e. relative
  precision ``min(r_x, r_y)``.
* invert: valuation negates, relative precision is preserved.

Every value is kept in normal form: ``0 < unit < p**rel`` with p not
dividing ``unit``, or ``unit == rel == 0`` for zero.  The operations rely
on it: a product, negative or inverse of units is a unit, so those
results are built from ``unit % p**rel`` with no valuation scan, and
truncating a value to its own precision returns the value itself.  The
public constructor checks the prime and the normal form; the library's
own results, whose parts are normal by construction, go through the
unchecked ``_padic``.

An exact number read to absolute precision N is the ball x + O(p**N),
whatever N is.  The cap (default 64 digits) is only the precision when
none is given; the CLI bounds its input by ``--prec <= cap`` and by
refusing a pretty term exponent below -cap.  A plain ``int`` or
``Fraction`` operand is exact: it is read at least as precise as the
other operand, in absolute and relative precision, so it never bounds
a result.  An exact operand is recognised by its type: ``int`` itself
(a bool is refused) or ``Fraction`` and its subclasses, the latter
through ``intmath.is_fraction``, which looks for ``fractions`` in
``sys.modules`` rather than importing it.  So integer operands never load
``fractions``; only ``lift`` builds a Fraction, and imports it to do so.
"""

from .errors import (
    DivisionByZeroError,
    DomainError,
    NotAnIntegerError,
    ParseError,
    PrecisionError,
    PrimeMismatchError,
)
from .intmath import (
    DEFAULT_PRECISION_CAP,
    check_prime,
    int_valuation,
    inv_mod,
    is_fraction,
    power_prints,
    str_digit_limit,
)


class Padic:
    """A p-adic number known modulo a power of p."""

    __slots__ = ("p", "v", "unit", "rel")

    def __init__(self, p, v, unit, rel):
        """Build from int parts in normal form; prefer the classmethods.

        A composite p, a part that is not an int (a bool included), a
        negative rel or parts out of normal form raise DomainError.
        """
        check_prime(p)
        if not all(type(part) is int for part in (v, unit, rel)):
            raise DomainError("Padic parts v, unit and rel must be integers")
        if rel < 0:
            raise DomainError(f"relative precision {rel} is negative")
        if (unit or rel) and not (0 < unit and unit % p and _mod_power(unit, p, rel) == unit):
            raise DomainError(
                "Padic parts are not in normal form: need 0 < unit < p**rel "
                "with p not dividing unit, or unit == rel == 0"
            )
        _set_p(self, p)
        _set_v(self, v)
        _set_unit(self, unit)
        _set_rel(self, rel)

    def __setattr__(self, name, value):
        raise AttributeError("Padic is immutable")

    # ---------------------------------------------------------- constructors

    @classmethod
    def zero(cls, p, abs_prec):
        """The value 0 + O(p**abs_prec)."""
        check_prime(p)
        return _padic(p, abs_prec, 0, 0)

    @staticmethod
    def _normalised(p, v, raw, rel):
        """Value p**v * raw known mod p**(v + rel); raw may be non-unit."""
        return _padic(p, *_normalised_parts(p, v, raw, rel))

    @classmethod
    def from_int(cls, n, p, abs_prec=None, cap=DEFAULT_PRECISION_CAP):
        """The integer n known mod p**abs_prec (default: to cap digits past
        its valuation).  An n that is not an int (a bool included) raises
        DomainError.
        """
        check_prime(p)
        _read_int(n, "from_int")
        if abs_prec is None:
            return _exact_padic(p, n, 1, None, cap)
        return _exact_padic(p, n, 1, abs_prec)

    @classmethod
    def from_rational(cls, a, b=1, p=None, abs_prec=None, cap=DEFAULT_PRECISION_CAP):
        """The rational a/b known mod p**abs_prec (default: mod p**cap, and
        to at most cap digits past its valuation).  An a that is not an int
        or Fraction, or a b that is not an int (a bool included), raises
        DomainError.
        """
        if not (type(a) is int or is_fraction(a)) or type(b) is not int:
            raise DomainError(
                "from_rational needs an int or Fraction over an int, "
                f"got {type(a).__name__} / {type(b).__name__}"
            )
        if type(a) is not int:
            a, b = a.numerator, a.denominator * b
        if p is None:
            raise ValueError("prime p is required")
        check_prime(p)
        if b == 0:
            raise DivisionByZeroError("denominator is zero")
        if abs_prec is None:
            return _exact_padic(p, a, b, cap, cap)
        return _exact_padic(p, a, b, abs_prec)

    # -------------------------------------------------------------- queries

    @property
    def is_zero(self):
        """True when the value is indistinguishable from 0 at its precision."""
        return self.unit == 0

    @property
    def abs_prec(self):
        """N such that the value is known modulo p**N."""
        return self.v + self.rel

    def valuation(self):
        """Exact valuation; zero-to-precision values raise PrecisionError."""
        if self.is_zero:
            raise PrecisionError(
                f"valuation known only to be >= {self.v} at this precision"
            )
        return self.v

    @property
    def valuation_bound(self):
        """Exact valuation for nonzero values, lower bound for zero."""
        return self.v

    def digits(self):
        """Little-endian base-p digits of the mantissa (empty for zero)."""
        if self.is_zero:
            return []
        out = []
        m = self.unit
        for _ in range(self.rel):
            m, d = divmod(m, self.p)
            out.append(d)
        return out

    def lift(self):
        """The canonical rational representative p**v * m."""
        from fractions import Fraction

        if self.is_zero:
            return Fraction(0)
        return Fraction(self.unit) * Fraction(self.p) ** self.v

    def residue(self, j):
        """This value reduced modulo p**j, as a ResidueClass.

        Requires valuation >= 0 (a p-adic integer) and enough precision.
        A nonzero residue is at least p**v; when that has more digits than
        str() prints, it is refused before the power is built.
        """
        if j < 0:
            raise DomainError("residue level must be nonnegative")
        if self.v < 0:
            raise NotAnIntegerError(
                f"valuation {self.v} < 0: not a p-adic integer"
            )
        if self.abs_prec < j:
            raise PrecisionError(
                f"known only mod p^{self.abs_prec}, cannot reduce mod p^{j}"
            )
        p, v = self.p, self.v
        if v >= j:  # zero, or a multiple of p**j
            return ResidueClass(p, j, 0)
        if v and not power_prints(p, v):
            raise DomainError(f"the residue has more than {str_digit_limit()} digits")
        return ResidueClass(p, j, _mod_power(self.unit, p, j - v) * p**v)

    def truncate(self, abs_prec):
        """Forget information: the same value to a lower absolute precision."""
        own = self.v + self.rel
        if abs_prec == own:
            return self
        if abs_prec > own:
            raise PrecisionError(
                f"cannot raise precision from {own} to {abs_prec}"
            )
        return _padic(self.p, *_exact_parts(self.p, (self.v, self.unit, self.rel), abs_prec))

    # ----------------------------------------------------------- arithmetic

    def _coerce(self, other):
        if isinstance(other, Padic):
            if other.p != self.p:
                raise PrimeMismatchError(
                    f"cannot combine {self.p}-adic and {other.p}-adic values"
                )
            return other
        if type(other) is not int and not is_fraction(other):
            return None  # a bool or float included
        # an exact constant never bounds the result: it is read at least
        # as precise as this value, in absolute and in relative precision
        if not other:
            return _padic(self.p, max(self.abs_prec, self.rel), 0, 0)
        p, num, den = self.p, other.numerator, other.denominator
        v = int_valuation(num, p) - int_valuation(den, p)
        return _exact_padic(p, num, den, max(self.abs_prec, v + max(self.rel, 1)))

    def __add__(self, other):
        if type(other) is not Padic or other.p != self.p:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = (self.v, self.unit, self.rel), (other.v, other.unit, other.rel)
        return _padic(self.p, *_add_parts(self.p, a, b))

    __radd__ = __add__

    def __neg__(self):
        if not self.unit:
            return self
        return _padic(self.p, self.v, -self.unit % self.p**self.rel, self.rel)

    def __sub__(self, other):
        if type(other) is not Padic or other.p != self.p:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = (self.v, self.unit, self.rel), (other.v, other.unit, other.rel)
        return _padic(self.p, *_add_parts(self.p, a, b, -1))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if type(other) is not Padic or other.p != self.p:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = (self.v, self.unit, self.rel), (other.v, other.unit, other.rel)
        return _padic(self.p, *_mul_parts(self.p, a, b))

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse; relative precision is preserved."""
        if not self.unit:
            raise DivisionByZeroError(
                f"cannot invert 0 + O({self.p}^{self.abs_prec})"
            )
        return _padic(self.p, -self.v, inv_mod(self.unit, self.p**self.rel), self.rel)

    def __truediv__(self, other):
        if type(other) is not Padic or other.p != self.p:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.invert()

    def __pow__(self, e):
        if type(e) is not int:  # a bool or float included
            return NotImplemented
        if e < 0:
            return self.invert() ** (-e)
        result = _padic(self.p, 0, 1, max(self.rel, 1))
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # ------------------------------------------------------------- equality

    def __eq__(self, other):
        """Representation equality: same prime, parts, and precision.

        Use ``(x - y).is_zero`` to test indistinguishability at the shared
        precision instead.
        """
        if not isinstance(other, Padic):
            return NotImplemented
        return (
            self.p == other.p
            and self.v == other.v
            and self.unit == other.unit
            and self.rel == other.rel
        )

    def __hash__(self):
        return hash((self.p, self.v, self.unit, self.rel))

    # ------------------------------------------------------------ rendering

    def __str__(self):
        return self.pretty()

    def __repr__(self):
        return f"Padic({self.compact()})"

    def pretty(self):
        """Human form, e.g. ``3 + 1*7 + 2*7^2 + O(7^3)``."""
        if self.is_zero:
            return f"O({self.p}^{self.abs_prec})"
        terms = []
        for i, d in enumerate(self.digits()):
            if d == 0:
                continue
            e = self.v + i
            if e == 0:
                terms.append(str(d))
            elif e == 1:
                terms.append(f"{d}*{self.p}")
            else:
                terms.append(f"{d}*{self.p}^{e}")
        terms.append(f"O({self.p}^{self.abs_prec})")
        return " + ".join(terms)

    def compact(self):
        """Machine form, e.g. ``7^0*[3,1,2]+O(7^3)``."""
        if self.is_zero:
            return f"O({self.p}^{self.abs_prec})"
        digitstr = ",".join(str(d) for d in self.digits())
        return f"{self.p}^{self.v}*[{digitstr}]+O({self.p}^{self.abs_prec})"

    def to_json_dict(self):
        if self.is_zero:
            return {"p": self.p, "digits": [], "abs_prec": self.abs_prec}
        return {
            "p": self.p,
            "valuation": self.v,
            "digits": self.digits(),
            "abs_prec": self.abs_prec,
        }

    @classmethod
    def from_json_dict(cls, data):
        """The value of a JSON dict; the JSON and compact forms both end here."""
        p = check_prime(data["p"])
        digits = [_integer(d, "digit") for d in data["digits"]]
        abs_prec = _integer(data["abs_prec"], "abs_prec")
        if any(not 0 <= d < p for d in digits):
            raise ParseError(f"{p}-adic digits must lie in [0, {p})")
        if not digits:
            return cls.zero(p, abs_prec)
        v = _integer(data["valuation"], "valuation")
        if abs_prec < v:
            raise ParseError(f"abs_prec {abs_prec} is below the valuation {v}")
        m = 0
        for d in reversed(digits):
            m = m * p + d
        if not m:
            return cls.zero(p, abs_prec)
        # the unit is known mod p**(abs_prec - v): decide before building it
        _check_unit_modulus_prints(p, abs_prec - v)
        return cls._normalised(p, v, m, abs_prec - v)


# the slots' own setters: Padic.__setattr__ refuses every write
_set_p, _set_v, _set_unit, _set_rel = (Padic.__dict__[name].__set__ for name in Padic.__slots__)
_new = object.__new__


def _padic(p, v, unit, rel):
    """The Padic of parts already in normal form, unchecked: the builder
    of every value the library makes from parts it has checked."""
    x = _new(Padic)
    _set_p(x, p)
    _set_v(x, v)
    _set_unit(x, unit)
    _set_rel(x, rel)
    return x


# The precision rules on parts, the triple (v, unit, rel) of a value in
# normal form.  Each is the one implementation of its operation: the Padic
# operators call it, and so do the loops that run on parts without
# building values (analytic._horner, hensel.solve).


def _normalised_parts(p, v, raw, rel):
    """The parts of p**v * raw known mod p**(v + rel); raw may be non-unit."""
    raw %= p**rel
    if not raw:
        return v + rel, 0, 0
    if raw % p:
        return v, raw, rel
    shift = int_valuation(raw, p)
    return v + shift, raw // p**shift, rel - shift


def _exact_parts(p, a, n):
    """The parts of the representative p**v * unit of a, known mod p**n.

    Below a's own precision this is truncation; above it the unit is
    taken as exact and lifted, so a zero stays zero and a unit stays the
    same integer.  A unit reduced mod p**k, k >= 1, is still a unit, so
    no valuation scan is needed.
    """
    v, u, r = a
    if not u or v >= n:
        return n, 0, 0
    if v + r > n:
        return v, u % p ** (n - v), n - v
    return v, u, n - v


def _add_parts(p, a, b, sign=1):
    """The parts of a + b, or of a - b for sign = -1.

    Absolute precision min(N_a, N_b); the valuation of the sum is
    computed, never assumed, so full cancellation gives a zero.  An
    operand that vanishes mod p**n contributes nothing.
    """
    av, au, ar = a
    bv, bu, br = b
    n = av + ar
    if bv + br < n:
        n = bv + br
    if av >= n:
        b = _exact_parts(p, b, n)
        if sign < 0 and b[1]:
            b = b[0], -b[1] % p ** b[2], b[2]
        return b
    if bv >= n:
        return _exact_parts(p, a, n)
    v = av if av < bv else bv
    return _normalised_parts(p, v, au * p ** (av - v) + sign * bu * p ** (bv - v), n - v)


def _mul_parts(p, a, b):
    """The parts of a * b: relative precision min(r_a, r_b); a product
    with a zero is a zero whose valuation bound is the sum of the bounds.
    A product of units is a unit, so it needs no valuation scan."""
    av, au, ar = a
    bv, bu, br = b
    if not au or not bu:
        return av + bv, 0, 0
    rel = ar if ar < br else br
    return av + bv, au * bu % p**rel, rel


def _read_int(n, reader):
    """n itself if it is an int; DomainError naming the reader for any
    other type, a bool, float or Fraction included."""
    if type(n) is not int:
        raise DomainError(f"{reader} needs an int, got {type(n).__name__}")
    return n


def _exact_padic(p, num, den, abs_prec, rel=None):
    """num/den, den nonzero, known mod p**min(abs_prec, v + rel), v its
    valuation (0 for num = 0) and None no bound: the one reader of exact
    numbers.  With p's powers moved into v, num * den**-1 is prime to p,
    so its residue is a unit in normal form."""
    va = int_valuation(num, p) if num else 0
    vb = int_valuation(den, p) if num and den != 1 else 0
    v = va - vb
    if rel is not None and (abs_prec is None or v + rel < abs_prec):
        abs_prec = v + rel
    rel = abs_prec - v
    if not num or rel <= 0:
        return _padic(p, abs_prec, 0, 0)
    if va or vb:
        num, den = num // p**va, den // p**vb
    if den == 1:
        return _padic(p, v, _mod_power(num, p, rel), rel)
    modulus = p**rel
    return _padic(p, v, num * inv_mod(den, modulus) % modulus, rel)


def _read_exact(p, x, abs_prec, rel=None):
    """The int or Fraction x as ``_exact_padic`` reads it; DomainError for
    any other type, a bool or float included."""
    if type(x) is not int and not is_fraction(x):
        raise DomainError(f"expected a Padic, int or Fraction, got {type(x).__name__}")
    return _exact_padic(p, x.numerator, x.denominator, abs_prec, rel)


def _check_unit_modulus_prints(p, rel):
    """DomainError unless p**rel, the modulus of a unit known to rel digits,
    prints: the JSON, compact and pretty forms refuse a finer unit alike."""
    if not power_prints(p, rel):
        raise DomainError(
            f"relative precision too fine: {p}^(abs_prec - valuation) "
            f"has more than {str_digit_limit()} digits"
        )


def _mod_power(n, p, k):
    """n mod p**k, building p**k only when n may reach it: a nonnegative n
    of at most k * (b - 1) bits, b the bit length of p, is below p**k."""
    if n >= 0 and n.bit_length() <= k * (p.bit_length() - 1):
        return n
    return n % p**k


def _integer(value, name):
    """value itself if it is an int; bool and float are not accepted."""
    if type(value) is not int:
        raise ParseError(f"{name} must be an integer, got {value!r}")
    return value


class ResidueClass:
    """A residue c modulo p**level, the image of a p-adic integer."""

    __slots__ = ("p", "level", "value")

    def __init__(self, p, level, value):
        check_prime(p)
        if type(level) is not int or type(value) is not int:
            raise DomainError("residue level and value must be integers")
        if level < 0:
            raise DomainError("level must be nonnegative")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "value", _mod_power(value, p, level))

    def __setattr__(self, name, value):
        raise AttributeError("ResidueClass is immutable")

    def _check(self, other):
        if not isinstance(other, ResidueClass):
            raise DomainError("expected a ResidueClass")
        if other.p != self.p or other.level != self.level:
            raise PrimeMismatchError("mismatched residue rings")

    def __add__(self, other):
        self._check(other)
        return ResidueClass(self.p, self.level, self.value + other.value)

    def __sub__(self, other):
        self._check(other)
        return ResidueClass(self.p, self.level, self.value - other.value)

    def __mul__(self, other):
        self._check(other)
        return ResidueClass(self.p, self.level, self.value * other.value)

    def __eq__(self, other):
        if not isinstance(other, ResidueClass):
            return NotImplemented
        return (
            self.p == other.p
            and self.level == other.level
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.p, self.level, self.value))

    def __repr__(self):
        return f"ResidueClass({self.value} mod {self.p}^{self.level})"
