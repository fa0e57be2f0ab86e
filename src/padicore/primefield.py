"""Exact arithmetic in the prime field of integers modulo p.

Every element carries its own modulus, so values from different primes can
never be mixed silently: any such attempt raises PrimeMismatchError.
Inverses go through the extended Euclidean algorithm (``pow(a, -1, p)``)
rather than Fermat exponentiation, so they are O(log p) and rely on
primality only through the nonzero precondition.
"""

from .errors import DivisionByZeroError, DomainError, PrimeMismatchError
from .intmath import check_prime, inv_mod


class FpElement:
    """An element of the field of integers modulo a prime p."""

    __slots__ = ("p", "value")

    def __init__(self, value, p):
        check_prime(p)
        if type(value) is not int:
            raise DomainError(f"an element of F_{p} must be an integer, got {type(value).__name__}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "value", value % p)

    def __setattr__(self, name, value):
        raise AttributeError("FpElement is immutable")

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise PrimeMismatchError(
                    f"cannot combine elements mod {self.p} and mod {other.p}"
                )
            return other.value
        if type(other) is int:  # a bool is not an int
            return other % self.p
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(v - self.value, self.p)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value * v, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return self * FpElement(v, self.p).inverse()

    def __pow__(self, e):
        if type(e) is not int or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return FpElement(pow(self.value, e, self.p), self.p)

    def inverse(self):
        """Multiplicative inverse; zero raises DivisionByZeroError."""
        if self.value == 0:
            raise DivisionByZeroError(f"0 has no inverse mod {self.p}")
        return FpElement(inv_mod(self.value, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"FpElement({self.value} mod {self.p})"

    def __str__(self):
        return str(self.value)
