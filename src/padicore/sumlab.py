"""Finite-scale checks for sup, l^r, and bounded-finite-sum norms.

Families are finite and exact (rationals, or p-adic values sharing one
prime), so every identity here is decidable: iterated sums equal direct
sums, partition sums equal totals, and the norm inequalities are checked
by exact cross-powers instead of real roots.

The bounded-finite-sums norm is the supremum of |sum over A| over all
subsets A (the empty set contributing 0).  For ultrametric values it
collapses to the sup norm; for rationals the sum of absolute values is
bounded by twice it, as splitting A by sign shows.  The generalized
convergence machinery has no separate API here: on finite index sets its
hypotheses are vacuous and only the identities it licenses are
executable.
"""

import operator
from collections import namedtuple
from fractions import Fraction
from functools import reduce

from .errors import DomainError, EnumerationGuardError, PrimeMismatchError
from .padics import Padic

_BFS_GUARD = 20


def _sum(items):
    """Left fold of + from the first item; sum()'s int 0 would cap Padic precision."""
    return reduce(operator.add, items)


def _abs_exact(value):
    """Exact absolute value as a Fraction.

    Rationals use the archimedean absolute value; p-adic values use
    p**-v.  A zero-to-precision p-adic contributes 0, the infimum of what
    its precision allows.
    """
    if isinstance(value, Fraction):
        return abs(value)
    if isinstance(value, Padic):
        if value.is_zero:
            return Fraction(0)
        v = value.valuation()
        return Fraction(value.p) ** (-v)
    raise DomainError(f"unsupported value {value!r}")


class FiniteFamily:
    """A finite indexed family of exact values, all of one mode."""

    __slots__ = ("labels", "values", "mode", "p")

    def __init__(self, labels, values):
        labels = tuple(labels)
        values = tuple(values)
        if len(labels) != len(values):
            raise DomainError("labels and values must have equal length")
        if len(set(labels)) != len(labels):
            raise DomainError("labels must be distinct")
        if not values:
            raise DomainError("family must be nonempty")
        if all(isinstance(v, (int, Fraction)) for v in values):
            mode = "rational"
            p = None
            values = tuple(Fraction(v) for v in values)
        elif all(isinstance(v, Padic) for v in values):
            mode = "padic"
            primes = {v.p for v in values}
            if len(primes) != 1:
                raise PrimeMismatchError("family mixes primes")
            p = primes.pop()
        else:
            raise DomainError("family mixes rational and p-adic values")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteFamily is immutable")

    def __len__(self):
        return len(self.values)

    def value_at(self, label):
        return self.values[self.labels.index(label)]

    def total(self):
        return _sum(self.values)

    def sup_norm(self):
        return max(_abs_exact(v) for v in self.values)


class NormReport(namedtuple("NormReport", "sup r lr_power")):
    """Exact norms: the sup norm, and the r-th power of the l^r norm.

    ``r`` is a positive int or the string "inf"; ``lr_power`` is the sum
    of |f(x)|**r, and equals ``sup`` for r = "inf".
    """

    __slots__ = ()


def norms(family, r):
    """Sup and l^r data; finite r is reported as the exact r-th power."""
    sup = family.sup_norm()
    if r == "inf":
        return NormReport(sup=sup, r="inf", lr_power=sup)
    if not isinstance(r, int) or r < 1:
        raise DomainError("r must be a positive integer or 'inf'")
    total = sum((_abs_exact(v) ** r for v in family.values), Fraction(0))
    return NormReport(sup=sup, r=r, lr_power=total)


def lr_norm_le(family, r, q):
    """Whether the l^r norm is <= the l^q norm, via exact cross-powers.

    Compares (sum |f|^r)**q against (sum |f|^q)**r, avoiding real roots.
    """
    nr = norms(family, r).lr_power
    nq = norms(family, q).lr_power
    return nr**q <= nq**r


def sup_le_lr(family, r):
    """Whether the sup norm is <= the l^r norm (exact cross-powers)."""
    sup = family.sup_norm()
    return sup**r <= norms(family, r).lr_power


def bfs_norm(family):
    """Supremum of |sum over A| over every subset A, by enumeration.

    The empty subset contributes 0.  Index sets are capped at 20
    (2**20 subsets).
    """
    n = len(family)
    if n > _BFS_GUARD:
        raise EnumerationGuardError(
            f"family of size {n} exceeds the subset-enumeration guard {_BFS_GUARD}"
        )
    values = family.values
    best = Fraction(0)
    sums = [None] * (1 << n)
    if family.mode == "rational":
        sums[0] = Fraction(0)
    else:
        sums[0] = Padic.zero(family.p, max(v.abs_prec for v in values))
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
        a = _abs_exact(sums[mask])
        if a > best:
            best = a
    return best


class FubiniReport(namedtuple("FubiniReport", "row_first column_first direct equal")):
    """Row-first, column-first, and direct totals of a finite grid."""

    __slots__ = ()


def fubini_check(rows):
    """Iterated-sum identity on a finite rectangular grid of values."""
    if not rows or not rows[0]:
        raise DomainError("grid must be nonempty")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise DomainError("grid rows must have equal length")
    flat = [v for row in rows for v in row]
    family = FiniteFamily(range(len(flat)), flat)
    values = family.values
    grid = [
        values[i * width : (i + 1) * width] for i in range(len(rows))
    ]
    row_first = _sum(_sum(row) for row in grid)
    column_first = _sum(_sum(column) for column in zip(*grid))
    direct = family.total()
    return FubiniReport(
        row_first=row_first,
        column_first=column_first,
        direct=direct,
        equal=(row_first == column_first == direct),
    )


class PartitionReport(
    namedtuple("PartitionReport", "block_totals total_from_blocks direct equal")
):
    """Block sums against the direct total over the whole index set."""

    __slots__ = ()


def partition_check(family, blocks):
    """Sum-of-sums identity for a partition of the index set into blocks."""
    seen = []
    for block in blocks:
        if not block:
            raise DomainError("empty block in partition")
        seen.extend(block)
    if len(seen) != len(set(seen)):
        raise DomainError("blocks overlap")
    if set(seen) != set(family.labels):
        raise DomainError("blocks do not cover the index set")
    block_totals = [
        _sum(family.value_at(lbl) for lbl in block) for block in blocks
    ]
    total = _sum(block_totals)
    direct = family.total()
    return PartitionReport(
        block_totals=tuple(block_totals),
        total_from_blocks=total,
        direct=direct,
        equal=(total == direct),
    )
