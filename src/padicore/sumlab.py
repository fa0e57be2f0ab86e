"""Finite-scale checks for sup, l^r, and bounded-finite-sum norms.

Families are finite and exact (rationals, or p-adic values sharing one
prime), so every identity here is decidable: iterated sums equal direct
sums, partition sums equal totals, and the norm inequalities are checked
by exact cross-powers instead of real roots.

The bounded-finite-sums norm is the supremum of |sum over A| over all
subsets A (the empty set contributing 0).  For ultrametric values it
collapses to the sup norm; for rationals the sum of absolute values is
bounded by twice it, as splitting A by sign shows.  ``bfs_norm`` checks
this by enumeration all the same: a Gray-code walk over the values scaled
to integers adds or subtracts one value per step on a single running sum,
so 2**n subsets take 2**n - 1 integer additions and O(n) memory.  A
family of more than 20 values (2**20 subsets) is refused.  The
generalized convergence machinery has no separate API here: on finite
index sets its hypotheses are vacuous and only the identities it
licenses are executable.
"""

import math
import operator
from collections import namedtuple
from fractions import Fraction
from functools import reduce

from .errors import DomainError, EnumerationGuardError, PrimeMismatchError
from .intmath import int_valuation

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
    from .padics import Padic

    if isinstance(value, Padic):
        if value.is_zero:
            return Fraction(0)
        v = value.valuation()
        return Fraction(value.p) ** (-v)
    raise DomainError(f"unsupported value {value!r}")


def _padic_prime(values):
    """The one prime of p-adic family values, some of which are not
    rationals; the p-adic core loads only for such a family."""
    from .padics import Padic

    if all(isinstance(v, Padic) for v in values):
        primes = {v.p for v in values}
        if len(primes) != 1:
            raise PrimeMismatchError("family mixes primes")
        return primes.pop()
    if any(type(v) is not int and not isinstance(v, (Fraction, Padic)) for v in values):
        raise DomainError("family values must be ints, Fractions or Padics")
    raise DomainError("family mixes rational and p-adic values")


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
        if all(type(v) is int or isinstance(v, Fraction) for v in values):
            mode = "rational"
            p = None
            values = tuple(Fraction(v) for v in values)
        else:
            mode = "padic"
            p = _padic_prime(values)
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
    if type(r) is not int or r < 1:  # a bool is not an int
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
    """Supremum of |sum over A| over every subset A, by a Gray-code walk.

    The empty subset contributes 0.  The walk visits the subsets in
    reflected Gray-code order, so each of its 2**n - 1 steps adds or
    subtracts one value on a single running integer sum: O(n) memory and
    no table of subset sums.  Index sets are capped at 20 (2**20
    subsets).
    """
    n = len(family)
    if n > _BFS_GUARD:
        raise EnumerationGuardError(
            f"family of size {n} exceeds the subset-enumeration guard {_BFS_GUARD}"
        )
    if family.mode == "rational":
        return _bfs_rational(family.values)
    return _bfs_padic(family.p, family.values)


def _gray_sums(steps):
    """The running sums of a reflected Gray-code walk over integer steps.

    Yields 2**n - 1 sums, one after each step: step i toggles value k,
    the index of the lowest set bit of i, adding it on odd visits and
    subtracting it on even ones.  Steps 1 .. 2**j - 1 visit the nonempty
    subsets of the first j values, and steps 2**j .. 2**(j+1) - 1 the
    subsets holding value j and none after it.
    """
    steps = list(steps)
    s = 0
    for i in range(1, 1 << len(steps)):
        k = (i & -i).bit_length() - 1
        step = steps[k]
        steps[k] = -step
        s += step
        yield s


def _bfs_rational(values):
    """Largest |subset sum|, from the extreme sums of the walk.

    Values are scaled to integers by their common denominator d; the walk
    keeps the largest sum hi and the smallest lo (both start at the empty
    set's 0), and the answer is max(hi, -lo) / d.
    """
    d = math.lcm(*[v.denominator for v in values])
    hi = lo = 0
    for s in _gray_sums(v.numerator * (d // v.denominator) for v in values):
        if s > hi:
            hi = s
        elif s < lo:
            lo = s
    return Fraction(max(hi, -lo), d)


def _bfs_padic(p, values):
    """Largest p**-v over the subset sums nonzero at their precision.

    As Padic addition gives it, a nonempty subset's sum is known modulo
    p**N, N the least absolute precision of its members: a sum that
    vanishes there contributes 0, any other p**-v.  Values are scaled to
    integers by p**-m, m the least valuation, and ordered by precision,
    highest first, so a subset's N is that of its last member, the index
    of the highest set bit of the walk's step number.  A sum is tested
    against the smaller of p**N and p**best, so only a sum that beats the
    best valuation so far has its valuation computed.
    """
    ordered = sorted(values, key=lambda x: -x.abs_prec)
    m = min(x.v for x in ordered)
    moduli = [p ** (x.abs_prec - m) for x in ordered]
    # best is p**v for the least scaled valuation v found; every v found
    # lies below every precision, so the largest modulus means "none yet"
    best = moduli[0]
    walk = _gray_sums(x.unit * p ** (x.v - m) for x in ordered)
    for i, s in enumerate(walk, 1):
        if s % min(moduli[i.bit_length() - 1], best):
            best = p ** int_valuation(s, p)
    if best == moduli[0]:
        return Fraction(0)
    return Fraction(1, best) / Fraction(p) ** m


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
