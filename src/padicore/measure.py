"""Exact ball algebra on the p-adic integers and its Haar measure.

A ball is a congruence class c + p**level Z_p; a clopen set is a finite
disjoint union of balls in canonical form (no ball contains another, and
no full family of p siblings survives unmerged; balls sort by (level,
center)).  Canonical form is unique, so equal sets serialize identically.

The measure assigns a level-j ball the exact rational (1/N)**j where N is
the number of level-1 sub-balls of the unit ball (N = p here).  This is
the Hausdorff measure of exponent alpha with rho_1**alpha = 1/N kept
symbolically: only the rational (1/N)**j is ever materialised, never a
real power, so a residue field of some other size q reuses the same
arithmetic with branching = q.

Boolean operations use that two balls are nested or disjoint, so a ball
holding holes splits only along the paths down to them.  A result of more
than 10**6 balls is refused before it is built, which bounds the time.
"""

from collections import namedtuple
from fractions import Fraction

from .errors import DomainError, EnumerationGuardError, PrimeMismatchError
from .intmath import check_prime

_BALL_GUARD = 10**6


class Ball(namedtuple("Ball", "p level center")):
    """The congruence class center + p**level Z_p inside Z_p.

    An immutable (p, level, center) tuple: equality, hashing and ordering
    are the tuple's.  The center is reduced mod p**level; a nonnegative
    int center too short to reach p**level is kept as it is, so a huge
    level costs nothing.
    """

    __slots__ = ()

    def __new__(cls, p, level, center):
        check_prime(p)
        if level < 0:
            raise DomainError("ball level must be nonnegative")
        # a nonnegative int of at most level * (bit_length(p) - 1) bits is
        # below 2**(level * (bit_length(p) - 1)) <= p**level, so reduced
        if (
            type(center) is not int
            or center < 0
            or center.bit_length() > level * (p.bit_length() - 1)
        ):
            center %= p**level
        return tuple.__new__(cls, (p, level, center))

    def split(self):
        """The p disjoint sub-balls one level down, partitioning this ball."""
        p, level, center = self
        step = p**level
        return tuple(_ball(p, level + 1, center + i * step) for i in range(p))

    def contains(self, other):
        """Ball containment; in an ultrametric this is the only overlap."""
        if other.p != self.p:
            raise PrimeMismatchError("balls from different primes")
        return (
            other.level >= self.level
            and other.center % self.p**self.level == self.center
        )

    def parent(self):
        if self.level == 0:
            raise DomainError("the unit ball has no parent")
        return _ball(self.p, self.level - 1, self.center % self.p ** (self.level - 1))

    def measure(self, branching=None):
        """Exact measure (1/branching)**level; branching defaults to p."""
        b = self.p if branching is None else branching
        return Fraction(1, b**self.level)

    def to_json_dict(self):
        return {"level": self.level, "center": self.center}


def _index(balls):
    """The centers of `balls` in one set per level."""
    by_level = {}
    for b in balls:
        by_level.setdefault(b.level, set()).add(b.center)
    return by_level


def _cover(p, index, level, center):
    """The level of an indexed ball containing center + p**level Z_p, or None."""
    for q, centers in index.items():
        if q <= level and center % p**q in centers:
            return q
    return None


def _ball(p, level, center):
    """A Ball of a checked prime and a center already reduced mod p**level."""
    return tuple.__new__(Ball, (p, level, center))


def _disjoint(p, by_level):
    """The centers by level that no coarser indexed ball covers."""
    kept = {}
    for lvl in sorted(by_level):
        centers = {c for c in by_level[lvl] if _cover(p, kept, lvl, c) is None}
        if centers:
            kept[lvl] = centers
    return kept


def _canonicalise(p, kept):
    """Canonical balls of disjoint reduced centers by level.

    Complete p-sibling families merge, deepest level first so that a merge
    can complete a family one level up; one reduction per center.
    """
    for lvl in range(max(kept, default=0), 0, -1):
        step = p ** (lvl - 1)
        parents = {}
        for c in kept.get(lvl, ()):
            parents.setdefault(c % step, []).append(c)
        for parent, children in parents.items():
            if len(children) == p:
                kept[lvl].difference_update(children)
                kept.setdefault(lvl - 1, set()).add(parent)
    return tuple(_ball(p, lvl, c) for lvl in sorted(kept) for c in sorted(kept[lvl]))


class ClopenSet:
    """A finite disjoint union of balls in Z_p, kept canonical."""

    __slots__ = ("p", "balls")

    def __init__(self, p, balls=()):
        check_prime(p)
        balls = tuple(balls)
        for b in balls:
            if b.p != p:
                raise PrimeMismatchError("ball from a different prime")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "balls", _canonicalise(p, _disjoint(p, _index(balls))))

    @classmethod
    def _from_index(cls, p, by_level):
        """The set of disjoint centers indexed by level, for a checked prime p."""
        s = object.__new__(cls)
        object.__setattr__(s, "p", p)
        object.__setattr__(s, "balls", _canonicalise(p, by_level))
        return s

    def __setattr__(self, name, value):
        raise AttributeError("ClopenSet is immutable")

    @classmethod
    def full(cls, p):
        return cls(p, [Ball(p, 0, 0)])

    @classmethod
    def empty(cls, p):
        return cls(p, [])

    @property
    def is_empty(self):
        return not self.balls

    def max_level(self):
        return max((b.level for b in self.balls), default=0)

    def _check(self, other):
        if not isinstance(other, ClopenSet):
            raise DomainError("expected a ClopenSet")
        if other.p != self.p:
            raise PrimeMismatchError("clopen sets from different primes")

    def union(self, other):
        self._check(other)
        return ClopenSet(self.p, self.balls + other.balls)

    def intersect(self, other):
        """Of each nested pair of balls the smaller; disjoint pairs give nothing."""
        self._check(other)
        p, own, their = self.p, _index(self.balls), _index(other.balls)
        return ClopenSet(
            p,
            [a for a in self.balls if _cover(p, their, a.level, a.center) is not None]
            + [b for b in other.balls if _cover(p, own, b.level, b.center) is not None],
        )

    def difference(self, other):
        """Each ball holding holes splits once, along the paths down to them."""
        self._check(other)
        p, mine, holes = self.p, _index(self.balls), _index(other.balls)
        # the path nodes by level, from each ball holding holes (a root)
        # down to the parents of its holes
        path, roots, nested = {}, set(), 0
        for h in other.balls:
            q = _cover(p, mine, h.level, h.center)
            if q is None or q == h.level:
                continue
            nested += 1
            roots.add((q, h.center % p**q))
            for lvl in range(h.level - 1, q - 1, -1):
                centers = path.setdefault(lvl, set())
                if h.center % p**lvl in centers:
                    break
                centers.add(h.center % p**lvl)
        kept = [a for a in self.balls if a.center not in path.get(a.level, ())]
        kept = [a for a in kept if _cover(p, holes, a.level, a.center) is None]
        # each path node but the roots, and each nested hole, is the child
        # of exactly one path node
        nodes = sum(map(len, path.values()))
        if len(kept) + (p - 1) * nodes + len(roots) - nested > _BALL_GUARD:
            raise EnumerationGuardError(f"the result would exceed {_BALL_GUARD} balls")
        out = _index(kept)
        for lvl, centers in path.items():
            step = p**lvl
            children = set()
            for c in centers:
                children.update(range(c, c + p * step, step))
            children.difference_update(path.get(lvl + 1, ()), holes.get(lvl + 1, ()))
            out.setdefault(lvl + 1, set()).update(children)
        return ClopenSet._from_index(p, out)

    def complement(self):
        """Complement inside Z_p."""
        return ClopenSet.full(self.p).difference(self)

    def translate(self, c):
        """The set shifted by the p-adic integer c (given mod enough levels)."""
        return ClopenSet(
            self.p,
            [Ball(self.p, b.level, b.center + c) for b in self.balls],
        )

    def measure(self, branching=None):
        """Exact Haar measure: the sum of (1/branching)**level over balls."""
        total = Fraction(0)
        for b in self.balls:
            total += b.measure(branching)
        return total

    def __eq__(self, other):
        if not isinstance(other, ClopenSet):
            return NotImplemented
        return self.p == other.p and self.balls == other.balls

    def __hash__(self):
        return hash((self.p, self.balls))

    def __repr__(self):
        inner = ", ".join(f"{b.center}+{b.p}^{b.level}Zp" for b in self.balls)
        return f"ClopenSet(p={self.p}, {{{inner}}})"

    def to_json_dict(self):
        return {"p": self.p, "balls": [b.to_json_dict() for b in self.balls]}

    @classmethod
    def from_json_dict(cls, data):
        p = data["p"]
        return cls(p, [Ball(p, b["level"], b["center"]) for b in data["balls"]])


def residue_count(p, level):
    """The number p**level of residues mod p**level; none is enumerated."""
    check_prime(p)
    if level < 0:
        raise DomainError("level must be nonnegative")
    return p**level
