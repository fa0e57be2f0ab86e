"""Exact ball algebra on the p-adic integers and its Haar measure.

A ball is a congruence class c + p**level Z_p.  Two balls are nested or
disjoint, so the balls are the nodes of the p-ary digit tree and a clopen
set is a trie: a dict from a digit to a child, True for a full node (a ball
of the set), None for the empty set.  No node is empty or has p full
children, so the form is unique.  Subtrees are shared, never mutated.  One
walk merges tries for union, intersection and difference: each answers what
it can (a full or an empty node), the walk descends where both branch and
collapses on the way up, at p per node where both branch plus p per full
node a difference splits; a difference over 10**6 balls is refused.

A level-j ball has the exact measure (1/N)**j, N = p the number of level-1
sub-balls: the Hausdorff measure with rho_1**alpha = 1/N kept symbolically,
so a residue field of size q reuses it with branching = q.
"""

from collections import Counter, namedtuple
from fractions import Fraction
from itertools import repeat

from .errors import DomainError, EnumerationGuardError, PrimeMismatchError
from .intmath import check_prime

_BALL_GUARD = 10**6
_SPLIT = object()  # a rule's answer: merge the two nodes digit by digit


class Ball(namedtuple("Ball", "p level center")):
    """The congruence class center + p**level Z_p inside Z_p.

    An immutable (p, level, center) tuple: equality, hashing and ordering
    are the tuple's.  The int center is reduced mod p**level, unless it is
    nonnegative and too short to reach p**level: a huge level costs nothing.
    """

    __slots__ = ()

    def __new__(cls, p, level, center):
        check_prime(p)
        if level < 0:
            raise DomainError("ball level must be nonnegative")
        if not isinstance(center, int) or isinstance(center, bool):
            raise DomainError(f"ball center must be an integer, got {center!r}")
        # an int in [0, 2**(level * (bit_length(p) - 1))) shifts to 0: below p**level already
        if type(center) is not int or center >> level * (p.bit_length() - 1):
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
        return other.level >= self.level and other.center % self.p**self.level == self.center

    def measure(self, branching=None):
        """Exact measure (1/branching)**level; branching defaults to p."""
        b = self.p if branching is None else branching
        return Fraction(1, b**self.level)

    def to_json_dict(self):
        return {"level": self.level, "center": self.center}


def _ball(p, level, center):
    """A Ball of a checked prime and a center already reduced mod p**level."""
    return tuple.__new__(Ball, (p, level, center))


def _merge(p, rule, a, b):
    """The canonical trie that rule(x, y) makes of the tries a and b, node by
    node on an explicit stack: a trie is as deep as its finest ball's level."""
    top = {0: rule(a, b)}
    stack = [(a, b, top, 0)] if top[0] is _SPLIT else []
    while stack:
        x, y, parent, digit = stack.pop()
        if x is None:  # y is a merged node, its children settled; no rule splits an empty x
            if not y:
                del parent[digit]
            elif len(y) == p and list(y.values()).count(True) == p:
                parent[digit] = True
            continue
        full = x is True  # a difference splits a full x against y
        node = parent[digit] = dict.fromkeys(range(p), True) if full else {}
        stack.append((None, node, parent, digit))
        for d in y if full else x.keys() | y.keys():
            xd, yd = True if full else x.get(d), y.get(d)
            child = rule(xd, yd)
            if child is _SPLIT:
                stack.append((xd, yd, node, d))
            elif child:
                node[d] = child
            elif full:
                del node[d]
    return top.get(0)


def _union(x, y):
    return True if x is True or y is True else _SPLIT if x and y else x or y


def _intersect(x, y):
    return None if not (x and y) else y if x is True else x if y is True else _SPLIT


def _count(node):
    """The number of full nodes in a trie."""
    count, stack = 0, [node]
    while stack:
        node = stack.pop()
        if node is True:
            count += 1
        elif node:
            stack.extend(node.values())
    return count


class ClopenSet:
    """A finite disjoint union of balls in Z_p, kept canonical as a digit trie."""

    __slots__ = ("p", "_root", "_balls")

    def __new__(cls, p, balls=()):
        check_prime(p)
        by_level = {}
        for b in balls:
            if b.p != p:
                raise PrimeMismatchError("ball from a different prime")
            by_level.setdefault(b.level, []).append(b.center)
        # the canonical trie, made a level at a time from the finest: a ball
        # replaces the finer nodes under it, and p full children make a full node
        nodes, step = {}, p ** max(by_level, default=0)
        for level in range(max(by_level, default=0), 0, -1):
            nodes.update(dict.fromkeys(by_level.get(level, ()), True))
            step, parents = step // p, {}
            for center, node in nodes.items():
                digit, parent = divmod(center, step)
                parents.setdefault(parent, {})[digit] = node
            for parent, node in parents.items():
                if len(node) == p and list(node.values()).count(True) == p:
                    parents[parent] = True
            nodes = parents
        return _clopen(p, True if 0 in by_level else nodes.get(0))

    def __setattr__(self, name, value):
        raise AttributeError("ClopenSet is immutable")

    @classmethod
    def full(cls, p):
        return cls(p, [Ball(p, 0, 0)])

    @classmethod
    def empty(cls, p):
        return cls(p, [])

    @property
    def balls(self):
        """The balls sorted by (level, center), listed on the first read."""
        if self._balls is None:
            p, centers, balls = self.p, {}, []
            stack = [(self._root, 0, 0, 1)]  # a node, its level, its center, p**level
            while stack:
                node, level, center, step = stack.pop()
                if node is True:
                    centers.setdefault(level, []).append(center)
                elif node:
                    stack += ((c, level + 1, center + d * step, step * p) for d, c in node.items())
            for level in sorted(centers):
                found = zip(repeat(p), repeat(level), sorted(centers[level]))
                balls += map(tuple.__new__, repeat(Ball), found)
            object.__setattr__(self, "_balls", tuple(balls))
        return self._balls

    @property
    def is_empty(self):
        return not self._root

    def max_level(self):
        return self.balls[-1].level if self._root else 0  # the balls sort by level

    def _check(self, other):
        if not isinstance(other, ClopenSet):
            raise DomainError("expected a ClopenSet")
        if other.p != self.p:
            raise PrimeMismatchError("clopen sets from different primes")

    def union(self, other):
        self._check(other)
        return _clopen(self.p, _merge(self.p, _union, self._root, other._root))

    def intersect(self, other):
        self._check(other)
        return _clopen(self.p, _merge(self.p, _intersect, self._root, other._root))

    def difference(self, other):
        """Self minus other; past 10**6 balls refused before it is built."""
        self._check(other)
        p, size = self.p, 0

        def rule(x, y):
            nonlocal size
            if not x or y is True:
                return None
            if y and x is not True:
                return _SPLIT
            # what stays of x: all of it, or the p - len(y) full children of a full x
            size += p - len(y) if y else _count(x)
            if size > _BALL_GUARD:
                raise EnumerationGuardError(f"the result would exceed {_BALL_GUARD} balls")
            return _SPLIT if y else x

        return _clopen(p, _merge(p, rule, self._root, other._root))

    def complement(self):
        """Complement inside Z_p."""
        return _clopen(self.p, True).difference(self)

    def translate(self, c):
        """The set shifted by the p-adic integer c (given mod enough levels)."""
        return ClopenSet(self.p, [Ball(self.p, b.level, b.center + c) for b in self.balls])

    def measure(self, branching=None):
        """Exact Haar measure: the sum of (1/branching)**level, counted per level."""
        b = self.p if branching is None else branching
        counts, top = Counter(ball.level for ball in self.balls), self.max_level()
        return Fraction(sum(n * b ** (top - level) for level, n in counts.items()), b**top)

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


def _clopen(p, root):
    s = object.__new__(ClopenSet)
    for name, value in (("p", p), ("_root", root), ("_balls", None)):
        object.__setattr__(s, name, value)
    return s


def residue_count(p, level):
    """The number p**level of residues mod p**level; none is enumerated."""
    check_prime(p)
    if level < 0:
        raise DomainError("level must be nonnegative")
    return p**level
