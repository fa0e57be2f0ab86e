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

Reads come from the trie too, by walks that are never recursive.
measure and max_level count the full nodes of each level; == walks the
two tries side by side; levels() lists each level's sorted centers, and
hash, repr, to_json_dict, the CLI's JSON and translate read that.  The
counts and the centers are walked once per set and kept.  A carry
crosses digits, so translate builds its trie again from the shifted
centers.  The balls property is the only reader that builds one Ball per
ball, about 2.5 us each.

A level-j ball has the exact measure (1/N)**j, N = p the number of level-1
sub-balls: the Hausdorff measure with rho_1**alpha = 1/N kept symbolically,
so a residue field of size q reuses it with branching = q.
"""

from collections import namedtuple
from itertools import count, repeat

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
        from fractions import Fraction

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


class ClopenSet:
    """A finite disjoint union of balls in Z_p, kept canonical as a digit trie."""

    __slots__ = ("p", "_root", "_levels", "_level_counts", "_balls")

    def __new__(cls, p, balls=()):
        check_prime(p)
        by_level = {}
        for b in balls:
            if b.p != p:
                raise PrimeMismatchError("ball from a different prime")
            by_level.setdefault(b.level, []).append(b.center)
        return _build(p, by_level)

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
        """The balls sorted by (level, center), listed on the first read.

        This builds one Ball per ball, which the garbage collector tracks:
        about 2.5 s for 10**6 balls.  Nothing in the package reads it.
        """
        if self._balls is None:
            found = ((self.p, level, c) for level, centers in self.levels() for c in centers)
            _set_balls(self, tuple(map(tuple.__new__, repeat(Ball), found)))
        return self._balls

    def levels(self):
        """The centers of the balls, level by level: (level, sorted centers)
        pairs by increasing level, from one level-order walk of the trie,
        made on the first read."""
        if self._levels is None:
            _set_levels(self, tuple(_level_centers(self.p, self._root)))
        return self._levels

    def _counts(self):
        """The number of balls at each level, 0 to the finest, made on the
        first read by a level-order walk that computes no center."""
        if self._level_counts is None:
            _set_level_counts(self, _full_counts(self._root))
        return self._level_counts

    @property
    def is_empty(self):
        return not self._root

    def max_level(self):
        return max(len(self._counts()) - 1, 0)

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
            size += p - len(y) if y else sum(_full_counts(x))
            if size > _BALL_GUARD:
                raise EnumerationGuardError(f"the result would exceed {_BALL_GUARD} balls")
            return _SPLIT if y else x

        return _clopen(p, _merge(p, rule, self._root, other._root))

    def complement(self):
        """Complement inside Z_p."""
        return _clopen(self.p, True).difference(self)

    def translate(self, c):
        """The set shifted by the p-adic integer c (given mod enough levels).

        A carry crosses digits, so the shifted centers are built again
        into a trie, as the constructor does.
        """
        if type(c) is not int:  # a bool is not an int
            raise DomainError(f"a shift must be an integer, got {c!r}")
        by_level = {}
        for level, xs in self.levels():
            modulus = self.p**level
            by_level[level] = [(x + c) % modulus for x in xs]
        return _build(self.p, by_level)

    def measure(self, branching=None):
        """Exact Haar measure: the sum of (1/branching)**level, counted per level."""
        from fractions import Fraction

        b = self.p if branching is None else branching
        counts, numerator = self._counts(), 0
        for n in counts:  # Horner: sum of n_l * b**(top - l)
            numerator = numerator * b + n
        return Fraction(numerator, b ** max(len(counts) - 1, 0))

    def __eq__(self, other):
        if not isinstance(other, ClopenSet):
            return NotImplemented
        if self.p != other.p:
            return False
        # the form is unique: equal sets have equal tries, compared node by node
        stack = [(self._root, other._root)]
        while stack:
            x, y = stack.pop()
            if x is y:
                continue
            if x is True or y is True or not (x and y) or x.keys() != y.keys():
                return False
            inner = {d for d, child in x.items() if child is not True}
            if inner != {d for d, child in y.items() if child is not True}:
                return False
            stack += [(x[d], y[d]) for d in inner]
        return True

    def __hash__(self):
        return hash((self.p, self.levels()))

    def __repr__(self):
        inner = ", ".join(f"{x}+{self.p}^{level}Zp" for level, xs in self.levels() for x in xs)
        return f"ClopenSet(p={self.p}, {{{inner}}})"

    def to_json_dict(self):
        balls = [{"level": level, "center": x} for level, xs in self.levels() for x in xs]
        return {"p": self.p, "balls": balls}

    @classmethod
    def from_json_dict(cls, data):
        p = data["p"]
        return cls(p, [Ball(p, b["level"], b["center"]) for b in data["balls"]])


def _build(p, by_level):
    """The canonical trie of the balls with these centers at each level,
    made a level at a time from the finest: a ball replaces the finer nodes
    under it, and p full children make a full node.  Each center is below
    p**level."""
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


# the slots' own setters: ClopenSet.__setattr__ refuses every write
_set_p, _set_root, _set_levels, _set_level_counts, _set_balls = (
    ClopenSet.__dict__[name].__set__ for name in ClopenSet.__slots__
)


def _clopen(p, root):
    s = object.__new__(ClopenSet)
    _set_p(s, p)
    _set_root(s, root)
    _set_levels(s, None)  # this and the next two are made on the first read
    _set_level_counts(s, None)
    _set_balls(s, None)
    return s


def _level_centers(p, root):
    """(level, sorted centers) of the full nodes of a trie, level by level."""
    if root is True:
        yield 0, (0,)
        return
    nodes, step = [(root, 0)] if root else [], 1  # a level's inner nodes with their centers; p**level
    for level in count(1):
        if not nodes:
            return
        full, inner = [], []
        for node, center in nodes:
            full += [center + d * step for d, child in node.items() if child is True]
            inner += [(child, center + d * step) for d, child in node.items() if child is not True]
        if full:
            yield level, tuple(sorted(full))
        nodes, step = inner, step * p


def _full_counts(root):
    """The number of full nodes of a trie at each level, 0 to the finest."""
    if not root or root is True:
        return (1,) if root else ()
    counts, nodes = [0], [root]
    while nodes:
        full, inner = 0, []
        for node in nodes:
            children = list(node.values())
            full += children.count(True)
            inner += [c for c in children if c is not True]
        counts.append(full)
        nodes = inner
    return tuple(counts)


def residue_count(p, level):
    """The number p**level of residues mod p**level; none is enumerated."""
    check_prime(p)
    if level < 0:
        raise DomainError("level must be nonnegative")
    return p**level
