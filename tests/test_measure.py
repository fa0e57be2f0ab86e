"""Ball algebra and Haar measure on the p-adic integers."""

import json
from collections import Counter
from fractions import Fraction

import pytest

from padicore import Ball, ClopenSet, measure, residue_count
from padicore.errors import (
    DomainError,
    EnumerationGuardError,
    PrimeMismatchError,
)
from padicore.textforms import clopen_to_json
from helpers import (
    best_time,
    covered_residues,
    enumerated_complement,
    enumerated_difference,
    enumerated_intersect,
    rng_for,
    split_tree_leaves,
)


def random_clopen(rng, p, max_level=4):
    n = rng.randrange(0, 6)
    balls = [
        Ball(p, lvl := rng.randrange(0, max_level + 1), rng.randrange(p**lvl))
        for _ in range(n)
    ]
    return ClopenSet(p, balls)


# ------------------------------------------------------------------- balls


def test_split_unit_ball():
    assert Ball(3, 0, 0).split() == (Ball(3, 1, 0), Ball(3, 1, 1), Ball(3, 1, 2))


def test_split_shifted_ball():
    assert Ball(2, 1, 1).split() == (Ball(2, 2, 1), Ball(2, 2, 3))


def test_split_then_merge_is_identity():
    for p in (2, 3, 5):
        b = Ball(p, 2, p + 1)
        assert ClopenSet(p, b.split()) == ClopenSet(p, [b])


def test_ball_center_is_reduced():
    for p in (2, 3, 5, 7, 11):
        for level in range(5):
            for c in range(-2 * p ** (level + 1), 2 * p ** (level + 1)):
                assert Ball(p, level, c).center == c % p**level, (p, level, c)


def test_a_huge_level_builds_no_power():
    # a nonnegative center of at most level * (bit_length(p) - 1) bits is
    # below p**level and kept as it is; building 3**(10**8) takes minutes
    assert best_time(lambda: Ball(3, 10**8, 5)) < 0.01
    assert Ball(3, 10**8, 5).center == 5
    assert best_time(lambda: Ball(2**61 - 1, 10**8, 2**61)) < 0.01


def test_ball_measure():
    assert Ball(5, 0, 0).measure() == 1
    assert Ball(5, 3, 7).measure() == Fraction(1, 125)
    assert Ball(5, 2, 7).measure(branching=9) == Fraction(1, 81)


def test_containment():
    assert Ball(3, 1, 2).contains(Ball(3, 3, 2 + 9))
    assert not Ball(3, 2, 2).contains(Ball(3, 1, 2))


# ------------------------------------------------------------- boolean ops


def test_complement_of_open_ideal():
    c = ClopenSet(5, [Ball(5, 1, 0)]).complement()
    assert c.balls == (Ball(5, 1, 1), Ball(5, 1, 2), Ball(5, 1, 3), Ball(5, 1, 4))
    assert c.measure() == Fraction(4, 5)


def test_union_with_complement_is_everything():
    rng = rng_for("union-complement")
    for p in (2, 3, 5):
        for _ in range(30):
            s = random_clopen(rng, p)
            assert s.union(s.complement()) == ClopenSet.full(p)


def test_nested_intersection():
    a = ClopenSet(2, [Ball(2, 1, 0)])
    b = ClopenSet(2, [Ball(2, 2, 0)])
    assert a.intersect(b) == b


def test_prime_mismatch_rejected():
    with pytest.raises(PrimeMismatchError):
        ClopenSet(2, [Ball(2, 1, 0)]).union(ClopenSet(3, [Ball(3, 1, 0)]))


def test_difference_and_demorgan():
    rng = rng_for("demorgan")
    for _ in range(30):
        a = random_clopen(rng, 3)
        b = random_clopen(rng, 3)
        assert a.difference(b) == a.intersect(b.complement())
        assert a.union(b).complement() == a.complement().intersect(b.complement())


# ----------------------------------------------------------------- measure


def test_measure_examples():
    assert ClopenSet.full(7).measure() == 1
    assert ClopenSet(5, [Ball(5, 3, 12)]).measure() == Fraction(1, 125)
    assert ClopenSet.empty(5).measure() == 0


def test_additivity_on_disjoint_sets():
    rng = rng_for("additivity")
    for p in (2, 3, 5):
        for _ in range(60):
            a = random_clopen(rng, p)
            b = random_clopen(rng, p).difference(a)
            assert a.intersect(b).is_empty
            assert a.union(b).measure() == a.measure() + b.measure()


def test_complement_law():
    rng = rng_for("complement-law")
    for p in (2, 3, 5, 7):
        for _ in range(40):
            s = random_clopen(rng, p)
            assert s.measure() + s.complement().measure() == 1


def test_translation_invariance():
    rng = rng_for("translation")
    for p in (2, 3, 5):
        for _ in range(60):
            s = random_clopen(rng, p)
            shift = rng.randrange(-(p**5), p**5)
            assert s.translate(shift).measure() == s.measure()


def test_partition_preserves_measure():
    for p in (2, 3, 5):
        b = Ball(p, 1, 0)
        pieces = [sub for child in b.split() for sub in child.split()]
        assert sum(x.measure() for x in pieces) == b.measure()


def test_canonical_form_unique():
    rng = rng_for("canonical")
    for _ in range(40):
        balls = [
            Ball(3, lvl := rng.randrange(0, 4), rng.randrange(3**lvl))
            for _ in range(5)
        ]
        one = ClopenSet(3, balls)
        shuffled = list(balls)
        rng.shuffle(shuffled)
        # build the same set a second way: via union of singleton sets
        other = ClopenSet.empty(3)
        for b in shuffled:
            other = other.union(ClopenSet(3, [b]))
        assert one == other
        assert one.to_json_dict() == other.to_json_dict()


def test_constructor_matches_the_union_fold(monkeypatch):
    """Nested and repeated balls and complete families several levels deep
    build the set that the union of their single-ball sets makes, and the
    constructor collapses them as it builds, with no merge walk."""
    rng = rng_for("constructor-fold")
    cases = []
    for _ in range(80):
        p = rng.choice((2, 3, 5))
        balls = []
        for _ in range(rng.randrange(1, 5)):
            level, depth = rng.randrange(0, 4), rng.randrange(0, 3)
            ball = Ball(p, level, rng.randrange(p**level))
            family = [ball]  # its p**depth sub-balls depth levels down: all of ball
            for _ in range(depth):
                family = [sub for b in family for sub in b.split()]
            if rng.random() < 0.3:
                family.pop(rng.randrange(len(family)))  # no longer all of ball
            balls += family + rng.sample(family, min(2, len(family)))  # with repeats
            finer = p ** (level + depth + 1)
            balls.append(Ball(p, level + depth + 1, rng.randrange(finer)))
            if rng.random() < 0.5:
                balls.append(ball)  # nests what lies under it
        rng.shuffle(balls)
        fold = ClopenSet.empty(p)
        for b in balls:
            fold = fold.union(ClopenSet(p, [b]))
        cases.append((p, balls, fold))
    monkeypatch.setattr(measure, "_merge", None)
    for p, balls, fold in cases:
        assert ClopenSet(p, balls).balls == fold.balls


# ------------------------------------------------------------ enumeration


def test_residue_count_values():
    assert residue_count(2, 5) == 32
    assert residue_count(3, 3) == 27
    assert residue_count(5, 0) == 1
    for p in (2, 3, 5):
        for j in range(7):
            assert residue_count(p, j) == split_tree_leaves(p, j) == p**j


def test_residue_count_has_no_guard():
    # the count is the power p**level; nothing is enumerated, so nothing
    # bounds it (the CLI refuses only levels whose count cannot print)
    assert residue_count(11, 8) == 214358881
    assert residue_count(7, 1000) == 7**1000
    with pytest.raises(DomainError):
        residue_count(2, -1)


def test_refinement_guard():
    deep = ClopenSet(5, [Ball(5, 10, 3)])
    c = deep.complement()
    assert len(c.balls) == 40
    assert c.measure() == 1 - Fraction(1, 5**10)
    assert c.union(deep) == ClopenSet.full(5)
    # p - 1 = 1000002 balls would exceed the ball guard
    with pytest.raises(EnumerationGuardError):
        ClopenSet(1000003, [Ball(1000003, 1, 0)]).complement()


def test_many_ball_sets_match_enumeration():
    rng = rng_for("many-balls")

    def scattered(p, level, count, lowest=None):
        centers = rng.sample(range(p**level), count)
        lowest = level if lowest is None else lowest
        return ClopenSet(
            p, [Ball(p, rng.randrange(lowest, level + 1), c) for c in centers]
        )

    cases = [
        (scattered(2, 12, 2000), scattered(2, 12, 2000)),
        (scattered(2, 12, 1000, lowest=10), scattered(2, 12, 1500)),
        (scattered(3, 8, 1500, lowest=6), scattered(3, 8, 2000, lowest=7)),
        # level-3 balls in distinct level-2 parents, against level-2 holes
        (
            ClopenSet(
                31,
                [
                    Ball(31, 3, r + 31**2 * rng.randrange(31))
                    for r in rng.sample(range(31**2), 900)
                ],
            ),
            scattered(31, 2, 300),
        ),
    ]
    for a, b in cases:
        assert len(a.balls) > 500 and len(b.balls) > 200
        for got, want in (
            (a.intersect(b), enumerated_intersect(a, b)),
            (a.difference(b), enumerated_difference(a, b)),
            (b.difference(a), enumerated_difference(b, a)),
            (a.complement(), enumerated_complement(a)),
            (b.complement(), enumerated_complement(b)),
        ):
            assert clopen_to_json(got) == clopen_to_json(want)


def _assert_canonical(s):
    """Sorted, reduced, no ball inside another, no complete family of p siblings."""
    p, balls = s.p, s.balls
    assert list(balls) == sorted(balls)
    assert all(b.p == p and 0 <= b.center < p**b.level for b in balls)
    found = {(b.level, b.center) for b in balls}
    for b in balls:
        assert not any((q, b.center % p**q) in found for q in range(b.level))
    siblings = Counter((b.level, b.center % p ** (b.level - 1)) for b in balls if b.level)
    assert all(n < p for n in siblings.values())


def test_set_operations_match_residue_sets():
    """Each operation against residue sets at the common level, on raw ball lists.

    The oracle never builds a ClopenSet: it expands balls into residues.
    """
    rng = rng_for("trusted-index")  # the pairs of random_clopen, kept raw
    checked = 0
    for p, level in ((2, 9), (3, 6), (5, 4), (7, 3), (31, 2)):
        modulus = p**level
        for _ in range(200):
            raw = []
            for _ in range(2):
                n = rng.randrange(0, 6)
                raw.append([
                    Ball(p, lvl := rng.randrange(0, level + 1), rng.randrange(p**lvl))
                    for _ in range(n)
                ])
            a, b = (ClopenSet(p, balls) for balls in raw)
            ra, rb = (covered_residues(p, balls, level) for balls in raw)
            shift = rng.randrange(-modulus, modulus)
            for got, want in (
                (a, ra),
                (b, rb),
                (a.union(b), ra | rb),
                (a.intersect(b), ra & rb),
                (a.difference(b), ra - rb),
                (b.difference(a), rb - ra),
                (a.complement(), set(range(modulus)) - ra),
                (a.translate(shift), {(r + shift) % modulus for r in ra}),
            ):
                _assert_canonical(got)
                assert covered_residues(p, got.balls, level) == want
                assert got.measure() == Fraction(len(want), modulus)
                assert got.is_empty == (not want)
                checked += len(got.balls)
    assert checked > 10_000


def test_a_shift_must_be_an_int():
    s = ClopenSet(5, [Ball(5, 2, 7)])
    assert s.translate(1) == ClopenSet(5, [Ball(5, 2, 8)])
    for shift in (True, False, 1.0, Fraction(1)):
        with pytest.raises(DomainError, match="a shift must be an integer"):
            s.translate(shift)


def test_ball_center_must_be_an_int():
    for center in (1.5, True, "3", None, Fraction(1, 2)):
        with pytest.raises(DomainError):
            Ball(5, 2, center)


def _fresh_reads(s, equal):
    """What each reader of a clopen set returns, each read on a fresh copy
    of s that has not listed its balls, and still has not after the read;
    "eq" compares it both ways with equal, a set built apart from s."""
    reads = {}
    readers = {
        "eq": lambda t: (t == equal, equal == t),
        "hash": hash,
        "measure": lambda t: t.measure(),
        "measure/3": lambda t: t.measure(3),
        "max_level": lambda t: t.max_level(),
        "repr": repr,
        "json_dict": lambda t: t.to_json_dict(),
        "json": clopen_to_json,
        "levels": lambda t: t.levels(),
    }
    for name, read in readers.items():
        t = measure._clopen(s.p, s._root)
        reads[name] = read(t)
        assert t._balls is None, name
    return reads


def _reads_from_balls(s):
    """The same reads, the old way: from the sorted balls."""
    balls = s.balls
    top = max((b.level for b in balls), default=0)
    levels = Counter(b.level for b in balls)
    return {
        "eq": (True, True),
        "measure": sum((b.measure() for b in balls), Fraction(0)),
        "measure/3": sum((b.measure(3) for b in balls), Fraction(0)),
        "max_level": top,
        "repr": f"ClopenSet(p={s.p}, {{{', '.join(f'{b.center}+{b.p}^{b.level}Zp' for b in balls)}}})",
        "json_dict": {"p": s.p, "balls": [b.to_json_dict() for b in balls]},
        "json": json.dumps({"p": s.p, "balls": [b.to_json_dict() for b in balls]}, sort_keys=True),
        "levels": tuple((level, tuple(b.center for b in balls if b.level == level)) for level in sorted(levels)),
    }


def test_equal_sets_built_different_ways_read_alike():
    """Constructor, a union fold in shuffled order and a double complement
    build equal tries with different dict orders; every reader agrees, and
    agrees with the balls."""
    rng = rng_for("trie-readers")
    for _ in range(150):
        p = rng.choice((2, 3, 5, 7))
        s = random_clopen(rng, p)
        balls = list(s.balls) + [b for ball in s.balls[:1] for b in ball.split()]
        rng.shuffle(balls)
        folded = ClopenSet.empty(p)
        for b in balls:
            folded = folded.union(ClopenSet(p, [b]))
        built = [ClopenSet(p, balls), folded, s.complement().complement()]
        expected = _fresh_reads(s, built[0])
        assert {k: v for k, v in expected.items() if k != "hash"} == _reads_from_balls(s)
        for t in built:
            assert _fresh_reads(t, s) == expected
        if s.balls:  # a full node against a node that branches
            smaller = s.difference(ClopenSet(p, s.balls[-1].split()[:1]))
            assert smaller != s and s != smaller
    assert ClopenSet(3, [Ball(3, 1, 0)]) != ClopenSet(3, [Ball(3, 1, 1)])
    assert ClopenSet(3, [Ball(3, 1, 0)]) != ClopenSet(3, [Ball(3, 2, 0)])
    assert ClopenSet(3, []) != ClopenSet(3, [Ball(3, 2, 0)]) != ClopenSet(5, [Ball(5, 2, 0)])


def test_many_ball_reads_walk_the_trie():
    """The complement of 300 level-2 balls at p = 499 has 149,001 balls."""
    p, rng = 499, rng_for("many-ball-reads")
    holes = ClopenSet(p, [Ball(p, 2, c + p * rng.randrange(p)) for c in range(300)])
    reads = _fresh_reads(holes.complement(), holes.complement())
    assert reads["eq"] == (True, True) and reads["max_level"] == 2
    assert reads["measure"] == 1 - Fraction(300, p**2)
    assert sum(len(xs) for _, xs in reads["levels"]) == p - 300 + 300 * (p - 1)
    comp = holes.complement()
    assert best_time(lambda: (comp.measure(), comp.max_level(), comp == holes.complement())) < 1


def test_deep_sets_need_no_recursion():
    """Tries as deep as the finest printable level at p = 2 (about 14,000)."""
    level = 14_000
    center = rng_for("deep").getrandbits(level)
    ball = ClopenSet(2, [Ball(2, level, center)])
    comp = ball.complement()
    # the sibling of each ancestor of the ball, one per level
    assert comp.balls == tuple(
        Ball(2, q, (center ^ 1 << (q - 1)) % 2**q) for q in range(1, level + 1)
    )
    assert comp.union(ball) == ClopenSet.full(2)
    assert comp.intersect(ball).is_empty
    assert ClopenSet.full(2).difference(comp) == ball
    assert comp.difference(ball) == comp
    assert comp.measure() == 1 - Fraction(1, 2**level)
    # every reader at level 5,000, five times the recursion limit, on fresh sets
    level = 5_000
    ball = ClopenSet(2, [Ball(2, level, center % 2**level)])
    for s in (ball, ball.complement()):
        reads = _fresh_reads(s, s.complement().complement())
        assert reads["eq"] == (True, True) and reads["max_level"] == level
        assert reads["measure"] == (Fraction(1, 2**level) if s is ball else 1 - Fraction(1, 2**level))
        assert reads["hash"] == hash(s.complement().complement())
        assert len(reads["json_dict"]["balls"]) == (1 if s is ball else level)


def test_deep_union_is_fast():
    ball = ClopenSet(2, [Ball(2, 4000, rng_for("deep-union").getrandbits(4000))])
    comp = ball.complement()
    assert best_time(lambda: comp.union(ball)) < 0.5
    assert comp.union(ball) == ClopenSet.full(2)


def test_guard_refuses_before_splitting_a_full_node():
    """The p - 1 balls of each complement pass 10**6: refused before the full node splits."""

    def refuse(p):
        with pytest.raises(EnumerationGuardError):
            ClopenSet(p, [Ball(p, 1, 0)]).complement()

    for p in (1000003, 2**61 - 1):
        assert best_time(lambda: refuse(p)) < 0.01
