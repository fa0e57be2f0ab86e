"""Finite summation laboratory: norms, BFS, Fubini, partitions."""

import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from padicore import (
    FiniteFamily,
    Padic,
    bfs_norm,
    fubini_check,
    lr_norm_le,
    norms,
    partition_check,
    sup_le_lr,
)
from padicore.errors import DomainError, EnumerationGuardError, PrimeMismatchError
from helpers import random_padic, rng_for


def _bfs_oracle(family):
    """Independent subset enumeration via itertools.combinations."""
    best = Fraction(0)
    idx = range(len(family))
    for k in range(1, len(family) + 1):
        for combo in combinations(idx, k):
            total = family.values[combo[0]]
            for i in combo[1:]:
                total = total + family.values[i]
            if isinstance(total, Padic):
                size = (
                    Fraction(0)
                    if total.is_zero
                    else Fraction(total.p) ** (-total.valuation())
                )
            else:
                size = abs(total)
            best = max(best, size)
    return best


def rational_family(rng, n):
    return FiniteFamily(
        range(n),
        [Fraction(rng.randrange(-9, 10), rng.choice([1, 1, 2, 3])) for _ in range(n)],
    )


def padic_family(rng, p, n):
    return FiniteFamily(range(n), [random_padic(rng, p, 8, -2, 4) for _ in range(n)])


# ------------------------------------------------------------------- norms


def test_norm_examples():
    fam = FiniteFamily([0, 1], [1, 1])
    rep1 = norms(fam, 1)
    rep2 = norms(fam, 2)
    repinf = norms(fam, "inf")
    assert rep1.lr_power == 2
    assert rep2.lr_power == 2
    assert repinf.lr_power == 1 and repinf.sup == 1
    # ||f||_2 <= ||f||_1 via cross powers: 2^1 <= 2^2
    assert lr_norm_le(fam, 2, 1)


def test_norm_exponent_must_be_an_int():
    fam = FiniteFamily([0, 1], [1, 2])
    for r in (True, False, 1.0, 0, "1"):
        with pytest.raises(DomainError, match="r must be a positive integer"):
            norms(fam, r)


def test_a_bool_family_value_is_refused():
    for values in ([True], [1, False], [0.5]):
        with pytest.raises(DomainError, match="must be ints, Fractions or Padics"):
            FiniteFamily(range(len(values)), values)


def test_a_padic_family_has_one_kind_and_one_prime():
    with pytest.raises(DomainError, match="^family mixes rational and p-adic values$"):
        FiniteFamily([0, 1], [Fraction(1, 2), Padic.from_int(1, 5, 3)])
    with pytest.raises(PrimeMismatchError, match="^family mixes primes$"):
        FiniteFamily([0, 1], [Padic.from_int(1, 5, 3), Padic.from_int(1, 7, 3)])
    with pytest.raises(DomainError, match="^family values must be ints, Fractions or Padics$"):
        FiniteFamily([0, 1], [Padic.from_int(1, 5, 3), 0.5])


def test_singleton_family_norms():
    fam = FiniteFamily(["x"], [Fraction(-3, 2)])
    assert norms(fam, 1).lr_power == Fraction(3, 2)
    assert norms(fam, 3).lr_power == Fraction(27, 8)
    assert fam.sup_norm() == Fraction(3, 2)
    assert bfs_norm(fam) == Fraction(3, 2)


def test_padic_family_sup():
    fam = FiniteFamily(
        [0, 1, 2],
        [Padic.from_int(5, 5, 8), Padic.from_int(10, 5, 8), Padic.from_int(1, 5, 8)],
    )
    assert fam.sup_norm() == 1


def test_lr_monotonicity_random():
    rng = rng_for("lr-monotone")
    for _ in range(60):
        fam = rational_family(rng, rng.randrange(1, 8))
        for q, r in ((1, 2), (2, 3), (1, 5)):
            assert lr_norm_le(fam, r, q)
            assert sup_le_lr(fam, r)
            assert sup_le_lr(fam, q)


# --------------------------------------------------------------------- BFS


def test_bfs_example_signed():
    fam = FiniteFamily([1, 2, 3], [1, -1, 1])
    assert bfs_norm(fam) == 2
    assert _bfs_oracle(fam) == 2


def test_bfs_all_zero():
    fam = FiniteFamily([0, 1], [0, 0])
    assert bfs_norm(fam) == 0


def test_bfs_matches_oracle_and_sup_bound():
    rng = rng_for("bfs-oracle")
    for _ in range(25):
        fam = rational_family(rng, rng.randrange(1, 9))
        value = bfs_norm(fam)
        assert value == _bfs_oracle(fam)
        assert fam.sup_norm() <= value


def test_bfs_equals_sup_for_padic():
    rng = rng_for("bfs-padic")
    for p in (2, 3, 5, 7):
        for _ in range(20):
            fam = padic_family(rng, p, rng.randrange(1, 8))
            assert bfs_norm(fam) == fam.sup_norm() == _bfs_oracle(fam)


def test_two_c_bound_for_rationals():
    rng = rng_for("two-c")
    for _ in range(50):
        fam = rational_family(rng, rng.randrange(1, 10))
        c = bfs_norm(fam)
        assert sum(abs(v) for v in fam.values) <= 2 * c


def test_bfs_guard():
    fam = FiniteFamily(range(21), [1] * 21)
    with pytest.raises(EnumerationGuardError):
        bfs_norm(fam)


def mixed_padic(rng, p):
    """A p-adic value of mixed absolute precision, sometimes zero to it."""
    if rng.random() < 0.2:
        return Padic.zero(p, rng.randrange(-5, 7))
    return random_padic(rng, p, rng.randrange(1, 7), -4, 4)


def test_bfs_padic_mixed_precisions_and_zero_members():
    rng = rng_for("bfs-padic-mixed")
    for p in (2, 3, 5, 7, 101):
        for _ in range(15):
            values = [mixed_padic(rng, p) for _ in range(rng.randrange(1, 11))]
            fam = FiniteFamily(range(len(values)), values)
            assert bfs_norm(fam) == _bfs_oracle(fam) == fam.sup_norm()


def test_bfs_zero_member_below_every_valuation():
    # the zero bounds only the sums it belongs to: {1 + O(5^3)} alone has size 1
    one = Padic(5, 0, 1, 3)
    for fam_values in (
        [one, Padic.zero(5, -2)],
        [Padic.zero(5, -2), one],
        [Padic(5, 2, 3, 4), Padic.zero(5, 1), Padic(5, -1, 2, 1)],
    ):
        fam = FiniteFamily(range(len(fam_values)), fam_values)
        assert bfs_norm(fam) == _bfs_oracle(fam) == fam.sup_norm()
    assert bfs_norm(FiniteFamily([0, 1], [one, Padic.zero(5, -2)])) == 1


def test_bfs_padic_families_that_cancel():
    rng = rng_for("bfs-padic-cancel")
    for p in (2, 3, 7):
        # every member, and so every nonempty sum, is zero at its precision
        zeros = [Padic.zero(p, rng.randrange(-3, 6)) for _ in range(rng.randrange(1, 11))]
        fam = FiniteFamily(range(len(zeros)), zeros)
        assert bfs_norm(fam) == _bfs_oracle(fam) == 0
        # pairs x, -x, the negation sometimes known to fewer digits
        for _ in range(10):
            values = []
            for _ in range(rng.randrange(1, 6)):
                x = random_padic(rng, p, rng.randrange(2, 7), -3, 3)
                y = -x
                if rng.random() < 0.5:
                    y = y.truncate(rng.randrange(y.v + 1, y.abs_prec + 1))
                values += [x, y]
            fam = FiniteFamily(range(len(values)), values)
            assert bfs_norm(fam) == _bfs_oracle(fam)


def test_bfs_rational_coprime_denominators():
    rng = rng_for("bfs-coprime")
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for _ in range(20):
        n = rng.randrange(1, 11)
        dens = rng.sample(primes, n)
        fam = FiniteFamily(range(n), [Fraction(rng.randrange(-40, 41), d) for d in dens])
        assert bfs_norm(fam) == _bfs_oracle(fam)


def test_bfs_rational_one_sign():
    rng = rng_for("bfs-one-sign")
    for sign in (1, -1):
        for _ in range(15):
            n = rng.randrange(1, 11)
            values = [sign * Fraction(rng.randrange(0, 30), rng.randrange(1, 7)) for _ in range(n)]
            fam = FiniteFamily(range(n), values)
            value = bfs_norm(fam)
            assert value == _bfs_oracle(fam) == sum(abs(v) for v in values)


def test_bfs_memory_is_linear():
    rng = rng_for("bfs-memory")
    families = [
        FiniteFamily(
            range(16),
            [Fraction(rng.randrange(-50, 51), rng.randrange(1, 21)) for _ in range(16)],
        ),
        FiniteFamily(
            range(16), [Padic.from_int(rng.randrange(1, 7**20), 7, 20) for _ in range(16)]
        ),
    ]
    for fam in families:
        tracemalloc.start()
        try:
            bfs_norm(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, (fam.mode, peak)


# ------------------------------------------------------------------ fubini


def test_fubini_examples():
    rep = fubini_check([[1, 2], [3, 4]])
    assert rep.equal and rep.direct == 10
    single = fubini_check([[Fraction(7, 3)]])
    assert single.equal and single.direct == Fraction(7, 3)


def test_fubini_random_padic_grids():
    rng = rng_for("fubini-padic")
    for p in (2, 5):
        for _ in range(20):
            rows = [
                [random_padic(rng, p, 8, -1, 3) for _ in range(4)] for _ in range(4)
            ]
            rep = fubini_check(rows)
            assert rep.equal
            # independent oracle: direct summation in one flat pass
            direct = rows[0][0]
            first = True
            for row in rows:
                for v in row:
                    if first:
                        first = False
                        continue
                    direct = direct + v
            assert direct == rep.direct


# --------------------------------------------------------------- partition


def test_partition_examples():
    fam = FiniteFamily([1, 2, 3, 4], [1, 2, 3, 4])
    rep = partition_check(fam, [[1, 2], [3, 4]])
    assert rep.equal and rep.block_totals == (3, 7) and rep.direct == 10
    singles = partition_check(fam, [[1], [2], [3], [4]])
    assert singles.equal


def test_partition_padic_mixed_valuations():
    rng = rng_for("partition-padic")
    for _ in range(20):
        fam = padic_family(rng, 3, 6)
        rep = partition_check(fam, [[0, 3], [1, 4], [2, 5]])
        assert rep.equal


def test_partition_validation():
    fam = FiniteFamily([1, 2, 3], [1, 2, 3])
    with pytest.raises(DomainError):
        partition_check(fam, [[1, 2], [2, 3]])
    with pytest.raises(DomainError):
        partition_check(fam, [[1], [2]])
    with pytest.raises(DomainError):
        partition_check(fam, [[1, 2, 3], []])


def test_family_validation():
    with pytest.raises(DomainError):
        FiniteFamily([1, 2], [1])
    with pytest.raises(DomainError):
        FiniteFamily([1, 1], [1, 2])
    with pytest.raises(DomainError):
        FiniteFamily([1, 2], [Fraction(1), Padic.from_int(1, 5, 4)])
