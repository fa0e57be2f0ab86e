"""Workload ``clopen_sums``: clopen-set algebra, Haar measure and sumlab.

Every round makes the same calls, with fresh seeded values:

* for p in {2, 3, 5, 7} and three levels L per prime with p**L in
  [10**2, 10**3), [10**3, 10**4) and [10**4, 10**5] (2: 8, 12, 16;
  3: 5, 8, 10; 5: 3, 5, 7; 7: 3, 4, 5): ``complement``, ``intersect``,
  ``difference`` and ``union`` on two sets A and B, and ``measure`` and
  ``translate`` on each.  The non-enumerating calls are about three
  fifths of a round, so the median latency is theirs and the tail is the
  enumerating calls'.  Each set is one ball of level 2 plus one to three balls of
  levels 3..L, one of them at level L, so that the refinement level is L
  and the enumerated residues are about p**L (1 + 2/p**2);
* ``bfs_norm`` on rational families of sizes 8, 12, 16 and 2-adic to
  7-adic families of sizes 10 and 14;
* ``norms``, ``fubini_check`` and ``partition_check``, once on a rational
  and once on a p-adic family.

All levels stay below the 10**6 refinement guard, so no call is refused
(a refusal would count as a failure).

Why: ``measure`` (complement, intersect and difference refine to level L
and enumerate residues) and ``sumlab`` (``bfs_norm`` enumerates 2**n
subsets) are the enumeration layers.  union, measure and translate use
the same module without enumeration, so a structural rewrite of the ball
algebra has to show its gain on the enumerating calls without a loss on
these.

Checks: A ∪ Aᶜ = Z_p with measures adding to 1; A ∩ B against the
harness's own pairwise ball intersection (in an ultrametric two balls
are nested or disjoint); (A ∖ B) ∪ (A ∩ B) = A with measures adding up;
union, measure and translate against ball-by-ball computations;
``bfs_norm`` against max(Σ positives, -Σ negatives) for rational families
and the sup norm for p-adic ones; the sumlab reports against direct sums.
"""

from fractions import Fraction

from harness import OK, Call, wrong
from padicore import measure, sumlab
from padicore.padics import Padic
from wl_cli import bfs_case, measure_case

LEVELS = {2: (8, 12, 16), 3: (5, 8, 10), 5: (3, 5, 7), 7: (3, 4, 5)}
BFS_RATIONAL = (8, 12, 16)
BFS_PADIC = (10, 14)
PADIC_PREC = 20

POOL = 2


# ------------------------------------------------------------ independent checks


def ball_measure(balls):
    return sum((Fraction(1, b.p**b.level) for b in balls), Fraction(0))


def contains(big, small):
    return small.level >= big.level and (small.center - big.center) % big.p**big.level == 0


def structural_intersection(a, b):
    """A ∩ B from pairs of balls: the smaller of two nested balls, or nothing."""
    balls = []
    for x in a.balls:
        for y in b.balls:
            if contains(x, y):
                balls.append(y)
            elif contains(y, x):
                balls.append(x)
    return measure.ClopenSet(a.p, balls)


def covers(s, balls):
    return all(any(contains(big, b) for big in s.balls) for b in balls)


def check_complement(a):
    def check(c):
        if a.union(c) != measure.ClopenSet.full(a.p) or ball_measure(a.balls) + ball_measure(c.balls) != 1:
            return wrong("A and its complement do not partition Z_p")
        return OK

    return check


def check_intersect(a, b):
    def check(i):
        return OK if i == structural_intersection(a, b) else wrong("intersection differs")

    return check


def check_difference(a, b):
    def check(d):
        i = structural_intersection(a, b)
        if d.union(i) != a or ball_measure(d.balls) + ball_measure(i.balls) != ball_measure(a.balls):
            return wrong("(A - B) and (A & B) do not partition A")
        return OK

    return check


def check_union(a, b):
    def check(u):
        i = structural_intersection(a, b)
        expect = ball_measure(a.balls) + ball_measure(b.balls) - ball_measure(i.balls)
        if ball_measure(u.balls) != expect or not covers(u, a.balls + b.balls):
            return wrong("union does not cover both sets with the right measure")
        return OK

    return check


def check_measure(a):
    def check(m):
        return OK if m == ball_measure(a.balls) else wrong("measure differs")

    return check


def check_translate(a, shift):
    expect = sorted((b.level, (b.center + shift) % a.p**b.level) for b in a.balls)

    def check(t):
        got = sorted((b.level, b.center) for b in t.balls)
        return OK if got == expect else wrong("translate differs ball by ball")

    return check


def abs_exact(v):
    if isinstance(v, Padic):
        return Fraction(0) if v.is_zero else Fraction(v.p) ** -v.v
    return abs(v)


def check_bfs(values):
    if isinstance(values[0], Padic):
        expect = max(abs_exact(v) for v in values)
    else:
        expect = max(sum(v for v in values if v > 0), -sum(v for v in values if v < 0))

    def check(value):
        return OK if value == expect else wrong("bfs norm differs")

    return check


def direct_sum(values):
    total = values[0]
    for v in values[1:]:
        total = total + v
    return total


def check_norms(values, r):
    sup = max(abs_exact(v) for v in values)
    lr = sup if r == "inf" else sum((abs_exact(v) ** r for v in values), Fraction(0))

    def check(report):
        return OK if (report.sup, report.lr_power) == (sup, lr) else wrong("norms differ")

    return check


def check_report(values):
    def check(report):
        if not report.equal or report.direct != direct_sum(values):
            return wrong("iterated sums disagree with the direct sum")
        return OK

    return check


# ------------------------------------------------------------ inputs


def clopen(rng, p, level):
    """One ball of level 2 and one to three disjoint deeper balls, one at ``level``.

    Draws again until canonicalisation keeps every ball: a deep ball that
    fell inside another would drop the refinement level below ``level``.
    """
    while True:
        balls = [measure.Ball(p, 2, rng.randrange(p**2))]
        levels = [level] + [rng.randint(3, level) for _ in range(rng.randint(0, 2))]
        balls += [measure.Ball(p, lvl, rng.randrange(p**lvl)) for lvl in levels]
        s = measure.ClopenSet(p, balls)
        if len(s.balls) == len(balls):
            return s


def rational_values(rng, n):
    return [Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(n)]


def padic_values(rng, n, p):
    return [Padic.from_int(rng.randrange(1, p**PADIC_PREC), p, PADIC_PREC) for _ in range(n)]


def family(values):
    return sumlab.FiniteFamily(range(len(values)), values)


def make_round(rng, index):
    calls = []
    for p, levels in LEVELS.items():
        for level in levels:
            a, b = clopen(rng, p, level), clopen(rng, p, level)
            shift = rng.randrange(p**level)
            size = p**level
            calls += [
                Call("complement", lambda a=a: a.complement(), check_complement(a), size),
                Call("intersect", lambda a=a, b=b: a.intersect(b), check_intersect(a, b), size),
                Call("difference", lambda a=a, b=b: a.difference(b), check_difference(a, b), size),
                Call("union", lambda a=a, b=b: a.union(b), check_union(a, b), size),
            ]
            for x in (a, b):
                calls += [
                    Call("measure", lambda x=x: x.measure(), check_measure(x), size),
                    Call("translate", lambda x=x, s=shift: x.translate(s), check_translate(x, shift), size),
                ]
    primes = list(LEVELS)
    families = [rational_values(rng, n) for n in BFS_RATIONAL]
    families += [padic_values(rng, n, rng.choice(primes)) for n in BFS_PADIC]
    for values in families:
        fam = family(values)
        calls.append(Call("bfs_norm", lambda fam=fam: sumlab.bfs_norm(fam), check_bfs(values), len(values)))
    for values in (rational_values(rng, 12), padic_values(rng, 12, rng.choice(primes))):
        fam = family(values)
        r = rng.choice((1, 2, 3, "inf"))
        rows = [values[i : i + 4] for i in range(0, 12, 4)]
        blocks = [list(range(0, 5)), list(range(5, 9)), list(range(9, 12))]
        calls += [
            Call("norms", lambda fam=fam, r=r: sumlab.norms(fam, r), check_norms(values, r)),
            Call("fubini", lambda rows=rows: sumlab.fubini_check(rows), check_report(values)),
            Call(
                "partition",
                lambda fam=fam, blocks=blocks: sumlab.partition_check(fam, blocks),
                check_report(values),
            ),
        ]
    rng.shuffle(calls)
    return calls


def process_cases(rng):
    """Small ``padicore measure`` and ``sums`` commands for the process timing."""
    return [
        measure_case(rng, "complement", "json", p=3, level=6),
        measure_case(rng, "intersect", "json", p=2, level=8),
        bfs_case(rng, "json", n=10),
    ]
