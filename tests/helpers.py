"""Shared random generators and tiny oracles for the test suite."""

import random
from fractions import Fraction


from padicore import Ball, ClopenSet, Padic, PowerSeries


def random_unit(rng, p, prec):
    """A uniformly random unit of the p-adic integers at abs precision prec."""
    m = rng.randrange(1, p**prec)
    while m % p == 0:
        m = rng.randrange(1, p**prec)
    return Padic.from_int(m, p, prec)


def random_padic(rng, p, rel, min_v=-3, max_v=3):
    """Random nonzero p-adic with rel mantissa digits, valuation in range."""
    v = rng.randrange(min_v, max_v + 1)
    m = rng.randrange(1, p**rel)
    while m % p == 0:
        m = rng.randrange(1, p**rel)
    return Padic(p, v, m, rel)


def random_fp_series(rng, p, prec, zero_constant=False):
    from padicore import PrimeFieldCoefficients

    coeffs = [rng.randrange(p) for _ in range(prec)]
    if zero_constant and coeffs:
        coeffs[0] = 0
    field = PrimeFieldCoefficients(p)
    return PowerSeries(field, coeffs, prec)


def random_q_series(rng, prec, zero_constant=False, denominators=(1, 1, 2, 3)):
    from padicore import QQ

    coeffs = [
        Fraction(rng.randrange(-9, 10), rng.choice(denominators))
        for _ in range(prec)
    ]
    if zero_constant and coeffs:
        coeffs[0] = Fraction(0)
    return PowerSeries(QQ, coeffs, prec)


def _positive_compositions(total, parts):
    """All tuples of `parts` positive integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in _positive_compositions(total - head, parts - 1):
            yield (head,) + rest


def compose_by_monomials(f, g):
    """Composition oracle: enumerate monomial tuples instead of Horner.

    The coefficient of T**n in f(g) is the sum over j of f_j times the
    sum of g_{a_1} * ... * g_{a_j} over all j-tuples of positive indices
    with a_1 + ... + a_j = n (tuples with a zero index cannot occur when
    g has zero constant term).  Exponential in the degree, so only for
    small truncations.
    """
    field = f.field
    n = min(f.prec, g.prec)
    if n == 0:
        return PowerSeries(field, [], 0)
    out = [field.zero] * n
    out[0] = f.coeffs[0]
    for total in range(1, n):
        acc = field.zero
        for j in range(1, total + 1):
            fj = f.coeffs[j] if j < f.prec else field.zero
            if fj == field.zero:
                continue
            inner = field.zero
            for alpha in _positive_compositions(total, j):
                term = field.one
                for a in alpha:
                    term = field.mul(term, g.coeffs[a])
                inner = field.add(inner, term)
            acc = field.add(acc, field.mul(fj, inner))
        out[total] = acc
    return PowerSeries(field, out, n)


def brute_force_root(p, level, target, poly_residues, seed_residue, seed_level):
    """Exhaustive root search: x with f(x) = target mod p**level.

    poly_residues are integer coefficients mod p**level; only roots
    congruent to seed_residue mod p**seed_level qualify.
    """
    modulus = p**level
    hits = []
    for x in range(modulus):
        if x % p**seed_level != seed_residue % p**seed_level:
            continue
        acc = 0
        for c in reversed(poly_residues):
            acc = (acc * x + c) % modulus
        if acc == target % modulus:
            hits.append(x)
    return hits


def _residues(s, level):
    """All residues mod p**level covered by the clopen set s."""
    out = set()
    for b in s.balls:
        step = s.p**b.level
        out.update(b.center + k * step for k in range(s.p ** (level - b.level)))
    return out


def _from_residues(p, level, residues):
    return ClopenSet(p, [Ball(p, level, c) for c in residues])


def enumerated_intersect(a, b):
    """Intersection oracle: refine both sets to a common level, enumerate."""
    level = max(a.max_level(), b.max_level())
    return _from_residues(a.p, level, _residues(a, level) & _residues(b, level))


def enumerated_difference(a, b):
    """Difference oracle: refine both sets to a common level, enumerate."""
    level = max(a.max_level(), b.max_level())
    return _from_residues(a.p, level, _residues(a, level) - _residues(b, level))


def enumerated_complement(s):
    """Complement oracle: every residue mod p**level not covered by s."""
    level = s.max_level()
    everything = set(range(s.p**level))
    return _from_residues(s.p, level, everything - _residues(s, level))


def split_tree_leaves(p, level):
    """Leaf count of the p-ary split tree of depth level, walked node by node."""
    leaves = 0
    stack = [0]
    while stack:
        depth = stack.pop()
        if depth == level:
            leaves += 1
        else:
            stack.extend([depth + 1] * p)
    return leaves


def rng_for(name):
    """Deterministic per-test RNG."""
    return random.Random(f"padicore::{name}")
