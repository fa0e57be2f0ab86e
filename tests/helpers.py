"""Shared random generators and tiny oracles for the test suite."""

import math
import random
import time
from fractions import Fraction


from padicore import (
    Ball,
    ClopenSet,
    DivisionByZeroError,
    DomainError,
    HenselProblem,
    Padic,
    PowerSeries,
    PrecisionError,
    check_condition,
    solve,
)
from padicore.errors import ConditionNotMetError, IndeterminateConditionError
from padicore.hensel import BallImageReport
from padicore.plog import isometry_threshold, log_series_polynomial, series_degree


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


def _fraction_valuation(q, p):
    """v_p of a nonzero Fraction."""
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def lift_parts(p, q, n):
    """The normal-form parts (p, v, unit, rel) of the rational q known mod p**n."""
    q = Fraction(q)
    if q == 0 or _fraction_valuation(q, p) >= n:
        return (p, n, 0, 0)
    v = _fraction_valuation(q, p)
    modulus = p ** (n - v)
    scaled = q / Fraction(p) ** v
    unit = scaled.numerator * pow(scaled.denominator, -1, modulus) % modulus
    return (p, v, unit, n - v)


def _known(a, beside):
    """(lift, absolute precision, valuation bound, relative precision) of an operand.

    An exact int or Fraction is known as precisely as the module docstring
    promises beside the Padic operand: at least its absolute and relative
    precision, so it never bounds a result.
    """
    if isinstance(a, Padic):
        return a.lift(), a.abs_prec, a.v, a.rel
    q = Fraction(a)
    if q == 0:
        n = max(beside.abs_prec, beside.rel)
        return q, n, n, 0
    v = _fraction_valuation(q, beside.p)
    rel = max(beside.rel, beside.abs_prec - v, 1)
    return q, v + rel, v, rel


def lift_oracle(op, a, b=None):
    """Parts of an operation on Padic values, computed from their lifts.

    op is "+", "-", "*", "/" (on a and b, either of which may be an exact
    int or Fraction), "neg", "invert", "**" and "truncate" (on the Padic a,
    with the exponent or the precision as b).  The precision follows the
    module docstring of padics: a sum to min(N_a, N_b), a product to
    relative precision min(r_a, r_b), an inverse to the same relative
    precision.  A zero-to-precision factor makes a zero product whose
    valuation bound is the sum of the bounds.  Returns the exception class
    where the operation must raise.
    """
    p = a.p if isinstance(a, Padic) else b.p
    qa, na, va, ra = _known(a, b)
    if op == "truncate":
        return PrecisionError if b > na else lift_parts(p, qa, b)
    if op == "neg":
        return lift_parts(p, -qa, na)
    if op == "invert":
        return DivisionByZeroError if qa == 0 else lift_parts(p, 1 / qa, -va + ra)
    if op == "**":
        if qa == 0 and b < 0:
            return DivisionByZeroError
        if qa == 0:
            return (p, 0, 1, 1) if b == 0 else (p, b * va, 0, 0)
        return lift_parts(p, qa**b, b * va + ra)
    qb, nb, vb, rb = _known(b, a)
    if op in "+-":
        return lift_parts(p, qa + qb if op == "+" else qa - qb, min(na, nb))
    if op == "/":
        if qb == 0:
            return DivisionByZeroError
        qb, vb = 1 / qb, -vb
    if qa == 0 or qb == 0:
        return (p, va + vb, 0, 0)
    return lift_parts(p, qa * qb, va + vb + min(ra, rb))


def horner_evaluate(f, x):
    """Evaluation oracle: Horner's rule on Padic values, acc * x + c,
    with every product and sum a Padic operation."""
    acc = f.coeffs[-1]
    for c in reversed(f.coeffs[:-1]):
        acc = acc * x + c
    return acc


def horner_recenter(f, x0):
    """Taylor-shift oracle: the coefficients of f(x0 + y), by n - 1
    synthetic-division passes a[j] = a[j] + a[j + 1] * x0 on Padic values."""
    a = list(f.coeffs)
    n = len(a)
    for low in range(n - 1):
        for j in range(n - 2, low - 1, -1):
            a[j] = a[j] + a[j + 1] * x0
    return a


def parts(x):
    """The parts (p, v, unit, rel) of a Padic."""
    return (x.p, x.v, x.unit, x.rel)


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


def enumerated_ball_image(f, x0, t_exp, level):
    """The residues mod p**level of f on B(x0, p**-t_exp), by Horner's rule
    on every residue of the ball; f and x0 known mod p**level."""
    p = f.p
    modulus, step = p**level, p**t_exp
    coeffs = [c.residue(level).value for c in f.coeffs]
    x0 = x0.residue(level).value
    image = set()
    for k in range(p ** (level - t_exp)):
        x, acc = (x0 + k * step) % modulus, 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % modulus
        image.add(acc)
    return image


def enumerated_ball_image_report(f, x0, m, t_exp, level):
    """ball_image_check by enumeration, for level >= t_exp: the image of
    every residue of the source ball against every residue of the target
    ball."""
    try:
        report = check_condition(f, x0, m, t_exp)
    except IndeterminateConditionError:
        report = None
    if report is None or not report.ok:
        return BallImageReport("condition-not-met", False, level, 0, 0, 0)
    p, target_exp = f.p, report.derivative_valuation + t_exp
    if level < target_exp:
        raise DomainError(f"level {level} too coarse: needs at least {target_exp}")
    image = enumerated_ball_image(f, x0, t_exp, level)
    fx0 = f.evaluate(x0).residue(level).value
    target = {(fx0 + k * p**target_exp) % p**level for k in range(p ** (level - target_exp))}
    return BallImageReport("verified", image == target, level, p ** (level - t_exp), len(image), len(target))


def fixed_point_solve(problem, z):
    """Solve oracle: iterate the contraction map of the certificate.

    h(x) = x0 + f'(x0)**-1 * (z - f(x0)) - f'(x0)**-1 * g0(x), with
    g0(x) = f(x) - f(x0) - f'(x0) * (x - x0), gains at least gap digits
    per step on the certified ball.
    """
    f, x0, f_x0 = problem.f, problem.x0, problem.f_x0
    fprime_x0 = problem.fprime.evaluate(x0)
    c = fprime_x0.invert()
    base = x0 + c * (z - f_x0)
    x = x0
    for _ in range(max(x.abs_prec, z.abs_prec, 1) + 2):
        g0 = f.evaluate(x) - f_x0 - fprime_x0 * (x - x0)
        x_next = base - c * g0
        done = (x_next - x).is_zero
        x = x_next
        if done:
            assert (f.evaluate(x) - z).is_zero
            return x
    raise AssertionError("contraction failed to settle")


def exact(x, abs_prec):
    """The representative p**v * unit of x, as a value known mod p**abs_prec:
    the lift that solve applies to its iterates, on Padic values."""
    if x.abs_prec >= abs_prec:
        return x.truncate(abs_prec)
    if x.is_zero:
        return Padic.zero(x.p, abs_prec)
    return Padic(x.p, x.v, x.unit, abs_prec - x.v)


def inverting_newton_solve(problem, z):
    """Solve oracle: solve's Newton loop with f'(x) inverted at every step,
    one modular inversion a step, and the number of steps it took."""
    f = problem.f
    shift = z - problem.f_x0
    if shift.valuation_bound < problem.target_valuation():
        raise ConditionNotMetError(
            f"right-hand side outside the image ball: v(z - f(x0)) = "
            f"{shift.valuation_bound} < {problem.target_valuation()}"
        )
    vfp = problem.report.derivative_valuation
    low = min([0] + [c.valuation_bound + j * min(problem.m, 0) for j, c in enumerate(f.coeffs)])
    work = z.abs_prec - low
    x = problem.x0
    for steps in range(max(work - problem.t_exp, 0) + 2):
        x = exact(x, work)
        r = f.evaluate(x) - z
        if r.is_zero:
            assert (x - problem.x0).valuation_bound >= problem.t_exp
            return x.truncate(r.abs_prec - vfp), steps
        x = x - r * problem.fprime.evaluate(x).invert()
    raise AssertionError("Newton iteration failed to settle; internal invariant broken")


def log_partial_sum(x, p, n):
    """log(1 + x) mod p**n for an integer x with p | x, without argument reduction.

    Term j, (-1)**(j+1) x**j / j, is reduced exactly: x**j is kept mod
    p**(n + e) with e the most any j can need, divided by p**v_p(j) and
    multiplied by the inverse of the rest of j.  With v = v(x) the terms
    past (2n + 8) / v vanish mod p**n, since their valuation
    j*v - log_p(j) reaches n.
    """
    mod = p**n
    if x % mod == 0:
        return 0
    v = 0
    while x % p ** (v + 1) == 0:
        v += 1
    terms = (2 * n + 8) // v + 1
    top = p ** (n + terms.bit_length())
    total, power = 0, 1
    for j in range(1, terms + 1):
        power = power * x % top
        e, rest = 0, j
        while rest % p == 0:
            e, rest = e + 1, rest // p
        term = power // p**e * pow(rest, -1, mod)
        total += term if j % 2 else -term
    return total % mod


def log1p_by_terms(x, abs_prec=None):
    """log1p oracle: the series summed term by term in Padic arithmetic."""
    if abs_prec is None:
        abs_prec = x.abs_prec
    if x.is_zero:
        return Padic.zero(x.p, abs_prec)
    v = x.valuation()
    x = x.truncate(abs_prec)
    total = Padic.zero(x.p, abs_prec)
    power = Padic.from_int(1, x.p, cap=max(x.rel, 1))
    for j in range(1, series_degree(x.p, abs_prec, v) + 1):
        power = power * x
        term = power / j
        total = total + (term if j % 2 == 1 else -term)
    return total


def log_inverse_by_hensel(z, abs_prec=None):
    """log_inverse oracle: Hensel-solve the truncated series polynomial.

    The polynomial agrees with log(1 + x) mod p**N on the ball
    v >= threshold, and the certified solver returns its root there.
    """
    p = z.p
    s = isometry_threshold(p)
    n = z.abs_prec if abs_prec is None else min(abs_prec, z.abs_prec)
    if z.is_zero:
        return Padic.zero(p, n)
    z = z.truncate(n)
    poly = log_series_polynomial(p, n, s)
    problem = HenselProblem(poly, Padic.zero(p, n + s), m=s, t_exp=s)
    return solve(problem, z)


def teichmuller_by_p_power(a, p, abs_prec):
    """Teichmuller oracle: x -> x**p mod p**abs_prec to its fixed point.

    The lift w satisfies w = a**(p**(k-1)) mod p**k, so the iteration
    gains one digit a step and settles within abs_prec steps.
    """
    modulus = p**abs_prec
    x = a % modulus
    for _ in range(abs_prec + 1):
        x_next = pow(x, p, modulus)
        if x_next == x:
            return Padic.from_int(x, p, abs_prec, cap=abs_prec)
        x = x_next
    raise AssertionError("p-power iteration failed to settle")


def least_residue_root(a, n, p):
    """Seed oracle: the least s in [0, p) with s**n = a mod p, or None."""
    return next((s for s in range(p) if pow(s, n, p) == a % p), None)


def schoolbook_mul(a, b, n, p=None):
    """Product oracle: the first n coefficients of a * b, term by term.

    The coefficients are reduced mod p when p is given.
    """
    out = [
        sum(a[i] * b[k - i] for i in range(k + 1) if i < len(a) and k - i < len(b))
        for k in range(n)
    ]
    return out if p is None else [c % p for c in out]


def newton_inverse_full(f):
    """Inverse oracle: Newton's iteration x <- x + x*(1 - f*x) with full-size products.

    x is padded with zeros to the step's target precision m, and both
    products are taken mod T**m.
    """
    field, n = f.field, f.prec
    x = PowerSeries(field, [field.inv(f.coeffs[0])] if n else [], min(n, 1))
    while x.prec < n:
        m = min(2 * x.prec, n)
        x = PowerSeries(field, list(x.coeffs), m)
        x = x + x * (PowerSeries.one(field, m) - f.truncate(m) * x)
    return x


def arnault_composite():
    """Arnault's 70-digit p1*p2*p3, a strong pseudoprime to each prime base 2, 3, ..., 41.

    p1 = 4713580168362724685203, p2 = 101*(p1 - 1) + 1 and
    p3 = 241*(p1 - 1) + 1 are prime, so Miller-Rabin on those bases
    alone accepts this composite.
    """
    p1 = 4713580168362724685203
    return p1 * (101 * (p1 - 1) + 1) * (241 * (p1 - 1) + 1)


def schoolbook_compose(f, g, n, p=None):
    """Composition oracle: sum of f_j * g**j mod T**n, powers by schoolbook_mul.

    Over the integers, or mod p when p is given.
    """
    out = [0] * n
    power = [1] + [0] * (n - 1)
    for fj in f[:n]:
        out = [o + fj * q for o, q in zip(out, power)]
        if p is not None:
            out = [c % p for c in out]
        power = schoolbook_mul(power, g, n, p)
    return out


def horner_compose_rational(f, g):
    """QQ composition oracle: Horner's rule in g on the integer numerators.

    Over the common denominator df * dg**(n-1): the step that adds f_j
    works mod T**(n-j), with f_j scaled by df * dg**(n-1-j) and g by dg.
    """
    from padicore import QQ
    from padicore._kernels import convolve

    n = min(f.prec, g.prec)
    df = math.lcm(*(c.denominator for c in f.coeffs[:n]))
    dg = math.lcm(*(c.denominator for c in g.coeffs[:n]))
    gi = [int(c * dg) for c in g.coeffs[:n]]
    acc, scale = [], df
    for j in reversed(range(n)):
        acc = convolve(gi, acc, n - j)
        acc[0] += int(f.coeffs[j] * scale)
        scale *= dg
    d = scale // dg  # df * dg**(n-1)
    return PowerSeries(QQ, [Fraction(c, d) for c in acc], n)


def covered_residues(p, balls, level):
    """All residues mod p**level covered by the balls, one ball at a time."""
    out = set()
    for b in balls:
        step = p**b.level
        out.update(b.center + k * step for k in range(p ** (level - b.level)))
    return out


def _residues(s, level):
    """All residues mod p**level covered by the clopen set s."""
    return covered_residues(s.p, s.balls, level)


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


def best_time(call, repeats=3):
    """The least wall time of repeats calls, in seconds."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        times.append(time.perf_counter() - started)
    return min(times)


def rng_for(name):
    """Deterministic per-test RNG."""
    return random.Random(f"padicore::{name}")
