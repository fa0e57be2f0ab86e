"""Ball root solving: condition, solver, roots, lifts, image checks."""

import math
import re
import time
from fractions import Fraction

import pytest

from padicore import (
    Ball,
    ClopenSet,
    DomainError,
    HenselProblem,
    NoRootError,
    Padic,
    PadicPolynomial,
    PrecisionError,
    ball_image,
    ball_image_check,
    check_condition,
    nth_root,
    solve,
    solve_classical,
    sqrt,
    teichmuller,
)
from padicore.errors import (
    ConditionNotMetError,
    EnumerationGuardError,
    IndeterminateConditionError,
)
from padicore import hensel
from padicore.intmath import doubling_ladder, newton_lift, root_mod
from helpers import (
    best_time,
    brute_force_root,
    covered_residues,
    enumerated_ball_image,
    enumerated_ball_image_report,
    exact,
    fixed_point_solve,
    inverting_newton_solve,
    least_residue_root,
    parts,
    random_padic,
    random_unit,
    rng_for,
    teichmuller_by_p_power,
)


def _poly(p, coeffs, prec=12):
    return PadicPolynomial(p, coeffs, abs_prec=prec)


# ----------------------------------------------------------------- condition


def test_condition_example_sqrt2():
    f = _poly(7, [-2, 0, 1], 6)
    report = check_condition(f, Padic.from_int(3, 7, 6), 0, 1)
    assert report.ok and report.ok_nonstrict
    assert report.derivative_valuation == 0
    assert report.mu2 == 0
    assert report.gap == 1


def test_condition_degenerate_derivative():
    f = _poly(5, [0, 0, 1], 6)
    with pytest.raises(IndeterminateConditionError):
        check_condition(f, Padic.zero(5, 6), 0, 1)


def test_condition_p2_needs_wider_gap():
    f = _poly(2, [-17, 0, 1], 8)
    x0 = Padic.from_int(1, 2, 8)
    assert not check_condition(f, x0, 0, 1).ok
    assert check_condition(f, x0, 0, 1).ok_nonstrict
    assert check_condition(f, x0, 0, 2).ok


@pytest.mark.parametrize("f", ["x^2-2", [-2, 0, 1], None])
def test_problem_and_condition_reject_a_non_polynomial(f):
    """The polynomial is checked before the center is read at its prime."""
    for build in (lambda: HenselProblem(f, 3), lambda: check_condition(f, 3, 0, 1)):
        with pytest.raises(DomainError, match="expected a PadicPolynomial"):
            build()


def test_problem_differentiates_once(monkeypatch):
    calls = []
    derivative = PadicPolynomial.derivative
    monkeypatch.setattr(PadicPolynomial, "derivative", lambda f: calls.append(f) or derivative(f))
    f = _poly(7, [-2, 0, 1], 6)
    problem = HenselProblem(f, 3)
    assert calls == [f]
    assert problem.fprime == derivative(f)
    assert problem.report == check_condition(f, 3, 0, 1)


# -------------------------------------------------------------------- solve


def test_solve_sqrt2_in_z7_matches_brute_force():
    f = _poly(7, [-2, 0, 1], 3)
    problem = HenselProblem(f, Padic.from_int(3, 7, 3), m=0, t_exp=1)
    x = solve(problem, Padic.zero(7, 3))
    hits = brute_force_root(7, 3, 0, [-2, 0, 1], 3, 1)
    assert len(hits) == 1 and hits[0] == 108
    assert x.residue(3).value == 108
    assert x.digits() == [3, 1, 2]


def test_solve_linear_is_direct():
    f = _poly(5, [0, 1], 8)
    problem = HenselProblem(f, Padic.zero(5, 8), m=0, t_exp=1)
    z = Padic.from_int(35, 5, 8)
    assert (solve(problem, z) - z).is_zero


def test_solve_cube_root_matches_brute_force():
    f = _poly(5, [-6, 0, 0, 1], 2)
    problem = HenselProblem(f, Padic.from_int(1, 5, 2), m=0, t_exp=1)
    x = solve(problem, Padic.zero(5, 2))
    hits = brute_force_root(5, 2, 0, [-6, 0, 0, 1], 1, 1)
    assert hits == [11]
    assert x.residue(2).value == 11


def test_solve_rejects_rhs_outside_image_ball():
    f = _poly(7, [-2, 0, 1], 6)
    problem = HenselProblem(f, Padic.from_int(3, 7, 6), m=0, t_exp=1)
    with pytest.raises(ConditionNotMetError):
        solve(problem, Padic.from_int(3, 7, 6))  # v(z - f(x0)) = 0 < 1


def _certified_cubic(rng, p, N):
    """A cubic with v(f'(x0)) = k in {0, 1, 2}, its ball and a target in the image."""
    k = rng.randrange(3)
    t_exp = k + 1
    q = p**N
    c0, c2, c3 = (rng.randrange(q) for _ in range(3))
    x0 = rng.randrange(q)
    c1 = (p**k * rng.choice([u for u in range(1, 2 * p) if u % p]) - 2 * c2 * x0 - 3 * c3 * x0**2) % q
    coeffs = [c0, c1, c2, c3]
    root = x0 + p**t_exp * rng.randrange(q)
    z = sum(c * root**j for j, c in enumerate(coeffs)) % q
    f = PadicPolynomial(p, [Padic.from_int(c, p, N, cap=N) for c in coeffs])
    return HenselProblem(f, Padic.from_int(x0, p, N, cap=N), m=0, t_exp=t_exp), Padic.from_int(z, p, N, cap=N)


def _fixed_problems():
    """The Hensel cases of the acceptance suite and of this module, and one
    with v(f'(x0)) = -2 < 0, where the answer is more precise than the data."""
    cases = [
        (7, [-2, 0, 1], 3, 1, 3, 0),
        (5, [-1, 0, 0, 0, 1], 2, 1, 3, 0),
        (5, [-6, 0, 0, 1], 1, 1, 2, 0),
        (7, [-2, 0, 1], 3, 1, 8, 0),
        (2, [-17, 0, 1], 1, 2, 8, 0),
        (5, [0, 1], 0, 1, 8, 35),
        (5, [0, Fraction(1, 25), Fraction(1, 25)], 1, 1, 12, Fraction(86 * 87, 25)),
    ]
    for p, coeffs, x0, t_exp, N, z in cases:
        problem = HenselProblem(_poly(p, coeffs, N), Padic.from_int(x0, p, N), m=0, t_exp=t_exp)
        yield problem, Padic.from_rational(z, 1, p, N)


def _counted_solve(monkeypatch, problem, z):
    """solve(problem, z) and the number of Newton steps it took."""
    calls = []

    def counting(*args):
        calls.append(1)
        return horner(*args)

    horner = hensel._horner
    monkeypatch.setattr(hensel, "_horner", counting)
    try:
        x = solve(problem, z)
    finally:
        monkeypatch.setattr(hensel, "_horner", horner)
    # one Horner pass over f per step and over f' per step after the first
    # (the first uses the problem's f'(x0)), one over f for the final
    # residual; a solve that answers takes a step unless z = f(x0)
    steps = len(calls) // 2
    assert calls and (steps or (z - problem.f_x0).is_zero)
    return x, steps


def test_newton_route_agrees(monkeypatch):
    """solve against the fixed-point oracle: same root, exactly
    N - v(f'(x0)) digits, never fewer than the oracle, and at most
    ceil(N / gap) Newton steps."""
    rng = rng_for("solve-oracle")
    problems = list(_fixed_problems())
    for p in (2, 3, 5, 7, 101):
        for _ in range(12):
            problems.append(_certified_cubic(rng, p, rng.randrange(4, 65)))
    seen = set()
    for problem, z in problems:
        vfp = problem.report.derivative_valuation
        seen.add(vfp)
        x, steps = _counted_solve(monkeypatch, problem, z)
        oracle = fixed_point_solve(problem, z)
        assert (x - oracle).is_zero
        assert x.abs_prec == z.abs_prec - vfp >= oracle.abs_prec
        gap = problem.report.gap
        assert steps <= (1 if gap == math.inf else max(1, -(-z.abs_prec // gap)))
    assert seen == {-2, 0, 1, 2}


def _unit_root_oracle(u, n):
    """The root that sqrt(u) or nth_root(u, n) should give: the inverting
    Newton oracle on x**n - u, the problem those calls solve, from the
    least root mod p (from 1 with t_exp = 2 for 2-adic square roots)."""
    p, N = u.p, u.abs_prec
    seed, t_exp = (1, 2) if p == n == 2 else (root_mod(u.residue(1).value, n, p), 1)
    f = PadicPolynomial(p, [-u] + [Padic.zero(p, N)] * (n - 1) + [Padic.from_int(1, p, N)])
    problem = HenselProblem(f, Padic.from_int(seed, p, N), m=0, t_exp=t_exp)
    return inverting_newton_solve(problem, Padic.zero(p, N))[0]


@pytest.mark.parametrize("N", [256, 1024])
@pytest.mark.parametrize("p", [2, 7, 65537])
def test_doubling_precision_at_large_n(p, N):
    """solve, sqrt and nth_root well past the step counts of small N: the
    root satisfies its equation mod p**N, its precision is what the
    certificate proves (N - v(f'(x0)), N - 1 for 2-adic square roots),
    and its parts are the inverting Newton oracle's, which steps at full
    precision."""
    rng = rng_for(f"large-n-{p}-{N}")
    q = p**N
    s = rng.randrange(q)
    s += s % p == 0
    for n in (2, 3, 5):
        if n % p == 0 and n != 2:
            continue
        u = Padic.from_int(pow(s, n, q), p, N)
        x = sqrt(u) if n == 2 else nth_root(u, n)
        k = N - 1 if p == 2 and n == 2 else N
        assert x.abs_prec == k
        assert pow(x.residue(k).value, n, p**k) == u.residue(k).value
        assert parts(x) == parts(_unit_root_oracle(u, n))
    problem, z = _certified_cubic(rng, p, N)
    x = solve(problem, z)
    assert x.abs_prec == N - problem.report.derivative_valuation
    coeffs = [c.residue(N).value for c in problem.f.coeffs]
    xv = x.residue(x.abs_prec).value
    assert sum(c * pow(xv, j, q) for j, c in enumerate(coeffs)) % q == z.residue(N).value
    assert parts(x) == parts(inverting_newton_solve(problem, z)[0])


def _random_certified(rng):
    """A certified problem and a target, drawn to reach every branch of solve:
    p = 2, v(f'(x0)) from -2 to 2 (f scaled by p**-s), m in {-1, 0, 1, 2},
    coefficients and x0 known below N, and targets off the image ball."""
    p = rng.choice((2, 2, 3, 5, 7, 11, 101))
    N, k, m = rng.randrange(2, 30), rng.randrange(3), rng.choice((-1, 0, 0, 1, 2))
    t_exp, q = max(k + 1, m), p**N
    coeffs = [rng.randrange(q) for _ in range(rng.randrange(2, 6))]
    if m < 0:  # keeps mu2 >= 0 on B(0, p): v(c_j) >= j - 2
        coeffs = [c * p ** max(j - 2, 0) for j, c in enumerate(coeffs)]
    x0 = p ** max(m, 0) * rng.randrange(q)
    rest = sum(j * c * x0 ** (j - 1) for j, c in enumerate(coeffs) if j >= 2)
    coeffs[1] = (p**k * rng.choice([u for u in range(1, 2 * p) if u % p]) - rest) % q
    root = x0 + p**t_exp * rng.randrange(q)
    z = sum(c * root**j for j, c in enumerate(coeffs)) % q
    if rng.random() < 0.05:  # off the image ball: solve refuses
        z += p ** (k + t_exp - 1)
    s = rng.choice((0, 0, 0, 0, 1, 2))  # f / p**s, with v(f'(x0)) = k - s

    def known(c, n=N):
        return Padic.from_rational(c, p**s, p, n - s, cap=n)

    precs = [rng.choice((N, N, N, N + 3, rng.randrange(1, N + 1))) for _ in coeffs]
    f = PadicPolynomial(p, [known(c, n) for c, n in zip(coeffs, precs)])
    x0 = Padic.from_int(x0, p, rng.choice((N, N, rng.randrange(t_exp, N + 3))))
    return HenselProblem(f, x0, m=m, t_exp=t_exp), known(z)


def _outcome(solver, *args):
    try:
        x, steps = solver(*args)
    except (DomainError, AssertionError) as e:
        return (type(e).__name__, str(e)), None
    return (x.p, x.v, x.unit, x.rel), steps


def test_lifted_inverse_agrees_with_inverting_newton(monkeypatch):
    """solve, which lifts f'(x)**-1 alongside x, against the loop that
    inverts f'(x) at every step: the same parts or the same refusal on
    2,000 certified problems, in at most two more steps."""
    rng = rng_for("lifted-inverse")
    seen, count = set(), 0
    while count < 2000:
        try:
            problem, z = _random_certified(rng)
        except DomainError:  # the condition fails, or f'(x0) is zero to precision
            continue
        count += 1
        want, oracle_steps = _outcome(inverting_newton_solve, problem, z)
        got, steps = _outcome(_counted_solve, monkeypatch, problem, z)
        assert got == want
        if steps is not None:
            assert steps <= oracle_steps + 2
        coeff_prec = min(c.abs_prec for c in problem.f.coeffs)
        seen.add(
            (
                problem.f.p == 2,
                problem.report.derivative_valuation > 0,
                problem.m != 0,
                coeff_prec < z.abs_prec,
                steps is None,
            )
        )
    assert all(any(case[i] for case in seen) for i in range(5))



@pytest.mark.parametrize(
    "route",
    [test_newton_route_agrees, test_lifted_inverse_agrees_with_inverting_newton],
    ids=["fixed-point", "inverting-newton"],
)
def test_ladder_at_every_size_agrees(monkeypatch, route):
    """The two oracle tests above with solve's precision ladder taken at
    every size of p**work: their problems are mostly below _LADDER_BITS,
    where solve steps at full precision."""
    monkeypatch.setattr(hensel, "_LADDER_BITS", 0)
    route(monkeypatch)

@pytest.mark.parametrize("p", [2, 3, 7, 101])
def test_inverse_update_has_the_parts_of_the_two_subtraction_form(p):
    """solve's y * (2 - a*y), with 2 exact to `work` digits, has the parts of
    y - y*(a*y - 1): a stands for f'(x), of valuation vfp, and y for an
    approximate inverse lifted to abs_prec work - vfp, as solve lifts it."""
    rng = rng_for(f"inverse-update-{p}")
    for _ in range(300):
        work, vfp = rng.randrange(1, 40), rng.randrange(0, 3)
        a = random_padic(rng, p, rng.randrange(1, work + 3), vfp, vfp)
        known = rng.randrange(1, a.rel + 1)
        y = exact(a.truncate(vfp + known).invert(), work - vfp)
        one = Padic(p, 0, 1, work)
        two = Padic(2, 1, 1, work) if p == 2 else Padic(p, 0, 2, work)
        assert parts(y * (two - a * y)) == parts(y - y * (a * y - one))


def test_solve_classical_wild_cube_root():
    """p divides the exponent: the basic ball condition fails at x0 = 1,
    but recentering at a deeper start certifies the same root."""
    f = _poly(3, [-10, 0, 0, 1], 20)
    with pytest.raises(ConditionNotMetError):
        HenselProblem(f, Padic.from_int(1, 3, 20), m=0, t_exp=1)
    x = solve_classical(f, Padic.from_int(4, 3, 20))
    n = x.abs_prec
    assert pow(x.residue(n).value, 3, 3**n) == 10 % 3**n


def test_solve_classical_nonzero_target():
    f = _poly(2, [0, 0, 1], 12)
    z = Padic.from_int(9 + 256, 2, 12)
    x = solve_classical(f, Padic.from_int(3, 2, 12), z)
    assert (x * x - z).is_zero
    assert x.residue(1).value == 1


def test_solve_classical_route():
    f = _poly(2, [-17, 0, 1], 10)
    x = solve_classical(f, Padic.from_int(1, 2, 10))
    assert (x * x - Padic.from_int(17, 2, 10)).is_zero
    g = _poly(5, [-1, 0, 0, 0, 0, 1], 8)  # x^5 - 1 near 1: v(f'(1)) = v(5) = 1
    y = solve_classical(g, Padic.from_int(1, 5, 8))
    assert (y - Padic.from_int(1, 5, 8)).is_zero
    with pytest.raises(ConditionNotMetError):
        solve_classical(_poly(2, [-3, 0, 1], 8), Padic.from_int(1, 2, 8))


def test_solve_classical_exact_start_claims_only_what_f_pins():
    """f(x0) = z to precision N certifies x0 to N - v(f'(x0)) digits,
    whatever precision x0 itself carries."""
    f = _poly(7, [-2, 0, 1], 12)  # x^2 - 2 known to 12 digits
    root = solve_classical(f, Padic.from_int(3, 7, 12))
    x = solve_classical(f, Padic.from_int(root.unit, 7, 30, cap=30))
    assert x.abs_prec == 12  # v(f'(x0)) = v(2 x0) = 0
    assert x == root
    # x^5 - 1 at the root 1 over Q_5: v(f'(1)) = 1, so 8 digits of f pin 7
    g = _poly(5, [-1, 0, 0, 0, 0, 1], 8)
    y = solve_classical(g, Padic.from_int(1, 5, 30, cap=30))
    assert y == Padic.from_int(1, 5, 7)


def test_solve_classical_zero_residual_below_twice_the_derivative_valuation():
    """f(x0) = z to precision N <= 2 v(f'(x0)) proves no root near x0."""
    g = _poly(5, [-1, 0, 0, 0, 0, 1], 2)  # v(f'(1)) = 1 and N = 2
    with pytest.raises(IndeterminateConditionError):
        solve_classical(g, Padic.from_int(1, 5, 30, cap=30))


# ------------------------------------------------------- exact arguments


def _far(x, p):
    """The int or Fraction x as a Padic known to far more digits than any case uses."""
    return Padic.from_rational(x, 1, p, 1000, cap=1100)


@pytest.mark.parametrize("p", [2, 3, 7, 101])
def test_exact_center_and_target_never_bound_the_answer(p):
    """An int or Fraction center or target gives, part for part, what it gives
    as a Padic known to far more digits, with coefficients known past the
    default 64-digit cap or below it."""
    rng = rng_for(f"exact-solve-{p}")
    for _ in range(12):
        N = rng.choice((12, 70, 100))
        problem, z = _certified_cubic(rng, p, N)
        f, x0, t_exp = problem.f, problem.x0.residue(N).value, problem.t_exp
        k = problem.report.derivative_valuation
        targets = [z.residue(N).value, z.residue(N).value + Fraction(p ** (k + t_exp), 3 if p == 2 else 2)]
        for target in targets:
            x = solve(HenselProblem(f, x0, m=0, t_exp=t_exp), target)
            assert x == solve(HenselProblem(f, _far(x0, p), m=0, t_exp=t_exp), _far(target, p))
            assert x.abs_prec == N - k
            # v(f(x0) - z) >= k + t_exp > 2k: the textbook condition holds too
            assert solve_classical(f, x0, target) == solve_classical(f, _far(x0, p), _far(target, p))
        assert check_condition(f, x0, 0, t_exp) == check_condition(f, _far(x0, p), 0, t_exp)


def test_exact_arguments_past_the_default_cap():
    """x**2 - 2 known to 100 digits: an int center and target were read to 64."""
    f = _poly(7, [-2, 0, 1], 100)
    problem = HenselProblem(f, 3)
    assert solve(problem, 0) == solve(problem, Padic.zero(7, 100)) == solve(problem, Padic.zero(7, 1000))
    assert solve(problem, 0).abs_prec == 100
    assert solve_classical(f, 3) == solve_classical(f, Padic.from_int(3, 7, 1000, cap=1000))
    assert solve_classical(f, 3).abs_prec == 100


def test_fraction_arguments_are_read_as_fractions():
    """1/2 was read as 0: solve answered x**2 = 2, and ball_image gave the image of B(0, 1/7)."""
    f = _poly(7, [-2, 0, 1], 12)
    problem = HenselProblem(f, 3)
    with pytest.raises(ConditionNotMetError, match="outside the image ball"):
        solve(problem, Fraction(1, 2))  # 1/2 = 4 mod 7 is not f(3) = 0 mod 7
    x = solve(problem, Fraction(7, 2))
    assert x == solve(problem, Padic.from_rational(7, 2, 7, 12)) and (x * x - Fraction(11, 2)).is_zero
    half = Padic.from_rational(1, 2, 7, 3)
    assert ball_image(f, Fraction(1, 2), 1, 3) == ball_image(f, half, 1, 3) != ball_image(f, 0, 1, 3)
    assert ball_image_check(f, Fraction(1, 2), 0, 1, 3) == ball_image_check(f, half, 0, 1, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda f: HenselProblem(f, 3.0),
        lambda f: check_condition(f, 0.5, 0, 1),
        lambda f: solve(HenselProblem(f, 3), 0.5),
        lambda f: solve_classical(f, 3.0),
        lambda f: ball_image(f, 0.5, 1, 3),
        lambda f: ball_image_check(f, True, 0, 1, 3),
    ],
    ids=["problem", "check", "solve", "classical", "image", "image-check"],
)
def test_float_and_bool_arguments_are_refused(call):
    """A float center ended in AttributeError; a bool was read as an int."""
    with pytest.raises(DomainError, match="expected a Padic, int or Fraction"):
        call(_poly(7, [-2, 0, 1], 12))


# --------------------------------------------------------------- invariants


@pytest.mark.parametrize("p", [3, 5, 7])
def test_derivative_rigidity_and_scaled_isometry(p):
    rng = rng_for(f"rigidity-{p}")
    t_exp = 1
    for _ in range(50):
        f = PadicPolynomial(
            p, [rng.randrange(1, p**6) for _ in range(4)], abs_prec=12
        )
        x0 = random_unit(rng, p, 12)
        try:
            report = check_condition(f, x0, 0, t_exp)
        except IndeterminateConditionError:
            continue
        if report.ok:
            break
    else:
        raise AssertionError("no instance satisfying the condition was found")
    fprime = f.derivative()
    vfp = report.derivative_valuation
    step = Padic.from_int(p**t_exp, p, 12 + t_exp)
    for _ in range(200):
        dx = random_unit(rng, p, 10) * step
        dy = random_unit(rng, p, 10) * step
        x = x0 + dx
        y = x0 + dy
        assert fprime.evaluate(x).valuation() == vfp
        d = x - y
        if d.is_zero:
            continue
        assert (f.evaluate(x) - f.evaluate(y)).valuation() == vfp + d.valuation()


def test_uniqueness_of_roots():
    f = _poly(7, [-2, 0, 1], 8)
    problem = HenselProblem(f, Padic.from_int(3, 7, 8), m=0, t_exp=1)
    z = Padic.zero(7, 8)
    a = solve(problem, z)
    b = solve(problem, z + Padic.zero(7, 12))
    assert (a - b).is_zero


# ------------------------------------------------------- derived operations


def test_sqrt_examples():
    r = sqrt(Padic.from_int(2, 7, 3))
    assert r.digits() == [3, 1, 2]
    assert sqrt(Padic.from_int(1, 5, 6)).residue(1).value == 1
    with pytest.raises(NoRootError):
        sqrt(Padic.from_int(3, 5, 4))
    with pytest.raises(NoRootError):
        sqrt(Padic.from_int(3, 2, 5))  # 3 = 3 mod 8
    s = sqrt(Padic.from_int(17, 2, 7))
    assert (s * s - Padic.from_int(17, 2, 7)).is_zero
    with pytest.raises(DomainError):
        sqrt(Padic.from_int(5, 5, 4))  # not a unit


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sqrt_random_units(p):
    rng = rng_for(f"sqrt-{p}")
    for _ in range(40):
        u = random_unit(rng, p, 10)
        u0 = u.residue(1).value
        if any(s * s % p == u0 for s in range(p)):
            r = sqrt(u)
            assert (r * r - u).is_zero
            seed = min(s for s in range(p) if s * s % p == u0)
            assert r.residue(1).value == seed
        else:
            with pytest.raises(NoRootError):
                sqrt(u)


def test_nth_root_examples():
    c = nth_root(Padic.from_int(6, 5, 2), 3)
    assert c.residue(2).value == 11
    assert nth_root(Padic.from_int(1, 7, 5), 4).residue(1).value == 1
    with pytest.raises(NoRootError):
        nth_root(Padic.from_int(2, 5, 4), 4)  # x^4 in {0, 1} mod 5
    with pytest.raises(DomainError):
        nth_root(Padic.from_int(2, 5, 4), 10)  # 10 not prime to 5


@pytest.mark.parametrize(
    "n, ordinal",
    [(2, "a 2nd"), (3, "a 3rd"), (6, "a 6th"), (8, "an 8th"), (11, "an 11th"), (12, "a 12th"),
     (13, "a 13th"), (18, "an 18th"), (21, "a 21st"), (22, "a 22nd")],
)
def test_no_root_message_names_the_ordinal(n, ordinal):
    p = next(q for q in range(n + 1, 10**4, n) if all(q % d for d in range(2, math.isqrt(q) + 1)))
    u0 = next(a for a in range(2, p) if least_residue_root(a, n, p) is None)
    with pytest.raises(NoRootError) as caught:
        nth_root(Padic.from_int(u0, p, 4), n)
    assert str(caught.value) == f"{u0} is not {ordinal} power residue mod {p}"
    if n == 2:
        with pytest.raises(NoRootError, match=f"^{u0} is not a quadratic residue mod {p}$"):
            sqrt(Padic.from_int(u0, p, 4))


def test_nth_root_postcondition():
    rng = rng_for("nthroot-post")
    for p, n in ((7, 3), (5, 3), (3, 2)):
        for _ in range(25):
            u = random_unit(rng, p, 9)
            u0 = u.residue(1).value
            if any(pow(s, n, p) == u0 for s in range(p)):
                r = nth_root(u, n)
                assert (r**n - u).is_zero


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 31, 97, 101])
def test_root_seeds_match_the_residue_scan(p):
    for n in (2, 3, 5):
        if n % p == 0:
            continue
        for a in range(1, p):
            u = Padic.from_int(a, p, 4)
            seed = least_residue_root(a, n, p)
            if n == 2 and p != 2:
                if seed is None:
                    with pytest.raises(NoRootError):
                        sqrt(u)
                else:
                    assert sqrt(u).residue(1).value == seed
            if seed is None:
                with pytest.raises(NoRootError):
                    nth_root(u, n)
            else:
                assert nth_root(u, n).residue(1).value == seed


def test_root_seeds_for_large_primes():
    p = 2**61 - 1
    with pytest.raises(NoRootError):
        sqrt(Padic.from_int(3, p, 2))
    r = sqrt(Padic.from_int(4, p, 2))
    assert r.residue(2).value == 2
    q = 1000000007  # gcd(3, q - 1) = 1: one cube root mod q
    c = nth_root(Padic.from_int(5, q, 2), 3)
    assert pow(c.residue(2).value, 3, q**2) == 5


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 31, 37, 41, 61, 73, 97, 181, 193, 257, 433, 577, 641, 1009])
def test_root_mod_matches_the_residue_scan(p):
    """Every n up to 26, gcd(n, p - 1) from 1 to 24; every residue below 200."""
    rng = rng_for(f"root-mod-scan-{p}")
    residues = range(p) if p < 200 else [0, 1, p - 1] + rng.sample(range(2, p - 1), 40)
    for n in range(1, 27):
        for a in residues:
            assert root_mod(a, n, p) == least_residue_root(a, n, p), (a, n, p)


@pytest.mark.parametrize("p", [1000000009, 2**61 - 1, 2**64 - 59, 3 * 2**30 + 1, 2**89 - 1])
def test_root_mod_for_large_primes_with_many_roots(p):
    """gcd(n, p - 1) > 1 with n > 2 at primes no scan can cover.

    For a = s**n with a small s, the least root is at most s, so the scan
    of the oracle stops early.
    """
    rng = rng_for(f"root-mod-large-{p}")
    for n in (3, 4, 5, 6, 12, 30, 60, 240, 256):
        for s in rng.sample(range(2, 500), 6):
            a = pow(s, n, p)
            assert root_mod(a, n, p) == least_residue_root(a, n, p) <= s, (a, n, p)
        d = math.gcd(n, p - 1)
        a = rng.randrange(2, p)
        expect_none = pow(a, (p - 1) // d, p) != 1
        assert (root_mod(a, n, p) is None) == expect_none, (a, n, p)


def test_nth_root_seed_at_a_large_prime_is_the_least_branch():
    q = 1000000009  # gcd(3, q - 1) = 3: three cube roots mod q
    started = time.perf_counter()
    with pytest.raises(NoRootError):
        nth_root(Padic.from_int(5, q, 2), 3)
    c = nth_root(Padic.from_int(8, q, 2), 3)
    assert c.residue(1).value == 2 and pow(c.residue(2).value, 3, q**2) == 8
    assert time.perf_counter() - started < 1



def test_newton_lift_rejects_a_start_below_two():
    """From start 1 the schedule n -> n//2 + 1 stops at 2, and the step list would grow forever."""
    started = time.perf_counter()
    for start in (1, 0, -3):
        with pytest.raises(ValueError):
            newton_lift(lambda x, k: x, 1, start, 10)
    assert time.perf_counter() - started < 1
    ks = []
    assert newton_lift(lambda x, k: ks.append(k) or x, 1, 2, 10) == 1
    assert ks == [3, 4, 6, 10]


def test_doubling_ladder_rungs():
    """Each rung is reachable from the one below (k <= 2m - 1), rises by at
    least the gain unless it is the top, and the ladder ends at n; with
    gain 1 it is the plain n, n//2 + 1, ... schedule, a larger gain only
    raises its rungs, and a gain of start or more is refused."""
    for start in range(2, 12):
        with pytest.raises(ValueError):
            doubling_ladder(start, 100, start)
        for n in range(200):
            plain, k = [], n
            while k > start:
                plain.append(k)
                k = k // 2 + 1
            assert doubling_ladder(start, n) == plain[::-1]
            for gain in range(1, start):
                rungs = doubling_ladder(start, n, gain)
                assert len(rungs) == len(plain) and rungs[-1:] == plain[:1]
                m = start
                for k in rungs:
                    assert m + min(gain, n - m) <= k <= 2 * m - 1
                    m = k


def test_teichmuller_examples():
    t = teichmuller(Padic.from_int(2, 5, 3))
    assert t.residue(3).value == 57
    assert t.digits() == [2, 1, 2]
    assert teichmuller(Padic.from_int(1, 7, 6)).residue(6).value == 1
    w = teichmuller(Padic.from_int(6, 7, 6))
    assert (w + Padic.from_int(1, 7, 6)).is_zero  # p-adic -1


def test_teichmuller_oracle_and_cross_check():
    # oracle: iterate x -> x^5 mod 125 to its fixed point
    x = 2
    for _ in range(10):
        x = pow(x, 5, 125)
    assert x == 57
    # independent route: Hensel solve on x^(p-1) - 1
    f = _poly(5, [-1, 0, 0, 0, 1], 3)
    problem = HenselProblem(f, Padic.from_int(2, 5, 3), m=0, t_exp=1)
    via_solve = solve(problem, Padic.zero(5, 3))
    assert via_solve.residue(3).value == 57


@pytest.mark.parametrize("a", [Fraction(1, 2), 0.5, True, False])
def test_teichmuller_refuses_a_non_int(a):
    """A Fraction, float or bool is not read as an integer residue."""
    with pytest.raises(DomainError, match="teichmuller needs an int"):
        teichmuller(a, 7, 4)


def test_teichmuller_reads_an_int():
    assert teichmuller(1, 7, 4) == Padic.from_int(1, 7, 4)
    assert teichmuller(-1, 7, 4) == Padic.from_int(-1, 7, 4)
    assert teichmuller(2, 5, 3).residue(3).value == 57


@pytest.mark.parametrize("p", [3, 5, 7])
def test_teichmuller_properties(p):
    rng = rng_for(f"teich-{p}")
    for prec in (4, 12, 32):
        for _ in range(10):
            a = random_unit(rng, p, prec)
            w = teichmuller(a)
            assert (w ** (p - 1) - Padic.from_int(1, p, prec)).is_zero
            assert w.residue(1) == a.residue(1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 65537, 2**61 - 1])
@pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 256])
def test_teichmuller_matches_oracles(p, n):
    """The Newton lift is the fixed point of x -> x**p above a, in v, unit and rel."""
    rng = rng_for(f"teich-oracles-{p}-{n}")
    for _ in range(2):
        a = rng.randrange(1, p**n)
        if a % p == 0:
            a += 1
        w = teichmuller(Padic.from_int(a, p, n, cap=n))
        assert w == teichmuller(a, p, n)
        t = w.unit
        assert w.v == 0 and w.rel == n
        assert pow(t, p, p**n) == t and (t - a) % p == 0
        if n * p.bit_length() <= 4096:  # one digit a step: keep the oracle cheap
            assert w == teichmuller_by_p_power(a, p, n)
            below = max(n - 1, 1)
            assert teichmuller(Padic.from_int(a, p, n, cap=n), abs_prec=below) == (
                teichmuller_by_p_power(a, p, below)
            )


def test_teichmuller_scaling_budgets():
    """teichmuller(3, 7, 4096) and teichmuller(3, 65537, 2048).

    Budgets are several times the measured costs (about 2 ms and 70 ms
    on a 2-vCPU container); the p-power iteration took 7.3 s and 105 s
    there.
    """
    assert best_time(lambda: teichmuller(3, 7, 4096)) <= 0.2
    assert best_time(lambda: teichmuller(3, 65537, 2048)) <= 2.0


# ------------------------------------------------------------- ball images


def test_ball_image_example():
    f = _poly(3, [0, 0, 1], 8)
    report = ball_image_check(f, Padic.from_int(1, 3, 8), 0, 1, 3)
    assert report.status == "verified" and report.equal
    assert report.source_size == 9


def test_ball_image_identity_always_true():
    f = _poly(5, [0, 1], 8)
    report = ball_image_check(f, Padic.from_int(2, 5, 8), 0, 1, 3)
    assert report.status == "verified" and report.equal


def test_ball_image_gates_on_condition():
    f = _poly(2, [0, 0, 1], 8)
    report = ball_image_check(f, Padic.from_int(1, 2, 8), 0, 1, 4)
    assert report.status == "condition-not-met"
    assert not report


def test_ball_image_guard():
    """A ball of 5**7 residues mod 5**8 is one piece; a piece that would
    split past 10**6 pieces is refused before it splits."""
    f = _poly(5, [0, 0, 1], 16)
    report = ball_image_check(f, Padic.from_int(1, 5, 16), 0, 1, 8)
    assert report == ("verified", True, 8, 5**7, 5**7, 5**7)
    p = 2**61 - 1
    with pytest.raises(EnumerationGuardError, match="more than 1000000 pieces"):
        ball_image(_poly(p, [0, 0, 1], 2), 0, 0, 2)


def _image_cases(name):
    """(f, x0, t_exp, level) on random balls: p in {2, 3, 5, 7} on every
    (level, t_exp) with p**(2*level - t_exp) <= 10**6, which the enumeration
    reached, and p = 65537 at level 1; then x**2 or x**3 plus p**level * x,
    known to level + 3 digits, on balls around 0."""
    rng = rng_for(name)
    grid = [
        (p, level, t)
        for p in (2, 3, 5, 7)
        for level in range(1, 20)
        for t in range(level + 1)
        if p ** (2 * level - t) <= 10**6
    ]
    grid += [(65537, 1, 1), (65537, 1, 0)]
    for p, level, t in grid:
        for _ in range(3 if p < 65537 else 1):
            modulus = p**level
            coeffs = [rng.randrange(modulus) * rng.choice((1, p)) for _ in range(rng.randint(2, 5))]
            yield _poly(p, coeffs, level), Padic.from_int(rng.randrange(modulus), p, level), t, level
    # f'(0) = p**level: 0 mod p**level, but nonzero at its own precision
    for p, level, t in grid:
        if p < 65537:
            modulus = p**level
            coeffs = [rng.randrange(modulus), modulus] + [0] * rng.randrange(2) + [1]
            yield _poly(p, coeffs, level + 3), Padic.from_int(p**t * rng.randrange(modulus), p, level), t, level


def test_ball_image_agrees_with_enumeration():
    """The digit recursion against f on every residue of the ball, where the
    contraction condition holds at the ball's center and where it fails."""
    holds = fails = 0
    for f, x0, t, level in _image_cases("ball-image"):
        image = ball_image(f, x0, t, level)
        assert covered_residues(f.p, image.balls, level) == enumerated_ball_image(f, x0, t, level)
        try:
            ok = check_condition(f, x0, 0, t).ok
        except IndeterminateConditionError:
            ok = False
        holds, fails = holds + ok, fails + (not ok)
    assert holds > 100 and fails > 50


def test_ball_image_check_agrees_with_enumeration():
    """Every report, field by field, and every refusal, as the enumeration gives it."""
    rng = rng_for("ball-image-check")
    verified = 0
    for f, x0, t, level in _image_cases("ball-image-check"):
        m = rng.randint(0, t)
        try:
            expected = enumerated_ball_image_report(f, x0, m, t, level)
        except DomainError as e:
            with pytest.raises(type(e), match=re.escape(str(e))):
                ball_image_check(f, x0, m, t, level)
            continue
        assert ball_image_check(f, x0, m, t, level) == expected
        verified += expected.status == "verified"
    assert verified > 100


def test_ball_image_refusals():
    f = _poly(7, [-2, 0, 1], 4)
    with pytest.raises(PrecisionError, match=r"known only mod p\^4, cannot reduce mod p\^5"):
        ball_image_check(f, 3, 0, 1, 5)
    with pytest.raises(PrecisionError):
        ball_image(f, 3, 1, 5)
    with pytest.raises(DomainError, match="integral coefficients and center"):
        ball_image(_poly(7, [Fraction(1, 7), 1]), 0, 1, 2)
    big = Padic.from_int(3, 7, 10**4, cap=10**4)
    f = PadicPolynomial(7, [big - 5, Padic.zero(7, 10**4), big - 2])
    with pytest.raises(DomainError, match="level 10000 too fine: 7\\^10000 has more than 4300 digits"):
        ball_image_check(f, big, 0, 1, 10**4)
    # a source ball at the level, or finer than it, maps to one point
    assert ball_image(f, big, 10**4, 10**4).max_level() == 10**4
    assert ball_image(_poly(7, [1, 1], 3), 0, 5, 3) == ClopenSet(7, [Ball(7, 3, 1)])


def test_int_center_is_read_to_the_level():
    """An int center is exact: past the default 64 digits it gives what the
    same center known to the coefficients' 80 digits gives."""
    f = _poly(7, [-2, 0, 1], 80)
    known = Padic.from_int(3, 7, 80, cap=80)
    assert ball_image_check(f, 3, 0, 1, 70) == ("verified", True, 70, 7**69, 7**69, 7**69)
    for level in (64, 65, 70, 80):
        assert ball_image_check(f, 3, 0, 1, level) == ball_image_check(f, known, 0, 1, level)
        assert ball_image(f, 3, 1, level) == ball_image(f, known, 1, level)
    # read to a level far past what prints, the int builds no power that large
    started = time.perf_counter()
    with pytest.raises(PrecisionError, match=r"known only mod p\^80, cannot reduce mod p\^100000000"):
        ball_image_check(f, 3, 0, 1, 10**8)
    assert time.perf_counter() - started < 0.5
