"""Quantitative root solving on p-adic balls, certified by contraction.

For a polynomial f with coefficients of nonnegative valuation on the ball
B(x0, p**-t_exp) inside B(0, p**-m), the solvability condition is

    t_exp + mu2 > v(f'(x0)),      mu2 = quadratic_bound(f, m),

the valuation form of "t times the second-order constant is smaller than
|f'(x0)|".  Under it, f maps the ball bijectively onto
B(f(x0), p**-(v(f'(x0)) + t_exp)), every x in the ball has
v(f'(x)) = v(f'(x0)), and v(f(x) - f(y)) = v(f'(x0)) + v(x - y) exactly.

``solve`` runs Newton's method x -> x - (f(x) - z) * y on exact
iterates, with y an approximate inverse of f'(x) lifted alongside x:
y = f'(x0)**-1 once, then y -> y * (2 - f'(x) * y) at each later step,
so one modular inversion serves the whole solve (von zur Gathen and
Gerhard, Modern Computer Algebra, ch. 9).  The loop runs on the
(valuation, unit, relative precision) parts of the values: the parts of
the coefficients of f and f' are read once, and each step is Horner's
rule on them and the update under the part functions of ``Padic``'s own
operators, so the parts are those the same loop on ``Padic`` values
would give, and a ``Padic`` is built only for the root.  Each step gains
at least gap = t_exp + mu2 - v(f'(x0)) >= 1 digits, and from d correct
digits it reaches 2d - (t_exp - gap), so the steps run at doubling
precision: up the ladder n, n//2 + 1, n//4 + 1, ... of
``intmath.doubling_ladder``, read from the digits x0 holds, each step
truncates x and y to the digits it can gain, and the part functions
reduce every product and sum to the less precise operand.  Only the top
rung runs at full precision, where the iterate carries more digits than
the data, so only the coefficients and z bring uncertainty.  A linear f,
and a p**n of at most _LADDER_BITS bits, where a product costs about the
same at any precision, take every step on the top rung.  When the
residual r = f(x) - z is zero to its precision there (or, below it, to
a precision the data set, not x, which is the full-precision residual
too), the isometry gives v(x - root) >= r.abs_prec - v(f'(x0)), and that
is the precision returned: what the certificate proves from the data.
The contraction map of the paper, x -> x0 + f'(x0)**-1 * (z - f(x0) -
g0(x)) with g0(x) = f(x) - f(x0) - f'(x0) * (x - x0), is the oracle in
the tests.

Derived conveniences: square roots, n-th roots prime to p, Teichmuller
lifts, and the image of a ball as a clopen set.  Every point of a ball
is a center, B(x, r) = B(y, r), so ``ball_image`` tests the condition
again at the center of each piece of the ball, taking the piece whole
where it holds and splitting it into its p sub-balls where it fails:
the ball form of Hensel's lemma (Robert, A Course in p-adic Analysis,
ch. 2).  The test of a piece B(a, p**-k) reads the Taylor coefficients
c_j of f at a: f'(a) is c_1 and mu2 their quadratic bound, so the
piece passes when c_1 is nonzero and k + mu2 > v(c_1).  The condition
at (x0, m, t_exp) implies the test of the piece B(x0, p**-t_exp) at x0,
since v(c_j) + (j - 2) m >= mu2 for j >= 2 and t_exp >= m; so wherever
the condition holds, ``ball_image_check`` compares one piece with the
predicted ball.  f on every residue of the ball is the oracle in the
tests.

An int or Fraction center or target is exact: it is read to as many
digits as f's coefficients can use, so it never bounds an answer.
"""

import math
from collections import namedtuple
from itertools import chain, repeat

from .analytic import PadicPolynomial, _exact_argument, _horner, lipschitz_bound, quadratic_bound
from .errors import (
    ConditionNotMetError,
    DomainError,
    EnumerationGuardError,
    IndeterminateConditionError,
    NoRootError,
)
from .intmath import doubling_ladder, newton_lift, power_prints, str_digit_limit
from .padics import (
    Padic,
    _add_parts,
    _exact_parts,
    _mul_parts,
    _padic,
    _read_exact,
    _read_int,
)


# solve climbs its precision ladder only when p**work passes this many
# bits: below it a product of integers costs about the same at any size,
# and the rungs would not repay their set-up.
_LADDER_BITS = 128


class ConditionReport(
    namedtuple("ConditionReport", "ok ok_nonstrict derivative_valuation mu2 gap")
):
    """Outcome of the contraction-condition check.

    ``ok`` is the strict inequality needed for the closed-ball statement;
    ``ok_nonstrict`` is the relaxed form that still yields the open-ball
    conclusions.  ``gap`` = t_exp + mu2 - v(f'(x0)) is the per-step
    valuation gain of the iteration when positive.  ``mu2`` and ``gap``
    are ints or math.inf.
    """

    __slots__ = ()


def check_condition(f, x0, m, t_exp):
    """Check the solvability condition for f on B(x0, p**-t_exp)."""
    x0 = _center(f, x0)
    return _condition(f, f.derivative(), x0, m, t_exp)[0]


def _center(f, x0, least=1):
    """x0 as a value of f's prime, once f is known to be a PadicPolynomial;
    an int or Fraction is exact: it bounds no value of f or f', and is
    known to at least `least` digits past its valuation."""
    if not isinstance(f, PadicPolynomial):
        raise DomainError("expected a PadicPolynomial")
    return x0 if isinstance(x0, Padic) else _exact_argument(f, x0, least)


def _condition(f, fprime, x0, m, t_exp):
    """check_condition for a Padic x0, with fprime = f.derivative() given,
    and the value f'(x0) it was judged on."""
    if x0.valuation_bound < m:
        raise DomainError(f"center valuation {x0.valuation_bound} below ball exponent {m}")
    if t_exp < m:
        raise DomainError("ball exponent t_exp must be >= the ambient exponent m")
    fprime_x0 = fprime.evaluate(x0)
    if fprime_x0.is_zero:
        raise IndeterminateConditionError(
            f"f'(x0) is zero to precision O(p^{fprime_x0.abs_prec}); "
            "the condition cannot be decided"
        )
    vfp = fprime_x0.valuation()
    mu2 = quadratic_bound(f, m)
    gap = t_exp + mu2 - vfp if mu2 != math.inf else math.inf
    report = ConditionReport(
        ok=gap > 0,
        ok_nonstrict=gap >= 0,
        derivative_valuation=vfp,
        mu2=mu2,
        gap=gap,
    )
    return report, fprime_x0


class HenselProblem:
    """A polynomial, a center, and a ball on which solving is certified."""

    __slots__ = ("f", "x0", "m", "t_exp", "fprime", "fprime_x0", "f_x0", "report")

    def __init__(self, f, x0, m=0, t_exp=None):
        x0 = _center(f, x0)
        if t_exp is None:
            t_exp = m + 1
        fprime = f.derivative()
        report, fprime_x0 = _condition(f, fprime, x0, m, t_exp)
        if not report.ok:
            raise ConditionNotMetError(
                f"contraction condition fails: t_exp + mu2 = {t_exp + report.mu2} "
                f"is not greater than v(f'(x0)) = {report.derivative_valuation}"
            )
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "t_exp", t_exp)
        object.__setattr__(self, "fprime", fprime)
        object.__setattr__(self, "fprime_x0", fprime_x0)
        object.__setattr__(self, "f_x0", f.evaluate(x0))
        object.__setattr__(self, "report", report)

    def __setattr__(self, name, value):
        raise AttributeError("HenselProblem is immutable")

    def target_valuation(self):
        """Solvable right-hand sides satisfy v(z - f(x0)) >= this."""
        return self.report.derivative_valuation + self.t_exp


def solve(problem, z):
    """The unique x in the certified ball with f(x) = z, to the proven precision.

    Requires v(z - f(x0)) >= v(f'(x0)) + t_exp (z in the image ball).
    Newton's method at doubling precision: each step works to the digits
    it can gain, and only the top rung runs at full precision (every step,
    for a linear f or a p**work of at most _LADDER_BITS bits).  The
    result is known to r.abs_prec - v(f'(x0)), where r = f(x) - z is the
    full-precision residual at the final exact iterate.
    """
    f = problem.f
    if not isinstance(z, Padic):
        # exact: read mod p**n, n the highest coefficient precision, which
        # the residual f(x) - z never passes
        z = _read_exact(f.p, z, max(c.abs_prec for c in f.coeffs))
    shift = z - problem.f_x0
    if shift.valuation_bound < problem.target_valuation():
        raise ConditionNotMetError(
            f"right-hand side outside the image ball: v(z - f(x0)) = "
            f"{shift.valuation_bound} < {problem.target_valuation()}"
        )
    vfp, gap, x0 = problem.report.derivative_valuation, problem.report.gap, problem.x0
    # the residual never passes z.abs_prec, which x at `work` digits reaches:
    # x at prec digits bounds every Horner term, of valuation >= low, only
    # at prec + low or deeper, and the step then delivers prec + low - vfp
    low = min([0] + [c.valuation_bound + j * min(problem.m, 0) for j, c in enumerate(f.coeffs)])
    work = z.abs_prec - low
    # the loop runs on (v, unit, rel) parts; y ~ f'(x)**-1, exact like x;
    # its Newton update y * (2 - f'(x) * y) needs no inversion, and two is
    # exact to `work` digits (p**1 * 1 at p = 2)
    p, digits = f.p, max(work, 1)
    fc = [(c.v, c.unit, c.rel) for c in f.coeffs]
    dc = [(c.v, c.unit, c.rel) for c in problem.fprime.coeffs]
    y = problem.fprime_x0.invert()
    x, y, z = (x0.v, x0.unit, x0.rel), (y.v, y.unit, y.rel), (z.v, z.unit, z.rel)
    two = (1, 1, digits) if p == 2 else (0, 2, digits)
    # step k truncates x to its rung's prec digits and y to prec - vfp.  The
    # top rung, where the steps end, repeats until the residual certifies,
    # each step gaining gap >= 1 digits.  After a ladder one step there
    # certified every problem tried.  A linear f takes all its steps there:
    # more than one when a coefficient known to few digits bounds f(x0) and
    # f'(x0), so y carries few digits, and later iterates, of the root's
    # valuation, let the residual reach further than the step from x0 did
    top, bound = work, max(work - problem.t_exp, 0) + 2
    steps = repeat(top, bound)
    if work * p.bit_length() > _LADDER_BITS and gap != math.inf:
        # the ladder: x0 holds d0 digits, v(z - f(x0)) = vfp + d0 by the
        # isometry, and a step from d digits reaches 2d - lag, lag = t_exp - gap,
        # so w = d - lag + 1 goes to 2w - 1, from w >= gap + 1 >= 2; the rung
        # that delivers d digits truncates x to d + vfp - low.  The top rung is
        # one past what the residual can reach when f(x0) shows the data bound
        # it, which every x in the ball shares when all have the valuation of x0
        if x0.valuation_bound < problem.t_exp and problem.f_x0.abs_prec < x0.abs_prec + low:
            top = min(work, shift.abs_prec - low + 1)
        lag = problem.t_exp - gap
        lift = vfp - low + lag - 1  # the rung of w is w + lift
        rungs = doubling_ladder(shift.valuation_bound - vfp - lag + 1, top - lift, gap)
        steps = chain(map(lift.__add__, rungs), repeat(top, bound))
    for step, prec in enumerate(steps):
        x = _exact_parts(p, x, prec)
        fx = fc.copy()
        _horner(p, fx, x, 0)
        r = _add_parts(p, fx[0], z, -1)
        # a zero short of what x at prec digits allows is what the data
        # allow, as at full precision
        if not r[1] and (r[0] < prec + low or prec == top):
            root = _padic(p, *x)
            assert (root - x0).valuation_bound >= problem.t_exp
            return root.truncate(r[0] - vfp)  # r = O(p**r[0])
        if step:
            dx = dc.copy()
            _horner(p, dx, x, 0)
            y = _exact_parts(p, y, prec - vfp)
            y = _mul_parts(p, y, _add_parts(p, two, _mul_parts(p, dx[0], y), -1))
        x = _add_parts(p, x, _mul_parts(p, r, y), -1)
    raise AssertionError("Newton iteration failed to settle; internal invariant broken")


def solve_classical(f, x0, z=0):
    """Solve f(x) = z near x0 under the textbook condition.

    Requires v(f(x0) - z) > 2 v(f'(x0)); recenters f at x0 so the general
    ball condition applies with t_exp = v(f(x0) - z) - v(f'(x0)).  When
    f(x0) - z is zero to precision N, x0 is the answer to N - v(f'(x0))
    digits, and IndeterminateConditionError is raised if N <= 2 v(f'(x0)).
    """
    x0 = _center(f, x0)
    fprime_x0 = f.derivative().evaluate(x0)
    if fprime_x0.is_zero:
        raise IndeterminateConditionError("f'(x0) is zero to precision")
    vfp = fprime_x0.valuation()
    fx0 = f.evaluate(x0) - z
    if fx0.is_zero:
        # f(x0) = z mod p**N pins the root only to N - v(f'(x0)) digits,
        # and only when N > 2 v(f'(x0))
        n = fx0.abs_prec
        if n <= 2 * vfp:
            raise IndeterminateConditionError(
                f"f(x0) - z is zero to precision O(p^{n}), which does not exceed "
                f"2 v(f'(x0)) = {2 * vfp}; the condition cannot be decided"
            )
        return x0.truncate(min(x0.abs_prec, n - vfp))
    if fx0.valuation() <= 2 * vfp:
        raise ConditionNotMetError(
            f"classical condition fails: v(f(x0) - z) = {fx0.valuation()} "
            f"must exceed 2 v(f'(x0)) = {2 * vfp}"
        )
    t_exp = fx0.valuation() - vfp
    problem = HenselProblem(f.recenter(x0), 0, m=t_exp, t_exp=t_exp)
    y = solve(problem, z)
    return x0 + y


def _prime_factors(n):
    """The distinct prime factors of n >= 1, by trial division."""
    primes, q = [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return primes + [n] if n > 1 else primes


def _discrete_log(x, h, order, primes, p):
    """The k in [0, order) with h**k = x mod p, for x a power of h.

    Pohlig-Hellman: h has the given order, whose prime factors are
    `primes`; the log is found mod each prime power r**e of the order, one
    base-r digit at a time against a table of the r-th roots of unity,
    and the residues are joined by the Chinese remainder theorem.
    """
    k, modulus = 0, 1
    for r in primes:
        e, rest = 0, order
        while rest % r == 0:
            e, rest = e + 1, rest // r
        hr, residual = pow(h, rest, p), pow(x, rest, p)  # order r**e
        gamma = pow(hr, r ** (e - 1), p)  # order r
        table, power = {}, 1
        for digit in range(r):
            table[power] = digit
            power = power * gamma % p
        kr, step = 0, pow(hr, -1, p)  # residual = x**rest * hr**-kr, step = hr**-(r**i)
        for i in range(e):
            digit = table[pow(residual, r ** (e - 1 - i), p)]
            kr += digit * r**i
            residual = residual * pow(step, digit, p) % p
            step = pow(step, r, p)
        k += modulus * ((kr - k) * pow(modulus, -1, r**e) % r**e)
        modulus *= r**e
    return k


def root_mod(a, n, p):
    """The least s in [0, p) with s**n = a mod p, for prime p; None if none.

    Adleman-Manders-Miller, in the form of a discrete logarithm in one
    Sylow subgroup.  With q = p - 1 and d = gcd(n, q), a nonzero a is an
    n-th power exactly when a**(q/d) = 1.  Split q = qd * q' with qd built
    from the primes of d and q' prime to d, and let h generate the
    subgroup H of order qd.  Then y = a**(d**-1 mod q') is a d-th root of
    a up to an error y**d / a in H, and the discrete log of that error
    base h, a multiple of d, removes it.  x = y**((n/d)**-1 mod q/d) is an
    n-th root, and the n-th roots are x * zeta**i, i < d, for zeta of
    order d: the least is returned.  The cost is polylog(p) products plus
    O(d) for the candidates and the discrete-log tables, with d <= n.
    """
    a %= p
    if a == 0:
        return 0
    q = p - 1
    d = math.gcd(n, q)
    primes = _prime_factors(d)
    qd, rest = 1, q
    for r in primes:
        while rest % r == 0:
            qd, rest = qd * r, rest // r
    y = pow(a, pow(d, -1, rest), p)
    unity = [1]  # the d-th roots of unity
    if d > 1:
        if pow(a, q // d, p) != 1:
            return None
        c = 2  # h = c**rest generates H when c is no r-th power for any prime r | d
        while any(pow(c, q // r, p) == 1 for r in primes):
            c += 1
        h = pow(c, rest, p)
        error = pow(y, d, p) * pow(a, -1, p) % p
        y = y * pow(h, -(_discrete_log(error, h, qd, primes, p) // d), p) % p
        zeta = pow(c, q // d, p)
        for _ in range(d - 1):
            unity.append(unity[-1] * zeta % p)
    x = pow(y, pow(n // d, -1, q // d), p)
    return min(x * z % p for z in unity)


def _unit_root(u, n, seed, t_exp):
    """The root of x**n = u in B(seed, p**-t_exp), to the precision of u."""
    p, prec = u.p, u.abs_prec
    f = PadicPolynomial(
        p, [-u] + [Padic.zero(p, prec)] * (n - 1) + [Padic.from_int(1, p, prec)]
    )
    problem = HenselProblem(f, Padic.from_int(seed, p, prec), m=0, t_exp=t_exp)
    return solve(problem, Padic.zero(p, prec))


def sqrt(u):
    """A square root of the unit u, canonical mod-p branch.

    For odd p the seed is the smaller square root of u mod p; p = 2 needs
    u = 1 mod 8 and returns the root congruent to 1 mod 4.
    """
    if u.is_zero or u.valuation() != 0:
        raise DomainError("square root is provided for units only")
    p = u.p
    if p == 2:
        # residue(3) raises PrecisionError when u is not known mod 8
        if u.residue(3).value != 1:
            raise NoRootError("2-adic units have square roots only when u = 1 mod 8")
        return _unit_root(u, 2, 1, 2)
    u0 = u.residue(1).value
    seed = root_mod(u0, 2, p)
    if seed is None:
        raise NoRootError(f"{u0} is not a quadratic residue mod {p}")
    return _unit_root(u, 2, seed, 1)


def nth_root(u, n):
    """An n-th root of the unit u for n prime to p, canonical mod-p branch."""
    if u.is_zero or u.valuation() != 0:
        raise DomainError("n-th root is provided for units only")
    p = u.p
    if n < 1:
        raise DomainError("root degree must be a positive integer")
    if n % p == 0:
        raise DomainError(f"root degree {n} must be prime to p = {p}")
    if n == 1:
        return u
    u0 = u.residue(1).value
    seed = root_mod(u0, n, p)
    if seed is None:
        raise NoRootError(f"{u0} is not {_an_nth(n)} power residue mod {p}")
    return _unit_root(u, n, seed, 1)


def _an_nth(n):
    """The ordinal of n with its article: "a 2nd", "an 8th", "an 11th", "a 21st"."""
    suffix = {1: "st", 2: "nd", 3: "rd"}.get(n % 10, "th")
    if n % 100 in (11, 12, 13):
        suffix = "th"
    digits = str(n)
    lead = digits[: (len(digits) - 1) % 3 + 1]  # as read: eight..., eleven..., eighteen...
    article = "an" if lead[0] == "8" or lead in ("11", "18") else "a"
    return f"{article} {n}{suffix}"


def teichmuller(a, p=None, abs_prec=None):
    """The root of x**(p-1) = 1 congruent to the unit a mod p.

    Newton's method on x**(p-1) = 1 over the integers, at doubling
    precision, with the derivative (p-1) * x**(p-2) taken as (p-1) / x,
    which it equals at the root: x -> x - (x**p - x) / (p - 1).  It takes
    w(1 + e), with w the lift, to w(1 + O(e**2)), so every step doubles
    the digits, and a step is one modular power to the exponent p: the
    cost grows with log p, not with p.  The start a**p agrees with the lift
    mod p**2.  The Hensel route on x**(p-1) - 1 and the p-power iteration
    x -> x**p, which gains one digit a step, are oracles in the tests.
    """
    if isinstance(a, Padic):
        p = a.p
        if abs_prec is None:
            abs_prec = a.abs_prec
        if a.is_zero or a.valuation() != 0:
            raise DomainError("Teichmuller lift is defined for units only")
        seed = a.residue(1).value
    else:
        if p is None:
            raise ValueError("prime p is required for integer input")
        if abs_prec is None:
            raise ValueError("abs_prec is required for integer input")
        seed = _read_int(a, "teichmuller") % p
        if seed == 0:
            raise DomainError("Teichmuller lift is defined for units only")

    def step(x, k):
        modulus = p**k
        return (x - (pow(x, p, modulus) - x) * pow(p - 1, -1, modulus)) % modulus

    x = newton_lift(step, pow(seed, p, p * p), 2, abs_prec)
    return Padic.from_int(x, p, abs_prec)


class BallImageReport(
    namedtuple(
        "BallImageReport", "status equal level source_size image_size target_size"
    )
):
    """Comparison of f(source ball) with the predicted image, mod p**level.

    ``status`` is "verified" or "condition-not-met"; the report is true
    when the image was verified equal to the target.  The sizes count
    residues mod p**level.
    """

    __slots__ = ()

    def __bool__(self):
        return self.status == "verified" and self.equal


def _check_integral(f, x0):
    if any(c.valuation_bound < 0 for c in f.coeffs) or x0.valuation_bound < 0:
        raise DomainError("the ball image needs integral coefficients and center")


def _check_known(f, x0, level):
    """PrecisionError unless f's coefficients and x0 are known mod p**level,
    raised by residue before it builds p**level."""
    for c in f.coeffs + (x0,):
        if c.abs_prec < level:
            c.residue(level)


def ball_image(f, x0, t_exp, level):
    """f(B(x0, p**-t_exp)) mod p**level, as a ClopenSet.

    Every point of a ball is a center, so a piece B(a, p**-k) of the ball
    is judged at its own center a, with g(y) = f(a + y) the Taylor shift.
    It contributes the point f(a) when the Lipschitz bound of g puts its
    image in one residue mod p**level, as it does at the level.  Else it
    reads f'(a) = c1 and mu2 off g's coefficients: the piece maps onto
    B(f(a), p**-(v(c1) + k)) when c1 is nonzero and k + mu2 > v(c1), the
    contraction condition with m = t_exp = k, and any other piece splits
    into its p children.  Near a critical point the pieces grow about
    linearly with the level; past 10**6 pieces the image is refused.  f
    and x0 must be integral and known mod p**level; an int or Fraction
    x0 is exact.
    """
    from . import measure

    x0 = _center(f, x0, t_exp)
    _check_integral(f, x0)
    _check_known(f, x0, level)
    p, guard = f.p, measure._BALL_GUARD
    pieces, images, count = [measure.Ball(p, t_exp, x0.residue(t_exp).value)], [], 1
    while pieces:
        piece = pieces.pop()
        k, image_exp = piece.level, level
        g = f.recenter(Padic.from_int(piece.center, p, level))
        if g.degree > 0 and lipschitz_bound(g, k) + k < level:
            c1 = g.coeffs[1]  # f'(a)
            if c1.is_zero or k + quadratic_bound(g, k) <= c1.v:
                count += p
                if count > guard:
                    raise EnumerationGuardError(f"the image needs more than {guard} pieces")
                pieces += piece.split()
                continue
            image_exp = min(c1.v + k, level)
        images.append(measure.Ball(p, image_exp, g.coeffs[0].residue(level).value))
    return measure.ClopenSet(p, images)


def ball_image_check(f, x0, m, t_exp, level):
    """Compare ball_image(f, x0, t_exp, level) with the predicted image.

    Verifies that f maps B(x0, p**-t_exp) onto
    B(f(x0), p**-(v(f'(x0)) + t_exp)) mod p**level.  When the contraction
    condition fails the checker reports that and makes no claim.  The
    coefficients and x0 must be known mod p**level (an int or Fraction x0
    is exact), and p**level must print.
    """
    from . import measure

    x0 = _center(f, x0, t_exp)
    _check_integral(f, x0)
    try:
        report = _condition(f, f.derivative(), x0, m, t_exp)[0]
    except IndeterminateConditionError:
        report = None
    if report is None or not report.ok:
        return BallImageReport("condition-not-met", False, level, 0, 0, 0)
    target_exp = report.derivative_valuation + t_exp
    if level < max(t_exp, target_exp):
        raise DomainError(
            f"level {level} too coarse: needs at least {max(t_exp, target_exp)}"
        )
    _check_known(f, x0, level)
    p = f.p
    if not power_prints(p, level):
        raise DomainError(
            f"level {level} too fine: {p}^{level} has more than {str_digit_limit()} digits"
        )
    image = ball_image(f, x0, t_exp, level)
    fx0 = f.evaluate(x0).residue(level).value
    target = measure.ClopenSet(p, [measure.Ball(p, target_exp, fx0)])
    return BallImageReport(
        "verified",
        image == target,
        level,
        p ** (level - t_exp),
        int(image.measure() * p**level),
        p ** (level - target_exp),
    )
