"""Workload ``roots_log``: Hensel roots, Teichmuller lifts and the logarithm.

Seven operations: ``sqrt``, ``nth_root`` (n = 3 or 5, whichever is prime
to p), ``teichmuller``, ``solve`` on a certified cubic (the call builds
the ``HenselProblem`` and solves), ``log1p`` and ``log_inverse``.

Every round makes the same calls, with fresh seeded values:

* one of the primes {2, 3, 5, 7} (in turn from round to round) and a
  seeded prime in [10**2, 10**4]: each operation once at each precision
  N in {16, 32, 64} (42 calls);
* a seeded prime p in [10**6, 1.1 * 10**6] with unique cube and fifth
  roots (p = 2 mod 3, p != 1 mod 5): each operation once, at a precision
  that rotates through {16, 32, 64} from round to round.  The residue of
  each root's canonical seed is placed at 1/8, 3/8, 5/8 and 7/8 of its
  range in the four rounds of the pool, so that the linear seed scan
  does the same work in every pass whatever the seed.

N stays at or below the default precision cap of 64, so the cap's
silent truncation of exact constants does not change the answers.
Radicands are u = s**n for a unit s, so a root always exists; its
canonical seed lies in [1, p) ([1, p/2) for square roots), at random for
the smaller primes and at the placed residue for the 10**6 band.

Why: ``padics``, ``analytic``, ``hensel`` and ``plog`` do all the work
and ``_kernels`` none.  Small primes put the fixed-point ``solve`` loop
in the body of the latency distribution; the 10**6 band puts the linear
scan for the root's seed residue in the tail.  Primes above about 10**7
are left out: that scan does not finish in bounded time there
(2**61 - 1 hangs).

Checks use integer arithmetic on the lifted answer, never the call under
test: x**n = u mod p**k at the delivered precision k; t**p = t and
t = a mod p; f(x) = z mod p**k and x = x0 mod p; log1p against the
harness's own partial sum of the series; log_inverse by round trip
through that sum.  The documented precision is N, except N - 1 for
2-adic square roots.
"""

from harness import Call, Verdict, wrong
from padicore import analytic, hensel, plog
from padicore.padics import Padic
from wl_cli import hensel_case, plog_case, unit

SMALL = (2, 3, 5, 7)
PRECISIONS = (16, 32, 64)
OPS = ("sqrt", "nth_root.3", "nth_root.5", "teichmuller", "solve", "log1p", "log_inverse")

POOL = 4


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_in(rng, lo, hi, accept=lambda q: True):
    n = rng.randrange(lo, hi)
    while not (is_prime(n) and accept(n)):
        n += 1
    return n


def lift(x):
    """The integer p**v * m that a p-adic integer stores."""
    return x.unit * x.p**x.v if not x.is_zero else 0


def log_partial_sum(x, p, n):
    """log(1 + x) mod p**n for an integer x with p | x, term by term.

    Each term (-1)**(j+1) x**j / j is reduced exactly: x**j is taken mod
    p**(n + e) where p**e divides j, divided by p**e, and multiplied by
    the inverse of the rest of j.  Terms past 2n + 8 vanish mod p**n,
    since their valuation j - log_p(j) exceeds n.
    """
    total = 0
    mod = p**n
    for j in range(1, 2 * n + 9):
        e, rest = 0, j
        while rest % p == 0:
            e, rest = e + 1, rest // p
        term = pow(x, j, p ** (n + e)) // p**e * pow(rest, -1, mod)
        total += term if j % 2 else -term
    return total % mod


def check_root(u, n):
    def check(x):
        k = x.abs_prec
        if x.is_zero or x.v != 0:
            return wrong("root is not a unit", k)
        if (pow(lift(x), n, x.p**k) - lift(u)) % x.p**k:
            return wrong(f"x**{n} != u mod p**{k}", k)
        return Verdict(True, delivered=k)

    return check


def check_teichmuller(a):
    def check(t):
        k = t.abs_prec
        p, v = t.p, lift(t)
        if pow(v, p, p**k) != v % p**k or (v - lift(a)) % p:
            return wrong("not the Teichmuller lift of a", k)
        return Verdict(True, delivered=k)

    return check


def check_solve(coeffs, x0, z):
    def check(x):
        k, p = x.abs_prec, x.p
        value = sum(c * lift(x) ** j for j, c in enumerate(coeffs))
        if (value - z) % p**k or (lift(x) - x0) % p:
            return wrong("f(x) != z or x outside the ball", k)
        return Verdict(True, delivered=k)

    return check


def check_log1p(x_int, p):
    def check(out):
        k = out.abs_prec
        if (lift(out) - log_partial_sum(x_int, p, k)) % p**k:
            return wrong("log1p differs from the partial sum", k)
        return Verdict(True, delivered=k)

    return check


def check_log_inverse(z_int, p):
    def check(x):
        k = x.abs_prec
        if x.valuation_bound < 1 or (log_partial_sum(lift(x), p, k) - z_int) % p**k:
            return wrong("log1p(x) != z", k)
        return Verdict(True, delivered=k)

    return check


def make_call(rng, op, p, N, position=None):
    """One call of ``op`` at prime p and precision N.

    For a root, ``position`` in [0, 1) places the residue of the root's
    seed within [1, p) (within [1, p/2) for square roots, whose canonical
    seed is the smaller of the two); None places it at random.
    """
    size = p * N
    if op == "sqrt" or op.startswith("nth_root"):
        n = 2 if op == "sqrt" else int(op[-1])
        if n > 2 and n % p == 0:
            n = 8 - n  # 3 <-> 5, so that n is prime to p
        s = unit(rng, p, N)
        if position is not None:
            span = (p - 1) // 2 if n == 2 else p - 1
            s += 1 + int(position * span) - s % p
        u_int = pow(s, n, p**N)
        u = Padic.from_int(u_int, p, N)
        documented = N - 1 if (n == 2 and p == 2) else N
        if n == 2:
            run = lambda: hensel.sqrt(u)
        else:
            run = lambda: hensel.nth_root(u, n)
        label = f"nth_root.{n}" if n > 2 else "sqrt.p2" if p == 2 else "sqrt"
        return Call(label, run, check_root(u, n), size, documented)
    if op == "teichmuller":
        a = Padic.from_int(unit(rng, p, N), p, N)
        return Call(op, lambda: hensel.teichmuller(a), check_teichmuller(a), size, N)
    if op == "solve":
        while True:
            coeffs = [rng.randrange(p**N) for _ in range(4)]
            x0 = rng.randrange(p)
            if (3 * coeffs[3] * x0 * x0 + 2 * coeffs[2] * x0 + coeffs[1]) % p:
                break
        root = x0 + p * rng.randrange(p ** (N - 1))
        z_int = sum(c * root**j for j, c in enumerate(coeffs)) % p**N
        f = analytic.PadicPolynomial(p, [Padic.from_int(c, p, N) for c in coeffs])
        center, z = Padic.from_int(x0, p, N), Padic.from_int(z_int, p, N)
        run = lambda: hensel.solve(hensel.HenselProblem(f, center, m=0, t_exp=1), z)
        return Call(op, run, check_solve(coeffs, x0, z_int), size, N)
    shift = 2 if (op == "log_inverse" and p == 2) else 1
    value = p**shift * unit(rng, p, N - shift)
    x = Padic.from_int(value, p, N)
    if op == "log1p":
        return Call(op, lambda: plog.log1p(x), check_log1p(value, p), size, N)
    return Call(op, lambda: plog.log_inverse(x), check_log_inverse(value, p), size, N)


def make_round(rng, index):
    calls = []
    for p in (SMALL[index % len(SMALL)], prime_in(rng, 10**2, 10**4)):
        for N in PRECISIONS:
            calls += [make_call(rng, op, p, N) for op in OPS]
    # p = 2 mod 3 and p != 1 mod 5 make cube and fifth roots unique, so the
    # seed scan ends at the placed residue; the placements are the midpoints
    # of POOL equal slices of [0, 1), which keeps the scan work of a pass
    # the same for every seed
    p = prime_in(rng, 10**6, 11 * 10**5, lambda q: q % 3 == 2 and q % 5 != 1)
    for k, op in enumerate(OPS):
        position = (index + 0.5) / POOL
        calls.append(make_call(rng, op, p, PRECISIONS[(k + index) % len(PRECISIONS)], position))
    rng.shuffle(calls)
    return calls


def process_cases(rng):
    """Small ``padicore hensel`` and ``plog`` commands for the process timing."""
    return [
        hensel_case(rng, "sqrt", "json", p=prime_in(rng, 10**2, 10**3)),
        hensel_case(rng, "nthroot", "json", p=7),
        plog_case(rng, "invert", "json", p=7),
    ]
