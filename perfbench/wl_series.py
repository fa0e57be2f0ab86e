"""Workload ``series``: truncated power and Laurent series arithmetic.

Every round makes the same calls, with fresh seeded coefficients:

* ``mul``: four products over GF(p) for each p in {2, 5, 65537, 2**61-1}
  and order in {32, 64, 128, 256}, and two over QQ at orders 16, 32, 64;
* ``derive``: once per GF(p) prime and order, and once per QQ order;
* ``compose`` and ``invert`` (``LaurentSeries.invert``): once per GF(p)
  prime at orders 32, 64, 128, and once per QQ order.

Composition and inversion stop at order 128: at order 256 a single call
over GF(2**61-1) takes over a second with the pure kernels, which would
crowd everything else out of the round.  With these counts mul takes
about a fifth of a round's time, and compose and invert about two fifths
each.

Why: ``_kernels`` and ``series`` do almost all the work, and ``padics``,
``hensel`` and ``measure`` none.  The prime 2**61-1 sends big-integer
coefficients through the kernel (where the compiled kernel's int64
products overflow), and QQ uses the same layer without the kernel.

Checks: a product against the harness's own Kronecker-substitution
product (GF(p)) or Fraction schoolbook (QQ); a derivative coefficient by
coefficient; an inverse by f * f^-1 = 1; a composition by truncated Horner
evaluation with series products.  Horner costs about as much as the
composition itself, so compositions at order 128 are checked on a seeded
quarter of the calls and all others in full.
"""

from fractions import Fraction

from harness import OK, Call, wrong
from padicore import series
from wl_cli import series_case

FP_PRIMES = (2, 5, 65537, 2**61 - 1)
FP_MUL_ORDERS = (32, 64, 128, 256)
FP_OPS_ORDERS = (32, 64, 128)
QQ_ORDERS = (16, 32, 64)
MUL_COPIES_FP = 4
MUL_COPIES_QQ = 2
COMPOSE_SUBSAMPLE_ORDER = 128
COMPOSE_SUBSAMPLE = 4  # one in this many is checked at that order

POOL = 4


# ------------------------------------------------------------ independent checks


def kronecker_product(a, b, n, p):
    """First n coefficients of a*b mod p by packing into one integer."""
    width = (2 * p.bit_length() + max(len(a), 1).bit_length() + 3) // 4 + 1
    pack = lambda cs: int("".join(f"{c:0{width}x}" for c in reversed(cs)) or "0", 16)
    digits = f"{pack(a) * pack(b):x}"
    digits = digits.zfill(((len(digits) + width - 1) // width) * width)
    chunks = [digits[i : i + width] for i in range(0, len(digits), width)][::-1]
    out = [int(c, 16) % p for c in chunks[:n]]
    return out + [0] * (n - len(out))


def fraction_product(a, b, n):
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] += x * y
    return out


def check_mul(a, b):
    n = min(a.prec, b.prec)

    def check(out):
        if a.field.kind == "fp":
            expect = kronecker_product(list(a.coeffs), list(b.coeffs), n, a.field.p)
        else:
            expect = fraction_product(list(a.coeffs), list(b.coeffs), n)
        if out.prec != n or list(out.coeffs) != expect:
            return wrong("product differs from the independent product")
        return OK

    return check


def check_derive(a):
    field = a.field

    def check(out):
        expect = [field.mul_int(j, a.coeffs[j]) for j in range(1, a.prec)]
        if out.prec != a.prec - 1 or list(out.coeffs) != expect:
            return wrong("derivative coefficient mismatch")
        return OK

    return check


def check_invert(f):
    def check(out):
        prod = f * out
        n = f.unit.prec
        one = [prod.field.one] + [prod.field.zero] * (n - 1)
        if prod.tail != 0 or prod.unit.prec != n or list(prod.unit.coeffs) != one:
            return wrong("f * f^-1 is not 1")
        return OK

    return check


def horner_compose(f, g, n):
    """f(g) mod T**n by Horner's rule with truncated series products."""
    field = f.field
    acc = series.PowerSeries(field, [f.coeffs[n - 1]], 1)
    for j in range(n - 2, -1, -1):
        k = n - j  # f_j + g * acc is needed mod T**k
        step = g.truncate(k) * series.PowerSeries(field, list(acc.coeffs), k)
        acc = series.PowerSeries(field, [f.coeffs[j]], k) + step
    return acc


def check_compose(f, g, full):
    n = min(f.prec, g.prec)

    def check(out):
        if out.prec != n:
            return wrong("composition has the wrong order precision")
        if full and n and horner_compose(f, g, n).coeffs != out.coeffs:
            return wrong("composition differs from Horner evaluation")
        return OK

    return check


# ------------------------------------------------------------ inputs


def _fp_series(rng, field, n, constant=True):
    p = field.p
    coeffs = [rng.randrange(p) for _ in range(n)]
    if not constant:
        coeffs[0] = 0
    return series.PowerSeries(field, coeffs, n)


def _qq_coeff(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _qq_series(rng, n, constant=True):
    coeffs = [_qq_coeff(rng) for _ in range(n)]
    if not constant:
        coeffs[0] = Fraction(0)
    return series.PowerSeries(series.QQ, coeffs, n)


def _laurent(rng, ps):
    coeffs = list(ps.coeffs)
    field = ps.field
    while coeffs[0] == field.zero:
        coeffs[0] = field.coerce(rng.randint(1, 9))
    return series.LaurentSeries(field, coeffs, rng.randint(-3, 3), ps.prec)


def make_round(rng, index):
    calls = []
    fields = [series.PrimeFieldCoefficients(p) for p in FP_PRIMES]

    def mul(a, b):
        calls.append(Call("mul." + a.field.kind, lambda: a * b, check_mul(a, b), a.prec))

    for field in fields:
        for n in FP_MUL_ORDERS:
            for _ in range(MUL_COPIES_FP):
                mul(_fp_series(rng, field, n), _fp_series(rng, field, n))
            a = _fp_series(rng, field, n)
            calls.append(Call("derive.fp", lambda a=a: a.derive(), check_derive(a), n))
        for n in FP_OPS_ORDERS:
            f, g = _fp_series(rng, field, n), _fp_series(rng, field, n, constant=False)
            full = n != COMPOSE_SUBSAMPLE_ORDER or rng.randrange(COMPOSE_SUBSAMPLE) == 0
            calls.append(Call("compose.fp", lambda f=f, g=g: f.compose(g), check_compose(f, g, full), n))
            h = _laurent(rng, _fp_series(rng, field, n))
            calls.append(Call("invert.fp", lambda h=h: h.invert(), check_invert(h), n))
    for n in QQ_ORDERS:
        for _ in range(MUL_COPIES_QQ):
            mul(_qq_series(rng, n), _qq_series(rng, n))
        a = _qq_series(rng, n)
        calls.append(Call("derive.q", lambda a=a: a.derive(), check_derive(a), n))
        f, g = _qq_series(rng, n), _qq_series(rng, n, constant=False)
        calls.append(Call("compose.q", lambda f=f, g=g: f.compose(g), check_compose(f, g, True), n))
        h = _laurent(rng, _qq_series(rng, n))
        calls.append(Call("invert.q", lambda h=h: h.invert(), check_invert(h), n))
    rng.shuffle(calls)
    return calls


def process_cases(rng):
    """Small ``padicore series`` commands for the process timing."""
    return [
        series_case(rng, "mul", "fp:65537", 32, "json"),
        series_case(rng, "compose", "fp:5", 24, "json"),
        series_case(rng, "invert", "q", 12, "json"),
    ]
