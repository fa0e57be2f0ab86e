"""The benchmark's own arithmetic: percentiles, self time, failure accounting.

Run with ``python3 -m pytest perfbench/tests`` from the root of the repo.
"""

import itertools
import random
from fractions import Fraction

import pytest

import harness
import tracing
import wl_cli
import wl_clopen
import wl_roots
import wl_series
from harness import (
    NOMINAL_REFERENCE_S,
    OK,
    Call,
    HostSpeed,
    Outcome,
    Verdict,
    Accounting,
    classify,
    closed_loop,
    percentile,
    wrong,
)
from padicore import hensel, measure, plog, series
from padicore.errors import EnumerationGuardError, NoRootError
from padicore.padics import Padic
from wl_cli import CliCase, check_case


# ------------------------------------------------------------ percentiles


def test_p90_needs_ten_samples_beyond():
    value, beyond = percentile(range(1, 101), 0.9)
    assert (value, beyond) == (90, 10)
    with pytest.raises(ValueError):
        percentile(range(1, 100), 0.9)


def test_median_is_nearest_rank():
    assert percentile([5, 1, 3, 2, 4] * 5, 0.5) == (3, 12)  # rank 13 of 25


# ------------------------------------------------------------ spans


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 7] > b [2, 5]; root > c [8, 9]
    t = tracing.Tracer(clock=fake_clock([0, 1, 2, 5, 7, 8, 9, 10]))
    t.begin("root")
    t.begin("a")
    t.begin("b")
    t.end()
    t.end()
    t.begin("c")
    t.end()
    t.end()
    assert t.self_s == {"b": 3, "a": 3, "c": 1, "root": 3}
    assert t.total_s["root"] == 10
    parents = {name: parent for _, parent, name, _, _ in t.spans}
    ids = {name: span_id for span_id, _, name, _, _ in t.spans}
    assert parents == {"b": ids["a"], "a": ids["root"], "c": ids["root"], "root": None}


def test_span_closes_when_the_call_raises():
    t = tracing.Tracer(clock=fake_clock([0, 1, 5, 6]))

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        t.root(t.traced("x", boom))()
    assert t.self_s["x"] == 4 and t.self_s[tracing.ROOT] == 2 and not t.active


def test_no_span_outside_a_root_span():
    t = tracing.Tracer(clock=fake_clock([]))  # any clock read would raise
    assert t.traced("x", lambda a: a + 1)(1) == 2
    assert not t.calls and not t.spans


def test_calls_made_by_checks_show_in_no_layer_metric():
    p, n = 5, 6
    f = series.PowerSeries(series.PrimeFieldCoefficients(p), [1, 2, 3], n)
    ball = measure.ClopenSet(p, [measure.Ball(p, 1, 2)])

    def check(value):
        # library calls of the kinds the output checks make
        f * f
        plog.log1p(Padic.from_int(p, p, n))
        ball.union(ball.complement())
        hensel.sqrt(Padic.from_int(4, p, n))
        return OK

    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        x, y = Padic.from_int(2, p, n), Padic.from_int(3, p, n)
        call = Call("add", tracer.root(lambda: x + y), check)
        loop = closed_loop([[call]], 0)
    finally:
        restore()
    runs = loop.accounting.attempted
    assert loop.accounting.failed == 0 and runs >= harness.MIN_CALLS
    assert tracer.calls == {tracing.ROOT: runs, "padics.ops": runs}
    assert not tracer.counts
    layers = tracing.layer_metrics(tracer, 1.0)
    assert layers["padics.ops.calls"] == (runs, "count")
    moved = {k for k, (v, _) in layers.items() if v and k not in ("padics.ops.ms", "padics.ops.calls")}
    assert not moved


def test_instrument_traces_across_modules_and_restores():
    originals = (hensel.solve, plog.solve, Padic.__add__, Padic.__radd__)
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        z = Padic.from_int(5, 5, 6)
        tracer.root(lambda: plog.log_inverse(z))()
    finally:
        restore()
    assert (hensel.solve, plog.solve, Padic.__add__, Padic.__radd__) == originals
    # plog binds solve by name; the call still shows as a hensel span
    assert tracer.calls["hensel.solve"] == 1 and tracer.calls["plog.log_inverse"] == 1
    steps, bound = tracer.counts["hensel.solve.steps"], tracer.counts["hensel.solve.step_bound"]
    assert 1 <= steps <= bound + 1
    assert tracing.root_self_share(tracer) < 0.1


def test_compose_products_counts_the_loop_bounds():
    rng = random.Random(0)
    for _ in range(200):
        n, lg, lf, p = rng.randint(0, 12), rng.randint(1, 15), rng.randint(0, 15), 3
        f = [1] * lf
        g = [0] + [rng.choice([0, 1, 2]) for _ in range(lg - 1)]
        order = next((i for i in range(min(lg, n)) if g[i] % p), n)
        expect, lo = 0, 0
        for j in range(1, min(lf, n)):
            if j * order >= n:
                break
            expect += sum(min(lg, n - i) - 1 for i in range(lo, n - 1))
            lo = min(j * order, n)
            expect += n - lo
        assert tracing.compose_products((f, g, n, p), None) == expect


# ------------------------------------------------------------ failure accounting


def call_returning(check, documented=None):
    return Call("op", lambda: None, check, documented=documented)


def account(outcomes):
    acct = Accounting()
    for o in outcomes:
        acct.add(o)
    return acct


def test_guard_refusal_is_a_failure():
    outcome = Outcome(call_returning(lambda v: OK), 0.0, error=EnumerationGuardError("too big"))
    assert classify(outcome)[0] == "refused"
    acct = account([outcome])
    assert (acct.attempted, acct.failed, acct.kinds) == (1, 1, {"refused": 1})


def test_unexpected_exception_and_wrong_value_are_failures():
    raised = Outcome(call_returning(lambda v: OK), 0.0, error=NoRootError("x"))
    bad = Outcome(call_returning(lambda v: wrong("no")), 0.0, value=1)
    acct = account([raised, bad])
    assert acct.failed == 2 and acct.kinds == {"error": 1, "wrong": 1}


def test_expected_rejection_is_a_success():
    case = CliCase("reject", ["padic", "add"], 2)
    call = call_returning(check_case(case))
    accepted = Outcome(call, 0.0, value=(2, "", "usage error: bad\n"))
    wrong_code = Outcome(call, 0.0, value=(1, "", "error: bad\n"))
    acct = account([accepted, wrong_code])
    assert (acct.attempted, acct.failed) == (2, 1)


def test_digits_short_sums_documented_minus_delivered():
    outcomes = [
        Outcome(call_returning(lambda v: Verdict(True, delivered=v), documented=63), 0.0, value=v)
        for v in (47, 63, 70)
    ]
    acct = account(outcomes)
    assert (acct.failed, acct.digits_short, acct.precision_calls) == (0, 16, 3)
    assert acct.precision == [("op", 63, 47), ("op", 63, 63), ("op", 63, 70)]


def test_closed_loop_runs_whole_rounds_and_every_call_twice(monkeypatch):
    monkeypatch.setattr(harness, "MIN_CALLS", 1)
    pool = [[call_returning(lambda v: OK)] * 3, [call_returning(lambda v: OK)] * 2]
    ticks = itertools.count()
    loop = closed_loop(pool, seconds=7, clock=lambda: next(ticks))
    assert loop.rounds >= 4
    assert loop.accounting.attempted == sum(len(pool[i % 2]) for i in range(loop.rounds))
    assert all(len(reps) >= 2 for reps in loop.times.values())


def test_normalisation_scales_by_the_nearest_probes():
    clock = itertools.count()
    speed = HostSpeed(clock=lambda: next(clock), kernel=lambda: None)
    for _ in range(20):
        speed.probe()  # each probe "takes" one tick
    assert speed.factor(0) == NOMINAL_REFERENCE_S
    assert speed.normalise(10, 4) == 4 * NOMINAL_REFERENCE_S


# ------------------------------------------------------------ independent oracles


def test_kronecker_product_matches_schoolbook():
    rng = random.Random(1)
    for p in (2, 5, 2**61 - 1):
        for n in (1, 7, 33):
            a = [rng.randrange(p) for _ in range(n)]
            b = [rng.randrange(p) for _ in range(n)]
            expect = [sum(a[i] * b[k - i] for i in range(k + 1)) % p for k in range(n)]
            assert wl_series.kronecker_product(a, b, n, p) == expect


def test_log_partial_sum_matches_log1p():
    for p, n in ((2, 12), (3, 10), (7, 8)):
        x = Padic.from_int(p * 4 + p * p, p, n)
        assert wl_roots.log_partial_sum(wl_roots.lift(x), p, n) == wl_roots.lift(plog.log1p(x))


def test_structural_intersection_matches_enumeration():
    rng = random.Random(2)
    for _ in range(50):
        p = rng.choice((2, 3))
        a, b = wl_clopen.clopen(rng, p, 5), wl_clopen.clopen(rng, p, 5)
        assert wl_clopen.structural_intersection(a, b) == a.intersect(b)


@pytest.mark.parametrize("module", [wl_series, wl_roots, wl_clopen])
def test_checks_reject_a_wrong_answer(module):
    rng = random.Random(3)
    calls = module.make_round(rng, 0)
    for call in calls[:10]:
        value = call.run()
        assert call.check(value).ok, call.op
    mutated = {
        wl_series: lambda v: type(v)(v.field, [v.field.one] + list(v.coeffs[1:]), v.prec)
        if hasattr(v, "coeffs") and v.coeffs and v.coeffs[0] != v.field.one
        else None,
        wl_roots: lambda v: v + Padic.from_int(1, v.p, v.abs_prec) if isinstance(v, Padic) else None,
        wl_clopen: lambda v: v + Fraction(1, 7) if isinstance(v, Fraction) else None,
    }[module]
    rejected = 0
    for call in calls:
        if call.op == "compose.fp" and call.size == wl_series.COMPOSE_SUBSAMPLE_ORDER:
            continue  # checked on a subsample only
        bad = mutated(call.run())
        if bad is not None:
            assert not call.check(bad).ok, call.op
            rejected += 1
    assert rejected


def test_cli_round_passes_its_checks_with_the_expected_rejections():
    calls = wl_cli.make_round(random.Random(4), 0)
    verdicts = [call.check(call.run()) for call in calls]
    assert all(v.ok for v in verdicts)
    assert sum(call.op.startswith("cli.reject.") for call in calls) == 6
