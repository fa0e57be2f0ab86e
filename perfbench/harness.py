"""Closed-loop timing, host-speed normalisation, checks and failure accounting.

A workload is a pool of rounds; a round is a list of ``Call`` objects whose
mix of operation classes and sizes is the same in every round (only the
seeded values differ).  The timed loop cycles through the pool in whole
rounds, one call at a time, so that every call of the pool runs several
times at different moments of the run.

The hosts this runs on are shared: the speed of one virtual CPU changes
by up to a factor of 1.6 within seconds and stays low for tens of
seconds at a time.  The loop therefore times a fixed pure-Python
reference kernel every 100 ms of calls.  A call's time is scaled by the
ratio of the kernel's nominal time to the median of the nine kernel
timings nearest to the call, and the call's figure is the median over
its repetitions.  Normalised times read as wall times on a host where the
kernel takes ``NOMINAL_REFERENCE_S``; the raw wall times are kept in the
run's record.

Each output is checked right after its call returns, outside the timed
region.  A repetition whose value equals an already checked value of the
same call reuses that verdict, so that checks cost one pass of the pool.
"""

import bisect
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from padicore.errors import EnumerationGuardError


@dataclass
class Verdict:
    """Outcome of one output check.

    ``delivered`` is the absolute precision of a p-adic answer, for the
    precision accounting; None when the output carries no precision.
    """

    ok: bool
    reason: str = ""
    delivered: Optional[int] = None


OK = Verdict(True)


def wrong(reason, delivered=None):
    return Verdict(False, reason, delivered)


@dataclass
class Call:
    """One library call: the timed thunk, its check, and its labels.

    ``op`` names the operation class, ``size`` orders calls of one class
    by cost (the warm-up pass runs the smallest), and ``documented`` is
    the absolute precision the library documents for the answer, or None.
    """

    op: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]
    size: int = 0
    documented: Optional[int] = None


@dataclass
class Outcome:
    call: Call
    seconds: float
    value: object = None
    error: Optional[BaseException] = None


def run_call(call, clock=time.perf_counter):
    start = clock()
    try:
        value = call.run()
    except Exception as exc:  # every failure is recorded and counted
        return Outcome(call, clock() - start, error=exc)
    return Outcome(call, clock() - start, value)


def classify(outcome):
    """The outcome's kind and the check's verdict.

    The kind is "ok" or a failure: "refused", "error" or "wrong".  A guard
    refusal is a failure, since the library declined a valid request.
    Expected rejections (CLI exit codes 1 and 2) are returned values that
    the call's check accepts, so they classify as "ok".
    """
    if outcome.error is not None:
        kind = "refused" if isinstance(outcome.error, EnumerationGuardError) else "error"
        return kind, wrong(repr(outcome.error))
    verdict = outcome.call.check(outcome.value)
    return ("ok" if verdict.ok else "wrong"), verdict


@dataclass
class Accounting:
    """Failures over attempts, and documented minus delivered precision."""

    attempted: int = 0
    failed: int = 0
    kinds: dict = field(default_factory=dict)
    digits_short: int = 0
    precision_calls: int = 0
    precision: list = field(default_factory=list)  # (op, documented, delivered) per checked value
    examples: list = field(default_factory=list)
    _checked: dict = field(default_factory=dict, repr=False)

    def add(self, outcome):
        documented = outcome.call.documented
        seen = self._checked.get(id(outcome.call))
        if seen is not None and outcome.error is None and seen[0] == outcome.value:
            kind, verdict = seen[1:]
        else:
            kind, verdict = classify(outcome)
            if outcome.error is None:
                self._checked[id(outcome.call)] = (outcome.value, kind, verdict)
            if documented is not None:
                self.precision.append((outcome.call.op, documented, verdict.delivered))
        self.attempted += 1
        if documented is not None and verdict.delivered is not None:
            self.precision_calls += 1
            self.digits_short += max(0, documented - verdict.delivered)
        if kind != "ok":
            self.failed += 1
            self.kinds[kind] = self.kinds.get(kind, 0) + 1
            if len(self.examples) < 5:
                self.examples.append(f"{outcome.call.op}: {kind}: {verdict.reason}"[:300])


NOMINAL_REFERENCE_S = 0.002
PROBE_EVERY_S = 0.1
NEAREST_PROBES = 9
MIN_PASSES = 2  # passes over the pool that a closed loop makes at least
MIN_CALLS = 100  # calls that a closed loop completes at least
MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


def reference_kernel():
    """Fixed interpreter work: big-integer arithmetic and small allocations."""
    acc = 0
    cells = []
    for i in range(6000):
        acc = (acc * 1000003 + i * i) % 170141183460469231731687303715884105727
        cells.append((i, acc))
    return len(cells)


class HostSpeed:
    """Timings of the reference kernel through a run, by start time."""

    def __init__(self, clock=time.perf_counter, kernel=reference_kernel):
        self.clock = clock
        self.kernel = kernel
        self.at = []
        self.took = []

    def probe(self):
        start = self.clock()
        self.kernel()
        self.at.append(start)
        self.took.append(self.clock() - start)

    def factor(self, t):
        """Nominal over the median of the probes nearest to time t."""
        i = bisect.bisect_left(self.at, t)
        lo = max(0, min(i - NEAREST_PROBES // 2, len(self.at) - NEAREST_PROBES))
        return NOMINAL_REFERENCE_S / statistics.median(self.took[lo : lo + NEAREST_PROBES])

    def normalise(self, start, seconds):
        return seconds * self.factor(start + seconds / 2)


@dataclass
class LoopResult:
    """Repetitions of every pool call: (start, wall seconds), by pool position."""

    times: dict  # (pool index, position in round) -> [(start, seconds), ...]
    ops: dict  # same key -> operation class
    rounds: int
    accounting: Accounting
    speed: HostSpeed

    def per_call(self):
        """Each call's normalised time: the median over its repetitions."""
        norm = self.speed.normalise
        return {key: statistics.median(norm(t, s) for t, s in reps) for key, reps in self.times.items()}

    def ops_per_s(self):
        """Calls per normalised second, one figure per call of the pool."""
        times = self.per_call().values()
        return len(times) / sum(times)

    def raw_ops_per_s(self):
        walls = [s for reps in self.times.values() for _, s in reps]
        return len(walls) / sum(walls)

    def per_op(self):
        per_call = self.per_call()
        groups = {}
        for key, t in per_call.items():
            groups.setdefault(self.ops[key], []).append((t, len(self.times[key])))
        return {
            op: {
                "calls": len(items),
                "repetitions": sum(n for _, n in items),
                "normalised_total_ms": 1000 * sum(t for t, _ in items),
            }
            for op, items in sorted(groups.items())
        }


def closed_loop(pool, seconds, clock=time.perf_counter):
    """Run whole rounds back to back, cycling through the pool.

    Stops at the end of a round once the calls have taken ``seconds`` in
    total, the pool has been run ``MIN_PASSES`` times and ``MIN_CALLS``
    calls have completed.  Every outcome is checked as it arrives, and
    the reference kernel runs every ``PROBE_EVERY_S`` of calls; neither
    is part of any call's time.
    """
    times, ops = {}, {}
    acct = Accounting()
    speed = HostSpeed(clock)
    speed.probe()
    busy = since_probe = 0.0
    done = 0
    while True:
        index = done % len(pool)
        # a fresh order on every pass, so that no call always follows the
        # same predecessor (a large call leaves the caches cold)
        order = random.Random(done).sample(range(len(pool[index])), len(pool[index]))
        for position in order:
            call = pool[index][position]
            start = clock()
            outcome = run_call(call, clock)
            acct.add(outcome)
            times.setdefault((index, position), []).append((start, outcome.seconds))
            ops[index, position] = call.op
            busy += outcome.seconds
            since_probe += outcome.seconds
            if since_probe >= PROBE_EVERY_S:
                speed.probe()
                since_probe = 0.0
        done += 1
        if busy >= seconds and done >= MIN_PASSES * len(pool) and acct.attempted >= MIN_CALLS:
            speed.probe()
            return LoopResult(times, ops, done, acct, speed)


def percentile(samples, q):
    """Nearest-rank q-quantile and the number of samples above its rank.

    Raises ValueError when fewer than ``MIN_BEYOND`` samples lie beyond
    it, so a reported tail percentile always rests on at least that many.
    """
    xs = sorted(samples)
    rank = max(1, math.ceil(q * len(xs)))
    beyond = len(xs) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{round(q * 100)} of {len(xs)} samples has {beyond} beyond it, "
            f"fewer than {MIN_BEYOND}"
        )
    return xs[rank - 1], beyond
