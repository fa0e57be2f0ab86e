"""Spans around padicore's public entry points, installed from outside.

``instrument`` replaces functions and methods of the loaded padicore
modules with wrappers that open and close a span in a ``Tracer``.  A
module-level function is replaced under every name that a padicore
module binds it to (``from .hensel import solve`` makes a second binding
in ``plog``), so calls between modules are traced as well.  Workload code
must therefore reach the library through module attributes or methods,
never through names imported into the workload module.

Nothing inside the library changes, and ``restore`` puts every original
back.  A span opens only inside another, so a wrapped function called
from outside the benchmark's root span (an output check, say) runs
untraced and counts in no metric.  Spans are aggregated as they close;
the first ``SPANS_KEPT`` spans are also kept with their parent link so
that they can be written out.
"""

import math
import sys
import time
from collections import Counter, defaultdict

ROOT = "bench"
SPANS_KEPT = 20000


class Tracer:
    """Nested spans on one thread, with self time per span name.

    Self time is a span's duration minus the durations of its direct
    children, which on one thread are disjoint and inside the parent.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.spans = []  # (id, parent id, name, start, end)
        self._stack = []  # [name, start, child seconds, id]
        self._next_id = 0

    def begin(self, name):
        self._next_id += 1
        self._stack.append([name, self.clock(), 0.0, self._next_id])

    def end(self):
        end = self.clock()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        parent_id = None
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        if len(self.spans) < SPANS_KEPT:
            self.spans.append((span_id, parent_id, name, start, end))

    def traced(self, name, fn, after=None):
        """``fn`` inside a span; ``name`` may be a function of the arguments.

        ``after(args, result)`` runs once the span has closed, to count
        work from the inputs and outputs; its cost falls on the parent.
        Outside every span, ``fn`` runs as it is.
        """

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.begin(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                after(args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    @property
    def active(self):
        """True inside a span, that is inside one of the benchmark's calls."""
        return bool(self._stack)

    def root(self, run):
        """The benchmark's own span around one workload call."""

        def call():
            self.begin(ROOT)
            try:
                return run()
            finally:
                self.end()

        return call

    def count(self, key, n):
        self.counts[key] += n


# ------------------------------------------------------------ computed work


def convolve_products(args, result):
    """Schoolbook products of ``convolve_mod(a, b, n, p)``, zeros included."""
    a, b, n = args[0], args[1], args[2]
    return sum(min(len(b), n - i) for i in range(min(len(a), n)))


def compose_products(args, result):
    """Products of the power-accumulation loop of ``compose_mod(f, g, n, p)``.

    Counts the loop bounds of the schoolbook algorithm with zero skipping
    ignored: building g**j costs min(len(g), n - i) - 1 products for each
    i in [lo, n - 1), and folding it into the sum costs n - lo.
    """
    f, g, n, p = args
    order = next((i for i in range(min(len(g), n)) if g[i] % p), n)
    total = 0
    lo = 0
    for j in range(1, min(len(f), n)):
        if j * order >= n:
            break
        c = min(max(lo, n - len(g)), n - 1)  # from c on, the row is cut by n
        total += (c - lo) * (len(g) - 1) + (n - 1 - c) * (n - c) // 2
        lo = min(j * order, n)
        total += n - lo
    return total


def enumerated_residues(args, result):
    """Residues mod p**level that one refine-and-enumerate call builds."""
    sets = [a for a in args if hasattr(a, "balls")]
    level = max(s.max_level() for s in sets)
    total = sum(s.p ** (level - b.level) for s in sets for b in s.balls)
    if len(sets) == 1:  # complement also materialises all of Z/p**level
        total += sets[0].p**level
    return total


# ------------------------------------------------------------ instrumenting


def _padicore_modules():
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "padicore" and m]


def instrument(tracer):
    """Wrap padicore's entry points; returns a function that undoes it."""
    import padicore._kernels as kernels
    from padicore import analytic, cli, hensel, measure, plog, series, sumlab, textforms
    from padicore.padics import Padic

    undo = []
    modules = _padicore_modules()

    def module_function(module, attr, name, after=None, outer=None):
        original = getattr(module, attr)
        wrapper = tracer.traced(name, original, after)
        if outer is not None:
            wrapper = outer(wrapper)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    undo.append((m, key, value))
                    setattr(m, key, wrapper)
        return wrapper

    def method(cls, attr, name, after=None):
        original = cls.__dict__[attr]
        wrapper = tracer.traced(name, original, after)
        for key, value in list(vars(cls).items()):
            if value is original:  # aliases such as __radd__ = __add__
                undo.append((cls, key, value))
                setattr(cls, key, wrapper)

    def counting(key, measure_fn):
        return lambda args, result: tracer.count(key, measure_fn(args, result))

    module_function(
        kernels, "convolve_mod", "kernels.convolve_mod", counting("kernels.products", convolve_products)
    )
    module_function(
        kernels, "compose_mod", "kernels.compose_mod", counting("kernels.products", compose_products)
    )

    def by_field(op):
        return lambda args: f"series.{op}.{'fp' if args[0].field.kind == 'fp' else 'qq'}"

    method(series.PowerSeries, "__mul__", by_field("mul"))
    method(series.PowerSeries, "compose", by_field("compose"))
    method(series.PowerSeries, "derive", "series.derive")
    method(series.LaurentSeries, "invert", "series.invert")

    for attr in ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__", "invert", "__pow__"):
        method(Padic, attr, "padics.ops")

    for attr in ("evaluate", "derivative", "recenter"):
        method(analytic.PadicPolynomial, attr, f"analytic.{attr}")

    module_function(hensel, "check_condition", "hensel.check_condition")
    method(hensel.HenselProblem, "__init__", "hensel.problem")

    def count_steps(traced_solve):
        def solve(problem, z):
            if not tracer.active:
                return traced_solve(problem, z)
            # each fixed-point step evaluates f once; one more evaluation
            # checks the residual at the end
            before = tracer.calls["analytic.evaluate"]
            result = traced_solve(problem, z)
            tracer.count("hensel.solve.steps", tracer.calls["analytic.evaluate"] - before - 1)
            gap = problem.report.gap
            bound = 1 if gap == math.inf else -(-z.abs_prec // gap)
            tracer.count("hensel.solve.step_bound", bound)
            return result

        return solve

    module_function(hensel, "solve", "hensel.solve", outer=count_steps)

    for attr in ("sqrt", "nth_root", "teichmuller"):
        module_function(hensel, attr, f"hensel.{attr}")

    module_function(plog, "log1p", "plog.log1p")
    module_function(plog, "log_inverse", "plog.log_inverse")
    module_function(
        plog,
        "log_series_polynomial",
        "plog.log_series_polynomial",
        lambda args, result: tracer.count("plog.poly_degree", result.degree),
    )

    def clopen_after(args, result):
        tracer.count("measure.residues", enumerated_residues(args, result))
        tracer.count("measure.balls_out", len(result.balls))

    for attr in ("complement", "intersect", "difference"):
        method(measure.ClopenSet, attr, f"measure.{attr}", clopen_after)
    for attr in ("union", "measure", "translate"):
        method(measure.ClopenSet, attr, f"measure.{attr}")

    module_function(
        sumlab,
        "bfs_norm",
        "sumlab.bfs_norm",
        lambda args, result: tracer.count("sumlab.subsets", 2 ** len(args[0])),
    )
    for attr in ("norms", "fubini_check", "partition_check", "lr_norm_le", "sup_le_lr"):
        module_function(sumlab, attr, "sumlab.checks")

    for attr, value in list(vars(textforms).items()):
        if attr.startswith("_") or getattr(value, "__module__", None) != textforms.__name__:
            continue
        if attr.startswith("parse_") or attr.endswith("_from_json"):
            module_function(textforms, attr, "textforms.parse")
        elif attr.endswith("_to_json"):
            module_function(textforms, attr, "textforms.serialize")

    module_function(cli, "main", "cli.main")

    def restore():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return restore


# ------------------------------------------------------------ layer metrics

# (metric, span names whose self time it sums)
SELF_MS = [
    ("kernels.convolve_mod.ms", ["kernels.convolve_mod"]),
    ("kernels.compose_mod.ms", ["kernels.compose_mod"]),
    ("series.mul.fp.ms", ["series.mul.fp"]),
    ("series.mul.qq.ms", ["series.mul.qq"]),
    ("series.compose.fp.ms", ["series.compose.fp"]),
    ("series.compose.qq.ms", ["series.compose.qq"]),
    ("series.invert.ms", ["series.invert"]),
    (
        "series.self_ms",
        ["series.mul.fp", "series.mul.qq", "series.compose.fp", "series.compose.qq", "series.invert", "series.derive"],
    ),
    ("padics.ops.ms", ["padics.ops"]),
    ("analytic.evaluate.ms", ["analytic.evaluate"]),
    ("analytic.derivative.ms", ["analytic.derivative"]),
    ("analytic.recenter.ms", ["analytic.recenter"]),
    ("hensel.check_condition.ms", ["hensel.check_condition"]),
    ("hensel.problem.ms", ["hensel.problem"]),
    ("hensel.solve.ms", ["hensel.solve"]),
    ("hensel.sqrt.ms", ["hensel.sqrt"]),
    ("hensel.nth_root.ms", ["hensel.nth_root"]),
    ("hensel.teichmuller.ms", ["hensel.teichmuller"]),
    ("hensel.seed.ms", ["hensel.sqrt", "hensel.nth_root"]),
    ("plog.log1p.ms", ["plog.log1p"]),
    ("plog.log_inverse.ms", ["plog.log_inverse"]),
    ("plog.log_series_polynomial.ms", ["plog.log_series_polynomial"]),
    ("measure.complement.ms", ["measure.complement"]),
    ("measure.intersect.ms", ["measure.intersect"]),
    ("measure.difference.ms", ["measure.difference"]),
    ("measure.union.ms", ["measure.union"]),
    ("measure.measure.ms", ["measure.measure"]),
    ("measure.translate.ms", ["measure.translate"]),
    ("sumlab.bfs_norm.ms", ["sumlab.bfs_norm"]),
    ("sumlab.checks.ms", ["sumlab.checks"]),
    ("textforms.parse.ms", ["textforms.parse"]),
    ("textforms.serialize.ms", ["textforms.serialize"]),
    ("cli.main.ms", ["cli.main"]),
    ("cli.self_ms", ["cli.main"]),
]

CALLS = [
    ("kernels.convolve_mod.calls", "kernels.convolve_mod"),
    ("kernels.compose_mod.calls", "kernels.compose_mod"),
    ("series.invert.calls", "series.invert"),
    ("padics.ops.calls", "padics.ops"),
    ("analytic.evaluate.calls", "analytic.evaluate"),
    ("hensel.solve.calls", "hensel.solve"),
    ("cli.main.calls", "cli.main"),
]

COUNTS = [
    "kernels.products",
    "hensel.solve.steps",
    "hensel.solve.step_bound",
    "plog.poly_degree",
    "measure.residues",
    "measure.balls_out",
    "sumlab.subsets",
]


def layer_metrics(tracer, scale):
    """Per-layer values from a finished trace: self ms, calls and counts.

    Times are multiplied by ``scale``, the run's host-speed factor.
    """
    out = {}
    for metric, names in SELF_MS:
        out[metric] = (1000 * scale * sum(tracer.self_s[n] for n in names), "ms")
    for metric, name in CALLS:
        out[metric] = (tracer.calls[name], "count")
    for key in COUNTS:
        out[key] = (tracer.counts[key], "count")
    return out


def root_self_share(tracer):
    """Share of traced call time that no layer span covers."""
    total = tracer.total_s[ROOT]
    return tracer.self_s[ROOT] / total if total else 0.0
