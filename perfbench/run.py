"""padicore benchmark: four seeded workloads through the public API.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload series --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One caller in one process and one thread runs a closed loop: each call
starts when the previous one returns.  The library is imported from
``src/`` of the same checkout (a missing ``src/padicore`` is an error,
exit 2), with every ``PADICORE_*`` environment variable removed so that
the default precision cap and kernel selection apply.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes an
untraced run, then a traced run of two passes over the same inputs with
spans around every layer's entry points (see ``tracing.py``), and
reports the per-layer metrics.  Every output is checked as it arrives,
outside the timed region.  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, with provenance, per-operation figures, raw samples and the
first traced spans, goes to ``.perfbench-out/`` in the checkout.  The
exit code is 0 when every check passed and 1 otherwise.
``--workload all`` runs every workload in its own process and prints
each metric by name with its unit.
"""

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = {
    "series": "wl_series",
    "roots_log": "wl_roots",
    "clopen_sums": "wl_clopen",
    "cli": "wl_cli",
}
SETUP_PROBES = 5  # fresh interpreters timed per run for setup_s
PROCESS_REPEATS = 7  # runs of each workload's CLI cases for cli_process_ms
INTERPRETER_PROBES = 7
NOMINAL_INTERPRETER_S = 0.06  # child-process times read as if python -c pass took this
PROBE_TIMEOUT = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import padicore from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "padicore", "__init__.py")):
        fail(f"no padicore sources under {SRC}")
    for key in [k for k in os.environ if k.startswith("PADICORE_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    import padicore

    if os.path.dirname(os.path.dirname(os.path.abspath(padicore.__file__))) != SRC:
        fail(f"padicore was imported from {padicore.__file__}, not from {SRC}")
    return padicore


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


# ------------------------------------------------------------ set-up


def setup(module, seed):
    """Seeded round pool plus an untimed warm-up call per operation class.

    Inputs are built through the library's constructors, which also fills
    caches such as the ``check_prime`` LRU; the warm-up runs the smallest
    call of each operation class in the first round.
    """
    from harness import run_call

    rng = random.Random(f"{module.__name__}:{seed}")
    pool = [module.make_round(rng, i) for i in range(module.POOL)]
    smallest = {}
    for call in pool[0]:
        if call.op not in smallest or call.size < smallest[call.op].size:
            smallest[call.op] = call
    for call in smallest.values():
        run_call(call)
    return pool


def bare_interpreter():
    """Wall seconds of ``python -c pass``: interpreter start-up and exit.

    Output is captured, as for every timed child: with a timeout and no
    pipes, ``subprocess.run`` polls for the exit with sleeps of up to
    50 ms, which would add up to 50 ms to the measurement.
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "pass"],
        cwd=ROOT,
        env=child_env(),
        check=True,
        timeout=PROBE_TIMEOUT,
        capture_output=True,
    )
    return time.perf_counter() - start


def timed_children(runs):
    """Run child-process thunks in turn, each between two bare interpreters.

    A thunk returns (result, wall seconds).  Process start-up slows with
    the host as a whole, so each child's time is scaled by the ratio of
    ``NOMINAL_INTERPRETER_S`` to the mean of the bare interpreter runs just
    before and after it.  Returns results, wall seconds, normalised
    seconds and the bare interpreter times.
    """
    bare = [bare_interpreter()]
    results, walls, norms = [], [], []
    for run in runs:
        result, seconds = run()
        bare.append(bare_interpreter())
        results.append(result)
        walls.append(seconds)
        norms.append(seconds * NOMINAL_INTERPRETER_S / ((bare[-2] + bare[-1]) / 2))
    return results, walls, norms, bare


def setup_seconds(workload, seed):
    """Wall and normalised times from spawning a fresh interpreter to its first timed call."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload, "--seed", str(seed)]

    def spawn():
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        return None, elapsed

    _, raw, norm, _ = timed_children([spawn] * SETUP_PROBES)
    return raw, norm


# ------------------------------------------------------------ process probes


def process_times(module, seed, acct):
    """Normalised seconds of the workload's CLI cases as ``python -m padicore.cli``."""
    from harness import Outcome
    from wl_cli import run_process, to_call

    cases = module.process_cases(random.Random(f"{module.__name__}:process:{seed}"))
    calls = [to_call(case) for case in cases] * PROCESS_REPEATS
    runs = [lambda argv=case.argv: run_process(ROOT, child_env(), argv, PROBE_TIMEOUT) for case in cases]
    results, raw, norm, bare = timed_children(runs * PROCESS_REPEATS)
    for call, result, seconds in zip(calls, results, raw):
        acct.add(Outcome(call, seconds, result))
    # the mean over cases of each case's median: a median over the mixed
    # cases would jump between their cost levels
    per_case = [statistics.median(norm[i :: len(cases)]) for i in range(len(cases))]
    return {"cli_process_s": raw, "bare_s": bare}, statistics.mean(per_case)


def interpreter_ms():
    """Median ms of a bare interpreter (raw), and of ``import padicore.cli`` (normalised)."""
    code = "import time; t = time.perf_counter(); import padicore.cli; print(time.perf_counter() - t)"

    def timed_import():
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=child_env(),
            check=True,
            timeout=PROBE_TIMEOUT,
            capture_output=True,
            text=True,
        )
        return float(out.stdout), time.perf_counter() - start

    imports, raw, norm, bare = timed_children([timed_import] * INTERPRETER_PROBES)
    import_norm = [inside * n / r for inside, r, n in zip(imports, raw, norm)]
    return 1000 * statistics.median(bare), 1000 * statistics.median(import_norm)


# ------------------------------------------------------------ provenance


def provenance(padicore, workload, seed, seconds, trace):
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            revision = None
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "padicore"), HERE):
        for dirpath, _, filenames in sorted(os.walk(base)):
            for name in sorted(filenames):
                if name.endswith((".py", ".pyx")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return {
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "kernel_backend": padicore.KERNEL_BACKEND,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def write_record(name, record):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    return path


# ------------------------------------------------------------ one workload


def run_workload(args):
    padicore = load_library()
    import importlib

    import tracing
    from harness import NOMINAL_REFERENCE_S, Accounting, closed_loop, percentile

    module = importlib.import_module(WORKLOADS[args.workload])
    if args.setup_only:
        setup(module, args.seed)
        print("ready", flush=True)
        return 0

    record = {"provenance": provenance(padicore, args.workload, args.seed, args.seconds, args.trace)}
    if not args.trace:
        # child processes first, while this process is still small
        setup_raw, setups = setup_seconds(args.workload, args.seed)
        proc_acct = Accounting()
        procs_raw, procs = process_times(module, args.seed, proc_acct)
    pool = setup(module, args.seed)
    # the harness's own objects stay out of the collector's way, so that
    # garbage-collection pauses inside calls depend on the calls alone
    gc.collect()
    gc.freeze()
    loop = closed_loop(pool, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    acct = loop.accounting
    record["untraced"] = _loop_record(loop)

    if args.trace:
        tracer = tracing.Tracer()
        traced_pool = [[_rooted(tracer, c) for c in rnd] for rnd in pool]
        restore = tracing.instrument(tracer)
        try:
            gc.collect()
            gc.freeze()
            traced = closed_loop(traced_pool, 0)
        finally:
            restore()
        bare_ms, import_ms = interpreter_ms()
        metrics = tracing.layer_metrics(tracer, NOMINAL_REFERENCE_S / statistics.median(traced.speed.took))
        metrics["cli.import_ms"] = (import_ms, "ms")
        metrics["cli.interpreter_ms"] = (bare_ms, "ms")
        metrics["trace.overhead_frac"] = (loop.ops_per_s() / traced.ops_per_s() - 1, "ratio")
        metrics["trace.root_self_frac"] = (tracing.root_self_share(tracer), "ratio")
        metrics["precision.digits_short"] = (traced.accounting.digits_short, "digits")
        record["traced"] = {**_loop_record(traced), "spans": tracer.spans}
        checked = [acct, traced.accounting]
    else:
        per_call = list(loop.per_call().values())
        p50, beyond50 = percentile(per_call, 0.5)
        p90, beyond90 = percentile(per_call, 0.9)
        metrics = {
            "ops_per_s": (loop.ops_per_s(), "ops/s"),
            "latency_p50_ms": (1000 * p50, "ms"),
            "latency_p90_ms": (1000 * p90, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "cli_process_ms": (1000 * procs, "ms"),
        }
        record["samples"] = {
            "calls": len(per_call),
            "repetitions": acct.attempted,
            "beyond_p50": beyond50,
            "beyond_p90": beyond90,
            "setup_probes": len(setups),
            "cli_processes": len(procs_raw["cli_process_s"]),
        }
        record["raw"] = {"setup_s": setup_raw, **procs_raw}
        checked = [acct, proc_acct]

    attempted = sum(a.attempted for a in checked)
    failed = sum(a.failed for a in checked)
    record["accounting"] = [
        {
            k: getattr(a, k)
            for k in ("attempted", "failed", "kinds", "examples", "digits_short", "precision_calls", "precision")
        }
        for a in checked
    ]
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    path = write_record(f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json", record)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:32s} {value:14.6g} {unit}")
    print(
        f"{args.workload:12s} checked {attempted} outputs, {failed} failed; digits short "
        f"{acct.digits_short} over {acct.precision_calls} precision-bearing calls of the timed loop"
    )
    for a in checked:
        for example in a.examples:
            print(f"{args.workload:12s} failure: {example}")
    print(f"provenance {json.dumps(record['provenance'], sort_keys=True)}")
    if "samples" in record:
        print(f"samples {json.dumps(record['samples'], sort_keys=True)}")
    print(f"record {os.path.relpath(path, ROOT)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": record["metrics"]}
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if failed == 0 else 1


def _loop_record(loop):
    return {
        "rounds": loop.rounds,
        "per_op": loop.per_op(),
        "raw_ops_per_s": loop.raw_ops_per_s(),
        "reference_s": loop.speed.took,
        "repetitions": [[s for _, s in reps] for reps in loop.times.values()],
    }


def _rooted(tracer, call):
    from harness import Call

    return Call(call.op, tracer.root(call.run), call.check, call.size, call.documented)


# ------------------------------------------------------------ every workload


def run_all(args):
    if not os.path.isfile(os.path.join(SRC, "padicore", "__init__.py")):
        fail(f"no padicore sources under {SRC}")
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{workload}: no result (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        for name, m in result["metrics"].items():
            print(f"{workload:12s} {name:32s} {m['value']:14.6g} {m['unit']}")
        print(f"{workload:12s} correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        if proc.returncode != 0 or not result["correct"]:
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
