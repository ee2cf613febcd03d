"""Benchmark of the kitaev_de library, run from the root of a checkout.

    python3 bench/run.py --workload block-z --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process, one caller: each operation is issued when the previous one
returns, for ``--seconds`` seconds.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it give a report with every timing as a
median plus a tail percentile and the sample count, the operation's timed
steps under their documented names, and a machine fingerprint.  See
bench/README.md for the workloads and what each metric should move.

BLAS runs single-threaded so that the pool of ``compare_channels`` may use
every core (pool threads x BLAS threads <= cores) and so timings on a small
shared machine are steady.  ``--workload all`` runs every workload in its own
process and prints one table.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
WORKLOAD_NAMES = ("reproduce", "block-z", "block-x", "density-scan", "open-chain")
OP_NAMES = {  # the documented name of each workload's operation time
    "reproduce": "reproduce_s", "block-z": "block_z_point_s",
    "block-x": "block_x_point_s", "density-scan": "scan_point_s",
    "open-chain": "open_chain_round_s",
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def bench_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
    env.pop("KITAEV_DE_THREADS", None)
    return env


def cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def summary(values, unit, higher_is_better=False) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it.

    For a rate the bad tail is the low one, so it gets the mirrored percentile.
    """
    import numpy as np
    out = {"median": statistics.median(values), "n": len(values), "unit": unit}
    for p in TAIL_PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= 10:
            q = 100.0 - p if higher_is_better else p
            out[f"p{q:g}"] = float(np.percentile(values, q))
            break
    return out


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def fingerprint(args, pool_threads) -> dict:
    import platform

    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": cores(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "pool_threads": pool_threads, "commit": git_commit(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_probe(args, tmpdir, pool_threads) -> float:
    """Wall time of a fresh interpreter that imports the library and the
    workload and warms every library path the workload's operations take.

    The child reads the system-wide monotonic clock when it is done, so its
    exit and the parent's wait for it are not counted.
    """
    code = (f"import sys, time; sys.path[:0] = [{SRC!r}, {HERE!r}]\n"
            "from workloads import WORKLOADS\n"
            f"WORKLOADS[{args.workload!r}]({args.seed}, {ROOT!r}, {tmpdir!r}, "
            f"{pool_threads}).warm()\n"
            "print(time.monotonic())\n")
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], env=bench_env(), check=True,
                          timeout=120, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True)
    return float(proc.stdout.split()[-1]) - t0


def op_seconds(steps: dict, layout: dict, units: float) -> float:
    """Time of one operation per unit, assembled from its steps' fastest runs.

    ``layout`` counts how often each step occurs in one operation.  On a
    shared machine the same step slows by up to 1.8x for seconds at a time
    while other tenants load the host; its fastest run in the measured
    interval is what the program itself costs, so each step contributes
    its minimum.
    """
    return sum(n * min(steps[name]) for name, n in layout.items()) / units


class Loop:
    """Closed-loop measurement of one workload for a fixed wall time."""

    def __init__(self, workload, tracer=None):
        self.wl, self.tracer = workload, tracer
        self.op_times: list[float] = []            # per unit, one per operation
        self.steps: dict[str, list[float]] = {}    # step name -> its times
        self.layout: dict[str, int] = {}           # step name -> count per operation
        self.units = 1.0
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def record(self, attempted, failures):
        self.attempted += attempted
        self.failed += len(failures)
        self.failures += failures

    def run(self, seconds: float, min_ops: int, pause=None, pauses: int = 0) -> int:
        """Operations for ``seconds`` of measured time, at least ``min_ops``.

        ``pause`` is called ``pauses`` times, evenly over the measured time;
        the time it takes is not measured time.
        """
        ops = done = 0
        start, paused = time.perf_counter(), 0.0

        def measured():
            return time.perf_counter() - start - paused

        while ops < min_ops or measured() < seconds:
            if done < pauses and measured() >= done * seconds / pauses:
                t0 = time.perf_counter()
                pause()
                paused += time.perf_counter() - t0
                done += 1
                continue
            if self.tracer is not None:
                self.tracer.op, self.tracer.paused = ops, False
            try:
                outcome = self.wl.op()
            except Exception as exc:   # an operation that raised counts as failed
                traceback.print_exc(file=sys.stderr)
                self.record(1, [f"op raised {type(exc).__name__}: {exc}"])
                ops += 1
                continue
            ops += 1
            if self.tracer is not None:
                self.tracer.paused = True
            layout: dict[str, int] = {}
            for name, seconds_ in outcome.steps:
                self.steps.setdefault(name, []).append(seconds_)
                layout[name] = layout.get(name, 0) + 1
            if self.layout and layout != self.layout:
                raise RuntimeError(f"steps {layout} differ from {self.layout}")
            self.layout, self.units = layout, outcome.units
            self.op_times.append(sum(t for _, t in outcome.steps) / outcome.units)
            self.record(*self.wl.check(outcome.payload))
        for _ in range(done, pauses):
            pause()
        return ops

    def op_seconds(self) -> float:
        if not self.op_times:
            return math.nan
        return op_seconds(self.steps, self.layout, self.units)


def measure(args) -> dict:
    import resource

    import kitaev_de
    from kitaev_de import model

    import tracing
    from workloads import WORKLOADS, config_names
    if not os.path.abspath(kitaev_de.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"kitaev_de imported from {kitaev_de.__file__}, not {SRC}")
    cls = WORKLOADS[args.workload]
    pool_threads = max(1, cores() // BLAS_THREADS)

    tmpdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        setups = []

        def probe():
            probe_dir = os.path.join(tmpdir, f"setup{len(setups)}")
            os.mkdir(probe_dir)
            setups.append(setup_probe(args, probe_dir, pool_threads))

        wl = cls(args.seed, ROOT, tmpdir, pool_threads)
        wl.warm()
        wl.prepare()
        untraced = Loop(wl)
        if not args.trace:
            # Set-up probes are spread over the run, so that one stretch of a
            # loaded host does not decide them all.
            untraced.run(args.seconds, wl.min_ops, probe, SETUP_PROBES)
            loops = [untraced]
        else:
            untraced.run(args.seconds / 3.0, 1)
            tracer = tracing.Tracer()
            traced = Loop(wl, tracer)
            modules = [sys.modules[m] for m in sorted(sys.modules)
                       if m == "kitaev_de" or m.startswith("kitaev_de.")]
            before = model._grid_harmonics.cache_info()
            tracer.install(modules)
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", kitaev_de.NumericalWindingWarning)
                    ops = traced.run(args.seconds * 2.0 / 3.0, wl.min_ops)
            finally:
                tracer.uninstall()
            after = model._grid_harmonics.cache_info()
            hits = after.hits - before.hits
            lookups = hits + after.misses - before.misses
            snaps = sum(issubclass(w.category, kitaev_de.NumericalWindingWarning)
                        for w in caught)
            layer = tracing.layer_metrics(tracer.spans, ops, config_names(ROOT),
                                          hits, lookups, snaps)
            base, with_trace = untraced.op_seconds(), traced.op_seconds()
            layer["trace.op_min_s"] = (with_trace, "s")
            layer["trace.overhead_frac"] = (with_trace / base - 1.0, "ratio")
            layer["trace.spans"] = (len(tracer.spans) / ops, "count")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            loops = [untraced, traced]
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        metrics = {"op_min_s": {"value": untraced.op_seconds(), "unit": "s"},
                   "setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    attempted = sum(l.attempted for l in loops)
    failed = sum(l.failed for l in loops)
    failures = [f for l in loops for f in l.failures]
    op_times = untraced.op_times
    timings = {OP_NAMES[args.workload]: summary(op_times, "s")} if op_times else {}
    if args.workload == "density-scan" and op_times:
        timings["scan_points_per_s"] = summary([1.0 / t for t in op_times], "1/s",
                                              higher_is_better=True)
    steps = {}
    for name, values in untraced.steps.items():
        steps[name] = summary(values, "s")
        steps[name]["min"] = min(values)
    report = {
        "fingerprint": fingerprint(args, pool_threads),
        "timings": timings,
        "steps": steps,
        "setup_s": setups,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": failures[:20],
    }
    return {"report": report,
            "result": {"correct": failed == 0 and attempted > 0,
                       "attempted": attempted, "failed": failed,
                       "metrics": metrics}}


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    ok = True
    print(f"{'workload':<14} {'metric':<48} {'value':>14}  unit")
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=600, stdin=subprocess.DEVNULL)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name:<14} failed with exit code {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        report = json.loads("\n".join(lines[:-1]))
        ok &= result["correct"]
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows += [(k, t["median"], t["unit"]) for k, t in report["timings"].items()]
        rows += [(f"{k}_s", t["median"], t["unit"]) for k, t in report["steps"].items()]
        rows.append(("failed_frac", report["failed_frac"], "ratio"))
        for key, value, unit in rows:
            print(f"{name:<14} {key:<48} {value:>14.6g}  {unit}")
        print(f"{name:<14} {'attempted/failed':<48} "
              f"{result['attempted']:>8}/{result['failed']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kitaev_de", "__init__.py")):
        print(f"error: no kitaev_de sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.update(bench_env())   # before numpy is imported
    os.environ.pop("KITAEV_DE_THREADS", None)
    sys.path.insert(0, SRC)
    out = measure(args)
    print(json.dumps(out["report"], indent=1, default=str))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
