"""In-memory span tracing of calls into the kitaev_de modules.

The library binds names with ``from .x import y``, so a public function is
reachable through every module namespace that imported it.  ``Tracer.install``
replaces each such binding with one wrapper per function; ``uninstall`` puts
the originals back.  Spans stay in memory; per-layer numbers are derived from
them after the run (``layer_metrics``).

A span's self time is its duration minus the part of its interval covered by
its direct children.  Spans opened on a pool thread whose own stack is empty
take as parent the innermost open span of the thread that installed the
tracer: in this library that is the sweep driver blocked on the pool.
"""
from __future__ import annotations

import functools
import inspect
import math
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# analysis drivers that loop over a parameter grid
SWEEP_DRIVERS = ("analysis.sweep_de_density", "analysis.sweep_global_entanglement",
                 "analysis.sweep_block_coefficients", "analysis.comparative_scan")


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    op: int = -1           # index of the workload operation (the run id)
    error: str | None = None
    attrs: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _nan_points(result) -> tuple[int, int]:
    """(gapless points, points) of a sweep driver's result."""
    if isinstance(result, dict):
        result = result.get("nu")
        if result is None:
            return 0, 0
    arr = np.asarray(result, dtype=float)
    rows = arr.reshape(arr.shape[0], -1) if arr.ndim else arr.reshape(1, 1)
    return int(np.isnan(rows).any(axis=1).sum()), int(rows.shape[0])


def _annotate(name, fn, args, kwargs) -> dict:
    """Counts recorded at the layer boundary, keyed by span name."""
    if name == "gaussian.correlator_kernel":
        a = _bound(fn, args, kwargs)
        return {"flops": 8 * a["n"] * (2 * a["l_max"] + 1)}
    if name == "entropy.block_diagonal_distribution":
        a = _bound(fn, args, kwargs)
        return {"l": int(a["l"]), "basis": str(a["basis"]).lower()}
    if name == "analysis.sweep_block_coefficients":
        return {"threads": max(1, int(_bound(fn, args, kwargs)["threads"]))}
    if name == "cli.write_csv":
        path = _bound(fn, args, kwargs)["path"]
        return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}
    if name == "cli.main":
        argv = list(_bound(fn, args, kwargs)["argv"] or [])
        cfg = argv[argv.index("--config") + 1] if "--config" in argv else ""
        return {"config": os.path.splitext(os.path.basename(cfg))[0]}
    return {}


class Tracer:
    """Records spans of every public kitaev_de function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self.paused = False   # set while the benchmark checks outputs
        self._owner = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------
    def install(self, modules) -> None:
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("kitaev_de.")):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # -- recording --------------------------------------------------------
    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        owner = self._stacks.get(self._owner)
        if threading.get_ident() != self._owner and owner:
            return owner[-1]
        return None

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stacks.setdefault(threading.get_ident(), [])
            span = Span(name=name, start=0.0, parent=tracer._parent(stack),
                        op=tracer.op)
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(idx)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                span.attrs = _annotate(name, fn, args, kwargs)
                if span.error is None and name in SWEEP_DRIVERS:
                    span.attrs["nan"], span.attrs["points"] = _nan_points(result)

        return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

PER_CALL = {  # span name -> metrics reported per workload operation
    "model.grid_numerators": ("calls", "self_s"),
    "topology.winding_number": ("calls", "self_s"),
    "gaussian.correlator_kernel": ("calls", "self_s"),
    "gaussian.open_chain_correlations": ("self_s",),
    "gaussian.sigma_z_correlator": ("self_s",),
    "gaussian.sigma_x_correlator": ("self_s",),
    "entropy.de_density": ("self_s",),
    "entropy.global_entanglement": ("self_s",),
    "analysis.fit_block_law": ("self_s",),
    "analysis.detect_critical_points": ("self_s",),
    "majorana.zero_modes": ("calls", "self_s"),
    "majorana.build_coupling": ("self_s",),
    "oracle.ed_ground_state": ("calls", "self_s"),
    "oracle.spin_ground_state": ("calls", "self_s"),
    "oracle.spin_hamiltonian": ("self_s",),
    "oracle.ed_sigma_x_product": ("self_s",),
    "oracle.ed_diagonal_marginal": ("self_s",),
    "cli.run_task": ("self_s",),
    "cli.write_csv": ("self_s",),
}
BLOCK_LENGTHS = (8, 12, 14)
UNITS = {"calls": "count", "self_s": "s"}


def _median_ms(values) -> float:
    return float(np.median(values)) * 1e3 if len(values) else 0.0


def layer_metrics(spans: list[Span], ops: int, config_names,
                  harmonics_hits: int, harmonics_lookups: int,
                  snap_warnings: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced segment of ``ops`` operations.

    Counts and self times are per operation so that runs of different
    lengths compare; ratios and per-call medians are not.
    """
    ops = max(ops, 1)
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name, pred=lambda s: True):
        return [i for i in by_name.get(name, []) if pred(spans[i])]

    def self_sum(ids):
        return sum(selfs[i] for i in ids)

    out: dict[str, tuple[float, str]] = {}
    for name, kinds in PER_CALL.items():
        ids = idx(name)
        for kind in kinds:
            value = len(ids) if kind == "calls" else self_sum(ids)
            out[f"{name}.{kind}"] = (value / ops, UNITS[kind])

    lookups = harmonics_lookups
    out["model.harmonics_hit_ratio"] = (
        harmonics_hits / lookups if lookups else 0.0, "ratio")

    gapless = idx("topology.winding_number", lambda s: s.error == "GaplessSpecError")
    out["topology.winding_number.gapless"] = (len(gapless) / ops, "count")
    out["topology.snap_warnings"] = (snap_warnings / ops, "count")

    kern = idx("gaussian.correlator_kernel")
    out["gaussian.correlator_kernel.flops_computed"] = (
        sum(spans[i].attrs.get("flops", 0) for i in kern) / ops, "flop")

    dist = idx("entropy.block_diagonal_distribution")
    for basis in ("z", "x"):
        ids = [i for i in dist if spans[i].attrs.get("basis") == basis]
        out[f"entropy.block_dist_{basis}.self_s"] = (self_sum(ids) / ops, "s")
        for l in BLOCK_LENGTHS:
            durs = [spans[i].end - spans[i].start for i in ids
                    if spans[i].attrs.get("l") == l and spans[i].error is None]
            out[f"entropy.block_dist_{basis}.L{l}_ms"] = (_median_ms(durs), "ms")
    out["entropy.block_dist.outcomes"] = (
        sum(2 ** spans[i].attrs.get("l", 0) for i in dist) / ops, "count")
    failures = [i for i in dist if spans[i].error == "NormalizationFailureError"]
    out["entropy.norm_failures"] = (len(failures) / ops, "count")

    sweeps = [i for name in SWEEP_DRIVERS for i in idx(name)]
    out["analysis.sweep.self_s"] = (self_sum(sweeps) / ops, "s")
    nan = sum(spans[i].attrs.get("nan", 0) for i in sweeps)
    points = sum(spans[i].attrs.get("points", 0) for i in sweeps)
    out["analysis.sweep.nan_ratio"] = (nan / points if points else 0.0, "ratio")
    busy, capacity = 0.0, 0.0
    block_sweeps = set(idx("analysis.sweep_block_coefficients"))
    for i in block_sweeps:
        s = spans[i]
        capacity += (s.end - s.start) * s.attrs.get("threads", 1)
    for s in spans:
        if s.parent in block_sweeps:
            busy += s.end - s.start
    out["analysis.sweep_block_coefficients.parallel_eff"] = (
        busy / capacity if capacity else 0.0, "ratio")

    ambiguous = idx("majorana.zero_modes", lambda s: s.error == "TolAmbiguousError")
    out["majorana.tol_ambiguous"] = (len(ambiguous) / ops, "count")

    mains = idx("cli.main")
    for cfg in config_names:
        durs = [spans[i].end - spans[i].start for i in mains
                if spans[i].attrs.get("config") == cfg]
        out[f"cli.config.{cfg}.s"] = (float(np.median(durs)) if durs else 0.0, "s")
    out["cli.write_csv.bytes"] = (
        sum(spans[i].attrs.get("bytes", 0) for i in idx("cli.write_csv")) / ops, "B")
    return out
