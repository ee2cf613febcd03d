"""Scaling-law fits, finite-difference susceptibilities and critical points.

Topological transitions show up as discontinuities of the susceptibility
``chi_O(q) = dq/dO`` of a diagnostic quantity q (diagonal-entropy density s,
block-law coefficients a/b/c, or global entanglement E).  Discontinuities are
flagged where the first difference of chi exceeds ``kappa`` times the median
first difference over the curve, a reproducible stand-in for reading kinks
off a plot.  Flag clusters from one kink are merged; each reported point is
the midpoint with the largest jump in its cluster.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .entropy import (block_diagonal_entropy, de_density, global_entanglement,
                      pure_state_diagonal_entropy)
from .errors import (GaplessSpecError, IllConditionedError,
                     InsufficientPointsError, NonUniformGridError)
from .gaussian import correlator_kernel
from .model import DEFAULT_GRID, ModelSpec
from .topology import _with_param, winding_number

DEFAULT_KAPPA = 10.0
DEFAULT_STEP = 0.01
DEFAULT_N_DENSITY = 2000
DEFAULT_BLOCK_RANGE = range(4, 15)
COND_LIMIT = 1e10


@dataclass(frozen=True)
class ScalingFit:
    """Fitted scaling-law parameters with residual diagnostics."""

    kind: str                  # "volume" or "block"
    params: tuple              # (s,) or (a, b, c)
    residual_rms: float
    points: tuple              # ((size, value), ...)


@dataclass(frozen=True)
class SusceptibilityCurve:
    """Central-difference susceptibility on the interior of a uniform grid."""

    name: str
    grid: np.ndarray           # full parameter grid
    values: np.ndarray         # quantity on the full grid
    chi_grid: np.ndarray       # interior points
    chi: np.ndarray


@dataclass(frozen=True)
class CriticalPoint:
    location: float
    jump: float
    channel: str


@dataclass(frozen=True)
class CriticalPointReport:
    points: tuple
    raw_flags: tuple           # every flagged midpoint before clustering
    threshold: float

    def locations(self) -> list[float]:
        return [p.location for p in self.points]


def fit_volume_law(sizes, values) -> ScalingFit:
    """Least-squares slope of ``S = s N`` (intercept forced to zero)."""
    sizes = np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float)
    if sizes.size < 3:
        raise InsufficientPointsError(f"need >= 3 sizes, got {sizes.size}")
    s = float(np.dot(sizes, values) / np.dot(sizes, sizes))
    resid = values - s * sizes
    return ScalingFit(kind="volume", params=(s,),
                      residual_rms=float(np.sqrt(np.mean(resid ** 2))),
                      points=tuple(zip(sizes.tolist(), values.tolist())))


def fit_block_law(lengths, values) -> ScalingFit:
    """Ordinary least squares of ``S_L = a L + b log2 L + c``."""
    lengths = np.asarray(lengths, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.unique(lengths[lengths >= 2]).size < 5:
        raise InsufficientPointsError("need >= 5 distinct block lengths >= 2")
    design = np.column_stack([lengths, np.log2(lengths), np.ones_like(lengths)])
    if np.linalg.cond(design) > COND_LIMIT:
        raise IllConditionedError("block-law design matrix is ill conditioned")
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    resid = values - design @ coef
    return ScalingFit(kind="block", params=tuple(float(c) for c in coef),
                      residual_rms=float(np.sqrt(np.mean(resid ** 2))),
                      points=tuple(zip(lengths.tolist(), values.tolist())))


def susceptibility(name: str, grid, values) -> SusceptibilityCurve:
    """Central differences ``chi_i = (q_{i+1} - q_{i-1}) / (2h)``."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    steps = np.diff(grid)
    if steps.size < 2:
        raise NonUniformGridError("need at least 3 grid points")
    h = steps[0]
    if not np.allclose(steps, h, rtol=1e-9, atol=1e-12):
        raise NonUniformGridError("grid spacing is not uniform")
    chi = (values[2:] - values[:-2]) / (2.0 * h)
    return SusceptibilityCurve(name=name, grid=grid, values=values,
                               chi_grid=grid[1:-1], chi=chi)


def detect_critical_points(curve: SusceptibilityCurve,
                           kappa: float = DEFAULT_KAPPA,
                           channel: str = "") -> CriticalPointReport:
    """Flag jumps of chi larger than ``kappa`` times the median jump.

    Adjacent flagged midpoints (one non-analyticity smeared over the
    difference stencil) merge into a single report entry.  To locate the
    point within a cluster robustly for both shapes that occur here -- a
    step of chi (volume-law channel, tailed by critical curvature) and a
    narrow spike (finite-block channels) -- the cluster is trimmed to its
    half-maximum support and the jump-weighted median midpoint of the
    remainder is reported; the jump is the cluster maximum.  Returns an
    empty report for smooth curves.
    """
    if curve.chi.size < 7:
        raise InsufficientPointsError("need >= 7 interior chi points")
    jumps = np.abs(np.diff(curve.chi))
    mids = 0.5 * (curve.chi_grid[:-1] + curve.chi_grid[1:])
    med = float(np.median(jumps))
    floor = 1e-12 * max(float(np.abs(curve.chi).max()), 1.0)
    threshold = kappa * max(med, floor)
    flagged = np.nonzero(jumps > threshold)[0]
    points = []
    raw = [float(mids[i]) for i in flagged]

    def close(cluster):
        cluster = np.asarray(cluster)
        kept = cluster[jumps[cluster] >= 0.5 * jumps[cluster].max()]
        w = jumps[kept]
        half = np.nonzero(np.cumsum(w) >= 0.5 * w.sum())[0][0]
        points.append(CriticalPoint(location=float(mids[kept[half]]),
                                    jump=float(jumps[cluster].max()),
                                    channel=channel or curve.name))

    if flagged.size:
        h = curve.grid[1] - curve.grid[0]
        cluster = [int(flagged[0])]
        for i in flagged[1:].tolist() + [-1]:
            if i >= 0 and mids[i] - mids[cluster[-1]] <= 1.5 * h:
                cluster.append(i)
            else:
                close(cluster)
                cluster = [i]
    return CriticalPointReport(points=tuple(points), raw_flags=tuple(raw),
                               threshold=threshold)


# ---------------------------------------------------------------------------
# sweep drivers
# ---------------------------------------------------------------------------

def sweep_de_density(spec: ModelSpec, name: str, values,
                     n: int = DEFAULT_N_DENSITY) -> np.ndarray:
    """``s(parameter)`` over a sweep; NaN where the grid gap closes."""
    out = np.empty(len(values))
    for i, v in enumerate(values):
        try:
            out[i] = de_density(_with_param(spec, name, v), n)
        except GaplessSpecError:
            out[i] = np.nan
    return out


def sweep_global_entanglement(spec: ModelSpec, name: str, values,
                              n: int = DEFAULT_GRID) -> np.ndarray:
    out = np.empty(len(values))
    for i, v in enumerate(values):
        try:
            out[i] = global_entanglement(_with_param(spec, name, v), n)
        except GaplessSpecError:
            out[i] = np.nan
    return out


def block_coefficients(spec: ModelSpec, basis: str = "z",
                       lengths=DEFAULT_BLOCK_RANGE,
                       n: int = DEFAULT_GRID) -> ScalingFit:
    """Fit of the block law at one parameter point."""
    lengths = list(lengths)
    kernel = correlator_kernel(spec, n=n, l_max=max(lengths))
    values = [block_diagonal_entropy(kernel, l, basis).value for l in lengths]
    return fit_block_law(lengths, values)


def sweep_block_coefficients(spec: ModelSpec, name: str, values,
                             basis: str = "z", lengths=DEFAULT_BLOCK_RANGE,
                             n: int = DEFAULT_GRID,
                             threads: int = 1) -> np.ndarray:
    """(a, b, c) block-law coefficients along a sweep; rows are grid points."""
    values = list(values)

    def one(v):
        try:
            fit = block_coefficients(_with_param(spec, name, v), basis, lengths, n)
            return fit.params
        except GaplessSpecError:
            return (np.nan, np.nan, np.nan)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(one, values))
    else:
        rows = [one(v) for v in values]
    return np.asarray(rows)


def comparative_scan(spec: ModelSpec, name: str, values,
                     channels=("s", "a", "b", "c", "E", "nu"),
                     basis: str = "z", lengths=DEFAULT_BLOCK_RANGE,
                     n_density: int = DEFAULT_N_DENSITY,
                     n_kernel: int = DEFAULT_GRID,
                     threads: int = 1) -> dict[str, np.ndarray]:
    """Aligned table of diagnostic channels over one parameter sweep."""
    values = np.asarray(values, dtype=float)
    table: dict[str, np.ndarray] = {name: values}
    if "s" in channels:
        table["s"] = sweep_de_density(spec, name, values, n_density)
    if any(c in channels for c in "abc"):
        coeffs = sweep_block_coefficients(spec, name, values, basis, lengths,
                                          n_kernel, threads)
        for i, c in enumerate("abc"):
            if c in channels:
                table[c] = coeffs[:, i]
    if "E" in channels:
        table["E"] = sweep_global_entanglement(spec, name, values, n_kernel)
    if "nu" in channels:
        nu = np.empty(values.size)
        for i, v in enumerate(values):
            try:
                nu[i] = winding_number(_with_param(spec, name, v)).nu
            except GaplessSpecError:
                nu[i] = np.nan
        table["nu"] = nu
    return table
