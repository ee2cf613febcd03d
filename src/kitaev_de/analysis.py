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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .entropy import _block_entropies, _block_lengths, de_density, global_entanglement
from .errors import (IllConditionedError, InsufficientPointsError,
                     InvalidParameterError, NonUniformGridError)
from .gaussian import correlator_kernel
from .model import DEFAULT_GRID, ModelSpec
from .topology import _sweep, _swept_specs, winding_number

DEFAULT_KAPPA = 10.0
DEFAULT_N_DENSITY = 2000
DEFAULT_BLOCK_RANGE = range(4, 15)
COND_LIMIT = 1e10
CHANNELS = ("s", "a", "b", "c", "E", "nu")


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


def _paired(points, values, param: str) -> tuple[np.ndarray, np.ndarray]:
    """``points`` and ``values`` as 1-D float arrays of one length, one value
    per point; :class:`InvalidParameterError` ``param`` unless the points
    are 1-D, else ``values`` unless they pair up."""
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    if points.ndim != 1:
        raise InvalidParameterError(
            param, f"need a 1-D sequence of points, got shape {points.shape}")
    if values.shape != points.shape:
        raise InvalidParameterError(
            "values", f"need one value per point: {values.shape} != {points.shape}")
    return points, values


def _check_finite(values: np.ndarray) -> None:
    """:class:`InvalidParameterError` ``values`` unless every value is
    finite; a fit would return NaN parameters or warn."""
    if not np.isfinite(values).all():
        raise InvalidParameterError("values", "every value must be finite")


def fit_volume_law(sizes, values) -> ScalingFit:
    """Least-squares slope of ``S = s N`` (intercept forced to zero)."""
    sizes, values = _paired(sizes, values, "sizes")
    if sizes.size < 3:
        raise InsufficientPointsError(f"need >= 3 sizes, got {sizes.size}")
    if not ((sizes > 0) & (sizes < np.inf)).all():  # NaN fails too
        raise InvalidParameterError("sizes", "every size must be positive and finite")
    _check_finite(values)
    s = float(np.dot(sizes, values) / np.dot(sizes, sizes))
    resid = values - s * sizes
    return ScalingFit(kind="volume", params=(s,),
                      residual_rms=float(np.sqrt(np.mean(resid ** 2))),
                      points=tuple(zip(sizes.tolist(), values.tolist())))


@lru_cache(maxsize=32)
def _block_solver(lengths: tuple) -> tuple[np.ndarray, np.ndarray | None, bool]:
    """``(design, pinv, conditioned)`` of the block law on ``lengths``: the
    read-only design matrix, its SVD pseudo-inverse and whether its 2-norm
    condition number is at most :data:`COND_LIMIT`.  The pseudo-inverse is
    None when it is not, so that no division by a zero singular value warns.
    It depends on the lengths alone, so a sweep builds it once."""
    lengths = np.array(lengths)
    if np.unique(lengths[lengths >= 2]).size < 5:
        raise InsufficientPointsError("need >= 5 distinct block lengths >= 2")
    if (lengths <= 0).any():  # NaN passes on to the finiteness check
        raise InvalidParameterError("lengths", "every block length must be positive")
    design = np.column_stack([lengths, np.log2(lengths), np.ones_like(lengths)])
    if not np.isfinite(design).all():  # LAPACK's SVD may not return
        raise IllConditionedError("block-law design matrix is not finite")
    design.flags.writeable = False
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    if not sv[0] <= COND_LIMIT * sv[-1]:  # 2-norm condition number
        return design, None, False
    pinv = (vt.T / sv) @ u.T
    pinv.flags.writeable = False
    return design, pinv, True


def fit_block_law(lengths, values) -> ScalingFit:
    """Least squares of ``S_L = a L + b log2 L + c``: the coefficients are
    the design's pseudo-inverse, cached per length set, times ``values``,
    refined once by the pseudo-inverse times the residual.

    Raises :class:`InsufficientPointsError` on fewer than 5 distinct lengths
    >= 2, :class:`InvalidParameterError` on a length <= 0 or a non-finite
    value, and :class:`IllConditionedError` on a non-finite design or one
    whose condition number exceeds :data:`COND_LIMIT`.
    """
    lengths, values = _paired(lengths, values, "lengths")
    design, pinv, conditioned = _block_solver(tuple(lengths.tolist()))
    _check_finite(values)
    if not conditioned:
        raise IllConditionedError("block-law design matrix is ill conditioned")
    coef = pinv @ values
    # one refinement step: the product alone is off the exact least squares
    # by up to about 2e-14, the refined coefficients by a few 1e-15
    resid = values - design @ coef
    coef += pinv @ resid
    resid = values - design @ coef
    return ScalingFit(kind="block", params=tuple(float(c) for c in coef),
                      residual_rms=float(np.sqrt(np.mean(resid ** 2))),
                      points=tuple(zip(lengths.tolist(), values.tolist())))


def susceptibility(name: str, grid, values) -> SusceptibilityCurve:
    """Central differences ``chi_i = (q_{i+1} - q_{i-1}) / (2h)``."""
    grid, values = _paired(grid, values, "grid")
    steps = np.diff(grid)
    if steps.size < 2:
        raise NonUniformGridError("need at least 3 grid points")
    h = steps[0]
    if not (np.isfinite(h) and h != 0.0):
        raise NonUniformGridError(f"grid spacing must be finite and nonzero, got {h}")
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

    The threshold comes from the finite jumps only (none: raises).  Each run
    of non-finite values, where the gap closed on the grid, is one more point
    at the run's mean grid value with an infinite jump; all in grid order.
    """
    if not 0 < kappa < np.inf:
        raise InvalidParameterError("kappa", f"need a finite kappa > 0, got {kappa}")
    if curve.chi.size < 7:
        raise InsufficientPointsError("need >= 7 interior chi points")
    jumps = np.abs(np.diff(curve.chi))
    finite = np.isfinite(jumps)
    if not finite.any():
        raise InsufficientPointsError("no finite jump of chi")
    mids = 0.5 * (curve.chi_grid[:-1] + curve.chi_grid[1:])
    med = float(np.median(jumps[finite]))
    chi = curve.chi[np.isfinite(curve.chi)]
    floor = 1e-12 * max(float(np.abs(chi).max()), 1.0)
    threshold = kappa * max(med, floor)
    flagged = np.nonzero(finite & (jumps > threshold))[0]
    h = curve.grid[1] - curve.grid[0]
    gaps = np.nonzero(np.abs(np.diff(mids[flagged])) > 1.5 * abs(h))[0] + 1
    points = []
    for cluster in np.split(flagged, gaps) if flagged.size else []:
        kept = cluster[jumps[cluster] >= 0.5 * jumps[cluster].max()]
        w = jumps[kept]
        half = np.nonzero(np.cumsum(w) >= 0.5 * w.sum())[0][0]
        points.append(CriticalPoint(location=float(mids[kept[half]]),
                                    jump=float(jumps[cluster].max()),
                                    channel=channel or curve.name))
    closed = np.concatenate(([0], ~np.isfinite(curve.values), [0]))
    runs = np.flatnonzero(np.diff(closed)).reshape(-1, 2)
    points += [CriticalPoint(location=float(curve.grid[lo:hi].mean()), jump=np.inf,
                             channel=channel or curve.name) for lo, hi in runs]
    points.sort(key=lambda p: p.location, reverse=bool(h < 0))
    return CriticalPointReport(points=tuple(points),
                               raw_flags=tuple(mids[flagged].tolist()),
                               threshold=threshold)


# ---------------------------------------------------------------------------
# block-law points and the sweep driver
# ---------------------------------------------------------------------------

def block_coefficients(spec: ModelSpec, basis: str = "z",
                       lengths=DEFAULT_BLOCK_RANGE,
                       n: int = DEFAULT_GRID) -> ScalingFit:
    """Fit of the block law at one parameter point; every block entropy
    comes from one chain-rule pass over the longest block."""
    lengths = _block_lengths(lengths)
    kernel = correlator_kernel(spec, n=n, l_max=max(lengths))
    return fit_block_law(lengths, _block_entropies(kernel, lengths, basis))


def comparative_scan(spec: ModelSpec, name: str, values,
                     channels=CHANNELS,
                     basis: str = "z", lengths=DEFAULT_BLOCK_RANGE,
                     n_density: int = DEFAULT_N_DENSITY,
                     n_kernel: int = DEFAULT_GRID) -> dict[str, np.ndarray]:
    """Aligned table of diagnostic channels over one parameter sweep: the
    package's one 1-D sweep driver of the channels in :data:`CHANNELS`.

    Each point's spec is built once, and each requested channel is one pass
    over that list (``a``, ``b`` and ``c`` share theirs), NaN where the grid
    gap closes.  ``s`` reads the ``n_density``-point grid; ``a``, ``b``,
    ``c`` (blocks of ``lengths`` in ``basis``) and ``E`` read the
    ``n_kernel``-point grid; ``nu`` reads :func:`winding_number`'s default
    of 4096 samples.  Raises :class:`InvalidParameterError` on a channel not
    in :data:`CHANNELS`, or on a string, which would iterate by character.
    """
    if isinstance(channels, str):
        raise InvalidParameterError(
            "channels", f"need a collection of channel names, got the string {channels!r}")
    unknown = sorted(set(channels) - set(CHANNELS))
    if unknown:
        raise InvalidParameterError(
            "channels", f"unknown channels {unknown}; expected names from {CHANNELS}")
    values = np.asarray(values, dtype=float)
    table: dict[str, np.ndarray] = {name: values}
    specs = _swept_specs(spec, name, values)
    if "s" in channels:
        table["s"] = _sweep(specs, lambda sp: de_density(sp, n_density))
    if any(c in channels for c in "abc"):
        coeffs = _sweep(
            specs, lambda sp: block_coefficients(sp, basis, lengths, n_kernel).params, 3)
        for i, c in enumerate("abc"):
            if c in channels:
                table[c] = coeffs[:, i]
    if "E" in channels:
        table["E"] = _sweep(specs, lambda sp: global_entanglement(sp, n_kernel))
    if "nu" in channels:
        table["nu"] = _sweep(specs, lambda sp: winding_number(sp).nu)
    return table
