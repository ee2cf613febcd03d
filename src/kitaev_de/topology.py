"""Winding number of the Anderson-vector trajectory and phase-diagram scans.

The winding number is computed by accumulating branch-unwrapped angle
increments of the trajectory as k sweeps the Brillouin zone, instead of
integrating the literal ``(1/h_y) dh_z/dk`` form, which is singular wherever
``h_y = 0``.  Working with the Anderson-vector numerators ``(y, z)`` and the
increment ``atan2(z y' - y z', y y' + z z')`` gives one orientation rule for
both variants; it reproduces the reference phases (nu = 0, +-1 for the
pairing-only chain, nu = +-3 for the pairing+hopping chain at range 3) and is
cross-checked in the tests against an independent axis-crossing count.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import GaplessSpecError, NumericalWindingWarning
from .model import GAP_TOL, ModelSpec, anderson_vector, grid_numerators

DEFAULT_SAMPLES = 4096
SNAP_TOL = 0.05

_SWEEPABLE = ("mu", "delta", "j", "alpha", "beta")


@dataclass(frozen=True)
class WindingResult:
    """Raw and snapped winding number plus gap diagnostics."""

    nu_raw: float
    nu: float
    gapped: bool
    min_gap: float


@dataclass(frozen=True)
class Trajectory:
    """Unit Anderson-vector trajectory sampled over the Brillouin zone."""

    k: np.ndarray
    hy: np.ndarray
    hz: np.ndarray
    gapless: np.ndarray  # per-point flag: both numerators below tolerance


@dataclass(frozen=True)
class PhaseScan:
    """Grid of snapped winding numbers over one or two parameters."""

    x_name: str
    x_values: np.ndarray
    y_name: str | None
    y_values: np.ndarray | None
    nu: np.ndarray       # shape (ny, nx); NaN where gapless
    nu_raw: np.ndarray
    min_gap: np.ndarray

    def boundary_mask(self) -> np.ndarray:
        """Cells where nu changes towards a neighbour or the gap closed."""
        out = np.isnan(self.nu)
        diff_x = np.zeros_like(out)
        diff_x[:, :-1] |= self.nu[:, :-1] != self.nu[:, 1:]
        diff_x[:, 1:] |= self.nu[:, :-1] != self.nu[:, 1:]
        diff_y = np.zeros_like(out)
        if self.nu.shape[0] > 1:
            diff_y[:-1, :] |= self.nu[:-1, :] != self.nu[1:, :]
            diff_y[1:, :] |= self.nu[:-1, :] != self.nu[1:, :]
        return out | diff_x | diff_y


def _even_samples(samples: int) -> int:
    if samples < 256:
        raise ValueError(f"need samples >= 256, got {samples}")
    return samples + (samples % 2)


def _accumulated_turns(y: np.ndarray, z: np.ndarray) -> float:
    """Total angle swept by the numerator trajectory, in turns."""
    y2, z2 = np.roll(y, -1), np.roll(z, -1)
    cross = z * y2 - y * z2
    dot = y * y2 + z * z2
    return float(np.arctan2(cross, dot).sum() / (2.0 * np.pi))


def snap_winding(nu_raw: float) -> float:
    """Snap to the nearest half-integer; warn when the residual is large."""
    nu = round(2.0 * nu_raw) / 2.0
    if abs(nu_raw - nu) >= SNAP_TOL:
        warnings.warn(f"winding {nu_raw:.6f} is not within {SNAP_TOL} of a "
                      f"half-integer; snapped to {nu}", NumericalWindingWarning)
    return nu


def winding_number(spec: ModelSpec, samples: int = DEFAULT_SAMPLES,
                   gap_tol: float = GAP_TOL) -> WindingResult:
    """Snapped winding number of a gapped spec.

    Raises :class:`GaplessSpecError` when the minimal sampled gap is at or
    below ``gap_tol`` (the winding is undefined at a transition).  Emits a
    :class:`NumericalWindingWarning` when the accumulated value is farther
    than 0.05 from every half-integer; the snapped value is still returned.
    """
    samples = _even_samples(samples)
    _, y, z = grid_numerators(spec, samples)
    min_gap = float(np.hypot(y, z).min())
    if min_gap <= gap_tol:
        raise GaplessSpecError(f"min gap {min_gap:.3e} <= {gap_tol}; winding undefined")
    nu_raw = _accumulated_turns(y, z)
    nu = snap_winding(nu_raw)
    return WindingResult(nu_raw=nu_raw, nu=nu, gapped=True, min_gap=min_gap)


def trajectory(spec: ModelSpec, samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Densely sampled unit Anderson vector, exported for plotting."""
    samples = _even_samples(samples)
    k, y, z = grid_numerators(spec, samples)
    eps = np.hypot(y, z)
    gapless = eps <= GAP_TOL
    hy, hz = anderson_vector(spec, y, z, np.where(gapless, 1.0, eps))
    hy = np.where(gapless, np.nan, hy)
    hz = np.where(gapless, np.nan, hz)
    return Trajectory(k=k, hy=hy, hz=hz, gapless=gapless)


def _with_param(spec: ModelSpec, name: str, value: float) -> ModelSpec:
    if name not in _SWEEPABLE:
        raise ValueError(f"unknown sweep parameter {name!r}; use one of {_SWEEPABLE}")
    return replace(spec, **{name: float(value)})


def phase_boundary_scan(spec: ModelSpec, x_name: str, x_values,
                        y_name: str | None = None, y_values=None,
                        samples: int = 1024,
                        gap_tol: float = GAP_TOL) -> PhaseScan:
    """Snapped winding number over a rectangular parameter grid.

    Gapless cells are kept (NaN) rather than raised; boundary cells are those
    where nu changes between neighbours or the gap closed.
    """
    x_values = np.asarray(x_values, dtype=float)
    if y_name is None:
        y_values = np.asarray([np.nan])
    else:
        y_values = np.asarray(y_values, dtype=float)
    nu = np.full((y_values.size, x_values.size), np.nan)
    nu_raw = np.full_like(nu, np.nan)
    min_gap = np.zeros_like(nu)
    for iy, yv in enumerate(y_values):
        base = spec if y_name is None else _with_param(spec, y_name, yv)
        for ix, xv in enumerate(x_values):
            cell = _with_param(base, x_name, xv)
            try:
                res = winding_number(cell, samples=samples, gap_tol=gap_tol)
            except GaplessSpecError:
                from .model import minimum_gap
                min_gap[iy, ix] = minimum_gap(cell, samples)
                continue
            nu[iy, ix] = res.nu
            nu_raw[iy, ix] = res.nu_raw
            min_gap[iy, ix] = res.min_gap
    return PhaseScan(x_name=x_name, x_values=x_values, y_name=y_name,
                     y_values=None if y_name is None else y_values,
                     nu=nu, nu_raw=nu_raw, min_gap=min_gap)


def nu_change_locations(spec: ModelSpec, name: str, values,
                        samples: int = 1024) -> list[float]:
    """Midpoints of a 1D sweep where the snapped nu changes (or gap closes)."""
    scan = phase_boundary_scan(spec, name, values, samples=samples)
    nu = scan.nu[0]
    xs = scan.x_values
    out = []
    for i in range(len(xs) - 1):
        a, b = nu[i], nu[i + 1]
        if np.isnan(a) != np.isnan(b) or (not np.isnan(a) and a != b):
            out.append(0.5 * (xs[i] + xs[i + 1]))
    return out
