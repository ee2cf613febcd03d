"""Winding number of the Anderson-vector trajectory and phase-diagram scans.

The winding number counts the turns of the trajectory as k sweeps the
Brillouin zone, instead of integrating the literal ``(1/h_y) dh_z/dk`` form,
which is singular wherever ``h_y = 0``.  With ``phi = atan2(y, z)`` for the
Anderson-vector numerators ``(y, z)``, the sampled loop is closed, so its
angle steps telescope and the winding number is minus the signed count of
steps that wrap across the branch cut of ``atan2``: an exact integer.  This
gives one orientation rule for both variants; it reproduces the reference
phases (nu = 0, +-1 for the pairing-only chain, nu = +-3 for the
pairing+hopping chain at range 3) and is cross-checked in the tests against
an independent axis-crossing count.  ``atan2`` forms no product of the
numerators, so nothing overflows however large the couplings are.

The grid and its numerators mirror exactly, ``(y, z)(-k) = (-y, z)(k)``, so
``phi(-k) = -phi(k)`` and each step on the k < 0 half is a step on the k > 0
half.  The loop therefore wraps twice as often as the k > 0 half, plus the
wraps of the steps ``2 phi`` across k = 0 and ``-2 phi`` across k = pi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GaplessSpecError, InvalidParameterError, _integer
from .model import ModelSpec, _gapped_grid, _modes, grid_numerators

DEFAULT_SAMPLES = 4096
_TWO_PI = 2.0 * math.pi

_SWEEPABLE = ("mu", "delta", "j", "alpha", "beta")


@dataclass(frozen=True)
class WindingResult:
    """Winding number (whole; a float, as scans hold NaN) and the grid gap."""

    nu: float
    min_gap: float


@dataclass(frozen=True)
class Trajectory:
    """Unit Anderson-vector trajectory sampled over the Brillouin zone."""

    k: np.ndarray
    hy: np.ndarray
    hz: np.ndarray
    gapless: np.ndarray  # per-point flag: eps at or below GAP_TOL


@dataclass(frozen=True)
class PhaseScan:
    """Grid of winding numbers over one or two parameters."""

    x_name: str
    x_values: np.ndarray
    y_name: str | None
    y_values: np.ndarray | None
    nu: np.ndarray       # shape (ny, nx); NaN where gapless
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


def _check_samples(samples: int) -> None:
    """An even count of at least 256 samples: an odd closed-chain grid has
    an unpaired mode at pi (:func:`~kitaev_de.model.momentum_grid`)."""
    if _integer(samples, "samples", 256) % 2:
        raise InvalidParameterError("samples", f"need even samples, got {samples}")


def _winding(y: np.ndarray, z: np.ndarray) -> int:
    """Turns of the numerator trajectory over the closed grid, from the
    numerators on its k > 0 half (see the module docstring).  Each step's
    wrap is the integer its remainder modulo 2 pi nearest zero takes out:
    ``rint`` of the step in turns within the half, ``math.remainder`` across
    k = 0 and k = pi."""
    phi = np.arctan2(y, z)
    wraps = 2 * int(np.rint(np.diff(phi) / _TWO_PI).sum())
    for step in (2.0 * float(phi[0]), -2.0 * float(phi[-1])):
        wraps += round((step - math.remainder(step, _TWO_PI)) / _TWO_PI)
    return -wraps


def winding_number(spec: ModelSpec, samples: int = DEFAULT_SAMPLES) -> WindingResult:
    """Winding number of a gapped spec.

    Raises :class:`GaplessSpecError` when the minimal sampled gap is at or
    below ``GAP_TOL``, or NaN (the winding is undefined at a transition).
    """
    _check_samples(samples)
    y, z, _, gap = _gapped_grid(spec, samples)
    return WindingResult(nu=float(_winding(y, z)), min_gap=gap)


def trajectory(spec: ModelSpec, samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Densely sampled unit Anderson vector, exported for plotting."""
    _check_samples(samples)
    k, y, z = grid_numerators(spec, samples)
    _, hy, hz, gapless = _modes(spec, y, z)
    return Trajectory(k=k, hy=hy, hz=hz, gapless=gapless)


def _swept_specs(spec: ModelSpec, name: str, values) -> list[ModelSpec]:
    """``spec`` with ``name = v`` for each v: the points of one sweep, each
    built and validated once however many channels then read it."""
    if name not in _SWEEPABLE:
        raise InvalidParameterError(
            "name", f"unknown sweep parameter {name!r}; use one of {_SWEEPABLE}")
    return [replace(spec, **{name: float(v)}) for v in values]


def _sweep(specs, fn, width: int = 1) -> np.ndarray:
    """``fn(sp)`` for each spec of a :func:`_swept_specs` list, in one pass;
    NaN where the grid gap closes.  ``width`` > 1 gives one row of that many
    values per point, ``width`` = 1 a flat array."""
    out = np.full((len(specs), width) if width > 1 else len(specs), np.nan)
    for i, sp in enumerate(specs):
        try:
            out[i] = fn(sp)
        except GaplessSpecError:
            pass
    return out


def phase_boundary_scan(spec: ModelSpec, x_name: str, x_values,
                        y_name: str | None = None, y_values=None,
                        samples: int = 1024) -> PhaseScan:
    """Winding number over a rectangular parameter grid.

    Gapless cells are kept (NaN in every field) rather than raised; boundary
    cells are those where nu changes between neighbours or the gap closed.
    """
    def cell(sp):
        res = winding_number(sp, samples=samples)
        return res.nu, res.min_gap

    x_values = np.asarray(x_values, dtype=float)
    y_values = None if y_name is None else np.asarray(y_values, dtype=float)
    rows = [spec] if y_name is None else _swept_specs(spec, y_name, y_values)
    grid = np.array([_sweep(_swept_specs(row, x_name, x_values), cell, 2)
                     for row in rows])
    grid = grid.reshape(len(rows), x_values.size, 2)  # also for no rows
    return PhaseScan(x_name=x_name, x_values=x_values, y_name=y_name,
                     y_values=y_values, nu=grid[..., 0], min_gap=grid[..., 1])


def nu_change_locations(spec: ModelSpec, name: str, values,
                        samples: int = 1024) -> list[float]:
    """Midpoints of a 1D sweep where nu changes (or the gap closes)."""
    xs = np.asarray(values, dtype=float)
    nu = _sweep(_swept_specs(spec, name, xs),
                lambda sp: winding_number(sp, samples=samples).nu)
    gapless = np.isnan(nu)
    changed = (nu[:-1] != nu[1:]) & ~(gapless[:-1] & gapless[1:])
    return (0.5 * (xs[:-1] + xs[1:]))[changed].tolist()
