"""Winding number and trajectory of the Anderson vector.

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

The scans of nu over parameters live in :mod:`kitaev_de.analysis` and read
it here, on the default grid of :data:`DEFAULT_SAMPLES` samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GaplessSpecError, InvalidParameterError, _integer
from .model import ModelSpec, _gapped_grid, _modes, grid_numerators

DEFAULT_SAMPLES = 4096


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


def _check_samples(samples: int) -> None:
    """An even count of at least 256 samples: an odd closed-chain grid has
    an unpaired mode at pi (:func:`~kitaev_de.model.momentum_grid`)."""
    if _integer(samples, "samples", 256) % 2:
        raise InvalidParameterError("samples", f"need even samples, got {samples}")


def _winding(y: np.ndarray, z: np.ndarray) -> int:
    """Turns of the numerator trajectory over the closed grid, from the
    numerators on its k > 0 half (see the module docstring).  Every step of
    the loop lies in [-2 pi, 2 pi], so it wraps across the branch cut exactly
    when its size exceeds pi, and then takes one turn out against its sign.
    A step of exactly pi (half a turn) has a chord through the origin and no
    direction, so the winding is undefined: :class:`GaplessSpecError`."""
    phi = np.arctan2(y, z)
    steps = np.diff(phi)
    half = steps[np.abs(steps) >= math.pi].tolist()
    ends = [2.0 * float(phi[0]), -2.0 * float(phi[-1])]  # across k = 0, pi
    # each step on the half is also a step on its mirror (module docstring)
    cut = 2 * half + [step for step in ends if abs(step) >= math.pi]
    if math.pi in map(abs, cut):
        raise GaplessSpecError("a step of the numerator loop is exactly half a "
                               "turn: the winding is undefined")
    return sum(1 if step < 0 else -1 for step in cut)


def winding_number(spec: ModelSpec, samples: int = DEFAULT_SAMPLES) -> WindingResult:
    """Winding number of a gapped spec.

    Raises :class:`GaplessSpecError` when the minimal sampled gap is at or
    below ``GAP_TOL``, or NaN (the winding is undefined at a transition),
    and when a step of the sampled loop is exactly half a turn (as for a
    chain without pairing whose band crosses zero between grid points).
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
