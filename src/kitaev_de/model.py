"""Extended Kitaev chains: exact momentum-space solutions and coupling weights.

Two chain families are supported:

* ``Variant.LONG_RANGE_PAIRING`` -- nearest-neighbour hopping ``-J/2`` and
  power-law pairing ``(Delta/2) d_l^(-alpha)`` over every distance ``l``.
* ``Variant.LONG_RANGE_PAIRING_HOPPING`` -- both pairing ``Delta`` and hopping
  ``J`` decay as power laws, truncated at a maximal range ``r``.

Closed chains use antiperiodic boundary conditions (momenta
``k_n = (2*pi/N)(n + 1/2)``) and the ring distance ``d_l = min(l, N - l)``;
open-chain helpers elsewhere in the package use ``d_l = l``.

The closed-chain symbol is stored in one form: the harmonic sums on the
n/2 momenta k > 0, cached per ``(n, alpha, beta, r)``.  The ground state
factorises over ``(k, -k)`` pairs, so the gap checks and the reductions built
on them -- the diagonal entropy s, the global entanglement E, the winding
number, the pair-correlation kernel ``G_R`` and :func:`minimum_gap` -- read
only that half (through :func:`_gapped_grid`).  The full grid is the half
plus its exact mirror, odd for the pairing sum and even for the hopping sum,
so ``(y, z)(-k) = (-y, z)(k)`` holds bit for bit; only :func:`grid_numerators`
(for the per-mode results) and :func:`momentum_grid` build it.

Conventions
-----------
Every mode is described by the numerator pair ``(y, z)`` of the Anderson
vector, with ``eps = |z + i y|`` the (positive-branch) quasiparticle energy:

* pairing-only variant:    ``y = (Delta/2) f_alpha(k)``, ``z = J cos k + mu``
* pairing+hopping variant: ``y = Delta sum_l sin(kl) d_l^(-alpha)``,
  ``z = mu/2 + J sum_l cos(kl) d_l^(-beta)``

so pairing decays with ``alpha`` and hopping with ``beta`` in both the closed
and the open chain (:func:`open_chain_weights`).  Every weight is
``d ** -exponent`` of its distance, an infinite exponent included: IEEE
``pow`` gives ``1 ** -inf = 1`` and ``d ** -inf = 0`` for ``d > 1``, so at
``alpha = inf`` (or ``beta = inf``) only the distance-1 bonds remain, on the
ring (``l = 1`` and ``l = N - 1``) and on the open chain alike.

The Bogoliubov angle is fixed as ``theta = atan2(y, -z) / 2`` so that
``sin(theta)^2`` is the occupation probability of the ``(k, -k)`` pair in the
ground state and the pair-correlation kernel ``G_R`` built from
``exp(-2i*theta)`` equals ``<A_a B_b>`` with ``A = c^dag + c``,
``B = c^dag - c`` and ``R = b - a``.  The choice is pinned by the
exact-diagonalization cross-checks in the test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (GaplessSpecError, InvalidParameterError, SpectrumOverflowError,
                     _integer, _real)

GAP_TOL = 1e-8  # quasiparticle energies at or below this count as gapless
DEFAULT_GRID = 8192  # antiperiodic grid size for kernels and global entanglement


class Variant(Enum):
    """Which extended chain a :class:`ModelSpec` describes."""

    LONG_RANGE_PAIRING = "pairing"
    LONG_RANGE_PAIRING_HOPPING = "pairing_hopping"


@dataclass(frozen=True)
class ModelSpec:
    """Couplings of one extended Kitaev chain.

    ``beta`` and ``r`` belong to the pairing+hopping variant only; the
    constructor rejects them for the pairing-only variant and requires them
    otherwise, so a valid instance never carries meaningless fields.
    Every coupling is a real number (not a bool); ``j``, ``delta`` and ``mu``
    must be finite, and ``alpha`` and ``beta`` may be infinite (the
    nearest-neighbour limit); ``variant`` must be a :class:`Variant`
    member.  A rejected field raises an :class:`InvalidParameterError`
    naming it, checked in declaration order.  An accepted instance holds the
    checked values: a Python ``float`` for every coupling and an ``int``
    for ``r``, whatever real or integer type was passed.
    """

    variant: Variant
    j: float = 1.0
    delta: float = 1.0
    mu: float = 0.0
    alpha: float = math.inf
    beta: float | None = None
    r: int | None = None

    def __post_init__(self):
        if not isinstance(self.variant, Variant):
            raise InvalidParameterError(
                "variant", f"variant must be a Variant member, got {self.variant!r}")
        checked = {}
        for name in ("j", "delta", "mu"):
            checked[name] = _real(getattr(self, name), name)
            if not math.isfinite(checked[name]):
                raise InvalidParameterError(
                    name, f"{name} must be finite, got {getattr(self, name)}")
        checked["alpha"] = _real(self.alpha, "alpha")
        if not checked["alpha"] >= 0:
            raise InvalidParameterError("alpha", f"alpha must be >= 0, got {self.alpha}")
        if self.variant is Variant.LONG_RANGE_PAIRING:
            if self.beta is not None or self.r is not None:
                raise InvalidParameterError(
                    "beta" if self.beta is not None else "r",
                    "beta/r are not part of the pairing-only variant")
        else:
            if self.beta is None or not _real(self.beta, "beta") >= 0:
                raise InvalidParameterError(
                    "beta", f"beta must be a nonnegative real, got {self.beta}")
            checked.update(beta=_real(self.beta, "beta"), r=_integer(self.r, "r", 1))
        for name, value in checked.items():  # the checked float or int, not the raw value
            object.__setattr__(self, name, value)

    @classmethod
    def pairing(cls, j=1.0, delta=1.0, mu=0.0, alpha=math.inf):
        return cls(Variant.LONG_RANGE_PAIRING, j, delta, mu, alpha)

    @classmethod
    def pairing_hopping(cls, j=1.0, delta=1.0, mu=0.0, alpha=0.2, beta=0.2, r=3):
        return cls(Variant.LONG_RANGE_PAIRING_HOPPING, j, delta, mu, alpha, beta, r)


@dataclass(frozen=True)
class ModeData:
    """Solution of one momentum mode: energy, unit Anderson vector, angle."""

    k: float
    epsilon: float
    hy: float
    hz: float
    theta: float
    gapless: bool = False  # eps <= GAP_TOL; vector and angle are then NaN


def _positive_momenta(n: int) -> np.ndarray:
    """The n/2 momenta ``kp = (2*pi/N)(m + 1/2)``, ``m < N/2``, of the
    antiperiodic grid: ascending in (0, pi), no point at 0 or pi.  Odd chain
    lengths would place an unpaired mode exactly at pi, which breaks the
    (k, -k) pair structure every closed-chain quantity relies on, so they
    are rejected."""
    if _integer(n, "n", 2) % 2:
        raise InvalidParameterError("n", f"need an even chain length, got {n}")
    return (2.0 * np.pi / n) * (np.arange(n // 2) + 0.5)


def momentum_grid(n: int) -> np.ndarray:
    """Antiperiodic grid ``k_n = (2*pi/N)(n + 1/2)`` mapped into (-pi, pi).

    Built from its positive half (:func:`_positive_momenta`) as
    ``(-kp[::-1], kp)``: sorted ascending, no point at 0 or +-pi, and every
    momentum paired with its exact negative, ``k[::-1] == -k`` bit for bit.
    """
    kp = _positive_momenta(n)
    return np.concatenate((-kp[::-1], kp))


def _range_weights(exponent: float, r: int | None, n: int) -> np.ndarray:
    """Weights ``d_l^(-exponent)`` for ``l = 1..r`` on an n-site ring, with
    the ring distance ``d_l = min(l, n - l)``.  ``r = None`` is every range,
    ``r = n - 1``, as in the pairing-only variant.  A range that reaches the
    ring's length (``r >= n``) has no ring distance."""
    r = n - 1 if r is None else r
    if r >= n:
        raise InvalidParameterError(
            "r", f"range r = {r} must be below the {n} sites of the closed chain")
    l = np.arange(1.0, r + 1)
    return np.minimum(l, n - l) ** -exponent


def _symbol_coefficients(spec: ModelSpec):
    """``(c_y, c_z, c_0)`` with ``y = c_y sin_sum`` and
    ``z = c_z cos_sum + c_0`` (see the module docstring); the cosine sum is
    the bare cos k when ``spec.beta`` is None."""
    if spec.variant is Variant.LONG_RANGE_PAIRING:
        return 0.5 * spec.delta, spec.j, spec.mu
    return spec.delta, spec.j, 0.5 * spec.mu


def _harmonic_sum(weights: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``sum_l w_l exp(i k l)`` for arbitrary momenta (direct evaluation)."""
    l = np.arange(1, len(weights) + 1)
    return np.exp(1j * np.multiply.outer(np.asarray(k, dtype=float), l)) @ weights.astype(complex)


@lru_cache(maxsize=64)
def _grid_harmonics(n: int, alpha: float, beta: float | None, r: int | None):
    """The k > 0 half of the grid plus the harmonic sums entering (y, z) there.

    Returns ``(kp, sin_sum, cos_sum, peaks)`` on the n/2 momenta
    :func:`_positive_momenta`, all read-only: the sums carry the ring
    weights :func:`_range_weights` of ``alpha`` (sine) and ``beta`` (cosine)
    up to range ``r``; ``beta = r = None`` is the pairing-only chain, every
    range and the bare cos k.  ``peaks`` holds their largest magnitudes,
    which the mirrored k < 0 half shares.  One FFT each, of which the first
    n/2 outputs are the k > 0 momenta.  The key holds only ints, floats and
    None, whose hashes are C-level.
    """
    kp = _positive_momenta(n)

    def grid_sum(exponent):
        weights = _range_weights(exponent, r, n)
        u = np.zeros(n, dtype=complex)
        l = np.arange(1, len(weights) + 1)
        u[l % n] += weights * np.exp(1j * np.pi * l / n)
        # value at k_m = 2*pi*(m + 1/2)/n is sum_l u_l e^{2*pi*i*m*l/n};
        # m < n/2 are the momenta in (0, pi)
        return (n * np.fft.ifft(u))[:n // 2]

    sin_sum = np.ascontiguousarray(grid_sum(alpha).imag)
    cos_sum = np.cos(kp) if beta is None else np.ascontiguousarray(grid_sum(beta).real)
    for arr in (kp, sin_sum, cos_sum):
        arr.flags.writeable = False
    peaks = (float(np.abs(sin_sum).max()), float(np.abs(cos_sum).max()))
    return kp, sin_sum, cos_sum, peaks


def _numerators(spec: ModelSpec, n: int):
    """Anderson-vector numerators ``(k, y, z)`` on the n/2 momenta ``k > 0``
    of the n-point grid, by the rule ``y = c_y sin_sum``,
    ``z = c_z cos_sum + c_0``.  :class:`SpectrumOverflowError` when the peak
    harmonic sums bound ``hypot(y, z)`` by more than the float range."""
    cy, cz, c0 = _symbol_coefficients(spec)
    n = _integer(n, "n", 2)  # before the cache, which takes 64.0 for the key 64
    k, sin_sum, cos_sum, (sin_peak, cos_peak) = _grid_harmonics(n, spec.alpha, spec.beta, spec.r)
    if not math.isfinite(math.hypot(abs(cy) * sin_peak, abs(cz) * cos_peak + abs(c0))):
        raise SpectrumOverflowError("the couplings overflow hypot(y, z)")
    return k, cy * sin_sum, cz * cos_sum + c0


def grid_numerators(spec: ModelSpec, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anderson-vector numerators ``(k, y, z)`` on the full antiperiodic grid:
    the k > 0 half and its mirror, ``(k, y, z)(-k) = (-k, -y, z)(k)`` bit for
    bit.  :class:`SpectrumOverflowError` when the peak harmonic sums bound
    ``hypot(y, z)`` by more than the float range."""
    k, y, z = _numerators(spec, n)
    return (np.concatenate((-k[::-1], k)), np.concatenate((-y[::-1], y)),
            np.concatenate((z[::-1], z)))


def _energies(y, z) -> np.ndarray:
    """Quasiparticle energies ``eps = |z + i y|`` of numerator arrays.

    numpy's complex modulus scales like ``hypot``, so it overflows only where
    the energy itself exceeds the float range, and it runs vectorised where
    the real ``hypot`` ufunc makes one libm call per element.
    """
    w = np.empty(np.shape(y), complex)
    w.real, w.imag = z, y
    return np.abs(w)


def _gapped_grid(spec: ModelSpec, n: int):
    """``(y, z, eps, gap)`` on the n/2 momenta ``k > 0`` of the n-point grid,
    with ``gap`` the minimum of ``eps``; :class:`GaplessSpecError` unless
    it is above ``GAP_TOL`` (NaN fails too).

    The cache holds this half alone; :func:`grid_numerators` mirrors it,
    ``(y, z)(-k) = (-y, z)(k)``, so the energies are even and the half holds
    every closed-chain reduction: one term per ``(k, -k)`` pair, and the
    whole grid's minimum gap to the last bit.
    """
    _, y, z = _numerators(spec, n)
    eps = _energies(y, z)
    gap = float(eps.min())
    if not gap > GAP_TOL:
        raise GaplessSpecError(f"min grid gap {gap:.3e} <= {GAP_TOL}")
    return y, z, eps, gap


def _modes(spec: ModelSpec, y, z):
    """``(eps, hy, hz, gapless)`` of numerator arrays: the energies, the
    unit Anderson vector (NaN where gapless) and the mask ``eps <= GAP_TOL``."""
    eps = _energies(y, z)
    gapless = eps <= GAP_TOL
    safe = np.where(gapless, np.nan, eps)
    sign = -1.0 if spec.variant is Variant.LONG_RANGE_PAIRING else 1.0
    return eps, sign * y / safe, -z / safe, gapless


def numerators_at(spec: ModelSpec, k, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(y, z)`` at arbitrary momenta (direct sums; same weights as the grid)."""
    k = np.asarray(k, dtype=float)
    cy, cz, c0 = _symbol_coefficients(spec)
    sin_sum = _harmonic_sum(_range_weights(spec.alpha, spec.r, n), k).imag
    cos_sum = (np.cos(k) if spec.beta is None
               else _harmonic_sum(_range_weights(spec.beta, spec.r, n), k).real)
    return cy * sin_sum, cz * cos_sum + c0


def bogoliubov_theta(y, z):
    """Bogoliubov angle: ``sin^2(theta)`` is the (k,-k) pair occupation."""
    return 0.5 * np.arctan2(y, -z)


def dispersion(spec: ModelSpec, k: float, n: int) -> ModeData:
    """Solve a single momentum mode.

    Raises :class:`GaplessSpecError` when ``eps <= GAP_TOL``, i.e. the gap
    closes at this momentum; callers decide how to proceed.
    """
    n = _integer(n, "n", 2)
    if not (-np.pi < k <= np.pi):
        raise InvalidParameterError("k", f"k must lie in (-pi, pi], got {k}")
    y, z = numerators_at(spec, float(k), n)
    eps, hy, hz, gapless = _modes(spec, y, z)
    if gapless:
        raise GaplessSpecError(f"gap {float(eps):.3e} <= {GAP_TOL} at k={k!r}")
    return ModeData(k=float(k), epsilon=float(eps), hy=float(hy), hz=float(hz),
                    theta=float(bogoliubov_theta(y, z)))


def solve_chain(spec: ModelSpec, n: int) -> list[ModeData]:
    """Solve every mode of the antiperiodic grid, ordered by k.

    Gap closings are not fatal here: a mode with ``eps <= GAP_TOL`` is
    returned with ``gapless=True`` and NaN angle/vector.
    """
    k, y, z = grid_numerators(spec, n)
    eps, hy, hz, gapless = _modes(spec, y, z)
    theta = np.where(gapless, np.nan, bogoliubov_theta(y, z))
    return list(map(ModeData, k.tolist(), eps.tolist(), hy.tolist(), hz.tolist(),
                    theta.tolist(), gapless.tolist()))


def minimum_gap(spec: ModelSpec, n: int) -> float:
    """``min_k eps_k`` over the antiperiodic grid of n momenta, read from its
    k > 0 half, whose energies the k < 0 half mirrors exactly."""
    _, y, z = _numerators(spec, n)
    return float(_energies(y, z).min())


def open_chain_weights(spec: ModelSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Open-chain hopping/pairing strengths per distance ``l = 1..n-1``.

    Uses the open-chain distance ``d_l = l``.  Returns ``(hop, pair)`` where
    the Hamiltonian carries ``-hop_l (c^dag_j c_{j+l} + h.c.)`` and
    ``+pair_l (c_j c_{j+l} + h.c.)``.  A one-site chain has no distance and
    gets empty arrays; fewer sites raise an :class:`InvalidParameterError`
    naming ``n``.
    """
    n = _integer(n, "n", 1)
    l = np.arange(1, n, dtype=float)
    hop = np.zeros(n - 1)
    if spec.variant is Variant.LONG_RANGE_PAIRING:
        hop[:1] = 0.5 * spec.j
        return hop, 0.5 * spec.delta * l ** -spec.alpha
    pair = np.zeros(n - 1)
    lr = l[:spec.r]
    hop[:lr.size] = spec.j * lr ** -spec.beta
    pair[:lr.size] = spec.delta * lr ** -spec.alpha
    return hop, pair

