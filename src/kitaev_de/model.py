"""Extended Kitaev chains: exact momentum-space solutions and coupling weights.

Two chain families are supported:

* ``Variant.LONG_RANGE_PAIRING`` -- nearest-neighbour hopping ``-J/2`` and
  power-law pairing ``(Delta/2) d_l^(-alpha)`` over every distance ``l``.
* ``Variant.LONG_RANGE_PAIRING_HOPPING`` -- both pairing ``Delta`` and hopping
  ``J`` decay as power laws, truncated at a maximal range ``r``.

Closed chains use antiperiodic boundary conditions (momenta
``k_n = (2*pi/N)(n + 1/2)``) and the ring distance ``d_l = min(l, N - l)``;
open-chain helpers elsewhere in the package use ``d_l = l``.

The closed-chain grid is its k > 0 half plus that half's exact mirror
(:func:`momentum_grid`), and the harmonic sums are mirrored with it, odd for
the pairing sum and even for the hopping sum, so ``(y, z)(-k) = (-y, z)(k)``
holds bit for bit.  The ground state factorises over ``(k, -k)`` pairs, so
the gap checks and the reductions built on them -- the diagonal entropy s,
the global entanglement E, the winding number and :func:`minimum_gap` --
scale and read only the k > 0 half of the cached harmonic sums
(:func:`_numerators` with ``positive``, through :func:`_gapped_grid`);
per-mode results and :func:`grid_numerators` keep the full grid.

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
    naming it, checked in declaration order.
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
        for name in ("j", "delta", "mu"):
            if not math.isfinite(_real(getattr(self, name), name)):
                raise InvalidParameterError(
                    name, f"{name} must be finite, got {getattr(self, name)}")
        if not _real(self.alpha, "alpha") >= 0:
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
            _integer(self.r, "r", 1)

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


def momentum_grid(n: int) -> np.ndarray:
    """Antiperiodic grid ``k_n = (2*pi/N)(n + 1/2)`` mapped into (-pi, pi).

    Built from its positive half ``kp = (2*pi/N)(m + 1/2)``, ``m < N/2``, as
    ``(-kp[::-1], kp)``: sorted ascending, no point at 0 or +-pi, and every
    momentum paired with its exact negative, ``k[::-1] == -k`` bit for bit.
    Odd chain lengths would place an unpaired mode exactly at pi, which
    breaks the (k, -k) pair structure every closed-chain quantity relies on,
    so they are rejected.
    """
    if _integer(n, "n", 2) % 2:
        raise InvalidParameterError("n", f"need an even chain length, got {n}")
    kp = (2.0 * np.pi / n) * (np.arange(n // 2) + 0.5)
    return np.concatenate((-kp[::-1], kp))


@lru_cache(maxsize=128)
def _range_weights(exponent: float, r: int, n: int) -> np.ndarray:
    """Weights ``d_l^(-exponent)`` for ``l = 1..r`` on an n-site ring, with
    the ring distance ``d_l = min(l, n - l)``.  The pairing-only variant uses
    every range, ``r = n - 1``.  A range that reaches the ring's length
    (``r >= n``) has no ring distance.  Cached though it runs only when
    ``_grid_harmonics`` misses: freed arrays let glibc trim and re-fault
    130-150 pages per benchmark block-z point (see ROADMAP)."""
    if r >= n:
        raise InvalidParameterError(
            "r", f"range r = {r} must be below the {n} sites of the closed chain")
    l = np.arange(1.0, r + 1)
    w = np.minimum(l, n - l) ** -exponent
    w.flags.writeable = False
    return w


def _ring_weights(n: int, alpha: float, *hopping):
    """Ring weights of the sine (pairing) sum with alpha and of the cosine
    (hopping) sum with ``hopping = (beta, r)``; no hopping terms: the
    pairing-only chain, every range and the bare cos k (``None``)."""
    if not hopping:
        return _range_weights(alpha, n - 1, n), None
    beta, r = hopping
    return _range_weights(alpha, r, n), _range_weights(beta, r, n)


def _coefficients(spec: ModelSpec):
    """``(c_y, c_z, c_0, hopping)`` with ``y = c_y sin_sum`` and
    ``z = c_z cos_sum + c_0`` (see the module docstring), and ``hopping``
    the :func:`_ring_weights` terms of the cosine sum."""
    if spec.variant is Variant.LONG_RANGE_PAIRING:
        return 0.5 * spec.delta, spec.j, spec.mu, ()
    return spec.delta, spec.j, 0.5 * spec.mu, (spec.beta, spec.r)


def _harmonic_sum(weights: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``sum_l w_l exp(i k l)`` for arbitrary momenta (direct evaluation)."""
    l = np.arange(1, len(weights) + 1)
    return np.exp(1j * np.multiply.outer(np.asarray(k, dtype=float), l)) @ weights.astype(complex)


@lru_cache(maxsize=64)
def _grid_harmonics(n: int, alpha: float, *hopping):
    """Sorted grid plus the harmonic sums entering (y, z) on the full grid.

    Returns ``(k_sorted, sin_sum, cos_sum, peaks)``: the sums carry the model's
    distance weights, ``peaks`` their largest magnitudes.  One FFT each; the
    k < 0 half is then overwritten with the mirror of the k > 0 half, odd for
    the sine sum and even for the cosine sum, so ``(y, z)(-k) = (-y, z)(k)``
    holds exactly.  The key holds only ints and floats (``hopping`` as in
    :func:`_ring_weights`), whose hashes are C-level and the same on every
    run.
    """
    k_sorted = momentum_grid(n)
    ws, wc = _ring_weights(n, alpha, *hopping)

    def grid_sum(weights):
        u = np.zeros(n, dtype=complex)
        l = np.arange(1, len(weights) + 1)
        u[l % n] += weights * np.exp(1j * np.pi * l / n)
        # value at k_m = 2*pi*(m + 1/2)/n is sum_l u_l e^{2*pi*i*m*l/n};
        # the shift moves m >= n/2 (k > pi, mapped below 0) to the front
        return np.fft.fftshift(n * np.fft.ifft(u))

    sin_sum = np.ascontiguousarray(grid_sum(ws).imag)
    cos_sum = np.ascontiguousarray(grid_sum(wc).real) if wc is not None else np.cos(k_sorted)
    half = n // 2
    sin_sum[:half] = -sin_sum[:half - 1:-1]
    cos_sum[:half] = cos_sum[:half - 1:-1]
    for arr in (k_sorted, sin_sum, cos_sum):
        arr.flags.writeable = False
    peaks = (float(np.abs(sin_sum).max()), float(np.abs(cos_sum).max()))
    return k_sorted, sin_sum, cos_sum, peaks


def _numerators(spec: ModelSpec, n: int, positive: bool = False):
    """Anderson-vector numerators ``(k, y, z)`` on the n-point grid, or on its
    n/2 momenta ``k > 0`` when ``positive``; the rule ``y = c_y sin_sum``,
    ``z = c_z cos_sum + c_0`` scales only the slices it returns, each entry
    as on the full grid.  :class:`SpectrumOverflowError` when the peak
    harmonic sums bound ``hypot(y, z)`` by more than the float range."""
    cy, cz, c0, hopping = _coefficients(spec)
    n = _integer(n, "n", 2)  # before the cache, which takes 64.0 for the key 64
    k, sin_sum, cos_sum, (sin_peak, cos_peak) = _grid_harmonics(n, spec.alpha, *hopping)
    if not math.isfinite(math.hypot(abs(cy) * sin_peak, abs(cz) * cos_peak + abs(c0))):
        raise SpectrumOverflowError("the couplings overflow hypot(y, z)")
    if positive:
        k, sin_sum, cos_sum = k[n // 2:], sin_sum[n // 2:], cos_sum[n // 2:]
    return k, cy * sin_sum, cz * cos_sum + c0


def grid_numerators(spec: ModelSpec, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anderson-vector numerators ``(k, y, z)`` on the full antiperiodic grid;
    :class:`SpectrumOverflowError` when the peak harmonic sums bound
    ``hypot(y, z)`` by more than the float range."""
    return _numerators(spec, n)


def _energies(y, z) -> np.ndarray:
    """Quasiparticle energies ``eps = |z + i y|`` of numerator arrays.

    numpy's complex modulus scales like ``hypot``, so it overflows only where
    the energy itself exceeds the float range, and it runs vectorised where
    the real ``hypot`` ufunc makes one libm call per element.
    """
    w = np.empty(np.shape(y), complex)
    w.real, w.imag = z, y
    return np.abs(w)


def _min_gap(eps: np.ndarray) -> float:
    """``eps.min()``; :class:`GaplessSpecError` unless it is above
    ``GAP_TOL`` (NaN fails too)."""
    gap = float(eps.min())
    if not gap > GAP_TOL:
        raise GaplessSpecError(f"min grid gap {gap:.3e} <= {GAP_TOL}")
    return gap


def _gapped_grid(spec: ModelSpec, n: int):
    """``(y, z, eps, gap)`` on the n/2 momenta ``k > 0`` of the n-point grid,
    with ``gap`` the minimum of ``eps`` checked by :func:`_min_gap`.

    The grid and its numerators mirror exactly, ``(y, z)(-k) = (-y, z)(k)``,
    so the energies are even and the half holds every closed-chain
    reduction: one term per ``(k, -k)`` pair, and the whole grid's minimum
    gap to the last bit.  Only that half of the cached harmonic sums is
    scaled into numerators.
    """
    _, y, z = _numerators(spec, n, positive=True)
    eps = _energies(y, z)
    return y, z, eps, _min_gap(eps)


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
    cy, cz, c0, hopping = _coefficients(spec)
    ws, wc = _ring_weights(n, spec.alpha, *hopping)
    cos_sum = np.cos(k) if wc is None else _harmonic_sum(wc, k).real
    return cy * _harmonic_sum(ws, k).imag, cz * cos_sum + c0


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
    _, y, z = _numerators(spec, n, positive=True)
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

