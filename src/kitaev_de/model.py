"""Extended Kitaev chains: exact momentum-space solutions and spin couplings.

Two chain families are supported:

* ``Variant.LONG_RANGE_PAIRING`` -- nearest-neighbour hopping ``-J/2`` and
  power-law pairing ``(Delta/2) d_l^(-alpha)`` over every distance ``l``.
* ``Variant.LONG_RANGE_PAIRING_HOPPING`` -- both pairing ``Delta`` and hopping
  ``J`` decay as power laws, truncated at a maximal range ``r``.

Closed chains use antiperiodic boundary conditions (momenta
``k_n = (2*pi/N)(n + 1/2)``) and the ring distance ``d_l = min(l, N - l)``;
open-chain helpers elsewhere in the package use ``d_l = l``.

Conventions
-----------
Every mode is described by the numerator pair ``(y, z)`` of the Anderson
vector, with ``eps = hypot(y, z)`` the (positive-branch) quasiparticle energy:

* pairing-only variant:    ``y = (Delta/2) f_alpha(k)``, ``z = J cos k + mu``
* pairing+hopping variant: ``y = Delta sum_l sin(kl) d_l^(-alpha)``,
  ``z = mu/2 + J sum_l cos(kl) d_l^(-beta)``

so pairing decays with ``alpha`` and hopping with ``beta`` in both the closed
and the open chain (:func:`open_chain_weights`).

The Bogoliubov angle is fixed as ``theta = atan2(y, -z) / 2`` so that
``sin(theta)^2`` is the occupation probability of the ``(k, -k)`` pair in the
ground state and the pair-correlation kernel ``G_R`` built from
``exp(-2i*theta)`` equals ``<A_a B_b>`` with ``A = c^dag + c``,
``B = c^dag - c`` and ``R = b - a``.  The choice is pinned by the
exact-diagonalization cross-checks in the test suite.

An infinite alpha or beta is taken as the exact single-term (``l = 1``) limit
of the corresponding sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ZeroVectorError

ZERO_TOL = 1e-14  # both numerators below this -> gap closes at that momentum
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
    ``j``, ``delta`` and ``mu`` must be finite; ``alpha`` and ``beta`` may be
    infinite (the nearest-neighbour limit).
    """

    variant: Variant
    j: float = 1.0
    delta: float = 1.0
    mu: float = 0.0
    alpha: float = math.inf
    beta: float | None = None
    r: int | None = None

    def __post_init__(self):
        for name in ("j", "delta", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.alpha >= 0):
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.variant is Variant.LONG_RANGE_PAIRING:
            if self.beta is not None or self.r is not None:
                raise ValueError("beta/r are not part of the pairing-only variant")
        else:
            if self.beta is None or not (self.beta >= 0):
                raise ValueError(f"beta must be a nonnegative real, got {self.beta}")
            if self.r is None or self.r < 1:
                raise ValueError(f"r must be a positive integer, got {self.r}")

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
    gapless: bool = False


@dataclass(frozen=True)
class SpinCouplings:
    """Per-range XX/YY couplings of the equivalent spin chain.

    ``jx[l-1]``, ``jy[l-1]`` multiply ``X_j X_{j+l}`` and ``Y_j Y_{j+l}``
    (each dressed with the intermediate-Z string); the field term is
    ``(mu/2) sum_j Z_j`` with ``Z = 1 - 2 n``.
    """

    jx: np.ndarray
    jy: np.ndarray
    mu: float


def momentum_grid(n: int) -> np.ndarray:
    """Antiperiodic grid ``k_n = (2*pi/N)(n + 1/2)`` mapped into (-pi, pi].

    The returned array is sorted ascending; no point equals 0 or +-pi, and
    every momentum is paired with its negative.  Odd chain lengths would
    place an unpaired mode exactly at pi, which breaks the (k, -k) pair
    structure every closed-chain quantity relies on, so they are rejected.
    """
    if n < 2 or n % 2:
        raise ValueError(f"need an even chain length >= 2, got {n}")
    k = (2.0 * np.pi / n) * (np.arange(n) + 0.5)
    k = np.where(k > np.pi, k - 2.0 * np.pi, k)
    return np.sort(k)


@lru_cache(maxsize=128)
def _closed_weights(alpha: float, n: int) -> np.ndarray:
    """Ring weights ``w_l = d_l^(-alpha)`` for ``l = 1..n-1``; single-term at inf."""
    l = np.arange(1, n)
    if math.isinf(alpha):
        w = (l == 1).astype(float)
    else:
        d = np.minimum(l, n - l).astype(float)
        w = d ** (-alpha)
    w.flags.writeable = False
    return w


@lru_cache(maxsize=128)
def _range_weights(exponent: float, r: int, n: int) -> np.ndarray:
    """Weights ``d_l^(-exponent)`` for ``l = 1..r`` on an n-site ring."""
    l = np.arange(1, r + 1)
    if math.isinf(exponent):
        w = (l == 1).astype(float)
    else:
        d = np.minimum(l, n - l).astype(float)
        w = d ** (-exponent)
    w.flags.writeable = False
    return w


def _harmonic_sum(weights: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``sum_l w_l exp(i k l)`` for arbitrary momenta (direct evaluation)."""
    l = np.arange(1, len(weights) + 1)
    return np.exp(1j * np.multiply.outer(np.asarray(k, dtype=float), l)) @ weights.astype(complex)


@lru_cache(maxsize=64)
def _grid_harmonics(key) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted grid plus the harmonic sums entering (y, z) on the full grid.

    Returns ``(k_sorted, sin_sum, cos_sum)`` where the sums carry the model's
    distance weights.  Evaluated with one FFT over the antiperiodic grid.
    """
    kind, n, a, b, r = key
    if n < 2 or n % 2:
        raise ValueError(f"need an even chain length >= 2, got {n}")
    if kind == "pairing":
        w = _closed_weights(a, n)
        ws, wc = w, None
    else:
        ws = _range_weights(a, r, n)  # sine (pairing) sum decays with alpha
        wc = _range_weights(b, r, n)  # cosine (hopping) sum decays with beta

    def grid_sum(weights):
        u = np.zeros(n, dtype=complex)
        l = np.arange(1, len(weights) + 1)
        u[l % n] += weights * np.exp(1j * np.pi * l / n)
        # value at k_m = 2*pi*(m + 1/2)/n is sum_l u_l e^{2*pi*i*m*l/n}
        return n * np.fft.ifft(u)

    k_raw = (2.0 * np.pi / n) * (np.arange(n) + 0.5)
    order = np.argsort(np.where(k_raw > np.pi, k_raw - 2 * np.pi, k_raw))
    k_sorted = np.where(k_raw > np.pi, k_raw - 2 * np.pi, k_raw)[order]
    s = grid_sum(ws)[order]
    c = grid_sum(wc)[order] if wc is not None else None
    sin_sum = np.ascontiguousarray(s.imag)
    cos_sum = np.ascontiguousarray(c.real) if c is not None else np.cos(k_sorted)
    for arr in (k_sorted, sin_sum, cos_sum):
        arr.flags.writeable = False
    return k_sorted, sin_sum, cos_sum


def _spec_key(spec: ModelSpec, n: int):
    if spec.variant is Variant.LONG_RANGE_PAIRING:
        return ("pairing", n, spec.alpha, None, None)
    return ("pairing_hopping", n, spec.alpha, spec.beta, spec.r)


def grid_numerators(spec: ModelSpec, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anderson-vector numerators ``(k, y, z)`` on the full antiperiodic grid."""
    k, sin_sum, cos_sum = _grid_harmonics(_spec_key(spec, n))
    if spec.variant is Variant.LONG_RANGE_PAIRING:
        y = 0.5 * spec.delta * sin_sum
        z = spec.j * cos_sum + spec.mu
    else:
        y = spec.delta * sin_sum
        z = 0.5 * spec.mu + spec.j * cos_sum
    return k, y, z


def numerators_at(spec: ModelSpec, k, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(y, z)`` at arbitrary momenta (direct sums; same weights as the grid)."""
    k = np.asarray(k, dtype=float)
    if spec.variant is Variant.LONG_RANGE_PAIRING:
        f = _harmonic_sum(_closed_weights(spec.alpha, n), k).imag
        y = 0.5 * spec.delta * f
        z = spec.j * np.cos(k) + spec.mu
    else:
        s = _harmonic_sum(_range_weights(spec.alpha, spec.r, n), k).imag
        c = _harmonic_sum(_range_weights(spec.beta, spec.r, n), k).real
        y = spec.delta * s
        z = 0.5 * spec.mu + spec.j * c
    return y, z


def bogoliubov_theta(y, z):
    """Bogoliubov angle: ``sin^2(theta)`` is the (k,-k) pair occupation."""
    return 0.5 * np.arctan2(y, -z)


def anderson_vector(spec: ModelSpec, y, z, eps):
    """Unit Anderson vector components (h_y, h_z) for this variant."""
    if spec.variant is Variant.LONG_RANGE_PAIRING:
        return -y / eps, -z / eps
    return y / eps, -z / eps


def dispersion(spec: ModelSpec, k: float, n: int) -> ModeData:
    """Solve a single momentum mode.

    Raises :class:`ZeroVectorError` when both numerators are below 1e-14,
    i.e. the gap closes at this momentum; callers decide how to proceed.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not (-np.pi < k <= np.pi):
        raise ValueError(f"k must lie in (-pi, pi], got {k}")
    y, z = numerators_at(spec, float(k), n)
    y, z = float(y), float(z)
    if abs(y) < ZERO_TOL and abs(z) < ZERO_TOL:
        raise ZeroVectorError(f"gap closes at k={k!r}: |y|,|z| < {ZERO_TOL}")
    eps = math.hypot(y, z)
    hy, hz = anderson_vector(spec, y, z, eps)
    return ModeData(k=float(k), epsilon=eps, hy=float(hy), hz=float(hz),
                    theta=float(bogoliubov_theta(y, z)))


def solve_chain(spec: ModelSpec, n: int) -> list[ModeData]:
    """Solve every mode of the antiperiodic grid, ordered by k.

    Gap closings are not fatal here: the affected mode is returned with
    ``gapless=True`` and NaN angle/vector.
    """
    k, y, z = grid_numerators(spec, n)
    eps = np.hypot(y, z)
    gapless = (np.abs(y) < ZERO_TOL) & (np.abs(z) < ZERO_TOL)
    theta = bogoliubov_theta(y, z)
    hy, hz = anderson_vector(spec, y, z, np.where(gapless, 1.0, eps))
    modes = []
    for i in range(n):
        if gapless[i]:
            modes.append(ModeData(k=float(k[i]), epsilon=0.0, hy=float("nan"),
                                  hz=float("nan"), theta=float("nan"), gapless=True))
        else:
            modes.append(ModeData(k=float(k[i]), epsilon=float(eps[i]), hy=float(hy[i]),
                                  hz=float(hz[i]), theta=float(theta[i])))
    return modes


def minimum_gap(spec: ModelSpec, n: int) -> float:
    """``min_k eps_k`` over the antiperiodic grid of n momenta."""
    _, y, z = grid_numerators(spec, n)
    return float(np.min(np.hypot(y, z)))


def open_chain_weights(spec: ModelSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Open-chain hopping/pairing strengths per distance ``l = 1..n-1``.

    Uses the open-chain distance ``d_l = l``.  Returns ``(hop, pair)`` where
    the Hamiltonian carries ``-hop_l (c^dag_j c_{j+l} + h.c.)`` and
    ``+pair_l (c_j c_{j+l} + h.c.)``.
    """
    l = np.arange(1, n)
    hop = np.zeros(n - 1)
    pair = np.zeros(n - 1)
    if spec.variant is Variant.LONG_RANGE_PAIRING:
        hop[0] = 0.5 * spec.j
        if math.isinf(spec.alpha):
            pair[0] = 0.5 * spec.delta
        else:
            pair[:] = 0.5 * spec.delta * l.astype(float) ** (-spec.alpha)
    else:
        rr = min(spec.r, n - 1)
        lr = l[:rr].astype(float)
        hop[:rr] = spec.j * (lr ** (-spec.beta) if not math.isinf(spec.beta)
                             else (lr == 1.0).astype(float))
        pair[:rr] = spec.delta * (lr ** (-spec.alpha) if not math.isinf(spec.alpha)
                                  else (lr == 1.0).astype(float))
    return hop, pair


def spin_couplings(spec: ModelSpec, l_max: int | None = None) -> SpinCouplings:
    """XX/YY couplings of the Jordan-Wigner image of the open chain.

    For every range ``l``: ``jx_l = -(hop_l + pair_l)/2`` and
    ``jy_l = -(hop_l - pair_l)/2``, where ``hop_l`` and ``pair_l`` are the
    open-chain strengths of :func:`open_chain_weights`.  Equivalently
    ``jx_l + jy_l = -hop_l`` and ``jx_l - jy_l = -pair_l``.  The spin chain
    built from these couplings is isospectral to the fermionic open chain,
    which the oracle tests assert.
    """
    if l_max is None:
        if spec.variant is Variant.LONG_RANGE_PAIRING_HOPPING:
            l_max = spec.r
        else:
            raise ValueError("l_max is required for the pairing-only variant")
    hop, pair = open_chain_weights(spec, l_max + 1)
    jx = -(hop + pair) / 2.0
    jy = -(hop - pair) / 2.0
    return SpinCouplings(jx=jx, jy=jy, mu=spec.mu)
