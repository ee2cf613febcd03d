"""Diagonal entropy of pure ground states, of site blocks, and global
entanglement.

The pure-state diagonal entropy is the Shannon entropy (base 2) of the ground
state in the momentum-occupation basis.  The state factorises over ``(k, -k)``
pairs -- one two-outcome factor ``{cos^2 theta_k, sin^2 theta_k}`` per pair --
so the sum runs over the positive-k half of the antiperiodic grid; summing
over all N grid points would double count every pair.  The convention is
pinned by the closed-chain ground-energy cross-check in the oracle tests.

Block diagonal distributions come from one chain-rule engine (Terhal &
DiVincenzo, PRA 65, 032325, 2002).  Measuring ``sigma_z = A_1 B_1`` on the
first site of a block with A-B contraction matrix ``m`` gives ``s = +-1``
with probability ``(1 + s m_11) / 2`` and leaves a Gaussian state whose
contraction matrix on the remaining sites is the Schur complement
``m_rest - s u v^T / (1 + s m_11)`` (``u``, ``v`` the first column and row of
``m`` without ``m_11``).  Running this site by site over all outcome
branches gives every joint probability in O(2^L) total work.

The X basis is the same problem on bonds: ``X_m X_{m+1} = B_m A_{m+1}``
(Jordan-Wigner bond duality), so the L - 1 bond outcomes of an L-site block
follow from the chain rule on the bond contraction matrix.  A site outcome
string ``x`` fixes the bond string ``x XOR (x >> 1)`` (top bit dropped), and
``x`` and its complement share it with equal weight by fermion parity, so
``p_X(x) = p_bond(x XOR (x >> 1)) / 2``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import GaplessSpecError, NormalizationFailureError
from .gaussian import (CorrelationSource, CorrelatorKernel, _bond_matrix,
                       _pair_matrix)
from .model import DEFAULT_GRID, GAP_TOL, ModelSpec, grid_numerators

MAX_BLOCK = 16
CLAMP_TOL = 1e-12
NORM_TOL = 1e-6

_LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class DiagonalDistribution:
    """2^L outcome probabilities of an L-site block in a fixed basis.

    Outcome index bit ``a`` is the measured value of the block's a-th site.
    """

    basis: str
    l: int
    p: np.ndarray


@dataclass(frozen=True)
class EntropyReport:
    """Entropy value in bits together with what it was computed for."""

    value: float
    basis: str
    size: int
    spec: ModelSpec | None = None


def _binary_entropy_bits(p: np.ndarray) -> np.ndarray:
    q = 1.0 - p
    return -(xlogy(p, p) + xlogy(q, q)) / _LN2


def _occupations(spec: ModelSpec, n: int):
    _, y, z = grid_numerators(spec, n)
    eps = np.hypot(y, z)
    if eps.min() <= GAP_TOL:
        raise GaplessSpecError(f"min grid gap {eps.min():.3e} <= {GAP_TOL}")
    return _, y, z, eps


def pure_state_diagonal_entropy(spec: ModelSpec, n: int) -> EntropyReport:
    """Diagonal entropy of the N-site ground state in momentum space (bits).

    One two-outcome term per ``(k, -k)`` pair, i.e. a sum over the positive-k
    half of the grid; ``sin^2 theta_k`` is the pair-occupation probability.
    """
    k, y, z, eps = _occupations(spec, n)
    pos = k > 0
    occ = 0.5 * (1.0 + z[pos] / eps[pos])  # sin^2 theta
    return EntropyReport(value=float(_binary_entropy_bits(occ).sum()),
                         basis="momentum", size=n, spec=spec)


def de_density(spec: ModelSpec, n: int = 2000) -> float:
    """Diagonal-entropy density ``s = S_N / N`` of the pure ground state."""
    return pure_state_diagonal_entropy(spec, n).value / n


def global_entanglement(spec: ModelSpec, n: int = DEFAULT_GRID) -> float:
    """Single-site purity measure ``E = 2 (1 - Tr rho_i^2) = 1 - <sigma_z>^2``.

    Translation invariance assumed; ``<sigma_z>`` is the R=0 kernel value.
    """
    k, y, z, eps = _occupations(spec, n)
    sz = float(np.mean(-z / eps))
    return 1.0 - sz * sz


_SIGNS = np.array([[1.0], [-1.0]])  # outcome bit 0 -> s = +1, bit 1 -> s = -1


def _chain_rule(m: np.ndarray) -> np.ndarray:
    """Joint outcome probabilities of ``A_j B_j`` on every row of ``m``.

    ``m`` is an A-B contraction matrix; bit ``a`` of the returned index is the
    outcome of row ``a`` (1 means ``s = -1``).  Each level splits every branch
    by the outcome of its first remaining site and passes the Schur complement
    on.  A joint probability below ``-CLAMP_TOL`` raises; branches of zero
    weight keep an undivided complement, which their zero weight makes moot.
    """
    p = np.ones(1)
    mats = m[None, :, :]
    while mats.shape[1]:
        denom = 1.0 + _SIGNS * mats[:, 0, 0]  # (outcome, branch)
        p = 0.5 * p * denom
        if p.min() < -CLAMP_TOL:
            raise NormalizationFailureError(
                f"probability {p.min():.3e} < -{CLAMP_TOL}")
        p = np.clip(p, 0.0, None)
        scale = _SIGNS / np.where(p > 0.0, denom, 1.0)
        uv = mats[:, 1:, :1] * mats[:, :1, 1:]
        k = mats.shape[1] - 1
        p = p.reshape(-1)
        mats = (mats[None, :, 1:, 1:]
                - scale[:, :, None, None] * uv).reshape(p.size, k, k)
    return p


def block_diagonal_distribution(source: CorrelationSource, l: int,
                                basis: str = "z",
                                start: int = 0) -> DiagonalDistribution:
    """Diagonal distribution of a contiguous L-site block.

    For a Toeplitz source the block position is immaterial; for a dense
    (open-chain) source it starts at site ``start``.  Raises
    :class:`NormalizationFailureError` when a joint probability of the chain
    rule is more than 1e-12 negative or the total deviates from 1 by more
    than 1e-6, both of which signal a convention bug upstream.
    """
    if not 1 <= l <= MAX_BLOCK:
        raise ValueError(f"block length must be in 1..{MAX_BLOCK}, got {l}")
    if isinstance(source, CorrelatorKernel) and l - 1 > source.l_max:
        raise ValueError(f"kernel tabulated to l_max={source.l_max} < L-1={l - 1}")
    sites = np.arange(start, start + l)
    basis = basis.lower()
    if basis == "z":
        p = _chain_rule(_pair_matrix(source, sites, sites))
    elif basis == "x":
        p_bond = _chain_rule(_bond_matrix(source, sites[:-1]))
        x = np.arange(1 << l)
        p = 0.5 * p_bond[(x ^ (x >> 1)) % (1 << (l - 1))]
    else:
        raise ValueError(f"unknown basis {basis!r}")
    total = p.sum()
    if abs(total - 1.0) > NORM_TOL:
        raise NormalizationFailureError(f"probabilities sum to {total!r}")
    return DiagonalDistribution(basis=basis, l=l, p=p)


def block_diagonal_entropy(source: CorrelationSource, l: int,
                           basis: str = "z", start: int = 0) -> EntropyReport:
    """Shannon entropy (bits) of the block diagonal distribution."""
    dist = block_diagonal_distribution(source, l, basis, start)
    value = float(-xlogy(dist.p, dist.p).sum() / _LN2)
    return EntropyReport(value=value, basis=dist.basis, size=l)
