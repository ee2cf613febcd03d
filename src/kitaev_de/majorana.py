"""Majorana zero modes of open chains as null vectors of the coupling matrix.

With ``a_j = (c^dag_j + c_j)/sqrt(2)`` and ``b_j = i (c^dag_j - c_j)/sqrt(2)``
the open-chain Hamiltonian takes the form ``H = i sum_{jl} K_{jl} a_j b_l``
up to a constant, with a real banded K.  A left zero mode
``sum_j m_j a_j`` commutes with H exactly when ``m^T K = 0``; right modes
``sum_j n_j b_j`` satisfy ``K n = 0``.  Null spaces are found with a full
singular value decomposition: exact finite-size zero modes do not generally
exist, but the relevant singular values decay exponentially with the chain
length in the topological phases, so a relative cutoff counts mode pairs
robustly.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GaplessSpecError, TolAmbiguousError
from .model import GAP_TOL, ModelSpec, Variant, minimum_gap, open_chain_weights

DEFAULT_TOL = 1e-8
GAP_SAMPLES = 4096


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class ZeroMode:
    """One Majorana zero mode: side, coefficients and site probabilities."""

    side: Side
    coefficients: np.ndarray
    singular_value: float

    @property
    def probability(self) -> np.ndarray:
        return self.coefficients ** 2


def build_coupling(spec: ModelSpec, n: int) -> np.ndarray:
    """Real n-by-n Majorana coupling matrix K of the open chain.

    ``K_{jj} = -mu``; per range l the hopping/pairing strengths enter as
    ``K_{j, j+l} = pair_l - hop_l`` and ``K_{j+l, j} = -pair_l - hop_l``.
    The bandwidth is max(1, r) for the respective variant.
    """
    hop, pair = open_chain_weights(spec, n)
    k = np.zeros((n, n))
    np.fill_diagonal(k, -spec.mu)
    for l in range(1, n):
        if hop[l - 1] == 0.0 and pair[l - 1] == 0.0:
            continue
        idx = np.arange(n - l)
        k[idx, idx + l] += pair[l - 1] - hop[l - 1]
        k[idx + l, idx] += -pair[l - 1] - hop[l - 1]
    return k


def zero_modes(spec: ModelSpec, n: int, tol: float = DEFAULT_TOL) -> list[ZeroMode]:
    """Left/right zero modes below the relative singular-value cutoff.

    Requires a gapped bulk (checked on the closed-chain grid).  Raises
    :class:`TolAmbiguousError` when any singular value falls within a factor
    of 10 of the cutoff, making the count unreliable.  Modes come out
    orthonormal (SVD), ordered by localization centre, with left modes first
    within each pair.  The pairing+hopping variant needs ``n > 2r`` so that
    the two edges do not overlap.
    """
    if spec.variant is Variant.LONG_RANGE_PAIRING_HOPPING and n <= 2 * spec.r:
        raise ValueError(f"need n > 2r = {2 * spec.r}, got {n}")
    gap = minimum_gap(spec, GAP_SAMPLES)
    if gap <= GAP_TOL:
        raise GaplessSpecError(f"bulk gap {gap:.3e} <= {GAP_TOL}")
    k = build_coupling(spec, n)
    u, s, vt = np.linalg.svd(k)
    cutoff = tol * s[0]
    if np.any((s > cutoff / 10.0) & (s < cutoff * 10.0)):
        raise TolAmbiguousError(
            f"singular values within a factor 10 of cutoff {cutoff:.3e}")
    null = np.nonzero(s < cutoff)[0]
    sites = np.arange(n)
    modes = []
    for i in null:
        left = u[:, i]          # m^T K = 0  (left-singular vector of K)
        right = vt[i, :]        # K n  = 0  (right-singular vector)
        for side, vec in ((Side.LEFT, left), (Side.RIGHT, right)):
            vec = vec / np.linalg.norm(vec)
            if vec[np.argmax(np.abs(vec))] < 0:
                vec = -vec
            modes.append(ZeroMode(side=side, coefficients=vec,
                                  singular_value=float(s[i])))
    modes.sort(key=lambda m: (float(np.dot(m.probability, sites)),
                              m.side is Side.RIGHT))
    return modes


def mode_count(spec: ModelSpec, n: int, tol: float = DEFAULT_TOL) -> int:
    """Number of Majorana zero-mode pairs (equals |nu| in the bulk)."""
    return len(zero_modes(spec, n, tol)) // 2
