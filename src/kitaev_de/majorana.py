"""Majorana zero modes of open chains as null vectors of the coupling matrix.

With ``a_j = (c^dag_j + c_j)/sqrt(2)`` and ``b_j = i (c^dag_j - c_j)/sqrt(2)``
the open-chain Hamiltonian takes the form ``H = i sum_{jl} K_{jl} a_j b_l``
up to a constant, with a real K.  A left zero mode
``sum_j m_j a_j`` commutes with H exactly when ``m^T K = 0``; right modes
``sum_j n_j b_j`` satisfy ``K n = 0``.  Exact finite-size zero modes do not
generally exist, but the relevant singular values of K decay exponentially
with the chain length in the topological phases, so a relative cutoff counts
mode pairs robustly.

K is Toeplitz and so persymmetric, ``P K P = K^T`` with P the site reversal.
Hence ``S = K P`` (K with its columns reversed) is a symmetric Hankel matrix,
and one symmetric eigendecomposition ``S = W diag(lam) W^T`` gives the whole
singular value decomposition ``K = S P = W diag(|lam|) (P W sign(lam))^T``:
the singular values are ``|lam|``, the left vectors the columns of W and the
right vectors the reversed columns of W, up to sign.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SpectrumOverflowError, TolAmbiguousError
from .model import ModelSpec, Variant, _gapped_grid, open_chain_weights

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


def _band(spec: ModelSpec, n: int) -> np.ndarray:
    """The 2n - 1 diagonals of K, ``K[a, a + d] = band[d + n - 1]``:
    ``-pair_l - hop_l`` below the diagonal (d = -l), ``-mu`` on it and
    ``pair_l - hop_l`` above it (d = l).  The ``+ 0.0`` turns a ``-0.0``
    coupling into ``+0.0``, as adding it to a zeroed matrix would."""
    hop, pair = open_chain_weights(spec, n)
    with np.errstate(over="ignore"):
        return np.concatenate(((-pair - hop)[::-1] + 0.0, [-spec.mu],
                               pair - hop + 0.0))


def build_coupling(spec: ModelSpec, n: int) -> np.ndarray:
    """Real n-by-n Majorana coupling matrix K of the open chain.

    ``K_{jj} = -mu``; per range l the hopping/pairing strengths enter as
    ``K_{j, j+l} = pair_l - hop_l`` and ``K_{j+l, j} = -pair_l - hop_l``,
    zero beyond the variant's range (r for the pairing+hopping chain, every
    range for the pairing-only chain at finite alpha).  K is Toeplitz and
    comes back as a read-only view of its 2n - 1 diagonals, so it allocates
    O(n).  Raises :class:`SpectrumOverflowError` when the bound on the row
    and column sums of ``|K|`` (and so on its singular values) overflows.
    """
    band = _band(spec, n)
    with np.errstate(over="ignore"):
        bound = np.abs(band).sum()
    if not np.isfinite(bound):
        raise SpectrumOverflowError("the couplings overflow the coupling matrix")
    return sliding_window_view(band, n)[::-1]


def _reflected_eigh(spec: ModelSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs ``lam, W`` of the symmetric ``S = K P``.

    ``|lam|`` are the singular values of K, the columns of W its left
    singular vectors and ``W[::-1]`` its right ones up to sign (see the
    module docstring).  Toeplitz K makes ``K[:, ::-1]`` bit-exactly
    symmetric, so reading one triangle loses nothing.
    """
    return np.linalg.eigh(build_coupling(spec, n)[:, ::-1])


def zero_modes(spec: ModelSpec, n: int, tol: float = DEFAULT_TOL) -> list[ZeroMode]:
    """Left/right zero modes below the relative singular-value cutoff.

    Requires a gapped bulk (checked on the closed-chain grid).  Raises
    :class:`TolAmbiguousError` when any singular value falls within a factor
    of 10 of the cutoff, making the count unreliable.  Modes come out
    orthonormal (eigenvectors of ``K P``), ordered by localization centre,
    with left modes first within each pair.  The pairing+hopping variant
    needs ``n > 2r`` so that the two edges do not overlap.

    When several null singular values are nearly equal, any orthonormal
    basis of their space is a valid answer, so each mode's profile depends
    on the basis LAPACK returns; only the sum of the probabilities over the
    modes of one side (the diagonal of that side's null-space projector) is
    basis-independent.  For the nu = 3 chain (J = 0.8, mu = 0.6, r = 3) at
    n = 800 the three null values are 4.9e-16, 7.1e-12 and 7.3e-12, and
    per-mode probabilities from two factorizations differ by up to 6.7e-6.
    """
    if spec.variant is Variant.LONG_RANGE_PAIRING_HOPPING and n <= 2 * spec.r:
        raise ValueError(f"need n > 2r = {2 * spec.r}, got {n}")
    _gapped_grid(spec, GAP_SAMPLES)
    lam, w = _reflected_eigh(spec, n)
    s = np.abs(lam)
    cutoff = tol * s.max()
    if np.any((s > cutoff / 10.0) & (s < cutoff * 10.0)):
        raise TolAmbiguousError(
            f"singular values within a factor 10 of cutoff {cutoff:.3e}")
    null = np.nonzero(s < cutoff)[0]
    sites = np.arange(n)
    modes = []
    for i in null:
        left = w[:, i]          # m^T K = 0  (left-singular vector of K)
        right = w[::-1, i]      # K n  = 0  (right-singular vector, up to sign)
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
