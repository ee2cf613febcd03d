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
branches gives every joint probability in O(2^L) total work.  After j
levels the probabilities are the joint distribution of the first j sites,
i.e. the j-site block distribution, so one pass over the longest block gives
every block entropy ``S_1 .. S_L``.

The X basis is the same problem on bonds: ``X_m X_{m+1} = B_m A_{m+1}``
(Jordan-Wigner bond duality), so the L - 1 bond outcomes of an L-site block
follow from the chain rule on the bond contraction matrix.  A site outcome
string ``x`` fixes the bond string ``x XOR (x >> 1)`` (top bit dropped), and
``x`` and its complement share it with equal weight by fermion parity, so
``p_X(x) = p_bond(x XOR (x >> 1)) / 2`` and ``S_X(L) = S_bond(L - 1) + 1``
bit exactly (``S_X(1) = 1``).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidParameterError, NormalizationFailureError, _basis, _integer
from .gaussian import CorrelationSource, _bond_matrix, _check_sites, _pair_matrix
from .model import DEFAULT_GRID, ModelSpec, _gapped_grid

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


def _xlogx(p: np.ndarray) -> np.ndarray:
    """``p ln p`` elementwise, 0 at ``p = 0`` and NaN at NaN."""
    out = np.where(p > 0, p, 1.0)
    np.log(out, out=out)
    out *= p
    return out


def _binary_entropy_bits(p: np.ndarray) -> np.ndarray:
    q = 1.0 - p
    return -(_xlogx(p) + _xlogx(q)) / _LN2


def pure_state_diagonal_entropy(spec: ModelSpec, n: int) -> EntropyReport:
    """Diagonal entropy of the N-site ground state in momentum space (bits).

    One two-outcome term per ``(k, -k)`` pair, i.e. a sum over the positive-k
    half of the grid; ``sin^2 theta_k`` is the pair-occupation probability.
    """
    _, z, eps, _ = _gapped_grid(spec, n)
    occ = 0.5 * (1.0 + z / eps)  # sin^2 theta
    return EntropyReport(value=float(_binary_entropy_bits(occ).sum()),
                         basis="momentum", size=n, spec=spec)


def de_density(spec: ModelSpec, n: int = 2000) -> float:
    """Diagonal-entropy density ``s = S_N / N`` of the pure ground state."""
    return pure_state_diagonal_entropy(spec, n).value / n


def global_entanglement(spec: ModelSpec, n: int = DEFAULT_GRID) -> float:
    """Single-site purity measure ``E = 2 (1 - Tr rho_i^2) = 1 - <sigma_z>^2``.

    Translation invariance assumed; ``<sigma_z>`` is the R=0 kernel value.
    """
    _, z, eps, _ = _gapped_grid(spec, n)
    sz = float(np.mean(-z / eps))  # the k > 0 half: sigma_z is even in k
    return 1.0 - sz * sz


_SIGNS = np.array([[1.0], [-1.0]])  # outcome bit 0 -> s = +1, bit 1 -> s = -1


def _chain_rule(m: np.ndarray):
    """Yield the joint outcome probabilities of ``A_j B_j`` on the first j
    rows of ``m``, for j = 1 .. rows.

    ``m`` is an A-B contraction matrix; bit ``a`` of a level's index is the
    outcome of row ``a`` (1 means ``s = -1``).  Each level splits every branch
    by the outcome of its first remaining site and passes the Schur complement
    on.  The complements are stored ``(row, col, branch)``, branch innermost,
    so each update is one contiguous pass over all branches even when the
    matrices are 1x1 to 3x3; branch ``outcome * b + branch`` of the next level
    comes from ``branch`` of the b current ones.  A joint probability below
    ``-CLAMP_TOL`` or a level total off 1 by more than ``NORM_TOL`` raises,
    and so does NaN; branches of zero weight keep an undivided complement,
    which their zero weight makes moot.
    """
    p = np.ones(1)
    mats = m[:, :, None]
    for k in range(m.shape[0] - 1, -1, -1):
        denom = 1.0 + _SIGNS * mats[0, 0]  # (outcome, branch)
        p = 0.5 * p * denom
        low = p.min()
        if not low >= -CLAMP_TOL:
            raise NormalizationFailureError(f"probability {low:.3e} < -{CLAMP_TOL}")
        if low < 0.0:
            np.maximum(p, 0.0, out=p)
        if not abs(p.sum() - 1.0) <= NORM_TOL:
            raise NormalizationFailureError(f"probabilities sum to {p.sum()!r}")
        yield p.reshape(-1)
        if not k:
            return
        denom[p == 0.0] = 1.0
        scale = np.divide(-_SIGNS, denom, out=denom)  # -s / (1 + s m_11)
        uv = mats[1:, :1] * mats[:1, 1:]
        nxt = uv[:, :, None, :] * scale
        del uv, scale, denom  # freed early, so malloc reuses their pages
        nxt += mats[1:, 1:, None, :]
        p = p.reshape(-1)
        mats = nxt.reshape(k, k, p.size)


def _block_lengths(lengths) -> list[int]:
    """``lengths`` as a list of at least one int in ``1 .. MAX_BLOCK``."""
    lengths = [_integer(l, "lengths", 1, MAX_BLOCK) for l in lengths]
    if not lengths:
        raise InvalidParameterError("lengths", "need at least one block length")
    return lengths


def _block_levels(source: CorrelationSource, lengths, basis: str, start: int):
    """One chain-rule pass over the block of ``max(lengths)`` sites at
    ``start``: the joint distribution of its first j sites (basis ``z``) or of
    their j - 1 bonds (basis ``x``) for j = 1, 2, ...; ``basis`` is the
    lower-case name :func:`_basis` returns."""
    l = max(_block_lengths(lengths))
    _check_sites(source, (start, start + l - 1), "start")
    sites = np.arange(start, start + l)
    if basis == "z":
        return _chain_rule(_pair_matrix(source, sites, sites))
    return chain([np.ones(1)], _chain_rule(_bond_matrix(source, sites[:-1])))


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
    basis = _basis(basis)
    *_, p = _block_levels(source, [l], basis, start)
    if basis == "x":
        x = np.arange(1 << l)
        p = 0.5 * p[(x ^ (x >> 1)) % (1 << (l - 1))]
    return DiagonalDistribution(basis=basis, l=l, p=p)


def _block_entropies(source: CorrelationSource, lengths, basis: str = "z",
                     start: int = 0) -> list[float]:
    """Entropies (bits) of the blocks of each length in ``lengths``, all read
    off one chain-rule pass over the longest block."""
    basis = _basis(basis)
    levels = enumerate(_block_levels(source, lengths, basis, start), 1)
    s = {l: float(-_xlogx(p).sum() / _LN2) for l, p in levels if l in lengths}
    return [s[l] + 1.0 if basis == "x" else s[l] for l in lengths]


def block_diagonal_entropy(source: CorrelationSource, l: int,
                           basis: str = "z", start: int = 0) -> EntropyReport:
    """Shannon entropy (bits) of the block diagonal distribution."""
    basis = _basis(basis)
    value, = _block_entropies(source, [l], basis, start)
    return EntropyReport(value=value, basis=basis, size=l)
