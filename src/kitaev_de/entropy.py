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

The pass runs in a workspace held per thread (``threading.local``): two
ping-pong buffers for the Schur complements, one for ``u v^T`` and the
denominators, one for the probabilities and a spare of the same size for
``p ln p``, grown to the longest block the thread has seen (about 0.7 MB at
L = 14), with the per-level views into them built once per row count.  A
pass therefore allocates no array per level.  Fresh per-level arrays would
add up to about half a megabyte per pass at L = 14, above glibc's trim
threshold, so glibc would hand them back to the kernel and fault them in
again on most calls, depending on what else the heap holds.  The
levels a pass yields are views into the workspace, valid until the pass
advances; threads do not share one, and :func:`block_diagonal_distribution`
returns a copy, so a later pass cannot overwrite an array it returned.

The X basis is the same problem on bonds: ``X_m X_{m+1} = B_m A_{m+1}``
(Jordan-Wigner bond duality), so the L - 1 bond outcomes of an L-site block
follow from the chain rule on the bond contraction matrix.  A site outcome
string ``x`` fixes the bond string ``x XOR (x >> 1)`` (top bit dropped), and
``x`` and its complement share it with equal weight by fermion parity, so
``p_X(x) = p_bond(x XOR (x >> 1)) / 2`` and ``S_X(L) = S_bond(L - 1) + 1``
bit exactly (``S_X(1) = 1``).
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidParameterError, NormalizationFailureError, _basis, _integer
from .gaussian import CorrelationSource, _bond_matrix, _check_sites, _pair_matrix
from .model import DEFAULT_GRID, ModelSpec, _gapped_grid

MAX_BLOCK = 16
DEFAULT_N_DENSITY = 2000  # chain size of the diagonal-entropy density
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


def _xlogx(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``p ln p`` elementwise, 0 at ``p = 0`` and NaN at NaN; into ``out``
    (of the shape of ``p``) when given.

    Every ``p`` must be >= 0 or NaN: the chain rule clamps its levels and
    occupations lie in [0, 1].  No mask: ``p`` is raised to the smallest
    subnormal, 5e-324, which leaves every positive double as it is and gives
    ``0 * ln(5e-324) = 0`` at ``p = 0``."""
    out = np.maximum(p, 5e-324, out=out)
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


def de_density(spec: ModelSpec, n: int = DEFAULT_N_DENSITY) -> float:
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
_NEG_SIGNS = -_SIGNS


class _Workspace(threading.local):
    """The buffers of one thread's chain-rule passes and their views.

    Level ``j`` (0-based) of a pass over ``rows`` rows splits ``b = 2^j``
    branches and leaves ``k = rows - 1 - j`` rows; it reads a ``(k + 1,
    k + 1, b)`` complement and writes the ``(k, k, 2, b)`` next one into the
    other ping-pong buffer, hence ``max_k k^2 2^(rows - k)`` floats each
    (``k = rows`` is the copy of the input matrix).  The ``(2, b)``
    denominators and the ``(k, k, b)`` product ``u v^T`` share one buffer.
    The probabilities are updated in place, the ``s = -1`` half first, in a
    buffer of ``2^rows`` floats; ``spare`` is as large, for the caller's
    ``p ln p``."""

    def __init__(self):
        self._grow(0)

    def _grow(self, rows: int) -> None:
        side = max(k * k << (rows - k) for k in range(rows + 1))
        self.rows = rows
        self.mats = (np.empty(side), np.empty(side))
        self.uv = np.empty(max([(k * k + 2) << (rows - 1 - k) for k in range(rows)],
                               default=0))
        self.p = np.empty(1 << rows)
        self.spare = np.empty(1 << rows)
        self.views = {}

    def levels(self, rows: int):
        """``(first, levels)`` of a pass over ``rows`` rows: the ``(rows,
        rows, 1)`` view the input is copied into, and per level the tuple
        ``(k, m11, denom, plus, minus, old, new_minus, p, u, v, uv, uv4, nxt,
        rest)``: ``m11`` and ``u``, ``v``, ``rest`` are the corner, first
        column, first row and remainder of the current complement; ``plus``
        and ``minus`` the rows of the ``(2, b)`` ``denom``; ``old`` the b
        probabilities of the previous level, ``new_minus`` the b after them
        and ``p`` all 2b of this level; ``uv4`` is ``uv`` with an outcome
        axis, and ``nxt`` the next complement."""
        if rows > self.rows:
            self._grow(rows)
        if rows not in self.views:
            cur = first = self.mats[0][:rows * rows].reshape(rows, rows, 1)
            levels = []
            for j in range(rows):
                b, k = 1 << j, rows - 1 - j
                denom = self.uv[:2 * b].reshape(2, b)
                uv = self.uv[2 * b:(k * k + 2) * b].reshape(k, k, b)
                nxt = self.mats[(j + 1) % 2][:2 * k * k * b].reshape(k, k, 2, b)
                levels.append((k, cur[0, 0], denom, denom[0], denom[1],
                               self.p[:b], self.p[b:2 * b], self.p[:2 * b],
                               cur[1:, :1], cur[:1, 1:], uv, uv[:, :, None, :],
                               nxt, cur[1:, 1:, None, :]))
                cur = nxt.reshape(k, k, 2 * b)
            self.views[rows] = first, levels
        return self.views[rows]


_WORKSPACE = _Workspace()


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

    Every level is written into this thread's :class:`_Workspace` with
    ``out=`` ufunc calls, and the yielded array is a view into it: it holds
    the level only until the generator advances, and a second pass in the
    same thread overwrites it, so a caller that keeps a level copies it.
    """
    first, levels = _WORKSPACE.levels(m.shape[0])
    np.copyto(first, m[:, :, None])
    _WORKSPACE.p[0] = 1.0
    for k, m11, denom, plus, minus, old, new_minus, p, u, v, uv, uv4, nxt, rest in levels:
        np.multiply(_SIGNS, m11, out=denom)  # (outcome, branch)
        denom += 1.0
        old *= 0.5
        np.multiply(old, minus, out=new_minus)
        np.multiply(old, plus, out=old)
        low = p.min()
        if not low >= -CLAMP_TOL:
            raise NormalizationFailureError(f"probability {low:.3e} < -{CLAMP_TOL}")
        if low < 0.0:
            np.maximum(p, 0.0, out=p)
        if not abs(p.sum() - 1.0) <= NORM_TOL:
            raise NormalizationFailureError(f"probabilities sum to {p.sum()!r}")
        yield p
        if not k:
            return
        if low <= 0.0:
            denom.reshape(-1)[p == 0.0] = 1.0
        np.divide(_NEG_SIGNS, denom, out=denom)  # -s / (1 + s m_11)
        np.multiply(u, v, out=uv)
        np.multiply(uv4, denom, out=nxt)
        nxt += rest


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
    else:
        p = p.copy()  # the pass's level is a view into its workspace
    return DiagonalDistribution(basis=basis, l=l, p=p)


def _block_entropies(source: CorrelationSource, lengths, basis: str = "z",
                     start: int = 0) -> list[float]:
    """Entropies (bits) of the blocks of each length in ``lengths``, all read
    off one chain-rule pass over the longest block."""
    basis = _basis(basis)
    levels = enumerate(_block_levels(source, lengths, basis, start), 1)
    s = {l: float(-_xlogx(p, _WORKSPACE.spare[:p.size]).sum() / _LN2)
         for l, p in levels if l in lengths}
    return [s[l] + 1.0 if basis == "x" else s[l] for l in lengths]


def block_diagonal_entropy(source: CorrelationSource, l: int,
                           basis: str = "z", start: int = 0) -> EntropyReport:
    """Shannon entropy (bits) of the block diagonal distribution."""
    basis = _basis(basis)
    value, = _block_entropies(source, [l], basis, start)
    return EntropyReport(value=value, basis=basis, size=l)
