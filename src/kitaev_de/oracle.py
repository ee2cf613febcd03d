"""Brute-force exact diagonalization of small chains (N <= 12).

Ground truth for correlators, diagonal distributions and entropies.  In the
fermion occupation basis the chain *is* its Jordan-Wigner spin chain (Lieb,
Schultz & Mattis 1961): with ``z = 1 - 2n`` per site, the bond ``(a, b)`` of
hopping ``t`` and pairing ``d`` flips bits ``a`` and ``b`` with amplitude
``prod_{a<m<b} z_m (jx - jy z_a z_b)``, ``jx = -(t + d)/2``,
``jy = -(t - d)/2``, and the chemical potential is the diagonal
``(mu/2) sum z``.  One builder assembles that matrix for open and closed
chains, and X-basis marginals rotate the same ground state.

Basis conventions
-----------------
Occupation basis index ``i``: bit ``j`` of ``i`` is the occupation of site
``j`` (site 0 is the least significant bit).  Jordan-Wigner sign of ``c_j`` is
``(-1)**(number of occupied sites below j)``.

Spin basis: qubit value 0 means spin up (``sigma_z = +1``), which corresponds
to an empty site (``sigma_z = 1 - 2n``); spin bitstrings therefore coincide
with occupation bitstrings.  Marginal distributions are indexed with bit ``a``
of the outcome equal to the measured value of ``sites[a]`` (1 means occupied
in the Z basis, and ``sigma_x = -1`` in the X basis).

Closed chains implement ``c_{N+1} = -c_1`` (antiperiodic); their ground state
energies match the momentum-space solution exactly, which pins the
pair-counting conventions used by :mod:`kitaev_de.entropy`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DegenerateGroundStateError, InvalidParameterError
from .model import ModelSpec, Variant, _range_weights, open_chain_weights

MAX_SITES = 12
DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class FockGroundState:
    """Ground state amplitudes over occupation bitstrings."""

    amplitudes: np.ndarray
    energy: float
    n: int
    spec: ModelSpec
    boundary: str


def _spins(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Basis indices, ``z[i, j] = 1 - 2 n_j`` and the Jordan-Wigner strings
    ``jw[i, k] = prod_{m<k} z[i, m]`` for ``k = 0..n``."""
    idx = np.arange(1 << n)
    z = 1.0 - 2.0 * ((idx[:, None] >> np.arange(n)) & 1)
    jw = np.cumprod(np.column_stack([np.ones(idx.size), z]), axis=1)
    return idx, z, jw


def _bonds(spec: ModelSpec, n: int, boundary: str) -> tuple[np.ndarray, np.ndarray]:
    """Upper-triangular hop ``t`` and pair ``d`` tables of
    ``H = sum_{a<b} [-t_ab (c^dag_a c_b + h.c.) + d_ab (c_a c_b + h.c.)]
    - mu sum_j (n_j - 1/2)``.

    Ring bonds ``(j, j + l)`` are folded onto ``a < b``: a bond that wraps
    carries the antiperiodic -1, and a pair term ``c_j c_b`` with ``j > b``
    flips sign.  Closed-chain weights are the momentum solution's.
    """
    if boundary == "open":
        hop, pair = open_chain_weights(spec, n)
        wrapped = 0.0  # an open chain has no bond that wraps
    elif boundary == "antiperiodic":
        wrapped = -1.0  # c_{j+n} = -c_j
        if spec.variant is Variant.LONG_RANGE_PAIRING:
            hop = np.zeros(n - 1)
            hop[0] = 0.5 * spec.j
            # each pairing bond is summed from both ends, hence Delta/4
            pair = 0.25 * spec.delta * _range_weights(spec.alpha, n - 1, n)
        else:
            hop = spec.j * _range_weights(spec.beta, spec.r, n)
            pair = spec.delta * _range_weights(spec.alpha, spec.r, n)
    else:
        raise InvalidParameterError("boundary", f"unknown boundary {boundary!r}")
    j = np.arange(n)
    l = np.arange(1, len(hop) + 1)[:, None]
    b = (j + l) % n
    sign = np.where(j + l >= n, wrapped, 1.0)
    lo, hi = np.minimum(j, b), np.maximum(j, b)
    t, d = np.zeros((n, n)), np.zeros((n, n))
    np.add.at(t, (lo, hi), hop[:, None] * sign)
    np.add.at(d, (lo, hi), pair[:, None] * sign * np.where(j < b, 1.0, -1.0))
    return t, d


def _hamiltonian(spec: ModelSpec, n: int, boundary: str) -> sp.csr_matrix:
    """Sparse many-body Hamiltonian: one signed bit flip per bond of
    :func:`_bonds` plus the ``(mu/2) sum z`` diagonal (module docstring)."""
    t, d = _bonds(spec, n, boundary)
    a, b = np.nonzero((t != 0.0) | (d != 0.0))
    jx, jy = -(t[a, b] + d[a, b]) / 2.0, -(t[a, b] - d[a, b]) / 2.0
    idx, z, jw = _spins(n)
    amp = jw[:, a + 1] * jw[:, b] * (jx - jy * z[:, a] * z[:, b])
    rows = np.column_stack([idx, idx[:, None] ^ ((1 << a) | (1 << b))])
    vals = np.column_stack([0.5 * spec.mu * z.sum(axis=1), amp])
    cols = np.broadcast_to(idx[:, None], rows.shape)
    return sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(idx.size, idx.size))


def _lowest_two(h: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    dim = h.shape[0]
    if dim <= 16:
        vals, vecs = np.linalg.eigh(h.toarray())
        return vals[:2], vecs[:, 0]
    v0 = np.full(dim, 1.0 / math.sqrt(dim))
    vals, vecs = spla.eigsh(h, k=2, which="SA", v0=v0)
    order = np.argsort(vals)
    return vals[order], vecs[:, order[0]]


def ed_ground_state(spec: ModelSpec, n: int, boundary: str = "open") -> FockGroundState:
    """Exact ground state of the n-site chain (n <= 12).

    Raises :class:`DegenerateGroundStateError` when the two lowest levels are
    closer than 1e-10.
    """
    if not 2 <= n <= MAX_SITES:
        raise InvalidParameterError("n", f"oracle supports 2 <= n <= {MAX_SITES}, got {n}")
    vals, vec = _lowest_two(_hamiltonian(spec, n, boundary))
    if vals[1] - vals[0] < DEGENERACY_TOL:
        raise DegenerateGroundStateError(
            f"two lowest levels within {vals[1] - vals[0]:.3e}")
    vec = np.real(vec)
    vec /= np.linalg.norm(vec)
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    return FockGroundState(amplitudes=vec, energy=float(vals[0]), n=n,
                           spec=spec, boundary=boundary)


def ed_spectrum(spec: ModelSpec, n: int, boundary: str = "open") -> np.ndarray:
    """Full many-body spectrum (dense; keep n small)."""
    return np.linalg.eigvalsh(_hamiltonian(spec, n, boundary).toarray())


def eigen_residual(state: FockGroundState) -> float:
    """``||H psi - E psi||`` for a returned ground state."""
    h = _hamiltonian(state.spec, state.n, state.boundary)
    return float(np.linalg.norm(h @ state.amplitudes - state.energy * state.amplitudes))


def spin_ground_state(spec: ModelSpec, n: int) -> tuple[np.ndarray, float]:
    """``(amplitudes, energy)`` of the open chain, which is its spin chain."""
    state = ed_ground_state(spec, n, "open")
    return state.amplitudes, state.energy


# ---------------------------------------------------------------------------
# marginals and expectation helpers
# ---------------------------------------------------------------------------

def _marginal_from_probs(probs: np.ndarray, n: int, sites) -> np.ndarray:
    """Marginal over ``sites``; output bit a = outcome of sites[a]."""
    sites = list(sites)
    tensor = probs.reshape([2] * n)  # axis a corresponds to bit n-1-a
    keep_axes = [n - 1 - s for s in sites]
    drop = tuple(ax for ax in range(n) if ax not in keep_axes)
    tensor = tensor.sum(axis=drop)
    # remaining axes are ordered by descending site; put sites[-1] first,
    # sites[0] last so that C-order flattening makes sites[a] bit a.
    remaining = sorted(sites, reverse=True)  # site order of current axes
    perm = [remaining.index(s) for s in reversed(sites)]
    return tensor.transpose(perm).reshape(-1)


def _hadamard_rotate(amps: np.ndarray, n: int, sites) -> np.ndarray:
    """Apply a Hadamard on each selected qubit of a state vector."""
    out = amps.copy()
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for s in sites:
        t = out.reshape(-1, 2, 1 << s) if s > 0 else out.reshape(-1, 2, 1)
        a = t[:, 0, :].copy()
        b = t[:, 1, :].copy()
        t[:, 0, :] = (a + b) * inv_sqrt2
        t[:, 1, :] = (a - b) * inv_sqrt2
        out = t.reshape(-1)
    return out


def ed_diagonal_marginal(state: FockGroundState, sites, basis: str = "z") -> np.ndarray:
    """Diagonal (measurement) distribution of the selected sites.

    Z basis: probabilities over occupation bitstrings of ``sites``.
    X basis: distribution of joint ``sigma_x`` outcomes of the same state read
    as a spin state (open chains only); outcome bit 1 means ``sigma_x = -1``.
    """
    basis = basis.lower()
    if basis == "z":
        return _marginal_from_probs(np.abs(state.amplitudes) ** 2, state.n, sites)
    if basis == "x":
        if state.boundary != "open":
            raise InvalidParameterError(
                "basis", "sigma_x marginals are defined for open chains only")
        rotated = _hadamard_rotate(state.amplitudes, state.n, sites)
        return _marginal_from_probs(np.abs(rotated) ** 2, state.n, sites)
    raise InvalidParameterError("basis", f"unknown basis {basis!r}")


def ed_sigma_z_product(state: FockGroundState, sites) -> float:
    """``< prod_{j in sites} sigma_z_j >`` with ``sigma_z = 1 - 2 n``."""
    _, z, _ = _spins(state.n)
    return float(np.dot(np.abs(state.amplitudes) ** 2, z[:, list(sites)].prod(axis=1)))


def ed_sigma_x_product(spec: ModelSpec, n: int, sites) -> float:
    """``< prod sigma_x >`` in the spin picture of the open chain."""
    amps, _ = spin_ground_state(spec, n)
    mask = 0
    for s in sites:
        mask ^= 1 << s
    idx = np.arange(amps.size)
    return float(np.dot(amps, amps[idx ^ mask]))


def ed_pair_correlator(state: FockGroundState, a: int, b: int) -> float:
    """``<A_a B_b>`` with ``A = c^dag + c`` and ``B = c^dag - c``.

    Both are signed bit flips: ``A_a`` with the Jordan-Wigner sign
    ``prod_{m<a} z_m``, ``B_b`` with ``prod_{m<b} z_m z_b``.  ``A`` is
    Hermitian, so ``<A_a B_b> = (A_a v).(B_b v)``.
    """
    v = state.amplitudes
    idx, z, jw = _spins(state.n)
    av = (jw[:, a] * v)[idx ^ (1 << a)]
    bv = (jw[:, b] * z[:, b] * v)[idx ^ (1 << b)]
    return float(av @ bv)
