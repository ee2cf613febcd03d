"""Brute-force exact diagonalization of small chains (N <= 12).

Ground truth for correlators, diagonal distributions and entropies.  The
Hamiltonian is assembled directly in the fermion occupation basis with exact
sign bookkeeping; the spin picture (for sigma_x-basis marginals) is built from
:func:`kitaev_de.model.spin_couplings` and is isospectral to the fermionic
open chain, which the tests assert.

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
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DegenerateGroundStateError
from .model import ModelSpec, Variant, open_chain_weights, spin_couplings

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


def _popcount_below(idx: np.ndarray, j: int) -> np.ndarray:
    """Number of set bits of idx strictly below bit j."""
    count = np.zeros_like(idx)
    for m in range(j):
        count += (idx >> m) & 1
    return count


@lru_cache(maxsize=16)
def _annihilators(n: int) -> tuple:
    """Sparse matrices of c_j (j = 0..n-1) in the occupation basis."""
    dim = 1 << n
    idx = np.arange(dim)
    ops = []
    for j in range(n):
        occupied = ((idx >> j) & 1) == 1
        src = idx[occupied]
        dst = src - (1 << j)
        sign = np.where(_popcount_below(src, j) % 2 == 0, 1.0, -1.0)
        ops.append(sp.csr_matrix((sign, (dst, src)), shape=(dim, dim)))
    return tuple(ops)


def _assemble_hamiltonian(spec: ModelSpec, n: int, boundary: str) -> sp.csr_matrix:
    c = _annihilators(n)
    cd = [op.T.tocsr() for op in c]
    dim = 1 << n
    h = sp.csr_matrix((dim, dim))

    def add_hop(a, b, coeff):
        # -coeff would be folded by the caller; adds coeff*(c^dag_a c_b + h.c.)
        nonlocal h
        h = h + coeff * (cd[a] @ c[b] + cd[b] @ c[a])

    def add_pair(a, b, coeff):
        # adds coeff*(c_a c_b + c^dag_b c^dag_a)
        nonlocal h
        term = c[a] @ c[b]
        h = h + coeff * (term + term.T)

    # chemical potential: -mu * sum_j (n_j - 1/2)
    for j in range(n):
        h = h - spec.mu * (cd[j] @ c[j])
    h = h + spec.mu * n / 2.0 * sp.identity(dim, format="csr")

    if boundary == "open":
        hop, pair = open_chain_weights(spec, n)
        for l in range(1, n):
            for j in range(0, n - l):
                if hop[l - 1] != 0.0:
                    add_hop(j, j + l, -hop[l - 1])
                if pair[l - 1] != 0.0:
                    add_pair(j, j + l, pair[l - 1])
    elif boundary == "antiperiodic":
        def wrap(site):
            return (site % n, -1.0 if site >= n else 1.0)

        if spec.variant is Variant.LONG_RANGE_PAIRING:
            for j in range(n):
                b, s = wrap(j + 1)
                add_hop(j, b, -0.5 * spec.j * s)
            # (Delta/4) * sum_{j, l=1..n-1} w_l (c_j c_{j+l} + h.c.): the ring
            # sum covers each bond from both ends, reproducing the momentum
            # form with y = (Delta/2) f_alpha(k) at every alpha.
            l_arr = np.arange(1, n)
            if math.isinf(spec.alpha):
                w = (l_arr == 1).astype(float)
            else:
                w = np.minimum(l_arr, n - l_arr).astype(float) ** (-spec.alpha)
            for l in range(1, n):
                if w[l - 1] == 0.0:
                    continue
                for j in range(n):
                    b, s = wrap(j + l)
                    add_pair(j, b, 0.25 * spec.delta * w[l - 1] * s)
        else:
            for l in range(1, spec.r + 1):
                d = float(min(l, n - l))
                wj = d ** (-spec.beta) if not math.isinf(spec.beta) else float(l == 1)
                wd = d ** (-spec.alpha) if not math.isinf(spec.alpha) else float(l == 1)
                for j in range(n):
                    b, s = wrap(j + l)
                    if wj != 0.0:
                        add_hop(j, b, -spec.j * wj * s)
                    if wd != 0.0:
                        add_pair(j, b, spec.delta * wd * s)
    else:
        raise ValueError(f"unknown boundary {boundary!r}")
    return h.tocsr()


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
        raise ValueError(f"oracle supports 2 <= n <= {MAX_SITES}, got {n}")
    h = _assemble_hamiltonian(spec, n, boundary)
    vals, vec = _lowest_two(h)
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
    h = _assemble_hamiltonian(spec, n, boundary)
    return np.linalg.eigvalsh(h.toarray())


def eigen_residual(state: FockGroundState) -> float:
    """``||H psi - E psi||`` for a returned ground state."""
    h = _assemble_hamiltonian(state.spec, state.n, state.boundary)
    return float(np.linalg.norm(h @ state.amplitudes - state.energy * state.amplitudes))


# ---------------------------------------------------------------------------
# spin picture (Jordan-Wigner image), used for sigma_x-basis references
# ---------------------------------------------------------------------------

def spin_hamiltonian(spec: ModelSpec, n: int) -> sp.csr_matrix:
    """Sparse spin Hamiltonian equivalent to the open fermionic chain.

    ``H = sum_l sum_j [jx_l X_j X_{j+l} + jy_l Y_j Y_{j+l}] * prod Z_mid
    + (mu/2) sum_j Z_j`` with the couplings of
    :func:`kitaev_de.model.spin_couplings`.  Each bond term is a signed bit
    flip: it maps the basis state ``idx`` to ``idx ^ (1<<j | 1<<(j+l))`` with
    amplitude ``prod z_mid * (jx_l - jy_l z_j z_{j+l})``, where ``z = +-1``
    are the ``sigma_z`` values of ``idx`` (``Y Y = -z z`` on a flip).
    """
    coup = spin_couplings(spec, l_max=n - 1)
    dim = 1 << n
    idx = np.arange(dim)
    z = 1.0 - 2.0 * ((idx[:, None] >> np.arange(n)) & 1)  # z[idx, site]
    rows, cols, vals = [idx], [idx], [0.5 * coup.mu * z.sum(axis=1)]
    for l in range(1, n):
        jx, jy = coup.jx[l - 1], coup.jy[l - 1]
        if jx == 0.0 and jy == 0.0:
            continue
        for j in range(0, n - l):
            amp = z[:, j + 1:j + l].prod(axis=1) * (jx - jy * z[:, j] * z[:, j + l])
            rows.append(idx ^ (1 << j | 1 << (j + l)))
            cols.append(idx)
            vals.append(amp)
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(dim, dim))


def spin_ground_state(spec: ModelSpec, n: int) -> tuple[np.ndarray, float]:
    """Ground state of the spin picture (open chain only)."""
    vals, vec = _lowest_two(spin_hamiltonian(spec, n))
    if vals[1] - vals[0] < DEGENERACY_TOL:
        raise DegenerateGroundStateError(
            f"two lowest spin levels within {vals[1] - vals[0]:.3e}")
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    return vec, float(vals[0])


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
    X basis: distribution of joint ``sigma_x`` outcomes, computed in the spin
    picture (open chains only); outcome bit 1 means ``sigma_x = -1``.
    """
    basis = basis.lower()
    if basis == "z":
        return _marginal_from_probs(np.abs(state.amplitudes) ** 2, state.n, sites)
    if basis == "x":
        if state.boundary != "open":
            raise ValueError("sigma_x marginals are defined for open chains only")
        amps, _ = spin_ground_state(state.spec, state.n)
        rotated = _hadamard_rotate(amps, state.n, sites)
        return _marginal_from_probs(np.abs(rotated) ** 2, state.n, sites)
    raise ValueError(f"unknown basis {basis!r}")


def ed_sigma_z_product(state: FockGroundState, sites) -> float:
    """``< prod_{j in sites} sigma_z_j >`` with ``sigma_z = 1 - 2 n``."""
    probs = np.abs(state.amplitudes) ** 2
    idx = np.arange(probs.size)
    signs = np.ones(probs.size)
    for s in sites:
        signs *= 1.0 - 2.0 * ((idx >> s) & 1)
    return float(np.dot(probs, signs))


def ed_sigma_x_product(spec: ModelSpec, n: int, sites) -> float:
    """``< prod sigma_x >`` in the spin picture of the open chain."""
    amps, _ = spin_ground_state(spec, n)
    mask = 0
    for s in sites:
        mask ^= 1 << s
    idx = np.arange(amps.size)
    return float(np.dot(amps, amps[idx ^ mask]))


def ed_pair_correlator(state: FockGroundState, a: int, b: int) -> float:
    """``<A_a B_b>`` with ``A = c^dag + c`` and ``B = c^dag - c``."""
    c = _annihilators(state.n)
    amat = (c[a].T + c[a]).toarray()
    bmat = (c[b].T - c[b]).toarray()
    v = state.amplitudes
    return float(v @ (amat @ (bmat @ v)))
