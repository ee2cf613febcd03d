"""Brute-force exact diagonalization of small chains (N <= 12).

Ground truth for correlators, diagonal distributions and entropies.  In the
fermion occupation basis the chain *is* its Jordan-Wigner spin chain (Lieb,
Schultz & Mattis 1961): with ``z = 1 - 2n`` per site, the bond ``(a, b)`` of
hopping ``t`` and pairing ``d`` flips bits ``a`` and ``b`` with amplitude
``prod_{a<m<b} z_m (jx - jy z_a z_b)``, ``jx = -(t + d)/2``,
``jy = -(t - d)/2``, and the chemical potential is the diagonal
``(mu/2) sum z``.  One builder assembles that matrix, matrix-free, for open
and closed chains, and X-basis marginals rotate the same ground state.

The two lowest levels come from a Lanczos iteration in numpy (Lanczos 1950)
with full reorthogonalisation, started from the uniform vector and
continued from a fixed-seed vector whenever the Krylov space closes, as
ARPACK does (Lehoucq, Sorensen & Yang 1998).  H keeps fermion parity
``prod z``, so a non-degenerate ground state lies in one parity block and
is returned projected onto it; a ground vector with weight in both blocks
is a doublet across them and raises :class:`DegenerateGroundStateError`.

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

from .errors import DegenerateGroundStateError, InvalidParameterError, _basis, _integer
from .model import ModelSpec, Variant, _range_weights, open_chain_weights

MAX_SITES = 12
DEGENERACY_TOL = 1e-10
RESIDUAL_TOL = 1e-13  # Lanczos stop: Ritz residual bound / spectral scale
CHECK_EVERY = 10      # Lanczos steps between convergence checks
PARITY_TOL = 1e-8     # ground-vector weight allowed in the other parity block
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class FockGroundState:
    """Ground state amplitudes over occupation bitstrings."""

    amplitudes: np.ndarray
    energy: float
    n: int
    spec: ModelSpec
    boundary: str


def _odd(idx: np.ndarray) -> np.ndarray:
    """True where ``idx`` has an odd number of set bits (odd fermion parity)."""
    return np.bitwise_count(idx) % 2 == 1


def _sign(idx: np.ndarray, mask) -> np.ndarray:
    """``prod z_m`` over the sites ``m`` of the bit ``mask`` for each basis
    index, ``z = 1 - 2 n``: -1 where an odd number of them is occupied."""
    return 1.0 - 2.0 * _odd(idx & mask)


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


class _Operator:
    """Matrix-free Hamiltonian ``(H v)[i] = sum_b vals[b, i] v[cols[b, i]]``:
    row 0 is the diagonal, each further row one bond's bit flip."""

    def __init__(self, cols: np.ndarray, vals: np.ndarray):
        self.cols, self.vals = cols, vals
        self.shape = (cols.shape[1], cols.shape[1])
        # Gershgorin: no level lies further from 0 than the largest row sum
        self.norm_bound = float(np.abs(vals).sum(axis=0).max())
        # one gather buffer per operator: a fresh one of this size would be
        # mapped and faulted in again on every product
        self._gathered = np.empty(vals.shape)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        # every column is in range: "clip" only skips the bounds check
        np.take(v, self.cols, out=self._gathered, mode="clip")
        return np.einsum("bi,bi->i", self.vals, self._gathered)

    def toarray(self) -> np.ndarray:
        h = np.zeros(self.shape)
        h[np.arange(self.shape[0]), self.cols] = self.vals
        return h


def _hamiltonian(spec: ModelSpec, n: int, boundary: str) -> _Operator:
    """Many-body Hamiltonian: one signed bit flip per bond of :func:`_bonds`
    plus the ``(mu/2) sum z`` diagonal (module docstring).

    Every sign is :func:`_sign` of a mask: the string ``prod_{a<m<b} z_m`` of
    ``(1 << b) - (2 << a)`` and ``z_a z_b`` of the flipped bits.  Neither
    changes when bits ``a`` and ``b`` flip, so ``H[i, i ^ flip]``, the
    amplitude at ``i ^ flip``, is the amplitude at ``i``.
    """
    t, d = _bonds(spec, n, boundary)
    a, b = np.nonzero((t != 0.0) | (d != 0.0))
    jx, jy = -(t[a, b] + d[a, b]) / 2.0, -(t[a, b] - d[a, b]) / 2.0
    idx = np.arange(1 << n)[None, :]
    flip = ((1 << a) | (1 << b))[:, None]
    amp = _sign(idx, ((1 << b) - (2 << a))[:, None]) * (
        jx[:, None] - jy[:, None] * _sign(idx, flip))
    diagonal = 0.5 * spec.mu * (n - 2.0 * np.bitwise_count(idx))
    return _Operator(np.vstack([idx, idx ^ flip]), np.vstack([diagonal, amp]))


def _orthogonalise(w: np.ndarray, basis: np.ndarray) -> float:
    """Remove from ``w``, in place, its part along the orthonormal rows of
    ``basis`` and return its norm; a second pass runs when the first left
    less than 0.7 of its norm ("twice is enough", Parlett 1980)."""
    before = np.linalg.norm(w)
    for _ in range(2):
        w -= (basis @ w) @ basis
        after = np.linalg.norm(w)
        if after > 0.7 * before:
            break
        before = after
    return after


def _lowest_two(h: _Operator) -> tuple[np.ndarray, np.ndarray]:
    """The two lowest levels of ``h`` and a ground vector, by Lanczos.

    The iteration starts from the uniform vector and reorthogonalises each
    new vector against the whole basis.  Every ``CHECK_EVERY`` steps it
    stops if the residual bounds ``|beta s_last|`` of the two lowest Ritz
    pairs are at most ``RESIDUAL_TOL`` of the largest Ritz value.  When the
    Krylov space closes (beta ~ 0) its levels are exact, and the iteration
    goes on from a fixed-seed vector orthogonal to it, as ARPACK does.  That
    generic start meets every level of the rest of the space, so it also
    waits for its own lowest Ritz pair, and once its space closes in turn
    the basis holds every distinct level.
    """
    dim = h.shape[0]
    q = np.empty((min(dim, 64), dim))
    q[0] = 1.0 / math.sqrt(dim)
    alpha, beta = np.zeros(dim), np.zeros(dim)
    restart = 0  # index of the fixed-seed vector, 0 before the restart
    for k in range(dim):
        w = h @ q[k]
        alpha[k] = q[k] @ w
        w -= alpha[k] * q[k]
        if k > 0:
            w -= beta[k - 1] * q[k - 1]
        basis = q[:k + 1]
        beta[k] = _orthogonalise(w, basis)
        # a product carries rounding of order eps ||H||, whatever q is
        closed = beta[k] <= RESIDUAL_TOL * h.norm_bound
        if closed:
            beta[k] = 0.0
        if (closed and restart) or k + 1 == dim or (
                not closed and (k + 1 - restart) % CHECK_EVERY == 0):
            # eigh reads the lower triangle only
            theta, s = np.linalg.eigh(np.diag(alpha[:k + 1]) + np.diag(beta[:k], -1))
            newest = np.argmax(np.einsum("ij,ij->j", s[restart:], s[restart:]) > 0.5)
            bound = np.abs(beta[k] * s[k, [0, 1, newest]])
            if k + 1 == dim or bound.max() <= RESIDUAL_TOL * np.abs(theta).max():
                return theta[:2], basis.T @ s[:, 0]
        if k + 1 == q.shape[0]:
            q = np.concatenate([q, np.empty((min(dim, 2 * q.shape[0]) - q.shape[0], dim))])
        if closed:
            restart = k + 1
            w = np.random.default_rng(0).standard_normal(dim)
            _orthogonalise(w, basis)
        q[k + 1] = w / np.linalg.norm(w)
    raise AssertionError("unreachable: the last step spans the space")


def ed_ground_state(spec: ModelSpec, n: int, boundary: str = "open") -> FockGroundState:
    """Exact ground state of the n-site chain (n <= 12).

    H keeps fermion parity, so the ground vector lies in one parity block
    and is returned projected onto it.  Raises
    :class:`DegenerateGroundStateError` when the two lowest levels are
    closer than 1e-10, or when the ground vector holds more than 1e-8 of its
    weight in each block: one Krylov vector meets an exact doublet across
    the blocks only once, as a mixture of its two states.
    """
    n = _integer(n, "n", 2, MAX_SITES)
    vals, vec = _lowest_two(_hamiltonian(spec, n, boundary))
    if vals[1] - vals[0] < DEGENERACY_TOL:
        raise DegenerateGroundStateError(
            f"two lowest levels within {vals[1] - vals[0]:.3e}")
    odd = _odd(np.arange(vec.size))
    weight = np.array([vec[~odd] @ vec[~odd], vec[odd] @ vec[odd]]) / (vec @ vec)
    if weight.min() > PARITY_TOL:
        raise DegenerateGroundStateError(
            f"ground vector has weight {weight.min():.3e} in both parity "
            "blocks: a doublet across them")
    vec[odd if weight[0] > weight[1] else ~odd] = 0.0
    vec /= np.linalg.norm(vec)
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    return FockGroundState(amplitudes=vec, energy=float(vals[0]), n=n,
                           spec=spec, boundary=boundary)


def ed_spectrum(spec: ModelSpec, n: int, boundary: str = "open") -> np.ndarray:
    """Full many-body spectrum, sorted: the union of the spectra of the two
    parity blocks of ``2**(n-1)`` states each (dense; keep n small)."""
    h = _hamiltonian(spec, _integer(n, "n", 2), boundary).toarray()
    odd = _odd(np.arange(h.shape[0]))
    return np.sort(np.concatenate([np.linalg.eigvalsh(h[np.ix_(block, block)])
                                   for block in (~odd, odd)]))


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

def ed_diagonal_marginal(state: FockGroundState, sites, basis: str = "z") -> np.ndarray:
    """Diagonal (measurement) distribution of the distinct ``sites``: the
    squared amplitudes binned by the measured bits, outcome bit ``a`` being
    bit ``sites[a]`` of the basis index.  Every oracle reader takes integer
    sites in ``0 .. n - 1`` only: another value would read a wrong bit or none.

    Z basis: probabilities over occupation bitstrings of ``sites``.
    X basis: the same after one Hadamard per measured qubit, the state read
    as a spin state (open chains only); outcome bit 1 means ``sigma_x = -1``.
    """
    sites = [_integer(s, "sites", 0, state.n - 1) for s in sites]
    if len(set(sites)) < len(sites):
        raise InvalidParameterError("sites", f"a site is listed twice in {sites}")
    amps = state.amplitudes
    if _basis(basis) == "x":
        if state.boundary != "open":
            raise InvalidParameterError(
                "basis", "sigma_x marginals are defined for open chains only")
        for s in sites:
            pair = amps.reshape(-1, 2, 1 << s)  # axis 1 is bit s
            amps = np.stack([pair[:, 0] + pair[:, 1], pair[:, 0] - pair[:, 1]],
                            axis=1).reshape(-1) * _INV_SQRT2
    idx = np.arange(amps.size)
    outcome = np.zeros_like(idx)
    for a, s in enumerate(sites):
        outcome |= ((idx >> s) & 1) << a
    return np.bincount(outcome, weights=amps ** 2, minlength=1 << len(sites))


def _mask(sites, n: int) -> int:
    """Bit mask of ``sites``; a site listed twice drops out, as
    ``sigma^2 = 1``."""
    mask = 0
    for s in sites:
        mask ^= 1 << _integer(s, "sites", 0, n - 1)
    return mask


def ed_sigma_z_product(state: FockGroundState, sites) -> float:
    """``< prod_{j in sites} sigma_z_j >`` with ``sigma_z = 1 - 2 n``: each
    basis state contributes with the parity of its occupied ``sites``."""
    idx = np.arange(state.amplitudes.size)
    sign = _sign(idx, _mask(sites, state.n))
    return float(np.dot(np.abs(state.amplitudes) ** 2, sign))


def ed_sigma_x_product(spec: ModelSpec, n: int, sites) -> float:
    """``< prod sigma_x >`` in the spin picture of the open chain."""
    amps, _ = spin_ground_state(spec, n)
    idx = np.arange(amps.size)
    return float(np.dot(amps, amps[idx ^ _mask(sites, n)]))


def ed_pair_correlator(state: FockGroundState, a: int, b: int) -> float:
    """``<A_a B_b>`` with ``A = c^dag + c`` and ``B = c^dag - c``.

    Both are signed bit flips: ``A_a`` with the Jordan-Wigner sign
    ``prod_{m<a} z_m``, ``B_b`` with ``prod_{m<b} z_m z_b``.  ``A`` is
    Hermitian, so ``<A_a B_b> = (A_a v).(B_b v)``.
    """
    a, b = _integer(a, "a", 0, state.n - 1), _integer(b, "b", 0, state.n - 1)
    v = state.amplitudes
    idx = np.arange(v.size)
    av = (_sign(idx, (1 << a) - 1) * v)[idx ^ (1 << a)]
    bv = (_sign(idx, (2 << b) - 1) * v)[idx ^ (1 << b)]
    return float(av @ bv)
