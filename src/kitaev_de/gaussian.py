"""Ground-state pair correlators and multi-site spin correlators (Wick).

Correlation sources
-------------------
* :class:`CorrelatorKernel` -- translation-invariant chains.  ``g[R]`` holds
  ``G_R = (1/N) sum_k exp(i R k) exp(-2 i theta_k)``, which equals
  ``<A_a B_{a+R}>`` with ``A = c^dag + c``, ``B = c^dag - c``.  As
  ``theta_{-k} = -theta_k``, each k < 0 term is the complex conjugate of its
  k > 0 partner, so ``G_R = (2/N) Re sum_m exp(i R k_m) q_m`` over the
  ``M = N/2`` momenta ``k_m = pi (2m + 1) / N`` with
  ``q_m = exp(-2 i theta(k_m)) = -(z + i y) / eps``: real by construction and
  read from the k > 0 half alone.  Under ``Re`` an odd term may be
  conjugated, and ``conj(exp(i R k_{2p+1}))`` is
  ``exp(i pi R / N) exp(2 pi i R (M - 1 - p) / M)``, while the even term
  ``m = 2j`` is ``exp(i pi R / N) exp(2 pi i R j / M)``.  So with Makhoul's
  even/odd reordering (J. Makhoul, IEEE Trans. ASSP 28, 27, 1980)
  ``v = (q_0, q_2, q_4, ..., conj q_5, conj q_3, conj q_1)`` the whole
  table is one FFT of length M:
  ``G_R = Re(exp(i pi R / N) sum_j v_j exp(2 pi i R j / M)) / M``.
* :class:`DenseCorrelations` -- open chains; the full matrix ``m[a, b] =
  <A_a B_b>``.  In these operators the open chain reads
  ``H = -(1/2) sum_{ab} K_{ab} A_a B_b`` with the real coupling matrix K of
  :mod:`kitaev_de.majorana`, so ``<H> = -tr(K^T m) / 2``.  Over orthogonal
  contraction matrices this is lowest at the polar factor of K, ``m = u v^T``
  for ``K = u diag(s) v^T``, with ground energy ``-sum(s) / 2`` (Lieb,
  Schultz & Mattis, Ann. Phys. 16, 407, 1961).  K is persymmetric, so with
  ``K P = W diag(lam) W^T`` (P the site reversal) the polar factor is
  ``m = W sign(lam) W^T P`` and ``s = |lam|``: one symmetric eigensolve.
  As W is orthogonal, ``W sign(lam) W^T = 2 W_+ W_+^T - I`` with ``W_+`` the
  columns of the positive ``lam``, about half of them, so the product is one
  symmetric rank-k update instead of a full matrix product.

With these contractions, ``sigma_z = A_j B_j = 1 - 2 n_j`` and every subset
expectation ``< prod_{j in S} sigma_z_j >`` is the determinant of the A-B
submatrix.  ``sigma_x`` strings reduce to the same problem through the
Jordan-Wigner bond duality (Lieb, Schultz & Mattis 1961): the bond operator
``X_m X_{m+1} = B_m A_{m+1}`` is again a product of two distinct Majoranas,
so ``X_{s_1} X_{s_2} X_{s_3} X_{s_4} ...`` is the product of the bonds in
``[s_1, s_2) u [s_3, s_4) u ...`` and its expectation is the determinant of
the bond contraction matrix ``<B_{m_i} A_{m_j + 1}>``.  Both rules are pinned
against the exact-diagonalization oracle in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateGroundStateError, GaplessSpecError,
                     InvalidParameterError, OddDimensionError,
                     SpectrumOverflowError, _integer)
from .majorana import _reflected
from .model import DEFAULT_GRID, ModelSpec, _gapped_grid

ANTISYM_TOL = 1e-12  # pfaffian: largest ||M + M^T|| relative to ||M||


@dataclass(frozen=True)
class CorrelatorKernel:
    """Toeplitz pair-correlation kernel ``G_R`` for ``|R| <= l_max``."""

    g: np.ndarray  # values for R = -l_max .. l_max
    l_max: int
    n: int

    def value(self, r: int) -> float:
        return float(self.g[_integer(r, "r", -self.l_max, self.l_max) + self.l_max])


@dataclass(frozen=True)
class DenseCorrelations:
    """Open-chain pair correlations ``m[a, b] = <A_a B_b>``."""

    m: np.ndarray
    energy: float
    eps_min: float


CorrelationSource = CorrelatorKernel | DenseCorrelations


def correlator_kernel(spec: ModelSpec, n: int = DEFAULT_GRID,
                      l_max: int = 32) -> CorrelatorKernel:
    """Tabulate ``G_R`` by the discrete momentum sum over the n-point grid.

    The k > 0 half of the grid holds the sum (see the module docstring):
    ``q = -(z + i y) / eps`` from :func:`~kitaev_de.model._gapped_grid`,
    reordered by Makhoul's identity into ``v = (q_0, q_2, ..., conj q_3,
    conj q_1)`` (even indices ascending, then odd ones conjugated and
    descending; J. Makhoul, IEEE Trans. ASSP 28, 27, 1980), goes through one
    FFT of length ``n/2``, which gives every ``R = -l_max .. l_max`` at once,
    ``G_R = Re(exp(i pi R / n) fft(v)[-R mod n/2]) / (n/2)``, in
    O(n log n).

    Requires ``l_max < n/4`` for kernel accuracy (so the lags are distinct
    modulo n/2) and a gapped spectrum (minimum grid gap above 1e-8),
    otherwise the integrand is discontinuous.  An infinite numerator passes
    the gap check as ``eps = inf`` but leaves ``q`` NaN, so a non-finite
    ``G`` raises :class:`GaplessSpecError` too.
    """
    l_max = _integer(l_max, "l_max", 0)
    n = _integer(n, "n", 4 * l_max + 1)  # l_max < n / 4
    y, z, eps, _ = _gapped_grid(spec, n)
    inv = -1.0 / eps  # exp(-2 i theta) = (z + i y) inv, the bits of q / -eps
    half = n // 2
    v = np.empty(half, complex)
    even = (half + 1) // 2
    # the scaled numerators go straight into v's float views, with no complex
    # q; y, z, eps and inv are freed before the transform and v before the
    # read, and the transform is fft(v), not ifft(v): the other forms tried
    # faulted more often in block-z runs (the glibc caveat in ROADMAP aim 1)
    for part, num in ((v.real, z), (v.imag, y)):
        np.multiply(num[::2], inv[::2], out=part[:even])
        np.multiply(num[1::2][::-1], inv[1::2][::-1], out=part[even:])
    np.negative(v.imag[even:], out=v.imag[even:])  # conj of the odd q
    del y, z, eps, inv
    r = np.arange(-l_max, l_max + 1)
    f = np.fft.fft(v)
    del v
    g = (np.exp(1j * np.pi * r / n) * f[-r % half]).real / half
    if not np.isfinite(g).all():
        raise GaplessSpecError("kernel is not finite: a numerator is infinite")
    g.flags.writeable = False
    return CorrelatorKernel(g=g, l_max=l_max, n=n)


def open_chain_correlations(spec: ModelSpec, n: int) -> DenseCorrelations:
    """Pair correlations of the open-chain ground state from one eigensolve.

    With ``K P = W diag(lam) W^T`` for the coupling matrix K of
    :func:`~kitaev_de.majorana.build_coupling` and the site reversal P,
    ``m`` is the polar factor ``W sign(lam) W^T P = (2 W_+ W_+^T - I) P`` of
    K, with ``W_+`` the eigenvectors of the positive ``lam``; the
    quasiparticle energies are ``|lam|`` and the ground energy is
    ``-sum(|lam|) / 2`` (see the module docstring).  Raises
    :class:`SpectrumOverflowError` when that sum is not finite and
    :class:`DegenerateGroundStateError` when the smallest quasiparticle
    energy is below 1e-10 (the ground state correlators are then
    ill-defined).  The eigensolve takes at most
    :data:`~kitaev_de.majorana.MAX_OPEN_SITES` sites.
    """
    lam, w = np.linalg.eigh(_reflected(spec, n))
    s = np.abs(lam)
    with np.errstate(over="ignore"):
        total = float(s.sum())
    if not np.isfinite(total):
        raise SpectrumOverflowError("the quasiparticle energies overflow the "
                                    "ground energy")
    eps_min = float(s.min())
    if eps_min < 1e-10:
        raise DegenerateGroundStateError(f"smallest quasiparticle energy {eps_min:.3e}")
    plus = w[:, np.searchsorted(lam, 0.0, side="right"):]  # lam ascends
    m = 2.0 * (plus @ plus.T)[:, ::-1]  # numpy's syrk: one triangle's flops
    sites = np.arange(n)
    m[sites, sites[::-1]] -= 1.0
    return DenseCorrelations(m=m, energy=-0.5 * total, eps_min=eps_min)


def _check_sites(source: CorrelationSource, sites, param: str) -> list[int]:
    """``sites`` as ints.  A dense source holds the sites 0 .. n - 1 of its
    open chain; a kernel takes any integer sites, since only their
    differences matter."""
    if isinstance(source, DenseCorrelations):
        return [_integer(s, param, 0, len(source.m) - 1) for s in sites]
    return [_integer(s, param) for s in sites]


def pair_correlation(source: CorrelationSource, a: int, b: int) -> float:
    """``<A_a B_b>`` from either source type."""
    (a,), (b,) = _check_sites(source, [a], "a"), _check_sites(source, [b], "b")
    if isinstance(source, CorrelatorKernel):
        return source.value(b - a)
    return float(source.m[a, b])


def _pair_matrix(source: CorrelationSource, rows: np.ndarray,
                 cols: np.ndarray) -> np.ndarray:
    """``[i, j] = <A_{rows_i} B_{cols_j}>`` from either source type."""
    if isinstance(source, CorrelatorKernel):
        r = cols[None, :] - rows[:, None]
        if r.size and np.abs(r).max() > source.l_max:
            raise InvalidParameterError(
                "source", f"|R|={np.abs(r).max()} exceeds tabulated "
                f"l_max={source.l_max}")
        return source.g[r + source.l_max]
    return source.m[np.ix_(rows, cols)]


def _bond_matrix(source: CorrelationSource, bonds: np.ndarray) -> np.ndarray:
    """``[i, j] = <B_{b_i} A_{b_j + 1}>``: the A-B contraction matrix of the
    bond operators ``X_b X_{b+1} = B_b A_{b+1}``."""
    return -_pair_matrix(source, bonds + 1, bonds).T


def sigma_z_correlator(source: CorrelationSource, sites) -> float:
    """``< prod_{j in sites} sigma_z_j >`` with ``sigma_z = 1 - 2 n``; as
    ``sigma_z^2 = 1``, sites listed twice drop out before the 20-site limit."""
    sites, count = np.unique(_check_sites(source, sites, "sites"), return_counts=True)
    sites = sites[count % 2 == 1]
    if sites.size == 0:
        return 1.0
    if sites.size > 20:
        raise InvalidParameterError("sites", "subset size limited to 20 sites")
    return float(np.linalg.det(_pair_matrix(source, sites, sites)))


def sigma_x_correlator(source: CorrelationSource, sites) -> float:
    """``< prod_{j in sites} sigma_x_j >``; zero for odd subsets (parity).

    Consecutive sites ``(s_1, s_2), (s_3, s_4), ...`` pair up into the bond
    ranges ``[s_1, s_2) u [s_3, s_4) u ...``, whose bond determinant is the
    correlator.
    """
    sites = sorted(_check_sites(source, sites, "sites"))
    if len(sites) % 2 == 1:
        return 0.0
    bonds = [m for i in range(0, len(sites), 2)
             for m in range(sites[i], sites[i + 1])]
    return float(np.linalg.det(_bond_matrix(source, np.asarray(bonds, dtype=int))))


# ---------------------------------------------------------------------------
# Pfaffian engine
# ---------------------------------------------------------------------------

def pfaffian(mat: np.ndarray) -> float:
    """Pfaffian of a real antisymmetric matrix (skew elimination, pivoting).

    Raises :class:`OddDimensionError` for odd dimension and
    :class:`InvalidParameterError` for a matrix that is not square, has a
    non-finite entry or whose ``||M + M^T||`` exceeds ``ANTISYM_TOL``
    relative to ``||M||``.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidParameterError("mat", "pfaffian requires a square matrix")
    n = len(mat)
    if n % 2 == 1:
        raise OddDimensionError(f"odd dimension {n}")
    if not np.isfinite(mat).all():
        raise InvalidParameterError("mat", "matrix entries must be finite")
    # initial values keep the 0 x 0 matrix valid: its Pfaffian is 1, as Pf^2 = det
    scale = np.abs(mat).max(initial=1.0)
    if np.abs(mat + mat.T).max(initial=0.0) > ANTISYM_TOL * scale:
        raise InvalidParameterError("mat", "matrix is not antisymmetric within tolerance")
    m = mat.copy()
    pf = 1.0
    for j in range(0, n - 1, 2):
        # pivot: bring the largest |m[j+1:, j]| into row j+1
        kp = j + 1 + int(np.abs(m[j + 1:, j]).argmax())
        if kp != j + 1:
            m[[j + 1, kp], :] = m[[kp, j + 1], :]
            m[:, [j + 1, kp]] = m[:, [kp, j + 1]]
            pf = -pf
        piv = m[j, j + 1]
        if piv == 0.0:
            return 0.0
        pf *= piv
        if j + 2 < n:
            update = np.outer(m[j, j + 2:] / piv, m[j + 2:, j + 1])
            m[j + 2:, j + 2:] += update - update.T
    return float(pf)
