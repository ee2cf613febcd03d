"""Ground-state pair correlators and multi-site spin correlators (Wick).

Correlation sources
-------------------
* :class:`CorrelatorKernel` -- translation-invariant chains.  ``g[R]`` holds
  ``G_R = (1/N) sum_k exp(i R k) exp(-2 i theta_k)``, which is real because
  ``theta_{-k} = -theta_k``, and equals ``<A_a B_{a+R}>`` with
  ``A = c^dag + c``, ``B = c^dag - c``.
* :class:`DenseCorrelations` -- open chains; the full matrix ``m[a, b] =
  <A_a B_b>``.  In these operators the open chain reads
  ``H = -(1/2) sum_{ab} K_{ab} A_a B_b`` with the real coupling matrix K of
  :mod:`kitaev_de.majorana`, so ``<H> = -tr(K^T m) / 2``.  Over orthogonal
  contraction matrices this is lowest at the polar factor of K, ``m = u v^T``
  for ``K = u diag(s) v^T``, with ground energy ``-sum(s) / 2`` (Lieb,
  Schultz & Mattis, Ann. Phys. 16, 407, 1961).

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
                     OddDimensionError)
from .majorana import build_coupling
from .model import DEFAULT_GRID, GAP_TOL, ModelSpec, grid_numerators

KERNEL_IMAG_TOL = 1e-10


@dataclass(frozen=True)
class CorrelatorKernel:
    """Toeplitz pair-correlation kernel ``G_R`` for ``|R| <= l_max``."""

    g: np.ndarray  # values for R = -l_max .. l_max
    l_max: int
    n: int

    def value(self, r: int) -> float:
        if abs(r) > self.l_max:
            raise ValueError(f"|R|={abs(r)} exceeds tabulated l_max={self.l_max}")
        return float(self.g[r + self.l_max])


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

    Requires ``l_max < n/4`` for kernel accuracy and a gapped spectrum
    (minimum grid gap above 1e-8), otherwise the integrand is discontinuous.
    """
    if not l_max < n / 4:
        raise ValueError(f"l_max={l_max} must be < n/4 = {n / 4}")
    k, y, z = grid_numerators(spec, n)
    eps = np.hypot(y, z)
    if eps.min() <= GAP_TOL:
        raise GaplessSpecError(f"min grid gap {eps.min():.3e} <= {GAP_TOL}")
    q = (-z - 1j * y) / eps  # exp(-2 i theta)
    r = np.arange(-l_max, l_max + 1)
    g = np.exp(1j * np.multiply.outer(r.astype(float), k)) @ q / n
    if np.abs(g.imag).max() > KERNEL_IMAG_TOL:
        raise GaplessSpecError(
            f"kernel imaginary part {np.abs(g.imag).max():.3e} exceeds tolerance")
    real = np.ascontiguousarray(g.real)
    real.flags.writeable = False
    return CorrelatorKernel(g=real, l_max=l_max, n=n)


def open_chain_correlations(spec: ModelSpec, n: int) -> DenseCorrelations:
    """Pair correlations of the open-chain ground state from one SVD of K.

    With ``K = u diag(s) v^T`` the coupling matrix of
    :func:`~kitaev_de.majorana.build_coupling`, ``m`` is the polar factor
    ``u v^T``, the quasiparticle energies are ``s`` and the ground energy is
    ``-sum(s) / 2`` (see the module docstring).  Raises
    :class:`DegenerateGroundStateError` when the smallest quasiparticle
    energy is below 1e-10 (the ground state correlators are then
    ill-defined).
    """
    if n > 2000:
        raise ValueError(f"open-chain solve limited to n <= 2000, got {n}")
    u, s, vt = np.linalg.svd(build_coupling(spec, n))
    eps_min = float(s[-1])
    if eps_min < 1e-10:
        raise DegenerateGroundStateError(f"smallest quasiparticle energy {eps_min:.3e}")
    return DenseCorrelations(m=u @ vt, energy=-0.5 * float(s.sum()), eps_min=eps_min)


def pair_correlation(source: CorrelationSource, a: int, b: int) -> float:
    """``<A_a B_b>`` from either source type."""
    if isinstance(source, CorrelatorKernel):
        return source.value(b - a)
    return float(source.m[a, b])


def _pair_matrix(source: CorrelationSource, rows: np.ndarray,
                 cols: np.ndarray) -> np.ndarray:
    """``[i, j] = <A_{rows_i} B_{cols_j}>`` from either source type."""
    if isinstance(source, CorrelatorKernel):
        r = cols[None, :] - rows[:, None]
        if r.size and np.abs(r).max() > source.l_max:
            raise ValueError(f"|R|={np.abs(r).max()} exceeds tabulated "
                             f"l_max={source.l_max}")
        return source.g[r + source.l_max]
    return source.m[np.ix_(rows, cols)]


def _bond_matrix(source: CorrelationSource, bonds: np.ndarray) -> np.ndarray:
    """``[i, j] = <B_{b_i} A_{b_j + 1}>``: the A-B contraction matrix of the
    bond operators ``X_b X_{b+1} = B_b A_{b+1}``."""
    return -_pair_matrix(source, bonds + 1, bonds).T


def sigma_z_correlator(source: CorrelationSource, sites) -> float:
    """``< prod_{j in sites} sigma_z_j >`` with ``sigma_z = 1 - 2 n``."""
    sites = np.asarray(sorted(sites), dtype=int)
    if sites.size == 0:
        return 1.0
    if sites.size > 20:
        raise ValueError("subset size limited to 20 sites")
    return float(np.linalg.det(_pair_matrix(source, sites, sites)))


def sigma_x_correlator(source: CorrelationSource, sites) -> float:
    """``< prod_{j in sites} sigma_x_j >``; zero for odd subsets (parity).

    Consecutive sites ``(s_1, s_2), (s_3, s_4), ...`` pair up into the bond
    ranges ``[s_1, s_2) u [s_3, s_4) u ...``, whose bond determinant is the
    correlator.
    """
    sites = sorted(sites)
    if len(sites) % 2 == 1:
        return 0.0
    bonds = [m for i in range(0, len(sites), 2)
             for m in range(sites[i], sites[i + 1])]
    return float(np.linalg.det(_bond_matrix(source, np.asarray(bonds, dtype=int))))


# ---------------------------------------------------------------------------
# Pfaffian engine
# ---------------------------------------------------------------------------

def pfaffian(mat: np.ndarray, antisym_tol: float = 1e-12) -> float:
    """Pfaffian of a real antisymmetric matrix (skew elimination, pivoting).

    Raises :class:`OddDimensionError` for odd dimension and ``ValueError``
    when ``||M + M^T||`` exceeds ``antisym_tol`` relative to ``||M||``.
    """
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("pfaffian requires a square matrix")
    if n % 2 == 1:
        raise OddDimensionError(f"odd dimension {n}")
    scale = max(np.abs(mat).max(), 1.0)
    if np.abs(mat + mat.T).max() > antisym_tol * scale:
        raise ValueError("matrix is not antisymmetric within tolerance")
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
