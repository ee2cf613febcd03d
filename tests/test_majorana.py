"""Majorana coupling matrix, zero-mode extraction and counting."""
import numpy as np
import pytest

from kitaev_de import (GaplessSpecError, ModelSpec, Side, SpectrumOverflowError,
                       TolAmbiguousError, build_coupling, mode_count,
                       open_chain_correlations, winding_number, zero_modes)
from kitaev_de.majorana import _band, _reflected_eigh
from kitaev_de.model import open_chain_weights

from conftest import (random_gapped_spec, random_pairing_hopping_spec,
                      random_pairing_spec)


def dense_coupling(spec, n):
    """K filled range by range into a zeroed matrix (the dense reference)."""
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


def decay_roots(spec):
    """Roots of the zero-mode recursion's band symbol.

    A left mode m_j = x^j solves the bulk rows of m^T K = 0 when
    sum_d K_{l+d, l} x^d = 0; decaying solutions have |x| < 1.  The symbol's
    coefficients are the band of K, ``K[a, a + d] = band[d + n - 1]``, over
    its nonzero support ``|d| <= r``.
    """
    n = 16
    band = _band(spec, n)
    d = np.nonzero(band)[0] - (n - 1)
    r = max(1, int(np.abs(d).max(initial=0)))
    return np.roots(band[n - 1 - r:n + r]), r


def analytic_pair_count(spec):
    """Zero-mode pairs in the semi-infinite limit.

    Left a-type modes count (roots inside the unit disk) - r; for the
    opposite winding sign the pair lives on the b-type operators, whose
    recursion has the inverted roots, so the pair count is |inside - r|.
    """
    roots, r = decay_roots(spec)
    inside = int(np.sum(np.abs(roots) < 1.0))
    return abs(inside - r)


class TestCoupling:
    def test_overflowing_couplings_rejected(self):
        # the closed-chain bound holds (|y|, |z| <= 1e308) but the open chain's
        # K_{j,j+1} = pair - hop = -2e308 overflows
        spec = ModelSpec.pairing_hopping(j=1e308, delta=-1e308, mu=1.0,
                                         alpha=np.inf, beta=np.inf, r=1)
        with pytest.raises(SpectrumOverflowError):
            build_coupling(spec, 20)
        with pytest.raises(SpectrumOverflowError):
            zero_modes(spec, 20)
        big = ModelSpec.pairing(j=1.5e308, delta=-1.5e308, mu=0.1)
        assert np.isfinite(build_coupling(big, 20)).all()
        assert mode_count(big, 20) == abs(winding_number(big).nu) == 1

    def test_matches_dense_reference_bit_for_bit(self, rng):
        # signed zeros included: -0.0 couplings and mu = 0 must come out as
        # adding them to a zeroed matrix gives
        specs = [ModelSpec.pairing(j=1.0, delta=-1.0, mu=0.0),
                 ModelSpec.pairing(j=0.0, delta=-0.7, mu=-0.0),
                 ModelSpec.pairing(j=1.0, delta=1.0, mu=0.0, alpha=1.7),
                 ModelSpec.pairing_hopping(j=-0.8, delta=-1.0, mu=0.0,
                                           alpha=np.inf, beta=np.inf, r=2)]
        for i in range(120):
            draw = random_pairing_spec if i % 2 else random_pairing_hopping_spec
            specs.append(draw(rng, trivial=bool(rng.random() < 0.5)))
        for spec in specs:
            for n in (1, 2, 13, 200):
                got, want = build_coupling(spec, n), dense_coupling(spec, n)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_read_only_view(self):
        k = build_coupling(ModelSpec.pairing(j=1.0, delta=0.7, mu=0.4), 50)
        assert not k.flags.writeable and not k[:, ::-1].flags.writeable
        with pytest.raises(ValueError):
            k[0, 0] = 1.0

    def test_reflected_eigh_matches_contiguous_copy(self):
        for spec in (ModelSpec.pairing(j=1.0, delta=0.7, mu=0.4, alpha=1.7),
                     ModelSpec.pairing_hopping(j=0.8, delta=1.0, mu=0.6)):
            for n in (7, 200):
                lam, w = _reflected_eigh(spec, n)
                s = np.ascontiguousarray(build_coupling(spec, n)[:, ::-1])
                lam2, w2 = np.linalg.eigh(s)
                assert np.array_equal(lam, lam2) and np.array_equal(w, w2)

    @pytest.mark.parametrize("spec", [
        ModelSpec.pairing(j=1.0, delta=0.7, mu=0.4, alpha=1.7),
        ModelSpec.pairing_hopping(j=0.8, delta=1.0, mu=0.6)])
    def test_one_site_and_fewer(self, spec):
        # one site: K = [[-mu]] and the lone mode fills the site; none: a
        # ValueError naming n from every open-chain entry point
        assert np.array_equal(build_coupling(spec, 1), [[-spec.mu]])
        corr = open_chain_correlations(spec, 1)
        assert np.array_equal(corr.m, [[-1.0]]) and corr.eps_min == spec.mu
        for call in (build_coupling, open_chain_correlations, open_chain_weights):
            with pytest.raises(ValueError, match="n = 0"):
                call(spec, 0)
        if spec.r is None:
            assert mode_count(spec, 1) == 0
            with pytest.raises(ValueError, match="n = 0"):
                mode_count(spec, 0)

    def test_variant1_structure(self):
        k = build_coupling(ModelSpec.pairing(j=1.0, delta=1.0, mu=0.7), 8)
        assert np.allclose(np.diag(k), -0.7)
        assert np.allclose(np.diag(k, 1), 0.0)   # pair - hop cancels at J=Delta
        assert np.allclose(np.diag(k, -1), -1.0)
        for off in range(2, 8):
            assert np.allclose(np.diag(k, off), 0.0)
            assert np.allclose(np.diag(k, -off), 0.0)

    def test_sweet_spot_exact_null_vector(self):
        k = build_coupling(ModelSpec.pairing(j=1.0, delta=1.0, mu=0.0), 30)
        m = np.zeros(30)
        m[0] = 1.0
        assert np.linalg.norm(m @ k) == 0.0

    def test_variant2_bandwidth(self):
        spec = ModelSpec.pairing_hopping(j=0.8, delta=1.0, mu=0.6)
        k = build_coupling(spec, 20)
        for off in range(1, 4):
            assert np.any(np.diag(k, off) != 0.0)
            assert np.any(np.diag(k, -off) != 0.0)
        for off in range(4, 20):
            assert np.allclose(np.diag(k, off), 0.0)
        assert np.isrealobj(k)

    def test_needs_room_for_range(self):
        spec = ModelSpec.pairing_hopping(j=0.8, delta=1.0, mu=0.6)
        with pytest.raises(ValueError):
            zero_modes(spec, 6)


class TestZeroModes:
    def test_single_pair_topological(self):
        modes = zero_modes(ModelSpec.pairing(1.0, 1.0, -0.5), 100, 1e-8)
        assert len(modes) == 2
        sides = {m.side for m in modes}
        assert sides == {Side.LEFT, Side.RIGHT}
        for m in modes:
            assert np.sum(m.probability) == pytest.approx(1.0, abs=1e-12)

    def test_trivial_phase_has_none(self):
        assert mode_count(ModelSpec.pairing(1.0, 1.0, -1.5), 100, 1e-8) == 0
        assert mode_count(ModelSpec.pairing(1.0, 1.0, 1e4), 60, 1e-8) == 0

    def test_localization(self):
        modes = zero_modes(ModelSpec.pairing(1.0, 1.0, -0.5), 100, 1e-8)
        left = next(m for m in modes if m.side is Side.LEFT)
        right = next(m for m in modes if m.side is Side.RIGHT)
        assert left.probability[:25].sum() > 0.9
        assert right.probability[-25:].sum() > 0.9

    def test_left_right_mirror(self):
        # n_j = m_{N-j+1} for the reflection-symmetric single-band chain
        modes = zero_modes(ModelSpec.pairing(1.0, 1.0, -0.5), 100, 1e-8)
        left = next(m for m in modes if m.side is Side.LEFT)
        right = next(m for m in modes if m.side is Side.RIGHT)
        assert np.allclose(left.probability, right.probability[::-1], atol=1e-10)

    def test_residual_invariant(self):
        spec = ModelSpec.pairing_hopping(j=0.8, delta=1.0, mu=0.6)
        n, tol = 800, 1e-8
        k = build_coupling(spec, n)
        scale = np.linalg.norm(k)
        for mode in zero_modes(spec, n, tol):
            if mode.side is Side.LEFT:
                res = np.linalg.norm(mode.coefficients @ k)
            else:
                res = np.linalg.norm(k @ mode.coefficients)
            assert res / scale < 10 * tol

    def test_singular_values_of_k_and_kt_coincide(self, rng):
        # K is Toeplitz, so K P = K[:, ::-1] is bit-exactly symmetric (eigh
        # reads one triangle) and |eig(K P)| are the singular values of K
        specs = [random_gapped_spec(rng, trivial=True),
                 ModelSpec.pairing(j=1.0, delta=1.0, mu=-0.5),
                 ModelSpec.pairing(j=1.0, delta=0.7, mu=0.4, alpha=1.7),
                 ModelSpec.pairing_hopping(j=0.8, delta=1.0, mu=0.6),
                 ModelSpec.pairing_hopping(j=-0.8, delta=1.0, mu=-1.0,
                                           alpha=0.0, beta=0.5, r=3)]
        for spec in specs:
            for n in (4, 7, 40):
                k = build_coupling(spec, n)
                reflected = k[:, ::-1]
                assert np.array_equal(reflected, reflected.T)
                s1 = np.linalg.svd(k, compute_uv=False)
                s2 = np.linalg.svd(k.T, compute_uv=False)
                s3 = np.sort(np.abs(np.linalg.eigvalsh(reflected)))[::-1]
                assert np.allclose(s1, s2, rtol=1e-12, atol=1e-12)
                assert np.allclose(s3, s1, rtol=1e-12, atol=1e-12)

    def test_gapless_rejected(self):
        from conftest import grid_gapless_spec
        with pytest.raises(GaplessSpecError):
            zero_modes(grid_gapless_spec(4096), 60, 1e-8)

    def test_tol_ambiguous(self):
        # the slow second/third modes of this phase sit near a 1e-4 cutoff
        spec = ModelSpec.pairing_hopping(j=0.8, delta=1.0, mu=0.6)
        with pytest.raises(TolAmbiguousError):
            zero_modes(spec, 100, 3e-4)


class TestModeCount:
    def test_count_three_at_large_n(self):
        # the pairing+hopping nu=3 phase carries decay roots at |x| = 0.971,
        # so the relative 1e-8 cutoff resolves all three pairs only for
        # N >~ 800 (see the acceptance notes)
        spec = ModelSpec.pairing_hopping(j=0.8, delta=1.0, mu=0.6)
        assert mode_count(spec, 800, 1e-8) == 3
        assert abs(winding_number(spec).nu) == 3

    def test_count_stable_under_doubling(self):
        for spec, want in [(ModelSpec.pairing(1.0, 1.0, -0.5), 1),
                           (ModelSpec.pairing(1.0, 1.0, -1.5), 0)]:
            assert mode_count(spec, 100, 1e-8) == want
            assert mode_count(spec, 200, 1e-8) == want

    @staticmethod
    def _random_banded_spec(rng):
        # strictly banded coupling matrices: nearest-neighbour pairing-only
        # chains or the range-r pairing+hopping family.  Finite power-law
        # decay instead gives algebraically localized edge modes, outside
        # the polynomial symbol's domain.
        if rng.random() < 0.5:
            return ModelSpec.pairing(j=float(rng.uniform(0.5, 1.5)),
                                     delta=float(rng.uniform(0.3, 1.5)
                                                 * rng.choice([-1, 1])),
                                     mu=float(rng.uniform(-2.0, 2.0)))
        ab = float(rng.uniform(0.1, 0.5))
        return ModelSpec.pairing_hopping(j=float(rng.uniform(-1.0, 1.0)),
                                         delta=float(rng.uniform(0.5, 1.2)),
                                         mu=float(rng.uniform(-2.0, 1.0)),
                                         alpha=ab, beta=ab, r=int(rng.integers(1, 4)))

    def test_analytic_count_equals_winding_modulus(self, rng):
        # bulk-boundary correspondence: decaying recursion solutions count
        # the winding number, on randomized gapped banded specs (>= 200)
        checked = 0
        while checked < 200:
            spec = self._random_banded_spec(rng)
            try:
                nu = winding_number(spec, samples=1024).nu
            except GaplessSpecError:
                continue
            if nu != round(nu):
                continue
            assert analytic_pair_count(spec) == abs(nu)
            checked += 1
        # unequal exponents: the closed chain must decay the pairing with
        # alpha, as the open chain does, for the counts to agree (3 pairs)
        spec = ModelSpec.pairing_hopping(j=-0.8, delta=1.0, mu=-1.0,
                                         alpha=0.0, beta=0.5, r=3)
        assert analytic_pair_count(spec) == abs(winding_number(spec).nu) == 3

    def test_svd_count_matches_analytic(self, rng):
        # the singular-value cutoff resolves every pair once the slowest
        # decay root is well inside the unit disk; N=400 suffices for
        # |x| <= 0.9
        checked = 0
        while checked < 12:
            spec = self._random_banded_spec(rng)
            try:
                winding_number(spec, samples=1024)
            except GaplessSpecError:
                continue
            roots, r = decay_roots(spec)
            mags = np.abs(roots)
            slow = max([m for m in mags if m < 1], default=0.0)
            slow = max(slow, max([1.0 / m for m in mags if m > 1], default=0.0))
            if slow > 0.9:
                continue
            if spec.r is not None and 400 <= 2 * spec.r:
                continue
            try:
                got = mode_count(spec, 400, 1e-8)
            except TolAmbiguousError:
                continue
            assert got == analytic_pair_count(spec)
            checked += 1
