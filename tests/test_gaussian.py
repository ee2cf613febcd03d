"""Wick correlators against the exact-diagonalization oracle; Pfaffian engine."""
import math

import numpy as np
import pytest

from kitaev_de import (DegenerateGroundStateError, GaplessSpecError, ModelSpec,
                       OddDimensionError, SpectrumOverflowError, build_coupling,
                       correlator_kernel, global_entanglement, minimum_gap,
                       open_chain_correlations, pair_correlation, pfaffian,
                       sigma_x_correlator, sigma_z_correlator)
from kitaev_de import gaussian, model
from kitaev_de.majorana import _reflected
from kitaev_de.model import _gapped_grid, _numerators, grid_numerators
from kitaev_de.oracle import (ed_ground_state, ed_pair_correlator,
                              ed_sigma_x_product, ed_sigma_z_product)

from conftest import random_gapped_spec


class TestKernel:
    def test_polarized_limit_is_delta(self):
        # theta -> 0 limit: G_0 = 1 and G_{R != 0} = 0 (Fourier of 1)
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=-1e8)
        ker = correlator_kernel(spec, n=4096, l_max=4)
        assert ker.value(0) == pytest.approx(1.0, abs=1e-10)
        for r in (-3, -1, 1, 3):
            # first-order leakage is (delta/2)/|mu| ~ 5e-9
            assert abs(ker.value(r)) < 1e-8

    def test_matches_closed_chain_ed(self, rng):
        # discrete momentum sum at N=10 equals the antiperiodic-chain ground
        # state contraction <A_a B_b> exactly
        for _ in range(4):
            spec = random_gapped_spec(rng, trivial=True)
            state = ed_ground_state(spec, 10, "antiperiodic")
            ker = correlator_kernel(spec, n=10, l_max=2)
            for r in (-2, -1, 0, 1, 2):
                want = ed_pair_correlator(state, 4, 4 + r)
                assert ker.value(r) == pytest.approx(want, abs=1e-12)

    def test_reference_point_sigma_z(self):
        # convention anchor: <sigma_z> = G_0 at the N=10 reference point
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=0.5)
        state = ed_ground_state(spec, 10, "antiperiodic")
        ker = correlator_kernel(spec, n=10, l_max=1)
        sz = ed_sigma_z_product(state, [3])
        assert ker.value(0) == pytest.approx(sz, abs=1e-12)

    def test_asymmetric_but_real(self):
        spec = ModelSpec.pairing(j=1.0, delta=0.9, mu=0.4, alpha=2.0)
        ker = correlator_kernel(spec, n=2048, l_max=5)
        assert ker.g.dtype == np.float64
        assert ker.value(2) != pytest.approx(ker.value(-2), abs=1e-6)
        assert np.abs(ker.g).max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("n", [10, 64, 2002, 2048, 8192])
    def test_matches_direct_momentum_sum(self, rng, n):
        # reference: G_R = (1/n) sum_k exp(i R k) q_k term by term at both
        # ends of the table and 100 random lags, for random specs including a
        # pairing+hopping chain with alpha != beta
        unequal = None
        while unequal is None or minimum_gap(unequal, n) <= 0.05:
            unequal = ModelSpec.pairing_hopping(
                j=float(rng.uniform(0.2, 0.5)), delta=float(rng.uniform(0.5, 1.2)),
                mu=float(rng.uniform(-2.0, 1.0)), alpha=float(rng.uniform(0.0, 2.0)),
                beta=float(rng.uniform(0.0, 2.0)), r=int(rng.integers(1, 5)))
        l_max = (n - 1) // 4
        lags = np.unique(np.r_[-l_max, 0, l_max,
                               rng.integers(-l_max, l_max + 1, 100)])
        for spec in (random_gapped_spec(rng, n=n), random_gapped_spec(rng, n=n),
                     unequal):
            k, y, z = grid_numerators(spec, n)
            q = (-z - 1j * y) / np.hypot(y, z)
            want = np.exp(1j * np.multiply.outer(lags, k)) @ q / n
            assert np.abs(want.imag).max() < 1e-10
            got = correlator_kernel(spec, n=n, l_max=l_max)
            assert got.g.shape == (2 * l_max + 1,)
            assert np.abs(got.g[lags + l_max] - want.real).max() < 1e-13

    @pytest.mark.parametrize("n", [10, 2002, 8192])
    def test_one_transform_of_half_length(self, monkeypatch, n):
        # Makhoul's reordering: one FFT of the n/2 momenta k > 0, no padding
        spec = ModelSpec.pairing(mu=0.5)
        want = correlator_kernel(spec, n=n, l_max=2)  # fills the harmonics cache
        calls = []

        def recorded(name, transform):
            def call(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return transform(a, *args, **kwargs)
            return call

        for name in np.fft.__all__:
            if "freq" not in name and "shift" not in name:
                monkeypatch.setattr(gaussian.np.fft, name,
                                    recorded(name, getattr(np.fft, name)))
        got = correlator_kernel(spec, n=n, l_max=2)
        assert len(calls) == 1 and calls[0][1] == (n // 2,)
        assert got.g.tobytes() == want.g.tobytes()

    @pytest.mark.parametrize("n", [64, 8192])
    def test_reciprocal_scaling_keeps_division_bits(self, rng, n):
        # the kernel scales z and y of the k > 0 half by inv = -1/eps one
        # part at a time: the bits of q * inv, and numpy divides a complex by
        # a real through the reciprocal, so also those of q / -eps
        for _ in range(30):
            spec = random_gapped_spec(rng, n=n)
            y, z, eps, _ = _gapped_grid(spec, n)
            q = np.empty(n // 2, complex)
            q.real, q.imag = z, y
            inv = -1.0 / eps
            got, want = q * inv, q / -eps
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert np.array_equal((z * inv).view(np.int64), got.real.view(np.int64))
            assert np.array_equal((y * inv).view(np.int64), got.imag.view(np.int64))

    def test_global_entanglement_is_one_minus_g0_squared(self, rng):
        # E = 1 - <sigma_z>^2 and <sigma_z> = G_0: the half-grid kernel and
        # the half-grid mean of E agree on both variants
        variants = set()
        for n in (256, 2000, 8192):
            for _ in range(20):
                spec = random_gapped_spec(rng, n=n)
                variants.add(spec.variant)
                g0 = correlator_kernel(spec, n=n, l_max=1).value(0)
                assert abs(global_entanglement(spec, n) - (1.0 - g0 * g0)) <= 1e-14
        assert len(variants) == 2

    def test_gapless_raises(self):
        from conftest import grid_gapless_spec
        with pytest.raises(GaplessSpecError):
            correlator_kernel(grid_gapless_spec(4096), n=4096, l_max=4)

    def test_l_max_precondition(self):
        with pytest.raises(ValueError):
            correlator_kernel(ModelSpec.pairing(mu=2.0), n=64, l_max=16)

    def test_infinite_numerator_fails_finiteness_check(self, monkeypatch):
        # an infinite numerator passes the gap guard (eps = inf) but makes
        # q = exp(-2 i theta) NaN, which the finiteness check must catch
        spec = ModelSpec.pairing(mu=2.0)

        def infinite_y(s, n):
            k, y, z = _numerators(s, n)
            return k, np.full_like(y, np.inf), z

        monkeypatch.setattr(model, "_numerators", infinite_y)
        with pytest.raises(GaplessSpecError, match="not finite"), \
                np.errstate(invalid="ignore"):
            correlator_kernel(spec, n=64, l_max=4)


class TestOpenChain:
    def test_polarized_limit(self):
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=-1e8)
        src = open_chain_correlations(spec, 12)
        assert np.allclose(src.m, np.eye(12), atol=1e-7)

    def test_matches_ed(self, rng):
        cases = [(random_gapped_spec(rng, trivial=True), 10) for _ in range(3)]
        # trivial alpha != beta chain, including n <= 2r where the two edges
        # overlap (mode counting needs n > 2r, the correlations do not)
        unequal = ModelSpec.pairing_hopping(j=0.4, delta=0.8, mu=-3.2,
                                            alpha=0.0, beta=0.5, r=3)
        cases += [(unequal, n) for n in (4, 6, 10)]
        for spec, n in cases:
            state = ed_ground_state(spec, n, "open")
            src = open_chain_correlations(spec, n)
            for a in range(n):
                for b in range(n):
                    want = ed_pair_correlator(state, a, b)
                    assert src.m[a, b] == pytest.approx(want, abs=1e-10)
            assert src.energy == pytest.approx(state.energy, abs=1e-9)

    def test_pair_correlation_reads_dense_source(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        state = ed_ground_state(spec, 6, "open")
        src = open_chain_correlations(spec, 6)
        for a, b in ((0, 0), (1, 4), (5, 2), (5, 5)):
            want = ed_pair_correlator(state, a, b)
            assert pair_correlation(src, a, b) == pytest.approx(want, abs=1e-10)

    def test_edge_breaks_translation_invariance(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        src = open_chain_correlations(spec, 10)
        assert src.m[0, 0] != pytest.approx(src.m[5, 5], abs=1e-6)

    def test_matches_svd_polar_factor(self, rng):
        # reference: the polar factor u v^T, energy -sum(s)/2 and smallest
        # singular value from a full SVD of K
        for n in (4, 10, 40, 300):
            for _ in range(3):
                spec = random_gapped_spec(rng, trivial=True)
                u, s, vt = np.linalg.svd(build_coupling(spec, n))
                got = open_chain_correlations(spec, n)
                assert np.abs(got.m - u @ vt).max() < 1e-12
                assert got.energy == pytest.approx(-0.5 * s.sum(), abs=1e-10)
                assert got.eps_min == pytest.approx(s[-1], abs=1e-10)

    @pytest.mark.parametrize("n", [2, 7, 200, 1000])
    @pytest.mark.parametrize("spec", [
        ModelSpec.pairing(j=1.0, delta=0.8, mu=-1.7, alpha=2.0),
        ModelSpec.pairing_hopping(j=0.4, delta=0.8, mu=-3.2, alpha=0.0, beta=0.5,
                                  r=3)])
    def test_half_rank_polar_factor(self, spec, n):
        # (2 W_+ W_+^T - I) P against the full product W sign(lam) W^T P
        lam, w = np.linalg.eigh(_reflected(spec, n))
        want = (w * np.sign(lam)) @ w[::-1].T
        m = open_chain_correlations(spec, n).m
        assert np.abs(m - want).max() <= 1e-13
        assert np.abs(m @ m.T - np.eye(n)).max() <= 1e-12
        assert m.dtype == np.float64 and m.flags.c_contiguous and m.flags.writeable

    def test_energy_overflow_raises(self):
        # every entry of K is finite, but the sum of the n quasiparticle
        # energies is not
        spec = ModelSpec.pairing_hopping(j=1e307, delta=0.0, mu=-1.5e307,
                                         alpha=np.inf, beta=np.inf, r=1)
        assert np.isfinite(build_coupling(spec, 40)).all()
        with pytest.raises(SpectrumOverflowError):
            open_chain_correlations(spec, 40)

    def test_degenerate_raises(self):
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=0.0)
        with pytest.raises(DegenerateGroundStateError):
            open_chain_correlations(spec, 40)

    def test_bulk_agrees_with_kernel(self):
        # translation-invariant kernel and open-chain matrix agree deep in
        # the bulk once edge effects have decayed
        spec = ModelSpec.pairing(j=1.0, delta=0.8, mu=0.4, alpha=2.0)
        ker = correlator_kernel(spec, n=2000, l_max=6)
        dense = open_chain_correlations(spec, 2000)
        mid = 1000
        for a in range(mid, mid + 4):
            for b in range(mid, mid + 4):
                assert pair_correlation(ker, a - mid, b - mid) == pytest.approx(
                    dense.m[a, b], abs=1e-4)

    @pytest.mark.parametrize("spec", [
        ModelSpec.pairing(j=1.0, delta=1.0, mu=1.5),
        ModelSpec.pairing_hopping(j=0.4, delta=0.8, mu=-3.2, alpha=math.inf,
                                  beta=math.inf, r=3)], ids=["pairing", "pairing_hopping"])
    def test_bulk_matches_kernel_at_infinite_exponents(self, spec):
        # at alpha (= beta) = inf the ring keeps every distance-1 bond, so it
        # is the bulk of its own open chain
        ker = correlator_kernel(spec, n=2048, l_max=6)
        dense = open_chain_correlations(spec, 600)
        want = [ker.value(r) for r in range(-6, 7)]
        assert np.abs(dense.m[300, 294:307] - want).max() <= 1e-12


class TestSigmaZ:
    def test_empty_subset(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        src = open_chain_correlations(spec, 10)
        assert sigma_z_correlator(src, []) == 1.0

    def test_contiguous_toeplitz_determinant(self):
        # the 4-site correlator is the 4x4 Toeplitz determinant of G
        spec = ModelSpec.pairing(j=1.0, delta=0.7, mu=1.4, alpha=1.7)
        ker = correlator_kernel(spec, n=4096, l_max=8)
        g = ker.value
        mat = [[g(b - a) for b in range(4)] for a in range(4)]
        got = sigma_z_correlator(ker, [0, 1, 2, 3])
        assert got == pytest.approx(float(np.linalg.det(mat)), abs=1e-12)

    def test_matches_ed_subsets(self, rng):
        for _ in range(3):
            spec = random_gapped_spec(rng, trivial=True)
            state = ed_ground_state(spec, 10, "open")
            src = open_chain_correlations(spec, 10)
            for _ in range(10):
                m = int(rng.integers(1, 7))
                sites = sorted(rng.choice(10, size=m, replace=False).tolist())
                got = sigma_z_correlator(src, sites)
                want = ed_sigma_z_product(state, sites)
                assert got == pytest.approx(want, abs=1e-10)

    def test_repeated_sites_cancel(self):
        # sigma_z^2 = 1, so a site listed twice drops out of the product
        spec = ModelSpec.pairing_hopping(j=0.3, delta=0.8, mu=-3.0, alpha=0.3,
                                         beta=0.3, r=3)
        state = ed_ground_state(spec, 8, "open")
        src = open_chain_correlations(spec, 8)
        assert sigma_z_correlator(src, [3, 3]) == 1.0
        for sites in ([1, 3, 3], [3, 1, 3, 3], [2, 2, 5, 7, 5, 5]):
            want = ed_sigma_z_product(state, sites)
            assert sigma_z_correlator(src, sites) == pytest.approx(want, abs=1e-10)
        ker = correlator_kernel(spec, n=256, l_max=4)
        assert sigma_z_correlator(ker, [-2, 0, -2]) == ker.value(0)

    def test_dense_sites_on_the_chain(self):
        # a dense source's sites are 0 .. n - 1; the first and last are read
        spec = ModelSpec.pairing_hopping(j=0.3, delta=0.8, mu=-3.0, alpha=0.3,
                                         beta=0.3, r=3)
        state = ed_ground_state(spec, 8, "open")
        src = open_chain_correlations(spec, 8)
        want = ed_sigma_z_product(state, [0, 7])
        assert sigma_z_correlator(src, [7, 0]) == pytest.approx(want, abs=1e-10)
        assert sigma_x_correlator(src, [0, 7]) == pytest.approx(
            ed_sigma_x_product(spec, 8, [0, 7]), abs=1e-10)

    def test_bounded_by_one(self, rng):
        for _ in range(50):
            spec = random_gapped_spec(rng)
            try:
                ker = correlator_kernel(spec, n=1024, l_max=8)
            except GaplessSpecError:
                continue
            m = int(rng.integers(1, 6))
            sites = sorted(rng.choice(8, size=m, replace=False).tolist())
            assert abs(sigma_z_correlator(ker, sites)) <= 1.0 + 1e-10


class TestSigmaX:
    def test_odd_subsets_vanish(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        src = open_chain_correlations(spec, 10)
        assert sigma_x_correlator(src, [2]) == 0.0
        assert sigma_x_correlator(src, [1, 4, 6]) == 0.0

    def test_adjacent_pair_is_single_contraction(self, rng):
        # <X_j X_{j+1}> reduces to the single contraction <B_j A_{j+1}>
        spec = random_gapped_spec(rng, trivial=True)
        ker = correlator_kernel(spec, n=2048, l_max=4)
        got = sigma_x_correlator(ker, [2, 3])
        assert got == pytest.approx(-ker.value(-1), abs=1e-12)

    def test_matches_ed_subsets(self, rng):
        for _ in range(3):
            spec = random_gapped_spec(rng, trivial=True)
            src = open_chain_correlations(spec, 10)
            for _ in range(8):
                m = 2 * int(rng.integers(1, 3))
                sites = sorted(rng.choice(10, size=m, replace=False).tolist())
                got = sigma_x_correlator(src, sites)
                want = ed_sigma_x_product(spec, 10, sites)
                assert got == pytest.approx(want, abs=1e-10)

    def test_beyond_kernel_range_raises(self):
        # bonds 0..4 need G_{-5}; a negative index must not wrap around
        ker = correlator_kernel(ModelSpec.pairing(mu=2.0), n=256, l_max=4)
        with pytest.raises(ValueError):
            sigma_x_correlator(ker, [0, 5])

    def test_four_site_block_matches_ed(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        src = open_chain_correlations(spec, 10)
        got = sigma_x_correlator(src, [0, 1, 2, 3])
        want = ed_sigma_x_product(spec, 10, [0, 1, 2, 3])
        assert got == pytest.approx(want, abs=1e-10)


class TestPfaffian:
    def _random_antisym(self, rng, n):
        a = rng.standard_normal((n, n))
        return a - a.T

    def test_empty_matrix(self):
        # Pf^2 = det holds at size 0 too
        assert pfaffian(np.zeros((0, 0))) == 1.0 == np.linalg.det(np.zeros((0, 0)))

    def test_two_by_two(self):
        assert pfaffian(np.array([[0.0, 2.5], [-2.5, 0.0]])) == 2.5

    def test_block_diagonal(self):
        m = np.zeros((4, 4))
        m[0, 1], m[1, 0] = 1.5, -1.5
        m[2, 3], m[3, 2] = -0.7, 0.7
        assert pfaffian(m) == pytest.approx(1.5 * -0.7, abs=1e-14)

    def test_square_equals_det(self, rng):
        # >= 200 randomized cases across sizes
        for _ in range(200):
            n = 2 * int(rng.integers(1, 6))
            m = self._random_antisym(rng, n)
            pf = pfaffian(m)
            assert pf ** 2 == pytest.approx(np.linalg.det(m), rel=1e-9, abs=1e-9)

    def test_congruence_with_permutation(self, rng):
        # pf(P M P^T) = det(P) pf(M) for signed permutations
        for _ in range(200):
            n = 2 * int(rng.integers(1, 5))
            m = self._random_antisym(rng, n)
            perm = rng.permutation(n)
            signs = rng.choice([-1.0, 1.0], size=n)
            p = np.zeros((n, n))
            p[np.arange(n), perm] = signs
            got = pfaffian(p @ m @ p.T)
            assert got == pytest.approx(np.linalg.det(p) * pfaffian(m), rel=1e-9,
                                        abs=1e-9)

    def test_odd_dimension_raises(self):
        with pytest.raises(OddDimensionError):
            pfaffian(np.zeros((3, 3)))

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError):
            pfaffian(np.eye(4))

    def test_singular_is_zero(self, rng):
        m = self._random_antisym(rng, 6)
        assert pfaffian(m) != 0.0
        m[2, :] = m[:, 2] = 0.0
        assert pfaffian(m) == 0.0
        assert pfaffian(np.zeros((6, 6))) == 0.0
