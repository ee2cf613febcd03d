"""Wick correlators against the exact-diagonalization oracle; Pfaffian engine."""
import numpy as np
import pytest

from kitaev_de import (DegenerateGroundStateError, GaplessSpecError, ModelSpec,
                       OddDimensionError, correlator_kernel,
                       open_chain_correlations, pair_correlation, pfaffian,
                       sigma_x_correlator, sigma_z_correlator)
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

    def test_gapless_raises(self):
        from conftest import grid_gapless_spec
        with pytest.raises(GaplessSpecError):
            correlator_kernel(grid_gapless_spec(4096), n=4096, l_max=4)

    def test_l_max_precondition(self):
        with pytest.raises(ValueError):
            correlator_kernel(ModelSpec.pairing(mu=2.0), n=64, l_max=16)


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

    def test_edge_breaks_translation_invariance(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        src = open_chain_correlations(spec, 10)
        assert src.m[0, 0] != pytest.approx(src.m[5, 5], abs=1e-6)

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
