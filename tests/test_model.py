"""Momentum-space solutions, grid conventions and spin couplings."""
import math

import numpy as np
import pytest

from kitaev_de import (ModelSpec, Variant, ZeroVectorError, dispersion,
                       momentum_grid, solve_chain, spin_couplings)
from kitaev_de.model import grid_numerators, numerators_at, open_chain_weights

from conftest import random_gapped_spec


class TestMomentumGrid:
    def test_n4_values(self):
        k = momentum_grid(4)
        assert np.allclose(np.sort(k), [-3 * np.pi / 4, -np.pi / 4,
                                        np.pi / 4, 3 * np.pi / 4])

    @pytest.mark.parametrize("n", [2, 16, 256, 1024])
    def test_grid_properties(self, n):
        k = momentum_grid(n)
        assert k.size == n
        assert np.all(np.diff(k) > 0)
        spacing = np.diff(np.sort(k))
        assert np.allclose(spacing, 2 * np.pi / n)
        assert np.all(k > -np.pi) and np.all(k <= np.pi)
        assert np.abs(k).min() > 1e-12
        assert np.abs(np.abs(k) - np.pi).min() > 1e-12
        # every momentum pairs with its negative
        assert np.allclose(np.sort(-k), np.sort(k))

    def test_rejects_small_or_odd_n(self):
        with pytest.raises(ValueError):
            momentum_grid(1)
        with pytest.raises(ValueError):
            momentum_grid(7)  # odd grids put an unpaired mode at pi


class TestDispersion:
    def test_single_term_limit_alpha_inf(self):
        # only l=1 survives: y-numerator is (delta/2) sin k
        spec = ModelSpec.pairing(j=1.0, delta=0.7, mu=0.3)
        for k in (-2.0, -0.5, 0.9, 2.7):
            y, z = numerators_at(spec, k, 64)
            assert y == pytest.approx(0.35 * math.sin(k), abs=1e-14)
            assert z == pytest.approx(math.cos(k) + 0.3, abs=1e-14)

    def test_large_mu_polarizes(self):
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=1e6)
        for k in (-2.0, 0.4, 1.3):
            mode = dispersion(spec, k, 128)
            # pair occupation sin^2(theta) -> 1, so |theta| -> pi/2
            assert abs(abs(mode.theta) - np.pi / 2) < 1e-5
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=-1e6)
        for k in (-2.0, 0.4, 1.3):
            assert abs(dispersion(spec, k, 128).theta) < 1e-5

    def test_unit_anderson_vector(self, rng):
        for _ in range(200):
            spec = random_gapped_spec(rng)
            k = float(rng.uniform(-np.pi * 0.999, np.pi))
            mode = dispersion(spec, k, 256)
            assert mode.hy ** 2 + mode.hz ** 2 == pytest.approx(1.0, abs=1e-12)
            assert mode.epsilon > 0

    def test_theta_matches_anderson_vector(self, rng):
        # (sin 2theta, cos 2theta) = (-h_y, h_z) for the pairing-only chain
        # and (+h_y, h_z) for the pairing+hopping chain (component signs as
        # fixed against the exact-diagonalization oracle).
        for _ in range(50):
            spec = random_gapped_spec(rng)
            k = float(rng.uniform(-3.0, 3.0))
            mode = dispersion(spec, k, 256)
            sy = -1.0 if spec.variant is Variant.LONG_RANGE_PAIRING else 1.0
            assert math.sin(2 * mode.theta) == pytest.approx(sy * mode.hy, abs=1e-12)
            assert math.cos(2 * mode.theta) == pytest.approx(mode.hz, abs=1e-12)

    def test_zero_vector_error(self):
        # delta=0, mu=1, J=1 closes the gap at k=pi
        spec = ModelSpec.pairing(j=1.0, delta=0.0, mu=1.0)
        with pytest.raises(ZeroVectorError):
            dispersion(spec, np.pi, 64)

    def test_parity_symmetry(self, rng):
        for _ in range(200):
            spec = random_gapped_spec(rng)
            k = float(rng.uniform(0.01, np.pi * 0.99))
            plus = dispersion(spec, k, 128)
            minus = dispersion(spec, -k, 128)
            assert plus.epsilon == pytest.approx(minus.epsilon, abs=1e-12)
            assert plus.theta == pytest.approx(-minus.theta, abs=1e-12)


class TestSolveChain:
    def test_ordering_and_count(self):
        spec = ModelSpec.pairing(j=1.0, delta=-1.0, mu=-1.5)
        modes = solve_chain(spec, 64)
        assert len(modes) == 64
        ks = [m.k for m in modes]
        assert ks == sorted(ks)

    def test_gapped_trivial_phase(self):
        spec = ModelSpec.pairing(j=1.0, delta=-1.0, mu=-1.5)
        modes = solve_chain(spec, 512)
        assert min(m.epsilon for m in modes) > 0.4
        assert not any(m.gapless for m in modes)

    def test_gapless_flagged_at_pi(self):
        # delta=0, mu=1: eps = |cos k + 1| vanishes at k = pi, but the
        # antiperiodic grid avoids pi itself; use explicit k instead
        spec = ModelSpec.pairing(j=1.0, delta=0.0, mu=1.0)
        modes = solve_chain(spec, 512)
        assert not any(m.gapless for m in modes)  # grid avoids k = pi
        with pytest.raises(ZeroVectorError):
            dispersion(spec, np.pi, 512)

    def test_matches_dispersion(self, rng):
        spec = random_gapped_spec(rng)
        modes = solve_chain(spec, 32)
        for mode in modes[::5]:
            single = dispersion(spec, mode.k, 32)
            assert single.epsilon == pytest.approx(mode.epsilon, abs=1e-12)
            assert single.theta == pytest.approx(mode.theta, abs=1e-12)


class TestHarmonicSums:
    def test_alpha_inf_is_n_independent(self):
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=0.2)
        for k in (-1.2, 0.7):
            vals = [numerators_at(spec, k, n)[0] for n in (64, 256, 1024)]
            assert np.ptp(vals) < 1e-14

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_open_tail_bound(self, alpha):
        # truncated power-law sums converge within the analytic tail bound
        k = 0.83
        l1 = np.arange(1, 65)
        l2 = np.arange(1, 257)
        s1 = np.sum(np.sin(k * l1) * l1 ** (-alpha))
        s2 = np.sum(np.sin(k * l2) * l2 ** (-alpha))
        tail = np.sum(np.arange(33, 10000) ** (-alpha))
        assert abs(s2 - s1) < tail

    def test_grid_and_pointwise_agree(self, rng):
        for _ in range(20):
            spec = random_gapped_spec(rng)
            k, y, z = grid_numerators(spec, 128)
            y2, z2 = numerators_at(spec, k, 128)
            assert np.allclose(y, y2, atol=1e-11)
            assert np.allclose(z, z2, atol=1e-11)


class TestSpinCouplings:
    def test_pairing_hopping_identities(self, rng):
        # jx + jy = -J/d^beta and jx - jy = -Delta/d^alpha per range
        for _ in range(50):
            spec = random_gapped_spec(rng)
            if spec.variant is not Variant.LONG_RANGE_PAIRING_HOPPING:
                continue
            coup = spin_couplings(spec)
            l = np.arange(1, spec.r + 1, dtype=float)
            assert np.allclose(coup.jx + coup.jy, -spec.j * l ** (-spec.beta),
                               atol=1e-13)
            assert np.allclose(coup.jx - coup.jy, -spec.delta * l ** (-spec.alpha),
                               atol=1e-13)

    def test_pairing_only_values(self):
        # l = 1 carries hopping and pairing; l >= 2 pairing only with the
        # (Delta/2) d^-alpha open-chain strength
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=0.3, alpha=0.0)
        coup = spin_couplings(spec, l_max=4)
        assert coup.jx[0] == pytest.approx(-(0.5 + 0.5) / 2)
        assert coup.jy[0] == pytest.approx(-(0.5 - 0.5) / 2)
        assert coup.jx[1] == pytest.approx(-0.25)
        assert coup.jy[1] == pytest.approx(0.25)
        assert coup.mu == 0.3

    def test_delta_zero_kills_long_range(self):
        spec = ModelSpec.pairing(j=1.0, delta=0.0, mu=0.1, alpha=1.0)
        coup = spin_couplings(spec, l_max=6)
        assert np.all(coup.jx[1:] == 0.0)
        assert np.all(coup.jy[1:] == 0.0)

    def test_requires_l_max_for_pairing_only(self):
        with pytest.raises(ValueError):
            spin_couplings(ModelSpec.pairing())


class TestModelSpecValidation:
    def test_variant1_rejects_beta_r(self):
        with pytest.raises(ValueError):
            ModelSpec(Variant.LONG_RANGE_PAIRING, beta=0.2)
        with pytest.raises(ValueError):
            ModelSpec(Variant.LONG_RANGE_PAIRING, r=3)

    def test_variant2_requires_beta_r(self):
        with pytest.raises(ValueError):
            ModelSpec(Variant.LONG_RANGE_PAIRING_HOPPING, beta=0.2)
        with pytest.raises(ValueError):
            ModelSpec(Variant.LONG_RANGE_PAIRING_HOPPING, r=2)
        with pytest.raises(ValueError):
            ModelSpec(Variant.LONG_RANGE_PAIRING_HOPPING, beta=-0.5, r=2)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec.pairing(alpha=-1.0)

    @pytest.mark.parametrize("field", ["j", "delta", "mu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_couplings_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ModelSpec.pairing(**{field: value})
        with pytest.raises(ValueError, match=field):
            ModelSpec.pairing_hopping(**{field: value})

    def test_infinite_exponents_allowed(self):
        spec = ModelSpec.pairing_hopping(alpha=math.inf, beta=math.inf)
        assert math.isinf(spec.alpha) and math.isinf(spec.beta)

    def test_open_chain_weights_single_term_at_inf(self):
        hop, pair = open_chain_weights(ModelSpec.pairing(j=2.0, delta=3.0), 6)
        assert hop[0] == 1.0 and np.all(hop[1:] == 0)
        assert pair[0] == 1.5 and np.all(pair[1:] == 0)
