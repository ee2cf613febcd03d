"""Momentum-space solutions, grid conventions and open-chain weights."""
import math
from fractions import Fraction

import numpy as np
import pytest

from kitaev_de import (GaplessSpecError, ModelSpec, SpectrumOverflowError,
                       Variant, correlator_kernel, de_density, dispersion,
                       global_entanglement, minimum_gap, mode_count, momentum_grid,
                       solve_chain, trajectory, winding_number, zero_modes)
from kitaev_de import model
from kitaev_de.majorana import GAP_SAMPLES
from kitaev_de.entropy import _binary_entropy_bits
from kitaev_de.model import (_energies, _gapped_grid, grid_numerators,
                             numerators_at, open_chain_weights)

from conftest import random_gapped_spec, rolled_turns


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
        # every momentum pairs with its exact negative
        assert np.array_equal(k[::-1], -k)

    def test_rejects_small_or_odd_n(self):
        with pytest.raises(ValueError):
            momentum_grid(1)
        with pytest.raises(ValueError):
            momentum_grid(7)  # odd grids put an unpaired mode at pi


class TestDispersion:
    def test_single_term_limit_alpha_inf(self):
        # on the antiperiodic grid the distance-1 ranges l = 1 and n - 1 add
        # up to the single-term form: the y-numerator is delta sin k
        spec = ModelSpec.pairing(j=1.0, delta=0.7, mu=0.3)
        k = momentum_grid(64)
        for q in (k[5], k[21], k[40], k[60]):
            y, z = numerators_at(spec, q, 64)
            assert y == pytest.approx(0.7 * math.sin(q), abs=1e-14)
            assert z == pytest.approx(math.cos(q) + 0.3, abs=1e-14)

    @pytest.mark.parametrize("make, cy, cz, c0", [
        (lambda a: ModelSpec.pairing(j=1.0, delta=0.7, mu=0.3, alpha=a), 0.7, 1.0, 0.3),
        (lambda a: ModelSpec.pairing_hopping(j=-0.8, delta=0.9, mu=0.4, alpha=a,
                                             beta=a, r=3), 0.9, -0.8, 0.2)],
        ids=["pairing", "pairing_hopping"])
    def test_alpha_inf_is_the_distance_one_limit(self, make, cy, cz, c0):
        # an infinite exponent keeps the distance-1 ranges l = 1 and n - 1,
        # so it is the large-exponent limit at any momentum and length
        for n in (8, 64, 1000):
            for k in (-2.0, -0.5, 0.9, 2.7):
                got = numerators_at(make(math.inf), k, n)
                want = numerators_at(make(60.0), k, n)
                assert np.abs(np.subtract(got, want)).max() <= 1e-15
        # on the antiperiodic grid sin(k (n - 1)) = sin k, so the pairing-only
        # ring is the plain Kitaev chain with y = delta sin k
        k, y, z = grid_numerators(make(math.inf), 64)
        assert np.abs(y - cy * np.sin(k)).max() <= 1e-15
        assert np.abs(z - (cz * np.cos(k) + c0)).max() <= 1e-15

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
        with pytest.raises(GaplessSpecError):
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
        with pytest.raises(GaplessSpecError):
            dispersion(spec, np.pi, 512)

    def test_matches_dispersion(self, rng):
        spec = random_gapped_spec(rng)
        modes = solve_chain(spec, 32)
        for mode in modes[::5]:
            single = dispersion(spec, mode.k, 32)
            assert single.epsilon == pytest.approx(mode.epsilon, abs=1e-12)
            assert single.theta == pytest.approx(mode.theta, abs=1e-12)


class TestOneGapRule:
    @pytest.mark.parametrize("n", [512, GAP_SAMPLES])
    @pytest.mark.parametrize("offset,gapless", [(5e-10, True), (2e-8, False)])
    def test_every_quantity_agrees(self, n, offset, gapless):
        # eps = |cos k + mu| is about `offset` at the grid points +-k0: either
        # side of GAP_TOL, every closed-chain quantity reads the same verdict.
        # Above it the band still crosses zero between grid points, and with
        # no pairing that step of the loop is exactly half a turn, so only
        # the winding number, which has no value there, raises
        k0 = float(momentum_grid(n)[5 * n // 8])
        spec = ModelSpec.pairing(j=1.0, delta=0.0, mu=-math.cos(k0) + offset)
        assert minimum_gap(spec, n) == pytest.approx(offset, rel=1e-6)
        flags = 2 if gapless else 0
        assert trajectory(spec, n).gapless.sum() == flags
        assert sum(m.gapless for m in solve_chain(spec, n)) == flags
        calls = [lambda: de_density(spec, n), lambda: global_entanglement(spec, n),
                 lambda: correlator_kernel(spec, n, l_max=4),
                 lambda: dispersion(spec, k0, n)]
        if n == GAP_SAMPLES:  # zero_modes checks the bulk gap on this grid
            calls.append(lambda: zero_modes(spec, 20))
        for call in calls:
            if gapless:
                with pytest.raises(GaplessSpecError, match="gap"):
                    call()
            else:
                call()
        with pytest.raises(GaplessSpecError, match="gap" if gapless else "half a turn"):
            winding_number(spec, n)


class TestHarmonicSums:
    def test_alpha_inf_is_n_independent(self):
        # grids of lengths 16 m, m odd, all hold the momenta (2 j + 1) pi / 16,
        # where the alpha = inf ring does not depend on the length (the
        # rounding of k (n - 1) grows with n, so the lengths stay moderate)
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=0.2)
        for k in (-5 * np.pi / 16, 3 * np.pi / 16):
            vals = [numerators_at(spec, k, n)[0] for n in (16, 48, 80, 144)]
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


class TestMirroredGrid:
    @pytest.mark.parametrize("n", [16, 4096])
    @pytest.mark.parametrize("spec", [
        ModelSpec.pairing(alpha=math.inf), ModelSpec.pairing(alpha=1.3),
        ModelSpec.pairing(alpha=0.0),
        ModelSpec.pairing_hopping(alpha=math.inf, beta=math.inf, r=3),
        ModelSpec.pairing_hopping(alpha=0.4, beta=math.inf, r=5),
        ModelSpec.pairing_hopping(alpha=math.inf, beta=1.7, r=2),
        ModelSpec.pairing_hopping(alpha=0.2, beta=0.2, r=3)])
    def test_harmonics_odd_and_even(self, spec, n):
        # delta = j = 1 and mu = 0 leave y and z as the scaled harmonic sums:
        # the sine sum is exactly odd in k and the cosine sum exactly even
        _, y, z = grid_numerators(spec, n)
        assert np.array_equal(y[::-1], -y)
        assert np.array_equal(z[::-1], z)
        assert y.any() and z.any()

    def test_half_grid_reductions_match_full_grid(self, rng):
        # s, E and nu read the k > 0 half; references sum the whole grid
        for _ in range(100):
            spec = random_gapped_spec(rng)
            n = int(rng.choice([256, 2000, 4096, 8192]))
            k, y, z = grid_numerators(spec, n)
            eps = _energies(y, z)
            pos = k > 0
            occ = 0.5 * (1.0 + z[pos] / eps[pos])
            assert de_density(spec, n) == float(_binary_entropy_bits(occ).sum()) / n
            sz = float(np.mean(-z / eps))
            assert global_entanglement(spec, n) == pytest.approx(1.0 - sz * sz,
                                                                  abs=1e-15)
            turns, _ = rolled_turns(y, z)
            res = winding_number(spec, n)
            assert res.nu == round(turns)
            assert res.min_gap == eps.min()


class TestOverflowGuard:
    @pytest.mark.parametrize("spec", [
        ModelSpec.pairing(j=1e308, mu=1e308),
        ModelSpec.pairing(delta=1e308, alpha=0.0),  # sine sum ~ n / pi
        ModelSpec.pairing_hopping(j=1e308, mu=1.7e308),
        ModelSpec.pairing_hopping(delta=1e308, alpha=0.0),
    ])
    def test_overflowing_numerators_rejected(self, spec):
        # the full grid and its k > 0 half share the one overflow check
        for numerators in (grid_numerators, _gapped_grid, minimum_gap):
            with pytest.raises(SpectrumOverflowError):
                numerators(spec, 4096)

    def test_large_finite_couplings_kept(self):
        for spec in (ModelSpec.pairing(j=1e300, delta=1e300, mu=5e299, alpha=0.0),
                     ModelSpec.pairing(j=1e308, delta=1e-300, mu=-1e307),
                     ModelSpec.pairing_hopping(j=-8e299, delta=1e300, mu=-6e299),
                     ModelSpec.pairing(j=5e-324, delta=5e-324, mu=5e-324)):
            _, y, z = grid_numerators(spec, 4096)
            assert np.isfinite(np.hypot(y, z)).all()
            assert np.isfinite(_energies(y, z)).all()


class TestHalfGrid:
    @pytest.mark.parametrize("n", [256, 2000, 4096, 8192])
    @pytest.mark.parametrize("alpha", [0.0, 1.5, math.inf])
    @pytest.mark.parametrize("make", [
        lambda a: ModelSpec.pairing(j=1.0, delta=0.7, mu=0.6, alpha=a),
        lambda a: ModelSpec.pairing_hopping(j=0.8, delta=1.0, mu=0.6, alpha=a, beta=a),
    ], ids=["pairing", "pairing_hopping"])
    def test_half_is_the_full_grid_bit_for_bit(self, make, alpha, n):
        # scaling only the k > 0 half of the harmonic sums gives each entry
        # of the full grid's k > 0 half, and the full grid's minimum gap
        spec = make(alpha)
        _, y, z = grid_numerators(spec, n)
        eps = _energies(y, z)
        half_y, half_z, half_eps, gap = _gapped_grid(spec, n)
        for half, full in ((half_y, y), (half_z, z), (half_eps, eps)):
            assert np.array_equal(half, full[n // 2:])
        assert gap == float(eps.min()) == minimum_gap(spec, n)

    @pytest.mark.parametrize("spec", [
        ModelSpec.pairing(alpha=1.5), ModelSpec.pairing_hopping(alpha=0.4, beta=1.7, r=3)],
        ids=["pairing", "pairing_hopping"])
    def test_cache_holds_the_half_read_only(self, spec):
        # the harmonic cache stores the n/2 momenta k > 0 alone, and nothing
        # writes into its arrays after the transform
        n = 256
        kp, sin_sum, cos_sum, _ = model._grid_harmonics(n, spec.alpha, spec.beta, spec.r)
        for arr in (kp, sin_sum, cos_sum):
            assert arr.shape == (n // 2,) and not arr.flags.writeable
        assert np.array_equal(kp, momentum_grid(n)[n // 2:])


class TestEnergies:
    def test_within_two_ulp_of_hypot(self, rng):
        # magnitudes 1e-300 .. 1e307 in both numerators, any ratio, any sign
        size = 100_000
        ey = rng.uniform(-300, 307, size)
        ez = np.where(rng.random(size) < 0.5,  # half the pairs within 1e3
                      np.clip(ey + rng.uniform(-3, 3, size), -300, 307),
                      rng.uniform(-300, 307, size))
        y = rng.choice([-1.0, 1.0], size) * 10.0 ** ey
        z = rng.choice([-1.0, 1.0], size) * 10.0 ** ez
        want = np.hypot(y, z)
        assert np.all(np.abs(_energies(y, z) - want) <= 2 * np.spacing(want))

    def test_special_values_equal_hypot(self):
        pairs = [(0.0, 0.0), (5e-324, 0.0), (0.0, 5e-324), (np.inf, 1.0),
                 (-np.inf, 1.0), (1.0, np.inf), (1.0, -np.inf), (np.nan, 1.0),
                 (1.0, np.nan), (1.7e308, 1.7e308)]
        y, z = np.array(pairs).T
        with np.errstate(over="ignore"):
            want = np.hypot(y, z)
        np.testing.assert_array_equal(_energies(y, z), want)

    def test_one_energy_everywhere(self, rng):
        # the winding gap, minimum_gap and solve_chain read one formula
        variants = set()
        for _ in range(20):
            spec = random_gapped_spec(rng)
            variants.add(spec.variant)
            n = int(rng.choice([256, 512, 1024]))
            gaps = (winding_number(spec, n).min_gap, minimum_gap(spec, n),
                    min(m.epsilon for m in solve_chain(spec, n)))
            assert gaps[0] == gaps[1] == gaps[2]
        assert variants == set(Variant)


class TestOpenChainWeights:
    def test_pairing_hopping_identities(self, rng):
        # hop = J/l^beta and pair = Delta/l^alpha per range, zero beyond r
        for _ in range(50):
            spec = random_gapped_spec(rng)
            if spec.variant is not Variant.LONG_RANGE_PAIRING_HOPPING:
                continue
            hop, pair = open_chain_weights(spec, spec.r + 3)
            l = np.arange(1, spec.r + 1, dtype=float)
            assert np.allclose(hop[:spec.r], spec.j * l ** (-spec.beta), atol=1e-13)
            assert np.allclose(pair[:spec.r], spec.delta * l ** (-spec.alpha),
                               atol=1e-13)
            assert np.all(hop[spec.r:] == 0.0) and np.all(pair[spec.r:] == 0.0)

    def test_pairing_only_values(self):
        # l = 1 carries hopping and pairing; l >= 2 pairing only with the
        # (Delta/2) d^-alpha open-chain strength
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=0.3, alpha=0.0)
        hop, pair = open_chain_weights(spec, 5)
        assert hop[0] == pytest.approx(0.5)
        assert pair[0] == pytest.approx(0.5)
        assert hop[1] == 0.0
        assert pair[1] == pytest.approx(0.5)

    def test_delta_zero_kills_long_range(self):
        spec = ModelSpec.pairing(j=1.0, delta=0.0, mu=0.1, alpha=1.0)
        hop, pair = open_chain_weights(spec, 7)
        assert np.all(hop[1:] == 0.0)
        assert np.all(pair == 0.0)


class TestRangeOnRing:
    @pytest.mark.parametrize("r,n", [(4, 4), (5, 4), (300, 256)])
    def test_range_reaching_the_ring_raises(self, r, n):
        # the ring distance min(l, n - l) would reach 0
        spec = ModelSpec.pairing_hopping(mu=-3.0, beta=0.2, r=r)
        with pytest.raises(ValueError, match=f"r = {r}"):
            grid_numerators(spec, n)
        with pytest.raises(ValueError, match=f"r = {r}"):
            numerators_at(spec, 0.3, n)

    def test_longest_range_kept(self):
        spec = ModelSpec.pairing_hopping(mu=-3.0, beta=0.2, r=3)
        _, y, z = grid_numerators(spec, 4)
        assert np.isfinite(y).all() and np.isfinite(z).all()


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

    @pytest.mark.parametrize("kind", [Fraction, np.float32, np.int64, int])
    @pytest.mark.parametrize("base", [
        ModelSpec.pairing(j=1.0, delta=2.0, mu=0.5, alpha=1.5),
        ModelSpec.pairing_hopping(j=-1.0, delta=1.0, mu=0.25, alpha=0.5, beta=2.0, r=3),
    ], ids=["pairing", "pairing_hopping"])
    def test_couplings_stored_as_checked_floats(self, base, kind):
        # every dyadic coupling, and every integral one for the integer
        # kinds, passed as `kind` (and r as np.int64) gives the float spec's
        # stored fields and results
        fields = {f: getattr(base, f) for f in ("j", "delta", "mu", "alpha", "beta", "r")
                  if getattr(base, f) is not None}
        typed = {f: kind(v) if kind in (Fraction, np.float32) or v == int(v) else v
                 for f, v in fields.items()}
        if base.r is not None:
            typed["r"] = np.int64(base.r)
        spec = ModelSpec(base.variant, **typed)
        assert spec == base
        for f, v in fields.items():
            assert type(getattr(spec, f)) is type(v)
        assert de_density(spec, 256) == de_density(base, 256)
        assert winding_number(spec) == winding_number(base)
        assert mode_count(spec, 40) == mode_count(base, 40)

    def test_infinite_exponents_allowed(self):
        spec = ModelSpec.pairing_hopping(alpha=math.inf, beta=math.inf)
        assert math.isinf(spec.alpha) and math.isinf(spec.beta)

    def test_open_chain_weights_single_term_at_inf(self):
        hop, pair = open_chain_weights(ModelSpec.pairing(j=2.0, delta=3.0), 6)
        assert hop[0] == 1.0 and np.all(hop[1:] == 0)
        assert pair[0] == 1.5 and np.all(pair[1:] == 0)
