"""Scaling-law fits, susceptibilities and the critical-point detector."""
import numpy as np
import pytest

from kitaev_de import (IllConditionedError, InsufficientPointsError, ModelSpec,
                       NonUniformGridError, detect_critical_points,
                       fit_block_law, fit_volume_law, susceptibility,
                       sweep_block_coefficients, sweep_de_density,
                       sweep_global_entanglement)
from kitaev_de.analysis import comparative_scan

from conftest import grid_gapless_spec


class TestVolumeFit:
    def test_exact_synthetic(self):
        sizes = np.arange(100, 1100, 100)
        fit = fit_volume_law(sizes, 0.37 * sizes)
        assert fit.params[0] == pytest.approx(0.37, abs=1e-14)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)

    def test_recovery_randomized(self, rng):
        for _ in range(200):
            s = rng.uniform(0.01, 1.0)
            sizes = np.arange(50, 850, 50)
            fit = fit_volume_law(sizes, s * sizes)
            assert fit.params[0] == pytest.approx(s, rel=1e-12)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPointsError):
            fit_volume_law([100, 200], [1.0, 2.0])


class TestBlockFit:
    def test_exact_synthetic(self):
        ls = np.arange(4, 15)
        vals = 0.2 * ls + 0.5 * np.log2(ls) + 0.1
        fit = fit_block_law(ls, vals)
        assert fit.params[0] == pytest.approx(0.2, abs=1e-10)
        assert fit.params[1] == pytest.approx(0.5, abs=1e-10)
        assert fit.params[2] == pytest.approx(0.1, abs=1e-10)
        assert fit.residual_rms < 1e-12

    def test_recovery_randomized(self, rng):
        for _ in range(200):
            a, b, c = rng.uniform(-1, 1, size=3)
            ls = np.arange(4, 15)
            fit = fit_block_law(ls, a * ls + b * np.log2(ls) + c)
            assert fit.params[0] == pytest.approx(a, abs=1e-8)
            assert fit.params[1] == pytest.approx(b, abs=1e-8)
            assert fit.params[2] == pytest.approx(c, abs=1e-8)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPointsError):
            fit_block_law([4, 5, 6, 7], [1, 2, 3, 4])

    def test_ill_conditioned(self):
        ls = np.full(6, 8.0)
        ls[0] = 8.0 + 1e-9
        with pytest.raises((IllConditionedError, InsufficientPointsError)):
            fit_block_law(ls, np.ones(6))

    def test_condition_number_from_the_fit(self):
        # six distinct lengths near 1e8 make the design's columns nearly
        # parallel; the lstsq singular values must catch it
        ls = 1e8 + np.arange(6.0)
        with pytest.raises(IllConditionedError, match="ill conditioned"):
            fit_block_law(ls, np.ones(6))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_length_raises_before_solving(self, bad):
        # LAPACK's least squares need not return on a non-finite matrix
        ls = np.append(np.arange(4.0, 15.0), bad)
        with pytest.raises(IllConditionedError, match="not finite"):
            fit_block_law(ls, np.ones(ls.size))

    def test_base_change_rescales_coefficients(self):
        # switching entropy units multiplies (a, b, c) by one constant and
        # cannot move detected kink locations
        ls = np.arange(4, 15)
        vals = 0.3 * ls + 0.2 * np.log2(ls) + 0.05
        fit2 = fit_block_law(ls, vals)
        fite = fit_block_law(ls, vals * np.log(2.0))
        ratio = np.array(fite.params) / np.array(fit2.params)
        assert np.allclose(ratio, np.log(2.0), atol=1e-10)


class TestSusceptibility:
    def test_linear_quantity_constant_chi(self):
        x = np.arange(0, 1, 0.01)
        curve = susceptibility("x", x, 3.0 * x + 2.0)
        assert np.allclose(curve.chi, 3.0, atol=1e-10)
        assert curve.chi.size == x.size - 2

    def test_antisymmetry_under_reversal(self):
        x = np.arange(-1, 1.001, 0.01)
        q = np.cos(x) + 0.3 * x ** 3
        fwd = susceptibility("x", x, q)
        rev = susceptibility("x", x, q[::-1])
        assert np.allclose(rev.chi, -fwd.chi[::-1], atol=1e-12)

    @pytest.mark.parametrize("grid", [[0.0], [0.0, 0.1]])
    def test_needs_three_points(self, grid):
        with pytest.raises(NonUniformGridError, match="at least 3"):
            susceptibility("x", grid, np.zeros(len(grid)))

    def test_spacing_must_be_finite_and_nonzero(self):
        # a zero step passed the uniformity check and divided chi by zero;
        # a decreasing grid stays legal
        with pytest.raises(NonUniformGridError, match="nonzero"):
            susceptibility("x", np.full(5, 0.5), np.arange(5.0))
        x = np.arange(1, -1.001, -0.01)
        assert np.allclose(susceptibility("x", x, 3.0 * x).chi, 3.0, atol=1e-10)

    def test_nonuniform_rejected(self):
        with pytest.raises(NonUniformGridError):
            susceptibility("x", [0.0, 0.1, 0.3, 0.4, 0.5], np.zeros(5))


class TestDetector:
    def test_smooth_curve_empty(self):
        x = np.arange(0, 6.29, 0.01)
        rep = detect_critical_points(susceptibility("x", x, np.sin(x)), 10.0)
        assert rep.points == ()

    def test_single_kink_detected(self):
        x = np.arange(-1, 1.001, 0.01)
        q = np.where(x < 0.203, 1.0 * x, 3.0 * x - 0.406)
        rep = detect_critical_points(susceptibility("x", x, q), 10.0)
        assert len(rep.points) == 1
        assert abs(rep.points[0].location - 0.203) < 0.011

    def test_reversed_grid_merges_cluster(self):
        # a descending grid has a negative step; one kink is still one point
        x = np.arange(1, -1.001, -0.01)
        q = np.where(x < 0.203, 1.0 * x, 3.0 * x - 0.406)
        rep = detect_critical_points(susceptibility("x", x, q), 10.0)
        assert len(rep.raw_flags) > 1
        assert len(rep.points) == 1
        assert abs(rep.points[0].location - 0.203) < 0.011

    def test_kink_flagged_next_to_a_gapless_point(self):
        # one NaN value (the gap closed there) must not hide the kink, and
        # is reported itself as one point with an infinite jump
        x = np.arange(-1, 1.001, 0.01)
        q = np.sin(x) + np.where(x < 0.203, 0.0, 2.0 * (x - 0.203))
        q[50] = np.nan
        rep = detect_critical_points(susceptibility("x", x, q), 10.0)
        assert np.isfinite(rep.threshold)
        assert len(rep.points) == 2
        gapless, kink = rep.points
        assert gapless.location == x[50] and gapless.jump == np.inf
        assert abs(kink.location - 0.203) < 0.011 and np.isfinite(kink.jump)

    def test_gapless_runs_in_grid_order(self):
        # each run of NaN values is one point at its mean, on either grid order
        x = np.arange(-1, 1.001, 0.01)
        q = np.sin(x)
        q[[20, 21, 22, 150]] = np.nan
        for grid, vals in ((x, q), (x[::-1], q[::-1])):
            rep = detect_critical_points(susceptibility("x", grid, vals), 10.0)
            locs = [p.location for p in rep.points]
            want = [x[21], x[150]] if grid[0] < grid[-1] else [x[150], x[21]]
            assert locs == pytest.approx(want, abs=1e-12)
            assert all(p.jump == np.inf for p in rep.points)

    def test_no_finite_jump_raises(self):
        x = np.arange(0, 0.2, 0.01)
        q = np.where(np.arange(x.size) % 2, np.nan, x)
        with pytest.raises(InsufficientPointsError):
            detect_critical_points(susceptibility("x", x, q), 10.0)

    def test_needs_enough_points(self):
        x = np.arange(0, 0.08, 0.01)
        with pytest.raises(InsufficientPointsError):
            detect_critical_points(susceptibility("x", x, x ** 2), 10.0)

    def test_locations_match_nu_changes(self):
        # detector flags coincide with winding-number changes within a step
        from kitaev_de import nu_change_locations
        spec = ModelSpec.pairing_hopping(j=-0.8, delta=1.0, mu=0.0)
        mus = np.arange(-2.0, 0.5 + 1e-9, 0.01)
        s = sweep_de_density(spec, "mu", mus, 2000)
        rep = detect_critical_points(susceptibility("mu", mus, s), 10.0)
        nus = nu_change_locations(spec, "mu", mus, samples=2048)
        assert len(rep.points) == len(nus)
        for pt, loc in zip(rep.points, nus):
            assert abs(pt.location - loc) <= 0.011

    def test_base_change_leaves_locations(self):
        spec = ModelSpec.pairing_hopping(j=0.3, delta=1.0, mu=0.0)
        mus = np.arange(-0.2, 0.8 + 1e-9, 0.01)
        s = sweep_de_density(spec, "mu", mus, 1000)
        rep_bits = detect_critical_points(susceptibility("mu", mus, s), 10.0)
        rep_nats = detect_critical_points(
            susceptibility("mu", mus, s * np.log(2.0)), 10.0)
        assert [p.location for p in rep_bits.points] == \
               [p.location for p in rep_nats.points]


class TestComparativeScan:
    def test_channels_aligned(self):
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=0.0, alpha=0.0)
        mus = np.arange(-0.1, 0.11, 0.05)
        table = comparative_scan(spec, "mu", mus, channels=("s", "E", "nu"),
                                 n_density=500)
        assert set(table) == {"mu", "s", "E", "nu"}
        assert all(v.size == mus.size for v in table.values())

    def test_gapless_points_are_nan(self):
        # the gap closes on a momentum of the 256-point grid at the first
        # point only; each sweep writes NaN there and a value at the second
        spec = grid_gapless_spec(256)
        mus = [spec.mu, 1.5]
        s = sweep_de_density(spec, "mu", mus, 256)
        e = sweep_global_entanglement(spec, "mu", mus, 256)
        coef = sweep_block_coefficients(spec, "mu", mus, lengths=range(2, 8), n=256)
        assert s.shape == e.shape == (2,) and coef.shape == (2, 3)
        assert np.isnan(s[0]) and np.isnan(e[0]) and np.isnan(coef[0]).all()
        assert np.isfinite(s[1]) and np.isfinite(e[1]) and np.isfinite(coef[1]).all()
        table = comparative_scan(spec, "mu", mus, channels=("s", "a", "E"),
                                 lengths=range(2, 8), n_density=256, n_kernel=256)
        assert np.isnan([table[c][0] for c in ("s", "a", "E")]).all()

    def test_unknown_channel_raises(self):
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=0.0)
        with pytest.raises(ValueError, match="channels"):
            comparative_scan(spec, "mu", [0.1, 0.2], channels=("s", "S"))

    def test_ge_blind_spot_vs_block_coefficient(self):
        # at mu=0 the a-channel flags the delta=0 transition while the
        # global-entanglement susceptibility stays continuous there
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=0.0, alpha=0.0)
        ds = np.arange(-0.3, 0.31, 0.01)
        table = comparative_scan(spec, "delta", ds, channels=("a", "E"),
                                 lengths=range(4, 11))
        rep_e = detect_critical_points(susceptibility("delta", ds, table["E"]), 10.0)
        assert rep_e.points == ()
        rep = detect_critical_points(susceptibility("delta", ds, table["a"]), 10.0)
        assert len(rep.points) == 1
        assert abs(rep.points[0].location) < 0.011
