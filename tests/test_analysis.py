"""Scaling-law fits, susceptibilities, the critical-point detector and the
scans."""
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kitaev_de import (GaplessSpecError, IllConditionedError,
                       InsufficientPointsError, ModelSpec, NonUniformGridError,
                       block_coefficients, de_density, detect_critical_points,
                       fit_block_law, fit_volume_law, global_entanglement,
                       nu_change_locations, phase_boundary_scan,
                       susceptibility, winding_number)
from kitaev_de import analysis, correlator_kernel
from kitaev_de.analysis import CHANNELS, comparative_scan
from kitaev_de.cli import _lengths, _spec, resolve_config
from kitaev_de.entropy import _block_entropies
from kitaev_de.topology import DEFAULT_SAMPLES

from conftest import grid_gapless_spec, random_gapped_spec

CONFIGS = Path(__file__).parent.parent / "configs"


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
        # parallel; the design's singular values must catch it, and no
        # pseudo-inverse is built from them (the suite turns a division
        # warning into an error)
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


def _exact_least_squares(design, values) -> list[float]:
    """Least-squares solution of ``design @ x = values``: the normal
    equations of the float inputs solved exactly in rationals, then rounded
    once to floats."""
    a = [[Fraction(x) for x in row] for row in design.tolist()]
    y = [Fraction(v) for v in values]
    m = [[sum(r[i] * r[j] for r in a) for j in range(3)]
         + [sum(r[i] * v for r, v in zip(a, y))] for i in range(3)]
    for i in range(3):  # Gauss-Jordan; the pivots of A^T A are positive
        m[i] = [x / m[i][i] for x in m[i]]
        for k in range(3):
            if k != i:
                m[k] = [x - m[k][i] * p for x, p in zip(m[k], m[i])]
    return [float(row[3]) for row in m]


class TestBlockSolver:
    # fit_block_law multiplies the values by the design's pseudo-inverse,
    # cached per length set, and refines the product once with the residual

    def test_refined_fit_is_exact_least_squares(self):
        # on the checked-in block configs' specs and on seeded gapped specs,
        # in both bases, (a, b, c) lie within 5e-15 of the exact least
        # squares of the same float inputs; the unrefined product was off by
        # up to 2e-14
        cases = []
        for path in sorted(CONFIGS.glob("block_fit_*.json")):
            config = resolve_config(json.loads(path.read_text()), {})
            cases.append((_spec(config), _lengths(config), config["n"]))
        rng = np.random.default_rng(3301)
        cases += [(random_gapped_spec(rng), list(range(4, 15)), 8192)
                  for _ in range(20)]
        for spec, lengths, n in cases:
            kernel = correlator_kernel(spec, n=n, l_max=max(lengths))
            design, *_ = analysis._block_solver(tuple(float(l) for l in lengths))
            for basis in ("z", "x"):
                fit = fit_block_law(lengths, _block_entropies(kernel, lengths, basis))
                want = _exact_least_squares(design, [v for _, v in fit.points])
                np.testing.assert_allclose(fit.params, want, rtol=0, atol=5e-15)

    @pytest.mark.parametrize("lengths", [range(4, 15), range(2, 8), range(4, 13),
                                         [9, 4, 14, 4, 6, 2, 9, 11]])
    def test_agrees_with_lstsq(self, rng, lengths):
        ls = np.array(lengths, dtype=float)
        design = np.column_stack([ls, np.log2(ls), np.ones_like(ls)])
        for _ in range(50):
            a, b, c = rng.uniform(-1, 1, size=3)
            vals = (a * ls + b * np.log2(ls) + c
                    + 1e-3 * rng.standard_normal(ls.size))
            fit = fit_block_law(ls, vals)
            want, *_ = np.linalg.lstsq(design, vals, rcond=None)
            np.testing.assert_allclose(fit.params, want, rtol=1e-12, atol=1e-14)
            resid = np.sqrt(np.mean((vals - design @ want) ** 2))
            assert fit.residual_rms == pytest.approx(resid, rel=1e-9)

    def test_cached_arrays_are_read_only(self):
        design, pinv, conditioned = analysis._block_solver(
            tuple(float(l) for l in range(4, 15)))
        assert conditioned
        for a in (design, pinv):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    def test_one_solver_per_sweep(self):
        analysis._block_solver.cache_clear()
        spec = ModelSpec.pairing(j=1.0, delta=0.7, mu=0.0, alpha=1.7)
        table = comparative_scan(spec, "mu", np.linspace(1.2, 2.0, 20),
                                 ("a", "b", "c"), n_kernel=2048)
        assert np.isfinite([table[c] for c in "abc"]).all()
        info = analysis._block_solver.cache_info()
        assert (info.misses, info.hits) == (1, 19)


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
        spec = ModelSpec.pairing_hopping(j=-0.8, delta=1.0, mu=0.0)
        mus = np.arange(-2.0, 0.5 + 1e-9, 0.01)
        s = comparative_scan(spec, "mu", mus, ["s"], n_density=2000)["s"]
        rep = detect_critical_points(susceptibility("mu", mus, s), 10.0)
        nus = nu_change_locations(spec, "mu", mus)
        assert len(rep.points) == len(nus)
        for pt, loc in zip(rep.points, nus):
            assert abs(pt.location - loc) <= 0.011

    def test_base_change_leaves_locations(self):
        spec = ModelSpec.pairing_hopping(j=0.3, delta=1.0, mu=0.0)
        mus = np.arange(-0.2, 0.8 + 1e-9, 0.01)
        s = comparative_scan(spec, "mu", mus, ["s"], n_density=1000)["s"]
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
        # the gap closes on a momentum of the n-point grid at the first
        # point only, where each per-point call raises; every channel writes
        # NaN there, and at the second point what the per-point calls
        # return.  n is the winding number's default grid, which the nu
        # channel reads
        n = DEFAULT_SAMPLES
        lengths = range(2, 8)
        spec = grid_gapless_spec(n)
        per_point = (lambda sp: [de_density(sp, n)],
                     lambda sp: block_coefficients(sp, lengths=lengths, n=n).params,
                     lambda sp: [global_entanglement(sp, n)],
                     lambda sp: [winding_number(sp).nu])
        for fn in per_point:
            with pytest.raises(GaplessSpecError):
                fn(spec)
        want = [v for fn in per_point for v in fn(replace(spec, mu=1.5))]
        assert np.isfinite(want).all()
        table = comparative_scan(spec, "mu", [spec.mu, 1.5], lengths=lengths,
                                 n_density=n, n_kernel=n)
        assert np.isnan([table[c][0] for c in CHANNELS]).all()
        assert [table[c][1] for c in CHANNELS] == want

    def test_each_point_builds_one_spec(self, monkeypatch):
        # every channel reads one list of swept specs: one construction per
        # point, not one per point and channel
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=0.0, alpha=1.5)
        built = []
        post_init = ModelSpec.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(ModelSpec, "__post_init__", counted)
        mus = np.linspace(1.2, 1.6, 5)
        table = comparative_scan(spec, "mu", mus, channels=("s", "a", "E", "nu"),
                                 lengths=range(2, 8), n_density=256, n_kernel=256)
        assert len(built) == mus.size
        assert [sp.mu for sp in built] == table["mu"].tolist()

    def test_lengths_generator_reads_like_a_list(self):
        # lengths are read once before the passes; a generator was used up
        # by the first point, and the second raised for want of lengths
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=0.0)
        want = comparative_scan(spec, "mu", [0.4, 0.5], ["a"], lengths=list(range(4, 15)))
        got = comparative_scan(spec, "mu", [0.4, 0.5], ["a"],
                               lengths=(l for l in range(4, 15)))
        assert got.keys() == want.keys()
        for c in want:
            np.testing.assert_array_equal(got[c], want[c])

    @pytest.mark.parametrize("spec,x_values,y_name,y_values", [
        (ModelSpec.pairing_hopping(j=-0.8, delta=1.0, mu=0.0),
         np.arange(-2.0, 0.5 + 1e-9, 0.01), None, None),
        (ModelSpec.pairing_hopping(j=0.3, delta=1.0, mu=0.0),
         np.arange(-2.0, 1.0 + 1e-9, 0.01), None, None),
        (ModelSpec.pairing(j=1.0), np.arange(-1.9, 1.91, 0.1),
         "delta", np.arange(-1.5, 1.51, 0.25))],
        ids=["c3-j-0.8", "c3-j0.3", "pairing-map"])
    def test_every_scan_reads_one_nu(self, spec, x_values, y_name, y_values):
        # c3's two slices and the demo's pairing-only (mu, Delta) map, whose
        # Delta = 0 row is gapless inside |mu| < 1: each row of the phase
        # map is the nu channel of that row's sweep, and its nu changes
        # are the midpoints between neighbours that differ (two NaN
        # neighbours do not)
        scan = phase_boundary_scan(spec, "mu", x_values, y_name, y_values)
        rows = [spec] if y_name is None else [replace(spec, delta=d) for d in y_values]
        for row, nu in zip(rows, scan.nu, strict=True):
            want = comparative_scan(row, "mu", x_values, ["nu"])["nu"]
            assert np.array_equal(nu, want, equal_nan=True)
            mids = [0.5 * (a + b) for a, b, p, q
                    in zip(x_values, x_values[1:], nu, nu[1:])
                    if p != q and not (np.isnan(p) and np.isnan(q))]
            assert nu_change_locations(row, "mu", x_values) == mids
        # the slices are gapped at every point; the map has its NaN row
        assert np.isnan(scan.nu).any() == (y_name is not None)

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
