"""Winding numbers: reference phases, refinement stability, independent
crossing-count check, scans."""
from dataclasses import replace

import numpy as np
import pytest

from kitaev_de import (GaplessSpecError, ModelSpec, nu_change_locations,
                       phase_boundary_scan, trajectory, winding_number)
from kitaev_de.model import grid_numerators
from kitaev_de.topology import _winding

from conftest import random_gapped_spec, rolled_turns


def crossing_count(spec, samples=8192):
    """Independent winding check: signed crossings of the h_y = 0 axis.

    Counts sign changes of the sine component of the numerator trajectory
    where the cosine component of exp(2 i theta) is positive, signed by the
    crossing direction; equals the accumulated winding for closed curves.
    """
    _, y, z = grid_numerators(spec, samples)
    # winding of (y, -z) in the orientation used by winding_number
    u, v = y, -z
    total = 0
    for i in range(samples):
        j = (i + 1) % samples
        if u[i] == 0.0:
            continue
        if u[i] < 0.0 <= u[j] and v[i] + v[j] > 0:
            total += 1
        elif u[j] < 0.0 <= u[i] and v[i] + v[j] > 0:
            total -= 1
    return -total  # positive-axis crossings of (y, -z) with this orientation


REFERENCE_CASES = [
    (ModelSpec.pairing(j=1.0, delta=-1.0, mu=-1.5), 0.0),
    (ModelSpec.pairing(j=1.0, delta=1.0, mu=-0.5), 1.0),
    (ModelSpec.pairing_hopping(j=-0.8, delta=1.0, mu=-0.6), -3.0),
    (ModelSpec.pairing_hopping(j=0.8, delta=1.0, mu=0.6), 3.0),
]


class TestWindingNumber:
    @pytest.mark.parametrize("spec,want", REFERENCE_CASES)
    def test_reference_phases(self, spec, want):
        assert winding_number(spec).nu == want

    def test_mu_one_transition(self):
        # pairing-only chain at alpha=inf: nu = +1 inside (-1, 1), 0 outside
        assert winding_number(ModelSpec.pairing(1.0, 1.0, 0.9)).nu == 1.0
        assert winding_number(ModelSpec.pairing(1.0, 1.0, 1.1)).nu == 0.0
        # next to the transition, on a coarse grid
        near = ModelSpec.pairing(j=1.0, delta=1.0, mu=1.0 + 1e-4)
        assert winding_number(near, samples=256).nu == 0.0

    def test_scale_invariant_near_float_max(self):
        # nu depends only on the direction of (y, z); at couplings of 1e300
        # products of the numerators would overflow, and the angle form
        # takes none
        for spec in (ModelSpec.pairing(j=1.0, delta=1.0, mu=0.5),
                     ModelSpec.pairing_hopping(j=-0.8, mu=-0.6)):
            big = winding_number(replace(spec, j=1e300 * spec.j,
                                         delta=1e300 * spec.delta,
                                         mu=1e300 * spec.mu))
            assert big.nu == winding_number(spec).nu

    def test_turn_sum_matches_rolled_reference(self, rng):
        # the half-loop count of branch-cut crossings is the nearest integer
        # to the whole-loop rolled sum of products of the mirrored grid; at
        # couplings of 1e300 those products overflow and the rolled
        # reference has to rescale, the angle form does not
        for _ in range(50):
            spec = random_gapped_spec(rng)
            n = int(rng.choice([256, 1024, 4096]))
            _, y, z = grid_numerators(spec, n)
            assert _winding(y[n // 2:], z[n // 2:]) == round(rolled_turns(y, z)[0])
        for spec in (ModelSpec.pairing(j=1e300, delta=1e300, mu=0.5e300),
                     ModelSpec.pairing_hopping(j=-0.8e300, delta=1e300,
                                               mu=-0.6e300)):
            _, y, z = grid_numerators(spec, 4096)
            full, full_rescaled = rolled_turns(y, z)
            assert full_rescaled
            assert _winding(y[2048:], z[2048:]) == round(full)

    def test_mirror_in_delta(self, rng):
        # nu(mu, delta) = -nu(mu, -delta) for the pairing-only chain
        for _ in range(50):
            mu = float(rng.uniform(-1.8, 1.8))
            delta = float(rng.uniform(0.2, 1.5))
            try:
                plus = winding_number(ModelSpec.pairing(1.0, delta, mu))
                minus = winding_number(ModelSpec.pairing(1.0, -delta, mu))
            except GaplessSpecError:
                continue
            assert plus.nu == -minus.nu

    def test_refinement_stability(self, rng):
        # doubling the sample count never changes the winding
        checked = 0
        while checked < 200:
            spec = random_gapped_spec(rng, min_gap=0.02)
            try:
                coarse = winding_number(spec, samples=512)
                fine = winding_number(spec, samples=1024)
            except GaplessSpecError:
                continue
            assert coarse.nu == fine.nu
            checked += 1

    def test_matches_crossing_count(self, rng):
        for spec, want in REFERENCE_CASES:
            assert crossing_count(spec) == want
        checked = 0
        while checked < 30:
            spec = random_gapped_spec(rng, min_gap=0.05)
            try:
                res = winding_number(spec, samples=8192)
            except GaplessSpecError:
                continue
            assert crossing_count(spec) == res.nu
            checked += 1

    def test_gapless_raises(self):
        from conftest import grid_gapless_spec
        with pytest.raises(GaplessSpecError):
            winding_number(grid_gapless_spec(4096), samples=4096)

    @pytest.mark.parametrize("delta", [0.0, -0.0])
    def test_no_pairing_has_no_winding(self, delta):
        # with no pairing y is a signed zero, so where the band crosses zero
        # between grid points phi steps exactly half a turn; that step has no
        # direction, and nu was read from the sign of zero (1 or -1)
        for mu in (-0.3, 0.3):
            with pytest.raises(GaplessSpecError, match="half a turn"):
                winding_number(ModelSpec.pairing(delta=delta, mu=mu))
        for mu in (-1.5, 1.5):  # z keeps one sign: no step is a half turn
            assert winding_number(ModelSpec.pairing(delta=delta, mu=mu)).nu == 0.0

    @pytest.mark.parametrize("y,z", [([1.0, 1.0], [0.0, 1.0]),   # across k = 0
                                     ([1.0, 1.0], [1.0, 0.0]),   # across k = pi
                                     ([0.0, 0.0], [1.0, -1.0])],  # within the half
                             ids=["zero", "pi", "half"])
    def test_half_turn_steps_raise(self, y, z):
        # phi = +-pi/2 at an end makes the crossing step 2 phi exactly half
        # a turn, like a step from phi = 0 to pi within the half
        with pytest.raises(GaplessSpecError, match="half a turn"):
            _winding(np.array(y), np.array(z))

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            winding_number(ModelSpec.pairing(mu=2.0), samples=64)

    def test_odd_samples_raise(self):
        # an odd grid has an unpaired mode at pi, like every closed chain
        spec = ModelSpec.pairing(mu=2.0)
        with pytest.raises(ValueError):
            winding_number(spec, 257)
        with pytest.raises(ValueError):
            trajectory(spec, samples=257)


class TestTrajectory:
    def test_unit_norm_points(self):
        spec = ModelSpec.pairing(j=1.0, delta=-1.0, mu=-1.5)
        tr = trajectory(spec, samples=512)
        norm = tr.hy ** 2 + tr.hz ** 2
        assert np.allclose(norm[~tr.gapless], 1.0, atol=1e-12)

    def test_small_delta_collapses_to_axis(self):
        spec = ModelSpec.pairing(j=1.0, delta=1e-7, mu=-1.5)
        tr = trajectory(spec, samples=512)
        assert np.abs(tr.hy).max() < 1e-5

    def test_large_mu_contracts_to_point(self):
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=1e6)
        tr = trajectory(spec, samples=512)
        assert np.allclose(tr.hz, -1.0, atol=1e-5)

    def test_mirror_delta_flips_hy(self):
        plus = trajectory(ModelSpec.pairing(1.0, 1.0, -1.5), samples=256)
        minus = trajectory(ModelSpec.pairing(1.0, -1.0, -1.5), samples=256)
        assert np.allclose(plus.hy, -minus.hy, atol=1e-12)
        assert np.allclose(plus.hz, minus.hz, atol=1e-12)


class TestPhaseScan:
    def test_variant1_boundaries(self):
        spec = ModelSpec.pairing(j=1.0)
        scan = phase_boundary_scan(spec, "mu", np.arange(-1.55, 1.56, 0.25),
                                   "delta", [-1.0, -0.3, 0.3, 1.0],
                                   samples=1024)
        # inside |mu| < 1: nu = sign(delta); outside: nu = 0
        for iy, d in enumerate([-1.0, -0.3, 0.3, 1.0]):
            for ix, mu in enumerate(scan.x_values):
                want = np.sign(d) if abs(mu) < 1 else 0.0
                assert scan.nu[iy, ix] == want

    def test_boundary_across_rows(self):
        # nu = sign(delta) for |mu| < 1: the rows at delta = -0.5 and 0.5
        # differ in every column, and only the y direction marks them
        scan = phase_boundary_scan(ModelSpec.pairing(j=1.0), "mu", [-0.5, 0.5],
                                   "delta", [-0.5, 0.5, 1.0], samples=256)
        np.testing.assert_array_equal(scan.nu, [[-1, -1], [1, 1], [1, 1]])
        np.testing.assert_array_equal(scan.boundary_mask(),
                                      [[True, True], [True, True], [False, False]])

    def test_constant_phase_has_no_boundary(self):
        spec = ModelSpec.pairing(j=1.0, delta=1.0)
        scan = phase_boundary_scan(spec, "mu", np.arange(-0.5, 0.51, 0.1),
                                   samples=1024)
        assert not scan.boundary_mask().any()
        assert np.all(scan.nu == 1.0)

    def test_variant2_transition_locations(self):
        spec = ModelSpec.pairing_hopping(j=-0.8, delta=1.0, mu=0.0)
        locs = nu_change_locations(spec, "mu", np.arange(-2.0, 0.5, 0.01),
                                   samples=2048)
        want = (-1.49151, -0.97868, -0.41420)
        assert len(locs) == 3
        for got, ref in zip(locs, want):
            assert abs(got - ref) < 0.01

    def test_gapless_cells_marked(self):
        from conftest import grid_gapless_spec
        base = grid_gapless_spec(1024)
        scan = phase_boundary_scan(base, "mu", [base.mu, 2.0], samples=1024)
        assert np.isnan(scan.nu[0, 0])
        assert scan.nu[0, 1] == 0.0

    def test_gapless_cells_nan_in_every_field(self):
        from conftest import grid_gapless_spec
        deltas = [-0.5, 0.0, 0.0, 0.5]
        base = grid_gapless_spec(1024)
        scan = phase_boundary_scan(base, "delta", deltas, samples=1024)
        np.testing.assert_array_equal(scan.nu, [[-1.0, np.nan, np.nan, 1.0]])
        assert np.isnan(scan.min_gap[0, 1:3]).all()
        assert np.isfinite(scan.min_gap[0, [0, 3]]).all()
        # a NaN next to a number is a change; two NaN cells are not
        assert nu_change_locations(base, "delta", deltas, samples=1024) == [-0.25, 0.25]
