"""Winding numbers: reference phases, refinement stability, independent
crossing-count check, scans."""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kitaev_de import (GaplessSpecError, ModelSpec, NumericalWindingWarning,
                       nu_change_locations, phase_boundary_scan, trajectory,
                       winding_number)
from kitaev_de.model import grid_numerators
from kitaev_de.topology import _accumulated_turns

from conftest import random_gapped_spec, rolled_turns


def half_turns(y, z):
    """Reference turn sum from the k > 0 half in the angle form: the wrapped
    differences of ``atan2(y, z)`` twice plus the wrapped steps ``2 phi``
    across k = 0 and ``-2 phi`` across k = pi, in the order of
    ``_accumulated_turns``."""
    two_pi = 2.0 * math.pi
    phi = np.arctan2(y, z)
    steps = phi[1:] - phi[:-1]
    steps = steps - two_pi * np.round(steps / two_pi)
    at_zero = math.remainder(2.0 * phi[0], two_pi)
    at_pi = math.remainder(-2.0 * phi[-1], two_pi)
    return (2.0 * float(np.sum(steps)) + (at_zero + at_pi)) / two_pi


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
        res = winding_number(spec)
        assert res.nu == want
        assert res.gapped
        assert abs(res.nu_raw - want) < 1e-6

    def test_mu_one_transition(self):
        # pairing-only chain at alpha=inf: nu = +1 inside (-1, 1), 0 outside
        assert winding_number(ModelSpec.pairing(1.0, 1.0, 0.9)).nu == 1.0
        assert winding_number(ModelSpec.pairing(1.0, 1.0, 1.1)).nu == 0.0

    def test_scale_invariant_near_float_max(self):
        # nu depends only on the direction of (y, z); at couplings of 1e300
        # products of the numerators would overflow, and the angle form
        # takes none
        for spec in (ModelSpec.pairing(j=1.0, delta=1.0, mu=0.5),
                     ModelSpec.pairing_hopping(j=-0.8, mu=-0.6)):
            big = winding_number(replace(spec, j=1e300 * spec.j,
                                         delta=1e300 * spec.delta,
                                         mu=1e300 * spec.mu))
            small = winding_number(spec)
            assert big.nu == small.nu
            assert big.nu_raw == pytest.approx(small.nu_raw, abs=1e-9)

    def test_turn_sum_matches_rolled_reference(self, rng):
        # the half-loop angle sum equals its reference to the last bit, and
        # the whole-loop rolled sum of products of the mirrored grid to
        # rounding; at couplings of 1e300 those products overflow and the
        # rolled reference has to rescale, the angle form does not
        for _ in range(50):
            spec = random_gapped_spec(rng)
            n = int(rng.choice([256, 1024, 4096]))
            _, y, z = grid_numerators(spec, n)
            got = _accumulated_turns(y[n // 2:], z[n // 2:])
            assert got == half_turns(y[n // 2:], z[n // 2:])
            assert got == pytest.approx(rolled_turns(y, z)[0], abs=1e-12)
        for spec in (ModelSpec.pairing(j=1e300, delta=1e300, mu=0.5e300),
                     ModelSpec.pairing_hopping(j=-0.8e300, delta=1e300,
                                               mu=-0.6e300)):
            _, y, z = grid_numerators(spec, 4096)
            got = _accumulated_turns(y[2048:], z[2048:])
            assert got == half_turns(y[2048:], z[2048:])
            full, full_rescaled = rolled_turns(y, z)
            assert full_rescaled and got == pytest.approx(full, abs=1e-12)

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
        # doubling the sample count never changes the snapped winding
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
            if res.nu != round(res.nu):
                continue
            assert crossing_count(spec) == res.nu
            checked += 1

    def test_gapless_raises(self):
        from conftest import grid_gapless_spec
        with pytest.raises(GaplessSpecError):
            winding_number(grid_gapless_spec(4096), samples=4096)

    def test_snap_tolerance_and_warning(self):
        from kitaev_de.topology import snap_winding
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert snap_winding(1.004) == 1.0
            assert snap_winding(-2.51) == -2.5
        with pytest.warns(NumericalWindingWarning, match="0.230000"):
            assert snap_winding(0.23) == 0.0

    def test_raw_value_is_near_integer_for_closed_sweeps(self):
        # the sampled trajectory is a closed polygon, so the accumulated
        # angle is an exact multiple of 2*pi up to rounding
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=1.0 + 1e-4)
        res = winding_number(spec, samples=256)
        assert abs(res.nu_raw - round(res.nu_raw)) < 1e-9

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
        for field in (scan.nu_raw, scan.min_gap):
            assert np.isnan(field[0, 1:3]).all()
            assert np.isfinite(field[0, [0, 3]]).all()
        # a NaN next to a number is a change; two NaN cells are not
        assert nu_change_locations(base, "delta", deltas, samples=1024) == [-0.25, 0.25]
