"""Exact-diagonalization oracle self-checks and energy identities."""
import math

import numpy as np
import pytest

from kitaev_de import DegenerateGroundStateError, ModelSpec
from kitaev_de.model import grid_numerators
from kitaev_de.oracle import (ed_diagonal_marginal, ed_ground_state,
                              ed_sigma_z_product, ed_spectrum, eigen_residual,
                              spin_ground_state, spin_hamiltonian)

from conftest import random_gapped_spec


def momentum_ground_energy(spec, n):
    """Closed-chain ground energy from the momentum solution.

    The dispersion follows the convention of each chain family, so the sum
    over the full grid carries a factor 1/2 for the pairing-only chain and
    1 for the pairing+hopping chain.
    """
    _, y, z = grid_numerators(spec, n)
    eps = np.hypot(y, z)
    const = 0.5 if spec.beta is None else 1.0
    return -const * float(eps.sum())


class TestGroundState:
    def test_n2_hand_solved(self):
        # 4x4 problem: even sector couples |00> and |11> with -delta/2 off
        # diagonal and +-mu diagonal; odd sector eigenvalues are +-J/2
        j, delta, mu = 0.8, 1.3, 0.45
        spec = ModelSpec.pairing(j=j, delta=delta, mu=mu)
        even = -math.sqrt(mu ** 2 + delta ** 2 / 4.0)
        odd = -j / 2.0
        state = ed_ground_state(spec, 2, "open")
        assert state.energy == pytest.approx(min(even, odd), abs=1e-12)
        closed = ed_ground_state(spec, 2, "antiperiodic")
        assert closed.energy == pytest.approx(even, abs=1e-12)
        assert closed.energy == pytest.approx(momentum_ground_energy(spec, 2),
                                              abs=1e-12)

    def test_eigen_residual(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        state = ed_ground_state(spec, 8, "open")
        assert eigen_residual(state) < 1e-10
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_atomic_limit(self):
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=-1e6)
        state = ed_ground_state(spec, 6, "open")
        # vacuum bitstring dominates, energy -> n*mu/2 from -mu sum(n - 1/2)
        assert abs(state.amplitudes[0]) > 1 - 1e-9
        assert state.energy == pytest.approx(6 * (-1e6) / 2.0, rel=1e-9)

    def test_degenerate_detected(self):
        # deep topological point: open-chain parity doublet is exactly split
        # by machine-size terms at the sweet spot mu=0
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=0.0)
        with pytest.raises(DegenerateGroundStateError):
            ed_ground_state(spec, 8, "open")

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            ed_ground_state(ModelSpec.pairing(), 13)


class TestEnergyIdentities:
    @pytest.mark.parametrize("n", [6, 10])
    def test_antiperiodic_matches_momentum_sum(self, rng, n):
        # the unequal-exponent chain pins which of alpha and beta decays the
        # pairing: the two assignments differ by 0.29 (n=6) and 0.35 (n=10)
        unequal = ModelSpec.pairing_hopping(j=-0.8, delta=1.0, mu=-1.0,
                                            alpha=0.0, beta=0.5, r=3)
        specs = [random_gapped_spec(rng, trivial=True) for _ in range(6)]
        for spec in specs + [unequal]:
            state = ed_ground_state(spec, n, "antiperiodic")
            assert state.energy == pytest.approx(momentum_ground_energy(spec, n),
                                                 abs=1e-9)

    def test_pair_structure_pins_half_grid(self):
        # the factor-1/2 (pairing-only chain) is what makes the momentum-space
        # diagonal entropy a sum over the positive-k half grid
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=0.5)
        state = ed_ground_state(spec, 10, "antiperiodic")
        _, y, z = grid_numerators(spec, 10)
        eps = np.hypot(y, z)
        assert state.energy == pytest.approx(-0.5 * eps.sum(), abs=1e-12)
        assert abs(state.energy + eps.sum()) > 1.0  # full-grid sum is wrong


class TestSpinPicture:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_isospectral_to_fermions(self, rng, n):
        for _ in range(4):
            spec = random_gapped_spec(rng, trivial=True)
            fermi = ed_spectrum(spec, n, "open")
            spin = np.linalg.eigvalsh(spin_hamiltonian(spec, n).toarray())
            assert np.abs(fermi - spin).max() < 1e-9

    def test_spin_ground_energy(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        state = ed_ground_state(spec, 8, "open")
        _, e_spin = spin_ground_state(spec, 8)
        assert e_spin == pytest.approx(state.energy, abs=1e-10)


class TestMarginals:
    def test_full_marginal_sums_to_one(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        state = ed_ground_state(spec, 6, "open")
        p = ed_diagonal_marginal(state, range(6), "z")
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        px = ed_diagonal_marginal(state, range(6), "x")
        assert px.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_site_z(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        state = ed_ground_state(spec, 8, "open")
        for site in (0, 3, 7):
            p = ed_diagonal_marginal(state, [site], "z")
            sz = ed_sigma_z_product(state, [site])
            # outcome bit 1 means occupied; sigma_z = 1 - 2n
            assert p[0] == pytest.approx((1 + sz) / 2, abs=1e-12)
            assert p[1] == pytest.approx((1 - sz) / 2, abs=1e-12)

    def test_marginal_matches_bruteforce(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        n = 6
        state = ed_ground_state(spec, n, "open")
        sites = [1, 3, 4]
        p = ed_diagonal_marginal(state, sites, "z")
        probs = np.abs(state.amplitudes) ** 2
        brute = np.zeros(8)
        for idx, pr in enumerate(probs):
            out = sum(((idx >> s) & 1) << a for a, s in enumerate(sites))
            brute[out] += pr
        assert np.allclose(p, brute, atol=1e-13)

    def test_x_marginal_requires_open(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        state = ed_ground_state(spec, 6, "antiperiodic")
        with pytest.raises(ValueError):
            ed_diagonal_marginal(state, [0, 1], "x")
