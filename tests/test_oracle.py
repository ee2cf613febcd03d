"""Exact-diagonalization oracle self-checks and energy identities."""
import functools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from kitaev_de import DegenerateGroundStateError, ModelSpec
from kitaev_de.model import Variant, grid_numerators, open_chain_weights
from kitaev_de.oracle import (_Operator, _bonds, _hamiltonian, _lowest_two,
                              ed_diagonal_marginal, ed_ground_state,
                              ed_pair_correlator, ed_sigma_z_product,
                              ed_spectrum, eigen_residual, spin_ground_state)

from conftest import (momentum_ground_energy, random_gapped_spec,
                      random_pairing_hopping_spec, random_pairing_spec)

V1, V2 = ModelSpec.pairing, ModelSpec.pairing_hopping

# both variants, alpha != beta, finite-alpha variant 1, ranges 2, 3 and 5
BUILDER_SPECS = [V1(j=0.8, delta=1.3, mu=0.45),
                 V1(j=0.7, delta=-0.8, mu=-1.2, alpha=1.5),
                 V1(j=0.7, delta=0.8, mu=0.3, alpha=0.0),
                 V2(j=0.4, delta=0.8, mu=-3.2, alpha=0.0, beta=0.5, r=3),
                 V2(j=-0.8, delta=1.0, mu=-1.0, alpha=0.3, beta=0.3, r=2),
                 V2(j=0.8, delta=1.0, mu=0.6, alpha=2.0, beta=0.1, r=5),
                 V2(j=0.8, delta=1.0, mu=0.6, alpha=math.inf, beta=0.7, r=3),
                 V2(j=0.5, delta=-0.9, mu=0.2, alpha=0.2, beta=math.inf, r=3)]


@functools.lru_cache(maxsize=None)
def _annihilators(n):
    """Sparse matrices of c_j (j = 0..n-1) in the occupation basis, with the
    Jordan-Wigner sign (-1)**(occupied sites below j)."""
    dim = 1 << n
    idx = np.arange(dim)
    ops = []
    for j in range(n):
        src = idx[((idx >> j) & 1) == 1]
        sign = 1.0 - 2.0 * (np.bitwise_count(src & ((1 << j) - 1)) % 2)
        ops.append(sp.csr_matrix((sign, (src - (1 << j), src)), shape=(dim, dim)))
    return tuple(ops)


@functools.lru_cache(maxsize=None)
def _bond_ops(n, a, b):
    """``c^dag_a c_b + h.c.`` and ``c_a c_b + h.c.`` as COO matrices."""
    c = _annihilators(n)
    hop, pair = c[a].T @ c[b], c[a] @ c[b]
    return (hop + hop.T).tocoo(), (pair + pair.T).tocoo()


def reference_hamiltonian(spec, n, boundary):
    """The chain assembled from products of c_j matrices: an independent
    reference for the oracle's bit-flip builder."""
    c = _annihilators(n)
    # -mu sum_j (n_j - 1/2)
    terms = [(-spec.mu, (cd @ cj - 0.5 * sp.identity(1 << n)).tocoo())
             for cd, cj in ((cj.T, cj) for cj in c)]

    def bond(a, b, hop, pair):  # -hop (c^dag_a c_b + h.c.) + pair (c_a c_b + h.c.)
        terms.extend(zip((-hop, pair), _bond_ops(n, a, b)))

    if boundary == "open":
        hop, pair = open_chain_weights(spec, n)
        for l in range(1, n):
            for j in range(n - l):
                bond(j, j + l, hop[l - 1], pair[l - 1])
    else:
        def ring(exponent, r):  # ring distance min(l, n - l)
            l = np.arange(1, r + 1)
            return np.minimum(l, n - l).astype(float) ** (-exponent)

        if spec.variant is Variant.LONG_RANGE_PAIRING:
            hop = np.zeros(n - 1)
            hop[0] = 0.5 * spec.j
            pair = 0.25 * spec.delta * ring(spec.alpha, n - 1)
        else:
            hop = spec.j * ring(spec.beta, spec.r)
            pair = spec.delta * ring(spec.alpha, spec.r)
        for l in range(1, len(hop) + 1):
            for j in range(n):  # c_{j+n} = -c_j
                s = -1.0 if j + l >= n else 1.0
                bond(j, (j + l) % n, hop[l - 1] * s, pair[l - 1] * s)
    return sp.csr_matrix((np.concatenate([w * m.data for w, m in terms]),
                          (np.concatenate([m.row for _, m in terms]),
                           np.concatenate([m.col for _, m in terms]))),
                         shape=(1 << n, 1 << n))


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

    @pytest.mark.parametrize("boundary", ["open", "antiperiodic"])
    def test_spectrum_matches_dense(self, boundary):
        for spec in BUILDER_SPECS:
            for n in range(2, 9):
                if spec.r is not None and spec.r >= n:
                    continue
                want = np.linalg.eigvalsh(_hamiltonian(spec, n, boundary).toarray())
                got = ed_spectrum(spec, n, boundary)
                assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("boundary", ["open", "antiperiodic"])
    def test_spectrum_starts_at_ground_energy(self, boundary):
        spec = BUILDER_SPECS[3]
        levels = ed_spectrum(spec, 6, boundary)
        assert levels.size == 64 and np.all(np.diff(levels) >= 0)
        assert levels[0] == pytest.approx(ed_ground_state(spec, 6, boundary).energy,
                                          abs=1e-12)

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
        for n in (8, 10):
            with pytest.raises(DegenerateGroundStateError):
                ed_ground_state(spec, n, "open")

    @pytest.mark.parametrize("n", [7, 9])
    def test_doublet_across_parity_blocks(self, n):
        # at mu = 0 the global flip prod sigma_x commutes with H and, for odd
        # n, swaps the parity blocks: the doublet is exact, and the Krylov
        # space of the uniform start holds one mixture of its two states
        spec = ModelSpec.pairing(j=1.0, delta=0.5, mu=0.0)
        with pytest.raises(DegenerateGroundStateError, match="parity"):
            ed_ground_state(spec, n, "open")

    @pytest.mark.parametrize("boundary", ["open", "antiperiodic"])
    def test_lowest_two_match_dense(self, boundary):
        rng = np.random.default_rng(2003)
        specs = [draw(rng, trivial=True) for draw in
                 (random_pairing_spec, random_pairing_hopping_spec) * 4]
        for spec in specs:
            for n in range(2, 9):
                if boundary == "antiperiodic" and spec.r is not None and spec.r >= n:
                    continue
                levels, vecs = np.linalg.eigh(_hamiltonian(spec, n, boundary).toarray())
                state = ed_ground_state(spec, n, boundary)
                got, _ = _lowest_two(_hamiltonian(spec, n, boundary))
                assert np.abs(got - levels[:2]).max() <= 1e-12
                assert abs(vecs[:, 0] @ state.amplitudes) >= 1.0 - 1e-12
                odd = np.bitwise_count(np.arange(1 << n)) % 2 == 1
                assert (np.all(state.amplitudes[odd] == 0.0)
                        or np.all(state.amplitudes[~odd] == 0.0))

    @pytest.mark.parametrize("n, boundary, want", [
        (2, "open", [-0.5, -0.25]),
        (6, "antiperiodic", [-(1 + math.sqrt(13)) / 2, -math.sqrt(13) / 2])])
    def test_krylov_breakdown_restarts(self, n, boundary, want, monkeypatch):
        # the uniform start spans a small invariant space without the ground
        # state; the fixed-seed restart reaches it
        seeds = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: seeds.append(seed) or default_rng(seed))
        spec = ModelSpec.pairing(j=1.0, delta=0.5, mu=0.0)
        got, _ = _lowest_two(_hamiltonian(spec, n, boundary))
        assert seeds == [0]
        assert np.abs(got - want).max() <= 1e-12

    def test_restart_waits_for_its_own_lowest_pair(self):
        # the uniform start closes on a 2-state block (levels -0.75, -0.25),
        # and ten steps from the restart do not yet reach the level -2.4 of
        # the rest; dyadic entries keep the block exactly invariant
        dim = 256
        pair = np.column_stack([np.full(dim, 1 / 16), np.tile([1 / 16, -1 / 16], dim // 2)])
        rest = np.eye(dim) - pair @ pair.T
        h = (pair @ np.array([[-0.5, 0.25], [0.25, -0.5]]) @ pair.T
             + rest @ np.diag(4.0 * np.append(-1.0, np.arange(1.0, dim))) @ rest)
        dense = _Operator(np.tile(np.arange(dim)[:, None], (1, dim)), h.T.copy())
        got, _ = _lowest_two(dense)
        assert np.abs(got - np.linalg.eigvalsh(h)[:2]).max() <= 1e-12

    def test_twelve_sites_match_momentum_energy(self):
        spec = V2(j=0.4, delta=0.9, mu=-3.1, alpha=0.3, beta=0.3, r=3)
        state = ed_ground_state(spec, 12, "antiperiodic")
        assert state.energy == pytest.approx(momentum_ground_energy(spec, 12), abs=1e-9)
        assert eigen_residual(state) <= 1e-12

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


def _z_table(n):
    """``z[i, j] = 1 - 2 n_j`` of every basis index ``i``."""
    return 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)


def table_operator(spec, n, boundary):
    """``(cols, vals)`` of the Hamiltonian with every sign read off a
    ``2^n x n`` table of z and its cumulative Jordan-Wigner strings
    ``jw[i, k] = prod_{m<k} z[i, m]``, each amplitude at the flipped index."""
    t, d = _bonds(spec, n, boundary)
    a, b = np.nonzero((t != 0.0) | (d != 0.0))
    jx, jy = -(t[a, b] + d[a, b]) / 2.0, -(t[a, b] - d[a, b]) / 2.0
    idx, z = np.arange(1 << n), _z_table(n)
    jw = np.cumprod(np.column_stack([np.ones(idx.size), z]), axis=1)
    amp = jw[:, a + 1] * jw[:, b] * (jx - jy * z[:, a] * z[:, b])
    cols = idx ^ np.append(0, (1 << a) | (1 << b))[:, None]
    return cols, np.vstack([0.5 * spec.mu * z.sum(axis=1),
                            np.take_along_axis(amp.T, cols[1:], axis=1)])


class TestBuilder:
    @pytest.mark.parametrize("boundary", ["open", "antiperiodic"])
    def test_parity_signs_match_the_table_bit_for_bit(self, boundary):
        rng = np.random.default_rng(2602)
        for i in range(60):
            draw = random_pairing_spec if i % 2 else random_pairing_hopping_spec
            spec, n = draw(rng), int(rng.integers(2, 11))
            if spec.r is not None and spec.r >= n and boundary == "antiperiodic":
                continue
            got = _hamiltonian(spec, n, boundary)
            cols, vals = table_operator(spec, n, boundary)
            assert np.array_equal(got.cols, cols)
            assert got.vals.tobytes() == vals.tobytes()

    @pytest.mark.parametrize("boundary", ["open", "antiperiodic"])
    def test_matches_cj_reference(self, boundary):
        for spec in BUILDER_SPECS:
            for n in range(2, 11):
                if spec.r is not None and spec.r >= n:
                    continue
                want = reference_hamiltonian(spec, n, boundary).toarray()
                got = _hamiltonian(spec, n, boundary).toarray()
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("boundary", ["open", "antiperiodic"])
    def test_pair_correlator_matches_reference(self, boundary):
        spec = BUILDER_SPECS[3]
        c = _annihilators(6)
        state = ed_ground_state(spec, 6, boundary)
        v = state.amplitudes
        for a in range(6):
            for b in range(6):
                amat, bmat = c[a].T + c[a], c[b].T - c[b]
                want = v @ (amat @ (bmat @ v))
                assert abs(ed_pair_correlator(state, a, b) - want) < 1e-14

    def test_range_must_fit_the_ring(self):
        with pytest.raises(ValueError, match="r = 3"):
            ed_ground_state(V2(r=3, mu=-3.0), 2, "antiperiodic")
        ed_ground_state(V2(r=3, mu=-3.0), 2, "open")  # open chains truncate


class TestSpinPicture:
    def test_spin_ground_state_is_open_state(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        state = ed_ground_state(spec, 8, "open")
        amps, energy = spin_ground_state(spec, 8)
        assert np.array_equal(amps, state.amplitudes)
        assert energy == state.energy

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

    @pytest.mark.parametrize("n", range(6, 11))
    def test_sigma_z_product_is_the_z_product(self, n):
        rng = np.random.default_rng(6000 + n)
        state = ed_ground_state(random_gapped_spec(rng, trivial=True), n, "open")
        probs = np.abs(state.amplitudes) ** 2
        z = _z_table(n)
        for _ in range(10):
            sites = rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist()
            want = float(np.dot(probs, z[:, sites].prod(axis=1)))
            assert ed_sigma_z_product(state, sites) == want

    def test_marginal_matches_bruteforce(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        n = 6
        state = ed_ground_state(spec, n, "open")
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        for sites in ([1, 3, 4], [4, 0, 5, 2], [], list(range(n))[::-1]):
            for basis in ("z", "x"):
                # dense rotation: a Hadamard on each measured qubit in the X
                # basis; Kronecker factors run from the most significant bit
                rot = np.ones((1, 1))
                for q in reversed(range(n)):
                    rot = np.kron(rot, hadamard if basis == "x" and q in sites
                                  else np.eye(2))
                probs = (rot @ state.amplitudes) ** 2
                brute = np.zeros(1 << len(sites))
                for idx, pr in enumerate(probs):
                    out = sum(((idx >> s) & 1) << a for a, s in enumerate(sites))
                    brute[out] += pr
                p = ed_diagonal_marginal(state, sites, basis)
                assert np.abs(p - brute).max() < 1e-14, (sites, basis)
        assert ed_diagonal_marginal(state, [], "x").tolist() == pytest.approx([1.0])

    def test_x_marginal_requires_open(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        state = ed_ground_state(spec, 6, "antiperiodic")
        with pytest.raises(ValueError):
            ed_diagonal_marginal(state, [0, 1], "x")
