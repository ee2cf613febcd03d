"""Diagonal entropies: momentum space, blocks in both bases, global
entanglement; cross-checked against the exact-diagonalization oracle."""
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import xlogy

from kitaev_de import (DenseCorrelations, GaplessSpecError, ModelSpec,
                       NormalizationFailureError, Variant, analysis,
                       block_coefficients, block_diagonal_distribution,
                       block_diagonal_entropy, correlator_kernel, de_density,
                       global_entanglement, open_chain_correlations,
                       pure_state_diagonal_entropy, sigma_x_correlator,
                       sigma_z_correlator, winding_number, zero_modes)
from kitaev_de import entropy, gaussian, model
from kitaev_de.entropy import _binary_entropy_bits, _block_entropies, _chain_rule
from kitaev_de.model import _numerators
from kitaev_de.oracle import ed_diagonal_marginal, ed_ground_state

from conftest import (random_gapped_spec, random_pairing_hopping_spec,
                      random_pairing_spec)


class TestPureStateDE:
    def test_per_mode_formula_is_binary_entropy(self, rng):
        # the closed form equals direct -sum p log2 p on {cos^2, sin^2}
        for _ in range(200):
            theta = rng.uniform(-np.pi / 2, np.pi / 2)
            p = np.sin(theta) ** 2
            direct = -(xlogy(p, p) + xlogy(1 - p, 1 - p)) / np.log(2)
            assert _binary_entropy_bits(np.array([p]))[0] == pytest.approx(
                direct, abs=1e-14)

    def test_uniform_mode_is_one_bit(self):
        assert _binary_entropy_bits(np.array([0.5]))[0] == pytest.approx(1.0)
        assert _binary_entropy_bits(np.array([0.0]))[0] == 0.0

    def test_polarized_limits_vanish(self):
        for mu in (1e6, -1e6):
            spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=mu)
            rep = pure_state_diagonal_entropy(spec, 256)
            assert rep.value < 1e-8

    def test_value_bounds(self, rng):
        for _ in range(20):
            spec = random_gapped_spec(rng)
            rep = pure_state_diagonal_entropy(spec, 128)
            assert 0.0 <= rep.value <= 128.0

    def test_density_consistency(self):
        spec = ModelSpec.pairing(j=1.0, delta=-1.0, mu=-1.5)
        rep = pure_state_diagonal_entropy(spec, 2000)
        assert de_density(spec, 2000) == pytest.approx(rep.value / 2000, abs=1e-15)

    def test_density_volume_scaling(self):
        # gapped specs: density differs by < 1e-6 between N=1000 and N=2000
        for spec in (ModelSpec.pairing(1.0, -1.0, -1.5),
                     ModelSpec.pairing(1.0, 1.0, 0.5, alpha=0.0),
                     ModelSpec.pairing_hopping(j=0.8, delta=1.0, mu=0.6)):
            assert de_density(spec, 1000) == pytest.approx(
                de_density(spec, 2000), abs=1e-6)

    def test_gapless_raises(self):
        from conftest import grid_gapless_spec
        with pytest.raises(GaplessSpecError):
            pure_state_diagonal_entropy(grid_gapless_spec(512), 512)


def _dense_copy(ker):
    """The kernel as the dense matrix ``m[a, b] = G_{b-a}`` on l_max + 1 sites."""
    a = np.arange(ker.l_max + 1)
    return DenseCorrelations(m=ker.g[a[None, :] - a[:, None] + ker.l_max],
                             energy=np.nan, eps_min=np.nan)


class TestBlockDistribution:
    def test_single_site_z(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        ker = correlator_kernel(spec, n=2048, l_max=4)
        dist = block_diagonal_distribution(ker, 1, "z")
        sz = sigma_z_correlator(ker, [0])
        assert dist.p[0] == pytest.approx((1 + sz) / 2, abs=1e-12)
        assert dist.p[1] == pytest.approx((1 - sz) / 2, abs=1e-12)

    def test_single_site_x_is_uniform(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        ker = correlator_kernel(spec, n=2048, l_max=4)
        dist = block_diagonal_distribution(ker, 1, "x")
        assert np.allclose(dist.p, 0.5, atol=1e-12)

    def test_polarized_limit_concentrates(self):
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=1e8)
        ker = correlator_kernel(spec, n=2048, l_max=8)
        dist = block_diagonal_distribution(ker, 6, "z")
        assert dist.p.max() > 1 - 1e-6
        assert block_diagonal_entropy(ker, 6, "z").value < 1e-5

    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_matches_oracle_marginal_n10_l4(self, rng, basis):
        for _ in range(3):
            spec = random_gapped_spec(rng, trivial=True)
            state = ed_ground_state(spec, 10, "open")
            src = open_chain_correlations(spec, 10)
            dist = block_diagonal_distribution(src, 4, basis)
            want = ed_diagonal_marginal(state, range(4), basis)
            assert np.abs(dist.p - want).max() < 1e-8

    def test_kernel_and_dense_sources_agree(self):
        # a kernel rewritten as the dense matrix m[a, b] = G_{b-a} must give
        # the same distributions and sigma_x correlators: pins the Toeplitz
        # indexing of both accessors, rows and columns, in both bases
        spec = ModelSpec.pairing(j=1.0, delta=0.7, mu=1.4, alpha=1.7)
        ker = correlator_kernel(spec, n=2048, l_max=10)
        dense = _dense_copy(ker)
        for basis in ("z", "x"):
            want = block_diagonal_distribution(ker, 10, basis).p
            got = block_diagonal_distribution(dense, 10, basis, start=1).p
            assert np.abs(got - want).max() < 1e-14
        for sites in ([0, 3], [1, 2, 5, 9], [0, 4, 6, 10]):
            assert sigma_x_correlator(dense, sites) == pytest.approx(
                sigma_x_correlator(ker, sites), abs=1e-14)

    def test_interior_block_matches_oracle(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        state = ed_ground_state(spec, 10, "open")
        src = open_chain_correlations(spec, 10)
        dist = block_diagonal_distribution(src, 3, "z", start=4)
        want = ed_diagonal_marginal(state, range(4, 7), "z")
        assert np.abs(dist.p - want).max() < 1e-10

    def test_normalised_both_bases(self, rng):
        # >= 200 randomized distributions normalise to 1 within 1e-9
        checked = 0
        while checked < 200:
            spec = random_gapped_spec(rng)
            try:
                ker = correlator_kernel(spec, n=1024, l_max=6)
            except GaplessSpecError:
                continue
            for basis in ("z", "x"):
                dist = block_diagonal_distribution(ker, 5, basis)
                assert abs(dist.p.sum() - 1.0) < 1e-9
                assert dist.p.min() >= 0.0
            checked += 1

    def test_x_distribution_has_flip_symmetry(self, rng):
        # only even subsets contribute, so p(x) = p(bitwise complement)
        spec = random_gapped_spec(rng, trivial=True)
        ker = correlator_kernel(spec, n=2048, l_max=6)
        dist = block_diagonal_distribution(ker, 5, "x")
        assert np.allclose(dist.p, dist.p[::-1], atol=1e-12)

    def test_block_length_bounds(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        ker = correlator_kernel(spec, n=2048, l_max=4)
        with pytest.raises(ValueError):
            block_diagonal_distribution(ker, 17, "z")
        with pytest.raises(ValueError):
            block_diagonal_distribution(ker, 6, "z")  # beyond kernel range

    def test_clamp_zeroes_small_negative(self):
        # m_11 = 1 + 1e-13 gives p(s = -1) = -5e-14, within CLAMP_TOL of 0
        p, = _chain_rule(np.array([[1.0 + 1e-13]]))
        assert p[1] == 0.0
        assert p[0] == pytest.approx(1.0, abs=1e-12)

    def test_clamp_rejects_large_negative(self):
        # corrupt kernel triggers the normalization guard
        spec = ModelSpec.pairing(j=1.0, delta=0.7, mu=1.4, alpha=1.7)
        ker = correlator_kernel(spec, n=1024, l_max=4)
        bad = type(ker)(g=np.clip(ker.g * 3.0, -1, 1), l_max=ker.l_max, n=ker.n)
        with pytest.raises(NormalizationFailureError):
            block_diagonal_distribution(bad, 4, "z")


class TestBlockEntropy:
    def test_one_bit_at_zero_magnetization(self):
        # mu=0 pairing-only chain has <sigma_z> = 0 exactly on even grids
        spec = ModelSpec.pairing(j=1.0, delta=0.8, mu=0.0)
        ker = correlator_kernel(spec, n=2048, l_max=2)
        assert block_diagonal_entropy(ker, 1, "z").value == pytest.approx(1.0,
                                                                          abs=1e-12)

    def test_monotone_in_block_length(self):
        # nested diagonal marginals cannot lose entropy (checked empirically
        # on the reference chains)
        for spec in (ModelSpec.pairing(1.0, -1.0, 0.8, alpha=0.0),
                     ModelSpec.pairing_hopping(j=-0.8, delta=1.0, mu=-0.7)):
            ker = correlator_kernel(spec, n=4096, l_max=10)
            values = [block_diagonal_entropy(ker, l, "z").value
                      for l in range(1, 11)]
            assert np.all(np.diff(values) > -1e-12)

    def test_entropy_bounds(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        ker = correlator_kernel(spec, n=2048, l_max=8)
        for basis in ("z", "x"):
            rep = block_diagonal_entropy(ker, 6, basis)
            assert 0.0 <= rep.value <= 6.0


def _shannon_bits(dist):
    return float(-xlogy(dist.p, dist.p).sum() / np.log(2.0))


class TestSinglePass:
    # every entropy of the one chain-rule pass equals the entropy of the
    # per-length distribution: bit for bit in Z, within 1e-13 in X (where the
    # pass uses S_X(L) = S_bond(L - 1) + 1)
    SPECS = (ModelSpec.pairing(j=1.0, delta=0.7, mu=1.4, alpha=1.7),
             ModelSpec.pairing_hopping(j=-0.8, delta=1.0, mu=-0.42))
    TOL = {"z": 0.0, "x": 1e-13}

    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_entropy_matches_distribution(self, basis):
        for spec in self.SPECS:
            ker = correlator_kernel(spec, n=8192, l_max=14)
            dense = _dense_copy(ker)
            for l in range(1, 15):
                want = _shannon_bits(block_diagonal_distribution(ker, l, basis))
                got = block_diagonal_entropy(ker, l, basis).value
                assert abs(got - want) <= self.TOL[basis]
                got = block_diagonal_entropy(dense, l, basis, start=1).value
                assert abs(got - want) <= self.TOL[basis]

    @pytest.mark.parametrize("basis", ["z", "x"])
    @pytest.mark.parametrize("lengths", [range(1, 15), [9, 2, 14, 5, 3, 12]])
    def test_block_coefficients_points(self, basis, lengths):
        for spec in self.SPECS:
            fit = block_coefficients(spec, basis, lengths)
            ker = correlator_kernel(spec, n=8192, l_max=max(lengths))
            assert [l for l, _ in fit.points] == list(lengths)
            for l, value in fit.points:
                want = _shannon_bits(block_diagonal_distribution(ker, int(l), basis))
                assert abs(value - want) <= self.TOL[basis]

    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_non_contiguous_lengths_of_one_pass(self, basis):
        ker = correlator_kernel(self.SPECS[1], n=8192, l_max=9)
        want = [_shannon_bits(block_diagonal_distribution(ker, l, basis))
                for l in (2, 5, 9)]
        for src, start in ((ker, 0), (_dense_copy(ker), 1)):
            got = _block_entropies(src, [2, 5, 9], basis, start)
            assert np.abs(np.subtract(got, want)).max() <= self.TOL[basis]

    def test_single_site_x_is_one_bit(self):
        for spec in self.SPECS:
            ker = correlator_kernel(spec, n=2048, l_max=4)
            assert block_diagonal_entropy(ker, 1, "X").value == 1.0
            assert block_diagonal_entropy(_dense_copy(ker), 1, "x", 2).value == 1.0

    def test_basis_checked(self):
        ker = correlator_kernel(self.SPECS[0], n=2048, l_max=4)
        assert block_diagonal_entropy(ker, 3, "Z").basis == "z"
        with pytest.raises(ValueError):
            block_diagonal_entropy(ker, 3, "y")
        with pytest.raises(ValueError):
            block_diagonal_entropy(ker, 6, "z")  # beyond kernel range
        with pytest.raises(ValueError):
            block_diagonal_entropy(ker, 0, "z")


def _branch_major_chain_rule(m):
    """The chain rule with its complements stored ``(branch, row, col)``:
    the reference for the ``(row, col, branch)`` layout of ``_chain_rule``."""
    signs = np.array([[1.0], [-1.0]])
    p = np.ones(1)
    mats = m[None, :, :]
    for k in range(m.shape[0] - 1, -1, -1):
        denom = 1.0 + signs * mats[:, 0, 0]
        p = np.clip(0.5 * p * denom, 0.0, None)
        yield p.reshape(-1)
        if not k:
            return
        scale = signs / np.where(p > 0.0, denom, 1.0)
        uv = mats[:, 1:, :1] * mats[:, :1, 1:]
        p = p.reshape(-1)
        mats = (mats[None, :, 1:, 1:]
                - scale[:, :, None, None] * uv).reshape(p.size, k, k)


class TestChainRuleLayout:
    # the branch-innermost pass does the same float operations in the same
    # order as the branch-major one, so every level is bit-identical
    SPEC = ModelSpec.pairing_hopping(j=-0.8, delta=1.0, mu=-0.42)

    @staticmethod
    def _assert_same_levels(m):
        # each level is a view into the pass's workspace: copy it before the
        # pass advances
        got = [p.copy() for p in _chain_rule(m)]
        want = list(_branch_major_chain_rule(m))
        assert len(got) == len(want) == m.shape[0]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_z_kernel_l14(self):
        ker = correlator_kernel(self.SPEC, n=8192, l_max=14)
        sites = np.arange(14)
        self._assert_same_levels(gaussian._pair_matrix(ker, sites, sites))

    def test_x_13_bonds(self):
        ker = correlator_kernel(self.SPEC, n=8192, l_max=14)
        self._assert_same_levels(gaussian._bond_matrix(ker, np.arange(13)))

    def test_dense_source_at_start_2(self):
        dense = open_chain_correlations(
            ModelSpec.pairing(j=1.0, delta=0.7, mu=1.4, alpha=1.7), 20)
        sites = np.arange(2, 16)
        self._assert_same_levels(gaussian._pair_matrix(dense, sites, sites))

    def test_xlogx(self):
        got = entropy._xlogx(np.array([0.0, 1.0, 0.5, np.nan]))
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.5 * np.log(0.5), np.nan])


def _masked_xlogx(p):
    # the masked form the mask-free one replaced: ln 1 = 0 where p <= 0
    out = np.zeros_like(p)
    np.log(p, out=out, where=p > 0)
    return out * p


class TestMaskFreeXlogx:
    TINY = np.array([0.0, 5e-324, 1e-320, 2.2e-308, 1e-300, 1e-17, 0.25,
                     1.0 - 2.0 ** -53, 1.0 - 1e-12, 1.0, np.nan])

    def test_equals_masked_form(self, rng):
        for p in (self.TINY, rng.uniform(size=1000) ** 40):
            got = entropy._xlogx(p)
            np.testing.assert_array_equal(got, _masked_xlogx(p))  # -0 == 0
            out = np.empty_like(p)
            assert entropy._xlogx(p, out) is out
            np.testing.assert_array_equal(out, got)

    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_level_sums_bit_identical(self, basis):
        # the nearly polarized chain's Z levels hold exact zeros (clamped
        # rounding negatives) and probabilities down to 1e-71
        for spec in (*TestSinglePass.SPECS,
                     ModelSpec.pairing(j=1.0, delta=1e-4, mu=3.0)):
            ker = correlator_kernel(spec, n=8192, l_max=14)
            lengths = list(range(1, 15))
            want = [float(-_masked_xlogx(p).sum() / np.log(2.0))
                    for p in entropy._block_levels(ker, lengths, basis, 0)]
            if basis == "x":  # the first level is the one outcome of no bond
                want = [w + 1.0 for w in want]
            assert _block_entropies(ker, lengths, basis) == want


class TestConditionalEntropy:
    # for a stationary source S_L - S_(L-1) = H(X_L | X_(<L)) cannot rise with
    # L (Cover & Thomas, Thm 4.2.1); in the X basis the bonds are the source

    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_never_rises(self, rng, basis):
        worst, variants = -np.inf, set()
        for _ in range(20):
            spec = random_gapped_spec(rng)
            variants.add(spec.variant)
            ker = correlator_kernel(spec, n=4096, l_max=14)
            s = _block_entropies(ker, list(range(1, 15)), basis)
            h = np.diff(s, prepend=0.0)  # S_0 = 0
            worst = max(worst, np.diff(h).max())
        assert len(variants) == 2
        assert worst <= 1e-13


class TestKramersWannier:
    # variant 1 at alpha = inf with J = Delta is the transverse-field Ising
    # chain; the duality maps the bonds X_m X_(m+1) to the sites of the chain
    # with J and mu exchanged: S_X(L; J, mu) = 1 + S_Z(L - 1; J' = Delta' =
    # mu, mu' = J), for either sign of J' and of mu'
    LENGTHS = list(range(2, 13))

    @pytest.mark.parametrize("j, mu", [(1.0, 0.5), (1.0, 1.7), (0.6, -0.3)])
    @pytest.mark.parametrize("sj", [1.0, -1.0])
    @pytest.mark.parametrize("smu", [1.0, -1.0])
    def test_bonds_are_dual_sites(self, j, mu, sj, smu):
        spec = ModelSpec.pairing(j=j, delta=j, mu=mu)
        dual = ModelSpec.pairing(j=sj * mu, delta=sj * mu, mu=smu * j)
        s_x = _block_entropies(correlator_kernel(spec, n=8192, l_max=12),
                               self.LENGTHS, "x")
        s_z = _block_entropies(correlator_kernel(dual, n=8192, l_max=11),
                               [l - 1 for l in self.LENGTHS], "z")
        np.testing.assert_allclose(s_x, np.add(s_z, 1.0), rtol=0, atol=1e-13)


def _y_bond_levels(source, start: int, l: int):
    """The chain rule on the l - 1 bonds ``Y_m Y_(m+1) = -A_m B_(m+1)`` of
    the l-site block at ``start``: level j is the distribution of its first
    j bonds."""
    bonds = np.arange(start, start + l - 1)
    return _chain_rule(-gaussian._pair_matrix(source, bonds, bonds + 1))


def _ed_y_marginal(state, sites):
    """Y-basis marginal of an open-chain ED state: each measured qubit
    rotated to ``(psi_0 -+ i psi_1) / sqrt 2``, the amplitudes of
    ``sigma_y = +-1``, then binned like ``ed_diagonal_marginal``."""
    amps = state.amplitudes.astype(complex)
    for s in sites:
        pair = amps.reshape(-1, 2, 1 << s)  # axis 1 is bit s
        amps = np.stack([pair[:, 0] - 1j * pair[:, 1], pair[:, 0] + 1j * pair[:, 1]],
                        axis=1).reshape(-1) / np.sqrt(2.0)
    idx = np.arange(amps.size)
    outcome = sum(((idx >> s) & 1) << a for a, s in enumerate(sites))
    return np.bincount(outcome, weights=np.abs(amps) ** 2, minlength=1 << len(sites))


class TestYBasis:
    # the gauge c -> i c flips the sign of Delta and maps sigma_x to sigma_y,
    # so the Y basis is the X basis at -Delta, while the Z basis does not see
    # the sign of Delta: the measurement basis changes the block entropies'
    # values, not their form
    LENGTHS = list(range(2, 15))

    @pytest.fixture(scope="class")
    def kernels(self):
        rng = np.random.default_rng(1801)
        specs = [random_gapped_spec(rng) for _ in range(8)]
        assert {sp.variant for sp in specs} == set(Variant)
        return [(correlator_kernel(sp, n=8192, l_max=14),
                 correlator_kernel(replace(sp, delta=-sp.delta), n=8192, l_max=14))
                for sp in specs]

    def test_y_is_x_at_minus_delta(self, kernels):
        for ker, flipped in kernels:
            # bond levels 1..13 are the blocks L = 2..14; S_Y(L) = 1 + S_bond
            s_y = [1.0 - float(entropy._xlogx(p).sum()) / np.log(2.0)
                   for p in _y_bond_levels(ker, 0, 14)]
            s_x = _block_entropies(flipped, self.LENGTHS, "x")
            np.testing.assert_allclose(s_y, s_x, rtol=0, atol=1e-13)

    def test_z_is_blind_to_the_sign_of_delta(self, kernels):
        for ker, flipped in kernels:
            np.testing.assert_allclose(_block_entropies(ker, self.LENGTHS, "z"),
                                       _block_entropies(flipped, self.LENGTHS, "z"),
                                       rtol=0, atol=1e-13)

    def test_bonds_match_oracle(self):
        # a site string y fixes the bond string y XOR (y >> 1), shared by y
        # and its complement with equal weight, as in the X basis
        rng = np.random.default_rng(1802)
        specs = [random_pairing_spec(rng, trivial=True) for _ in range(2)]
        specs += [random_pairing_hopping_spec(rng, trivial=True) for _ in range(2)]
        for spec in specs:
            state = ed_ground_state(spec, 8, "open")
            src = open_chain_correlations(spec, 8)
            for start, l in ((0, 4), (2, 5)):
                *_, p_bond = _y_bond_levels(src, start, l)
                y = np.arange(1 << l)
                got = 0.5 * p_bond[(y ^ (y >> 1)) % 2 ** (l - 1)]
                want = _ed_y_marginal(state, range(start, start + l))
                assert np.abs(got - want).max() < 1e-10


class TestWorkspace:
    # the chain rule writes every level into one workspace per thread
    SPECS = TestChainRuleLayout.SPEC, TestSinglePass.SPECS[0]

    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_returned_distribution_survives_a_later_pass(self, basis):
        # the first pass grows the workspace, so the later ones reuse it
        block_coefficients(self.SPECS[1], basis)
        ker = correlator_kernel(self.SPECS[0], n=2048, l_max=14)
        dist = block_diagonal_distribution(ker, 10, basis)
        kept = dist.p.copy()
        other = correlator_kernel(self.SPECS[1], n=2048, l_max=14)
        block_diagonal_distribution(other, 12, basis)
        block_coefficients(self.SPECS[1], basis)
        np.testing.assert_array_equal(dist.p, kept)

    def test_threads_match_serial_runs(self):
        bases = ("z", "x")
        want = [[block_coefficients(sp, b) for b in bases] for sp in self.SPECS]
        got = [[] for _ in self.SPECS]

        def run(i):
            for j in range(50):
                got[i].append(block_coefficients(self.SPECS[i], bases[j % 2]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, fits in enumerate(got):
            assert len(fits) == 50
            for j, fit in enumerate(fits):
                assert fit == want[i][j % 2]

    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_warm_pass_allocates_little(self, basis):
        # fresh arrays per level peak at 533 KB (Z) and 333 KB (X) at L = 14;
        # what is left is numpy's iterator buffers and small masks
        ker = correlator_kernel(self.SPECS[0], n=8192, l_max=14)
        lengths = range(4, 15)
        _block_entropies(ker, lengths, basis)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _block_entropies(ker, lengths, basis)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 160 * 1024


class TestNaNGuards:
    def test_chain_rule_rejects_nan(self):
        with pytest.raises(NormalizationFailureError):
            list(_chain_rule(np.full((4, 4), np.nan)))

    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_nan_kernel_raises(self, monkeypatch, basis):
        spec = ModelSpec.pairing(j=1.0, delta=0.7, mu=1.4, alpha=1.7)
        ker = correlator_kernel(spec, n=1024, l_max=14)
        bad = type(ker)(g=np.full_like(ker.g, np.nan), l_max=ker.l_max, n=ker.n)
        with pytest.raises(NormalizationFailureError):
            block_diagonal_entropy(bad, 4, basis)
        monkeypatch.setattr(analysis, "correlator_kernel", lambda *a, **k: bad)
        with pytest.raises(NormalizationFailureError):
            block_coefficients(spec, basis)

    def test_nan_numerators_fail_gap_guards(self, monkeypatch):
        # a NaN grid gap must fail every gap guard, not slip past `<= tol`,
        # whether the NaN sits in the y or the z numerator; s, E, the kernel,
        # the winding number and the zero modes' bulk check all read the
        # k > 0 half through the one helper, and its one gap check catches it
        spec = ModelSpec.pairing(mu=2.0)
        for which in (1, 2):
            def nan_numerators(s, n):
                out = list(_numerators(s, n))
                out[which] = np.full_like(out[which], np.nan)
                return tuple(out)

            monkeypatch.setattr(model, "_numerators", nan_numerators)
            with pytest.raises(GaplessSpecError, match="grid gap"):
                de_density(spec, 64)
            with pytest.raises(GaplessSpecError, match="grid gap"):
                global_entanglement(spec, 64)
            with pytest.raises(GaplessSpecError, match="grid gap"):
                correlator_kernel(spec, n=64, l_max=4)
            with pytest.raises(GaplessSpecError, match="grid gap"):
                winding_number(spec, 256)
            with pytest.raises(GaplessSpecError, match="grid gap"):
                zero_modes(spec, 20)
            monkeypatch.undo()


class TestGlobalEntanglement:
    def test_equals_one_minus_sz_squared(self, rng):
        # algebraic identity of the purity form on random magnetizations
        for _ in range(200):
            m = rng.uniform(-1, 1)
            rho = np.diag([(1 + m) / 2, (1 - m) / 2])
            e = 2 * (1 - np.trace(rho @ rho))
            assert e == pytest.approx(1 - m ** 2, abs=1e-12)

    def test_product_state_limit(self):
        spec = ModelSpec.pairing(j=1.0, delta=1.0, mu=1e8)
        assert global_entanglement(spec, 2048) == pytest.approx(0.0, abs=1e-10)

    def test_one_at_zero_mu(self):
        for delta in (-1.5, -0.5, 0.5, 1.5):
            spec = ModelSpec.pairing(j=1.0, delta=delta, mu=0.0)
            assert global_entanglement(spec) == pytest.approx(1.0, abs=1e-10)

    def test_matches_kernel_sigma_z(self, rng):
        spec = random_gapped_spec(rng, trivial=True)
        ker = correlator_kernel(spec, n=8192, l_max=1)
        sz = sigma_z_correlator(ker, [0])
        assert global_entanglement(spec, 8192) == pytest.approx(1 - sz ** 2,
                                                                abs=1e-12)
