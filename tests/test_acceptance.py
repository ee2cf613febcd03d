"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Where a checkpoint depends on the model's exact values, the test derives
them from the bulk-boundary analysis instead of quoting rounded figures:
the zero-mode check takes its chain length from the slowest decay root, and
the critical-scan check takes its reference locations from the gap-closing
condition.  The derivations are in tests/ACCEPTANCE_NOTES.md.
"""
import math
import time
from dataclasses import replace

import numpy as np

import kitaev_de as kd
from kitaev_de.oracle import (ed_diagonal_marginal, ed_ground_state,
                              ed_sigma_x_product, ed_sigma_z_product)

from conftest import (decay_roots, gap_closing_mus, momentum_ground_energy,
                      random_gapped_spec, random_pairing_hopping_spec,
                      random_pairing_spec)

V1 = kd.ModelSpec.pairing
V2 = kd.ModelSpec.pairing_hopping


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f": {detail}" if detail else ""))
    return ok


def test_c1_winding_numbers():
    cases = [
        ("v1 a=inf J=1 D=-1 mu=-1.5", V1(1.0, -1.0, -1.5), 0.0),
        ("v2 r=3 ab=0.2 D=1 J=-0.8 mu=-0.6", V2(j=-0.8, delta=1.0, mu=-0.6), -3.0),
        ("v1 D=1 mu=-0.5", V1(1.0, 1.0, -0.5), 1.0),
        ("v2 J=0.8 mu=0.6", V2(j=0.8, delta=1.0, mu=0.6), 3.0),
    ]
    ok = True
    for name, spec, want in cases:
        t0 = time.perf_counter()
        res = kd.winding_number(spec)
        dt = time.perf_counter() - t0
        ok &= res.nu == want and dt < 1.0
    assert report("criterion 1 (winding numbers, <1 s each)", ok)


def test_c2_mzm_counting():
    tol = 1e-8
    spec1, spec3 = V1(1.0, 1.0, -0.5), V2(j=0.8, delta=1.0, mu=0.6)
    # The slowest pair's relative singular value decays as |x_slow|^N;
    # mode_count refuses a count with a singular value within a factor 10
    # of the cutoff, so the nu=3 chain needs |x_slow|^N <= tol/10.
    roots, _ = decay_roots(spec3)
    slow = max(abs(x) for x in roots if abs(x) < 1.0)
    n3 = 100 * math.ceil(math.log(tol / 10) / math.log(slow) / 100)
    t0 = time.perf_counter()
    count1 = kd.mode_count(spec1, 100, tol)
    count3 = kd.mode_count(spec3, n3, tol)
    dt = time.perf_counter() - t0
    nu1 = abs(kd.winding_number(spec1).nu)
    nu3 = abs(kd.winding_number(spec3).nu)
    ok = count1 == 1 == nu1 and count3 == 3 == nu3 and dt < 5.0
    report(f"criterion 2 (MZM pair counts at N=100 and N={n3}, tol=1e-8, <5 s)",
           ok, f"counts=({count1},{count3}), |nu|=({nu1:.0f},{nu3:.0f}), "
           f"|x_slow|={slow:.5f}, {dt:.1f} s")
    assert ok, f"counts ({count1},{count3}) != (1,3) or {dt:.1f} s >= 5 s"


def test_c3_critical_point_detection():
    t0 = time.perf_counter()
    outcomes = []
    for j, stop in [(-0.8, 0.5), (0.3, 1.0)]:
        spec = V2(j=j, delta=1.0, mu=0.0)
        mus = np.arange(-2.0, stop + 1e-9, 0.01)
        want = [m for m in gap_closing_mus(spec) if mus[0] <= m <= mus[-1]]
        for m in want:
            below = kd.winding_number(replace(spec, mu=m - 0.005)).nu
            above = kd.winding_number(replace(spec, mu=m + 0.005)).nu
            assert below != above, f"J={j}: nu={below} on both sides of {m:.5f}"
        s = kd.comparative_scan(spec, "mu", mus, ["s"], n_density=2000)["s"]
        rep = kd.detect_critical_points(kd.susceptibility("mu", mus, s), 10.0,
                                        channel="chi_s")
        locs = rep.locations()
        matched = (len(locs) == len(want)
                   and all(abs(l - w) <= 0.02 for l, w in zip(locs, want)))
        outcomes.append((j, locs, want, matched))
    dt = time.perf_counter() - t0
    ok = all(m for *_, m in outcomes) and dt < 120.0
    detail = "; ".join(f"J={j}: {[f'{l:.3f}' for l in locs]} "
                       f"vs {[f'{w:.5f}' for w in want]}"
                       for j, locs, want, _ in outcomes)
    report("criterion 3 (critical scans, kappa=10, <2 min)", ok, detail)
    assert ok, f"{outcomes}, {dt:.1f} s"


def test_c4_volume_law():
    specs = [V1(1.0, -1.0, -1.5), V1(1.0, 1.0, 0.5),
             V1(1.0, -1.0, 0.5, alpha=0.0), V1(1.0, 1.0, 1.5, alpha=0.0),
             V2(j=-0.8, delta=1.0, mu=-2.2)]
    sizes = list(range(200, 2001, 200))
    ok = True
    worst = 0.0
    for spec in specs:
        vals = [kd.pure_state_diagonal_entropy(spec, n).value for n in sizes]
        fit = kd.fit_volume_law(sizes, vals)
        rel = fit.residual_rms / np.mean(np.abs(vals))
        worst = max(worst, rel)
        ok &= rel < 1e-6
    assert report("criterion 4 (volume law, rel residual < 1e-6)", ok,
                  f"worst rel residual {worst:.2e}")


def test_c5_block_law():
    ok = True
    details = []
    spec_v1 = V1(1.0, -1.0, 0.0, alpha=0.0)
    spec_v2 = V2(j=-0.8, delta=1.0, mu=0.0)
    # fit quality at representative interior points of the swept ranges
    for spec, mu, basis in [(spec_v1, 0.8, "z"), (spec_v1, 1.2, "z"),
                            (spec_v1, 0.8, "x"), (spec_v2, -0.55, "z"),
                            (spec_v2, -0.3, "z")]:
        fit = kd.block_coefficients(replace(spec, mu=mu), basis=basis)
        ok &= fit.residual_rms < 1e-3
        details.append(f"resid({basis},mu={mu})={fit.residual_rms:.1e}")
    # chi_mu(a) flags
    mus1 = np.arange(0.7, 1.3 + 1e-9, 0.01)
    for basis in ("z", "x"):
        coef = kd.comparative_scan(spec_v1, "mu", mus1, ["a"], basis=basis)
        rep = kd.detect_critical_points(
            kd.susceptibility("mu", mus1, coef["a"]), 10.0)
        locs = rep.locations()
        ok &= len(locs) == 1 and abs(locs[0] - 1.0) <= 0.0101
        details.append(f"flag({basis})={locs}")
    mus2 = np.arange(-0.6, -0.25 + 1e-9, 0.01)
    coef = kd.comparative_scan(spec_v2, "mu", mus2, ["a"])
    rep = kd.detect_critical_points(kd.susceptibility("mu", mus2, coef["a"]), 10.0)
    locs = rep.locations()
    ok &= len(locs) == 1 and abs(locs[0] - (-0.42)) <= 0.0101
    details.append(f"flag(v2)={locs}")
    assert report("criterion 5 (block law + chi_mu(a) flags)", ok,
                  "; ".join(details))


def test_c6_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(61001)
    n = 10
    specs = []
    while len(specs) < 3:
        s = random_pairing_spec(rng, trivial=True)
        if kd.minimum_gap(s, 512) > 0.1:
            specs.append(s)
    while len(specs) < 6:
        s = random_pairing_hopping_spec(rng, trivial=True)
        if kd.minimum_gap(s, 512) > 0.1:
            specs.append(s)
    ok = True
    for spec in specs:
        state = ed_ground_state(spec, n, "open")
        closed = ed_ground_state(spec, n, "antiperiodic")
        src = kd.open_chain_correlations(spec, n)
        # ground energies
        ok &= abs(src.energy - state.energy) < 1e-9
        ok &= abs(closed.energy - momentum_ground_energy(spec, n)) < 1e-9
        # subset correlators
        for _ in range(8):
            m = int(rng.integers(1, 7))
            sites = sorted(rng.choice(n, size=m, replace=False).tolist())
            got = kd.sigma_z_correlator(src, sites)
            ok &= abs(got - ed_sigma_z_product(state, sites)) < 1e-10
            m = 2 * int(rng.integers(1, 3))
            sites = sorted(rng.choice(n, size=m, replace=False).tolist())
            got = kd.sigma_x_correlator(src, sites)
            ok &= abs(got - ed_sigma_x_product(spec, n, sites)) < 1e-10
        # L=4 diagonal distributions in both bases
        for basis in ("z", "x"):
            dist = kd.block_diagonal_distribution(src, 4, basis)
            want = ed_diagonal_marginal(state, range(4), basis)
            ok &= np.abs(dist.p - want).max() < 1e-8
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    assert report("criterion 6 (oracle equivalence at N=10, <1 min)", ok,
                  f"{len(specs)} specs, {dt:.1f} s")


def test_c7_global_entanglement():
    ok = True
    for delta in (-1.5, -0.5, 0.5, 1.5):
        e = kd.global_entanglement(V1(1.0, delta, 0.0))
        ok &= abs(e - 1.0) < 1e-10
    ds = np.arange(-0.5, 0.5 + 1e-9, 0.01)
    e_sweep = kd.comparative_scan(V1(1.0, 1.0, 1.2), "delta", ds, ["E"])["E"]
    rep = kd.detect_critical_points(kd.susceptibility("delta", ds, e_sweep), 10.0)
    ok &= len(rep.points) == 0
    ds2 = np.arange(0.5, 1.5 + 1e-9, 0.01)
    e_sweep2 = kd.comparative_scan(V1(1.0, 1.0, 0.6), "delta", ds2, ["E"])["E"]
    rep2 = kd.detect_critical_points(kd.susceptibility("delta", ds2, e_sweep2), 10.0)
    ok &= len(rep2.points) == 0
    coef = kd.comparative_scan(V1(1.0, 1.0, 0.0), "delta", ds, ["a"])
    rep3 = kd.detect_critical_points(kd.susceptibility("delta", ds, coef["a"]), 10.0)
    ok &= len(rep3.points) == 1 and abs(rep3.points[0].location) <= 0.0101
    assert report("criterion 7 (GE flat at mu=0; chi continuity; a-flag)", ok,
                  f"E-flags={rep.locations()},{rep2.locations()}, "
                  f"a-flag={rep3.locations()}")


def test_c8_property_suites():
    rng = np.random.default_rng(8080)
    ok = True
    # unit-norm Anderson vectors (200 cases)
    for _ in range(200):
        spec = random_gapped_spec(rng)
        k = float(rng.uniform(-np.pi * 0.99, np.pi))
        mode = kd.dispersion(spec, k, 256)
        ok &= abs(mode.hy ** 2 + mode.hz ** 2 - 1.0) < 1e-12
    # pfaffian^2 = det (200 cases)
    for _ in range(200):
        nn = 2 * int(rng.integers(1, 6))
        a = rng.standard_normal((nn, nn))
        m = a - a.T
        ok &= abs(kd.pfaffian(m) ** 2 - np.linalg.det(m)) < 1e-8 * max(
            1.0, abs(np.linalg.det(m)))
    # distribution normalization (200 cases)
    done = 0
    while done < 200:
        spec = random_gapped_spec(rng)
        try:
            ker = kd.correlator_kernel(spec, n=1024, l_max=5)
        except kd.GaplessSpecError:
            continue
        basis = "z" if done % 2 == 0 else "x"
        dist = kd.block_diagonal_distribution(ker, 5, basis)
        ok &= abs(dist.p.sum() - 1.0) < 1e-9 and dist.p.min() >= 0.0
        done += 1
    # fit round-trips (200 cases)
    for _ in range(200):
        a, b, c = rng.uniform(-1, 1, size=3)
        ls = np.arange(4, 15)
        fit = kd.fit_block_law(ls, a * ls + b * np.log2(ls) + c)
        ok &= np.allclose(fit.params, (a, b, c), atol=1e-8)
    # winding refinement stability (200 cases)
    done = 0
    while done < 200:
        spec = random_gapped_spec(rng, min_gap=0.02)
        try:
            nu1 = kd.winding_number(spec, samples=512).nu
            nu2 = kd.winding_number(spec, samples=1024).nu
        except kd.GaplessSpecError:
            continue
        ok &= nu1 == nu2
        done += 1
    assert report("criterion 8 (randomized property suites, 200 cases each)", ok)
