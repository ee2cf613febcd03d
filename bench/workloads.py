"""The benchmark's workloads: seeded inputs, one closed-loop operation, checks.

Each workload is one process with one caller; the runner issues the next
operation when the previous one returns.  ``op`` makes the library calls,
times each of them as a named step, and returns the step times with what
``check`` needs; ``check`` runs outside the timed steps and returns
``(attempted, failures)``.  The library only ever sees the generated inputs,
never the seed.

Every operation of a workload runs the same steps, so an operation's time
can be estimated step by step (see ``run.op_seconds``).  ``units`` is how
many of the workload's reporting units one operation holds (sweep points
for density-scan, else 1): ``op_min_s`` is seconds per unit.
"""
from __future__ import annotations

import glob
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

import kitaev_de as kd
from kitaev_de.model import grid_numerators, solve_chain

V1 = kd.ModelSpec.pairing
V2 = kd.ModelSpec.pairing_hopping
STEP = 0.01
FLAG_TOL = STEP + 1e-4          # one grid step, as in acceptance criterion 5
README_SLICES = (               # (J, stop, transitions) of the README's r=3 scans
    (-0.8, 0.5, (-1.491, -0.979, -0.414)),
    (0.3, 1.0, (-1.605, 0.155, 0.367, 0.559)),
)
README_FLAGS = {"critical_scan_j-0.8": README_SLICES[0][2],
                "critical_scan_j0.3": README_SLICES[1][2]}
FLAG_WINDOW = 0.02


@dataclass
class Outcome:
    payload: object
    steps: list = field(default_factory=list)   # (step name, seconds) in call order
    units: float = 1.0


def timed(steps: list, name: str, fn, *args, **kwargs):
    """Call ``fn`` and append its wall time to ``steps`` under ``name``."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    steps.append((name, time.perf_counter() - t0))
    return out


def _uniform_grid(center: float, lo: int, hi: int) -> np.ndarray:
    return np.array([center + i * STEP for i in range(lo, hi + 1)])


def _flags_match(locs, want, tol) -> bool:
    return len(locs) == len(want) and all(abs(l - w) <= tol for l, w in zip(locs, want))


def trivial_spec(rng) -> kd.ModelSpec:
    """A chain deep in the trivial phase (unique open-chain ground state)."""
    if rng.random() < 0.5:
        alpha = math.inf if rng.random() < 0.4 else float(rng.uniform(1.2, 3.0))
        j = float(rng.uniform(0.5, 1.5))
        delta = float(rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0]))
        mu = float(rng.uniform(1.3, 2.2) * j * rng.choice([-1.0, 1.0]))
        return V1(j=j, delta=delta, mu=mu, alpha=alpha)
    ab = float(rng.uniform(0.1, 0.5))
    return V2(j=float(rng.uniform(0.2, 0.5)), delta=float(rng.uniform(0.5, 1.2)),
              mu=-float(rng.uniform(2.8, 3.6)), alpha=ab, beta=ab, r=3)


class Workload:
    name = ""
    min_ops = 1                       # operations a run makes even past its time

    def __init__(self, seed: int, root: str, tmpdir: str, pool_threads: int):
        self.rng = np.random.default_rng(seed)
        self.root, self.tmpdir, self.pool_threads = root, tmpdir, pool_threads

    def warm(self) -> None:
        """First use of every library path the operations take.

        Set-up runs this in fresh interpreters, so it is kept small: one
        call per path, not one operation.
        """
        raise NotImplementedError

    def prepare(self) -> None:
        """Work before timing that set-up does not count (default: none)."""

    def op(self) -> Outcome:
        raise NotImplementedError

    def check(self, payload) -> tuple[int, list[str]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# reproduce: the checked-in configs through the CLI
# ---------------------------------------------------------------------------

def config_paths(root: str) -> list[str]:
    return sorted(glob.glob(os.path.join(root, "configs", "*.json")))


def config_names(root: str) -> list[str]:
    return [os.path.splitext(os.path.basename(p))[0] for p in config_paths(root)]


class Reproduce(Workload):
    name = "reproduce"
    warm_config = "mzm_single_pair"   # a small config: the CLI's own first-use costs

    def __init__(self, *args):
        super().__init__(*args)
        from kitaev_de import cli
        self.cli = cli
        paths, names = config_paths(self.root), config_names(self.root)
        if not paths:
            raise FileNotFoundError("no configs/*.json under the checkout")
        self.jobs = []
        for i in self.rng.permutation(len(paths)):
            with open(paths[i]) as fh:
                cfg = json.load(fh)
            argv = ["--config", paths[i], "--out", os.path.join(self.tmpdir, names[i] + ".csv")]
            if int(cfg.get("threads", 1)) > self.pool_threads:
                argv += ["--threads", str(self.pool_threads)]
            self.jobs.append((names[i], argv))
        self.reference: dict[str, bytes] = {}

    def warm(self):
        argv = next(argv for name, argv in self.jobs if name == self.warm_config)
        self.cli.main(argv)

    def prepare(self):
        self.check(self.op().payload)   # first pass's CSVs are the reference

    def op(self):
        steps = []
        codes = [(name, timed(steps, name, self.cli.main, argv)) for name, argv in self.jobs]
        return Outcome(codes, steps)

    def check(self, payload):
        failures = []
        for name, code in payload:
            problem = None
            base = os.path.join(self.tmpdir, name)
            if code != 0:
                problem = f"exit code {code}"
            else:
                with open(base + ".csv", "rb") as fh:
                    data = fh.read()
                with open(base + ".json") as fh:
                    results = json.load(fh).get("results", {})
                if self.reference.setdefault(name, data) != data:
                    problem = "CSV differs from the first pass"
                problem = problem or self._check_results(name, results)
            if problem:
                failures.append(f"{name}: {problem}")
        return len(payload), failures

    @staticmethod
    def _check_results(name, results):
        want_pairs = {"mzm_single_pair": 1, "mzm_three_pairs": 3}.get(name)
        if want_pairs is not None and results.get("pairs") != want_pairs:
            return f"pairs {results.get('pairs')} != {want_pairs}"
        if name in README_FLAGS:
            locs = [p["location"] for p in results.get("critical_points", [])]
            if not _flags_match(locs, README_FLAGS[name], FLAG_WINDOW):
                return f"critical points {locs} vs {README_FLAGS[name]}"
        if "residual_rms" in results and not results["residual_rms"] < 1e-3:
            return f"residual_rms {results['residual_rms']}"
        return None


# ---------------------------------------------------------------------------
# block-z / block-x: block-law sweep points shaped like criterion 5
# ---------------------------------------------------------------------------

class _BlockScan(Workload):
    basis = "z"
    windows: tuple = ()   # (spec factory, transition, half width, max offset)

    def __init__(self, *args):
        super().__init__(*args)
        self.points = []   # (window id, spec) in sweep order
        self.window_mus = []
        for wid, (factory, center, half, jitter) in enumerate(self.windows):
            off = int(self.rng.integers(-jitter, jitter + 1))
            mus = _uniform_grid(center, off - half, off + half)
            self.window_mus.append(mus)
            self.points += [(wid, factory(float(mu))) for mu in mus]
        self.results: dict[int, list[float]] = {}
        self.cursor = 0
        self.min_ops = len(self.points)   # every window's flag gets checked

    def warm(self):
        for wid in range(len(self.windows)):
            spec = next(s for w, s in self.points if w == wid)
            kd.block_coefficients(spec, basis=self.basis, lengths=range(4, 9))

    def op(self):
        wid, spec = self.points[self.cursor % len(self.points)]
        if self.cursor % len(self.points) == 0:
            self.results = {}   # a new pass over the windows
        self.cursor += 1
        steps = []
        fit = timed(steps, "point", kd.block_coefficients, spec, basis=self.basis)
        return Outcome((wid, fit), steps)

    def check(self, payload):
        wid, fit = payload
        self.results.setdefault(wid, []).append(fit.params[0])
        if not fit.residual_rms < 1e-3:
            return 1, [f"window {wid}: block-law residual {fit.residual_rms:.2e}"]
        if len(self.results[wid]) == len(self.window_mus[wid]):
            return self._flag(wid)
        return 1, []

    def _flag(self, wid):
        """The window is complete: exactly one chi_a flag at the transition."""
        mus, target = self.window_mus[wid], self.windows[wid][1]
        a = np.asarray(self.results[wid])
        locs = kd.detect_critical_points(kd.susceptibility("mu", mus, a),
                                         10.0).locations()
        if len(locs) == 1 and abs(locs[0] - target) <= FLAG_TOL:
            return 2, []
        return 2, [f"window {wid} ({self.basis}): flags {locs}, want {target}"]


def _alpha0_chain(mu):
    return V1(1.0, -1.0, mu, alpha=0.0)


def _range3_chain(mu):
    return V2(j=-0.8, delta=1.0, mu=mu)


class BlockZ(_BlockScan):
    name = "block-z"
    basis = "z"
    windows = ((_alpha0_chain, 1.0, 26, 4), (_range3_chain, -0.42, 17, 4))


class BlockX(_BlockScan):
    name = "block-x"
    basis = "x"
    windows = ((_alpha0_chain, 1.0, 12, 4),)


# ---------------------------------------------------------------------------
# density-scan: momentum-space channel sweeps and critical-point detection
# ---------------------------------------------------------------------------

CHANNELS = ("s", "E", "nu")
SEEDED_SLICES = 4
SAMPLED_POINTS = 1
DENSITY_N = 2000                # comparative_scan's default n_density
KERNEL_N = 8192                 # and its default n_kernel


class DensityScan(Workload):
    name = "density-scan"

    def __init__(self, *args):
        super().__init__(*args)
        self.slices = [(V2(j=j, delta=1.0, mu=0.0),
                        _uniform_grid(-2.0, 0, round((stop + 2.0) / STEP)), want)
                       for j, stop, want in README_SLICES]
        for _ in range(SEEDED_SLICES):
            self.slices.append((self._random_slice_spec(), _uniform_grid(-2.0, 0, 400), None))

    def _random_slice_spec(self):
        rng = self.rng
        if rng.random() < 0.5:
            alpha = math.inf if rng.random() < 0.4 else float(rng.uniform(0.0, 3.0))
            return V1(j=float(rng.uniform(0.5, 1.5)), mu=0.0, alpha=alpha,
                      delta=float(rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0])))
        ab = float(rng.uniform(0.1, 0.5))
        return V2(j=float(rng.uniform(-1.0, 1.0)), delta=float(rng.uniform(0.5, 1.2)),
                  mu=0.0, alpha=ab, beta=ab, r=3)

    def warm(self):
        for spec, mus, _ in self.slices:
            kd.comparative_scan(spec, "mu", mus[:3], channels=CHANNELS)

    def op(self):
        steps, out = [], []
        for i, (spec, mus, want) in enumerate(self.slices):
            t0 = time.perf_counter()
            table = kd.comparative_scan(spec, "mu", mus, channels=CHANNELS)
            report = kd.detect_critical_points(kd.susceptibility("mu", mus, table["s"]),
                                               10.0, channel="chi_s")
            steps.append((f"slice{i}", time.perf_counter() - t0))
            out.append((spec, mus, want, table, report))
        return Outcome(out, steps, units=sum(len(mus) for _, mus, _ in self.slices))

    def check(self, payload):
        failures = []
        for i, (spec, mus, want, table, report) in enumerate(payload):
            if want is not None and not _flags_match(report.locations(), want, FLAG_WINDOW):
                failures.append(f"slice {i}: flags {report.locations()} vs {want}")
            for j in self.rng.choice(len(mus), SAMPLED_POINTS, replace=False):
                problem = self._check_point(replace(spec, mu=float(mus[j])),
                                            {c: table[c][j] for c in CHANNELS})
                if problem:
                    failures.append(f"slice {i}, mu={mus[j]:.2f}: {problem}")
        return len(payload), failures

    @staticmethod
    def _check_point(spec, got):
        try:
            g0 = kd.correlator_kernel(spec, n=KERNEL_N, l_max=1).value(0)
        except kd.GaplessSpecError:
            gapless_ok = all(math.isnan(got[c]) for c in ("s", "E"))
            return None if gapless_ok else "gapless point has values"
        if abs(got["E"] - (1.0 - g0 * g0)) > 1e-10:
            return f"E {got['E']!r} != 1 - G0^2 {1.0 - g0 * g0!r}"
        p = np.array([math.sin(m.theta) ** 2 for m in solve_chain(spec, DENSITY_N) if m.k > 0])
        with np.errstate(divide="ignore", invalid="ignore"):
            h = -np.nan_to_num(p * np.log2(p)) - np.nan_to_num((1 - p) * np.log2(1 - p))
        s = float(h.sum()) / DENSITY_N
        if abs(got["s"] - s) > 1e-12:
            return f"s {got['s']!r} != binary entropy of sin^2 theta {s!r}"
        try:
            nu2 = kd.winding_number(spec, samples=2 * 4096).nu
        except kd.GaplessSpecError:
            nu2 = math.nan
        if not (nu2 == got["nu"] or (math.isnan(nu2) and math.isnan(got["nu"]))):
            return f"nu {got['nu']} changes to {nu2} at doubled samples"
        return None


# ---------------------------------------------------------------------------
# open-chain: Majorana counts, open-chain correlations, an oracle cross-check
# ---------------------------------------------------------------------------

MZM_CHAINS = ((V2(j=0.8, delta=1.0, mu=0.6), 800, "mzm_count"),
              (V1(1.0, 1.0, -0.5), 100, "mzm_count_n100"))
OPEN_N = 1000
ORACLE_N = 10
SIGMA_Z_SUBSETS = 8
SIGMA_X_SUBSETS = 1   # each costs one dense spin-picture diagonalization


def momentum_ground_energy(spec, n):
    _, y, z = grid_numerators(spec, n)
    const = 0.5 if spec.beta is None else 1.0
    return -const * float(np.hypot(y, z).sum())


class OpenChain(Workload):
    """Each operation: both mode counts, the correlations of a trivial open
    chain, and one criterion-6 cross-check of a fresh seeded chain against
    the exact-diagonalization oracle."""
    name = "open-chain"

    def __init__(self, *args):
        super().__init__(*args)
        from kitaev_de import oracle
        self.oracle = oracle
        self.trivial = trivial_spec(self.rng)
        self.nu = None

    def _oracle_spec(self):
        """A trivial range-3 chain, as in criterion 6.

        One family only: the spin Hamiltonian's cost grows with the number of
        nonzero ranges, so mixing families would make the cost depend on the
        seed.
        """
        while True:
            ab = float(self.rng.uniform(0.1, 0.5))
            spec = V2(j=float(self.rng.uniform(0.2, 0.5)),
                      delta=float(self.rng.uniform(0.5, 1.2)),
                      mu=-float(self.rng.uniform(2.8, 3.6)), alpha=ab, beta=ab, r=3)
            if kd.minimum_gap(spec, 512) > 0.1:
                return spec

    def warm(self):
        for spec, _, _ in MZM_CHAINS:
            kd.mode_count(spec, 20, 1e-8)
        kd.open_chain_correlations(self.trivial, 20)
        spec = self._oracle_spec()
        self.oracle.ed_ground_state(spec, 4, "open")
        self.oracle.spin_ground_state(spec, 4)

    def op(self):
        steps = []
        counts = [timed(steps, step, kd.mode_count, spec, n, 1e-8)
                  for spec, n, step in MZM_CHAINS]
        src = timed(steps, "open_corr", kd.open_chain_correlations, self.trivial, OPEN_N)
        spec = self._oracle_spec()
        subsets = self._subsets()
        pairs = timed(steps, "oracle_check", self._cross_check, spec, subsets)
        return Outcome((counts, src, pairs), steps)

    def _subsets(self):
        rng, n = self.rng, ORACLE_N
        z = [sorted(rng.choice(n, int(rng.integers(1, 7)), replace=False).tolist())
             for _ in range(SIGMA_Z_SUBSETS)]
        x = [sorted(rng.choice(n, 2 * int(rng.integers(1, 3)), replace=False).tolist())
             for _ in range(SIGMA_X_SUBSETS)]
        return z, x

    def _cross_check(self, spec, subsets):
        """(oracle value, library value) pairs of one c6-shaped check."""
        o, n = self.oracle, ORACLE_N
        z_sites, x_sites = subsets
        state = o.ed_ground_state(spec, n, "open")
        closed = o.ed_ground_state(spec, n, "antiperiodic")
        src = kd.open_chain_correlations(spec, n)
        return {
            "energy": [(state.energy, src.energy),
                       (closed.energy, momentum_ground_energy(spec, n))],
            "sigma_z": [(o.ed_sigma_z_product(state, s), kd.sigma_z_correlator(src, s))
                        for s in z_sites],
            "sigma_x": [(o.ed_sigma_x_product(spec, n, s), kd.sigma_x_correlator(src, s))
                        for s in x_sites],
            "marginal": [(o.ed_diagonal_marginal(state, range(4), basis),
                          kd.block_diagonal_distribution(src, 4, basis).p)
                         for basis in ("z", "x")],
        }

    def check(self, payload):
        counts, src, pairs = payload
        if self.nu is None:
            self.nu = [abs(kd.winding_number(spec).nu) for spec, _, _ in MZM_CHAINS]
        failures = [f"N={n}: {c} pairs, |nu|={nu:g}"
                    for (_, n, _), c, nu in zip(MZM_CHAINS, counts, self.nu) if c != nu]
        err = float(np.abs(src.m @ src.m.T - np.eye(OPEN_N)).max())
        if not err < 1e-8:
            failures.append(f"m m^T - I = {err:.2e}")
        tolerances = {"energy": 1e-9, "sigma_z": 1e-10, "sigma_x": 1e-10, "marginal": 1e-8}
        for key, tol in tolerances.items():
            worst = max(float(np.abs(np.asarray(a) - np.asarray(b)).max())
                        for a, b in pairs[key])
            if not worst < tol:
                failures.append(f"oracle {key} error {worst:.2e} >= {tol:g}")
        return 4, failures


WORKLOADS = {w.name: w for w in (Reproduce, BlockZ, BlockX, DensityScan, OpenChain)}
