"""Shared deterministic random-spec generators and references for the test
suite."""
import os

# One BLAS thread per test process, set before numpy loads.  Beside another
# process running multi-threaded BLAS, the two processes' worker threads
# oversubscribe a small host: on 2 cores c2's N = 800 eigvalsh then took up
# to 5 s instead of 0.1 s.  Variables already set by the caller win.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import math

import numpy as np
import pytest

from kitaev_de import ModelSpec, minimum_gap


def random_pairing_spec(rng, trivial=False):
    """Random pairing-only spec; ``trivial=True`` keeps |mu| beyond the
    boundaries so the open-chain ground state is unique and gapped."""
    alpha = math.inf if rng.random() < 0.4 else float(rng.uniform(1.2, 3.0))
    j = float(rng.uniform(0.5, 1.5))
    delta = float(rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0]))
    if trivial:
        mu = float(rng.uniform(1.3, 2.2) * j * rng.choice([-1.0, 1.0]))
    else:
        mu = float(rng.uniform(-2.0, 2.0))
    return ModelSpec.pairing(j=j, delta=delta, mu=mu, alpha=alpha)


def random_pairing_hopping_spec(rng, trivial=False):
    """Random pairing+hopping spec on the line alpha = beta."""
    ab = float(rng.uniform(0.1, 0.5))
    j = float(rng.uniform(0.2, 0.5))
    delta = float(rng.uniform(0.5, 1.2))
    if trivial:
        mu = float(rng.uniform(2.8, 3.6)) * (-1.0 if rng.random() < 0.5 else 1.0)
        mu = -abs(mu)  # deep band insulator side for every draw
    else:
        mu = float(rng.uniform(-2.0, 1.0))
    return ModelSpec.pairing_hopping(j=j, delta=delta, mu=mu,
                                     alpha=ab, beta=ab, r=3)


def random_gapped_spec(rng, min_gap=0.05, n=512, trivial=False, max_tries=200):
    """Draw until the sampled bulk gap exceeds ``min_gap``."""
    for _ in range(max_tries):
        if rng.random() < 0.5:
            spec = random_pairing_spec(rng, trivial=trivial)
        else:
            spec = random_pairing_hopping_spec(rng, trivial=trivial)
        if minimum_gap(spec, n) > min_gap:
            return spec
    raise RuntimeError("could not draw a gapped spec")


def rolled_turns(y, z):
    """Reference turn sum over the whole closed grid with ``np.roll``
    successors; also returns whether the power-of-two rescale ran."""
    for rescaled in (False, True):
        y2, z2 = np.roll(y, -1), np.roll(z, -1)
        with np.errstate(over="ignore", invalid="ignore"):
            cross = z * y2 - y * z2
            dot = y * y2 + z * z2
        turns = float(np.arctan2(cross, dot).sum() / (2.0 * np.pi))
        if math.isfinite(turns):
            break
        _, exp = np.frexp(max(np.abs(y).max(), np.abs(z).max()))
        y, z = np.ldexp(y, -exp), np.ldexp(z, -exp)
    return turns, rescaled


def grid_gapless_spec(n):
    """Pairing-only spec whose gap closes exactly on a momentum of the
    n-point antiperiodic grid (delta = 0 and mu = -cos k for a grid k)."""
    from kitaev_de import momentum_grid
    k0 = float(momentum_grid(n)[n // 3])
    return ModelSpec.pairing(j=1.0, delta=0.0, mu=-math.cos(k0))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
