"""Shared deterministic random-spec generators and references for the test
suite: every helper more than one test module reads lives here, so that no
test module imports another."""
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
from kitaev_de.majorana import _band
from kitaev_de.model import grid_numerators


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


def decay_roots(spec):
    """Roots of the zero-mode recursion's band symbol.

    A left mode m_j = x^j solves the bulk rows of m^T K = 0 when
    sum_d K_{l+d, l} x^d = 0; decaying solutions have |x| < 1.  The symbol's
    coefficients are the band of K, ``K[a, a + d] = band[d + n - 1]``, over
    its nonzero support ``|d| <= r``.
    """
    n = 16
    band = _band(spec, n)
    d = np.nonzero(band)[0] - (n - 1)
    r = max(1, int(np.abs(d).max(initial=0)))
    return np.roots(band[n - 1 - r:n + r]), r


def analytic_pair_count(spec):
    """Zero-mode pairs in the semi-infinite limit.

    Left a-type modes count (roots inside the unit disk) - r; for the
    opposite winding sign the pair lives on the b-type operators, whose
    recursion has the inverted roots, so the pair count is |inside - r|.
    """
    roots, r = decay_roots(spec)
    inside = int(np.sum(np.abs(roots) < 1.0))
    return abs(inside - r)


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


def gap_closing_mus(spec):
    """Chemical potentials at which a pairing+hopping chain's gap closes.

    With equal exponents both harmonic sums carry the weights
    ``w_l = l^-alpha`` (``l <= r``, far below N/2, so ring and open
    distances agree).  The gap closes at the zeros k* of the sine sum where
    also ``z = mu/2 + J sum_l w_l cos(k* l) = 0``.  With ``x = e^{ik}``,
    ``2i x^r`` times the sine sum is the polynomial
    ``sum_l w_l (x^(r+l) - x^(r-l))``, whose unit-circle roots give k*.
    """
    assert spec.alpha == spec.beta
    l = np.arange(1, spec.r + 1)
    w = l ** -spec.alpha
    poly = np.zeros(2 * spec.r + 1)  # index m holds the coefficient of x^m
    poly[spec.r + l], poly[spec.r - l] = w, -w
    x = np.roots(poly[::-1])
    k = np.unique(np.abs(np.angle(x[np.abs(np.abs(x) - 1.0) < 1e-9])).round(12))
    return np.sort(-2.0 * spec.j * np.cos(np.outer(k, l)) @ w)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
