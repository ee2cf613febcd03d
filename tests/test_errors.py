"""Every library argument check raises InvalidParameterError naming the
argument, and is still a ValueError."""
import ast
import math
from pathlib import Path

import numpy as np
import pytest

from kitaev_de import (InvalidParameterError, ModelSpec, Variant,
                       block_coefficients, block_diagonal_entropy,
                       comparative_scan, correlator_kernel,
                       detect_critical_points, dispersion, fit_block_law,
                       fit_volume_law, minimum_gap, mode_count, momentum_grid,
                       open_chain_correlations, pair_correlation, pfaffian,
                       sigma_x_correlator, sigma_z_correlator, susceptibility,
                       sweep_block_coefficients, trajectory, winding_number,
                       zero_modes)
from kitaev_de.majorana import MAX_OPEN_SITES
from kitaev_de.model import open_chain_weights
from kitaev_de.oracle import (ed_diagonal_marginal, ed_ground_state,
                              ed_pair_correlator, ed_sigma_x_product,
                              ed_sigma_z_product)
from kitaev_de.topology import nu_change_locations

PACKAGE = Path(__file__).parent.parent / "src" / "kitaev_de"
MODULES = sorted(PACKAGE.glob("*.py"))

PAIRING = ModelSpec.pairing(mu=3.0)
HOPPING = ModelSpec.pairing_hopping()


def untyped_raises(source: str) -> list[int]:
    """Lines of ``source`` that raise a bare ``ValueError``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                lines.append(node.lineno)
    return lines


def test_finds_an_untyped_raise():
    src = "raise ValueError('a')\nraise ValueError\nraise KeyError('b')\n"
    assert untyped_raises(src) == [1, 2]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_argument_check_is_typed(path):
    assert untyped_raises(path.read_text()) == []


def _kernel():
    return correlator_kernel(PAIRING, n=64, l_max=4)


def _dense():
    return open_chain_correlations(PAIRING, 8)


def _curve():
    x = np.arange(10.0)
    return susceptibility("x", x, x ** 2)


def _closed_state():
    return ed_ground_state(PAIRING, 4, boundary="antiperiodic")


SITES = [
    ("j", lambda: ModelSpec.pairing(j=math.inf)),
    ("delta", lambda: ModelSpec.pairing(delta=math.nan)),
    ("mu", lambda: ModelSpec.pairing(mu=-math.inf)),
    ("alpha", lambda: ModelSpec.pairing(alpha=-1.0)),
    ("beta", lambda: ModelSpec(Variant.LONG_RANGE_PAIRING, beta=0.2)),
    ("r", lambda: ModelSpec(Variant.LONG_RANGE_PAIRING, r=3)),
    ("beta", lambda: ModelSpec(Variant.LONG_RANGE_PAIRING_HOPPING, r=3)),
    ("beta", lambda: ModelSpec.pairing_hopping(beta=-0.5)),
    ("r", lambda: ModelSpec.pairing_hopping(r=0)),
    ("n", lambda: momentum_grid(7)),
    ("r", lambda: minimum_gap(ModelSpec.pairing_hopping(r=8), 8)),
    ("n", lambda: dispersion(PAIRING, 0.1, 1)),
    ("k", lambda: dispersion(PAIRING, 4.0, 8)),
    ("n", lambda: open_chain_weights(PAIRING, 0)),
    ("lengths", lambda: block_diagonal_entropy(_kernel(), 0)),
    ("basis", lambda: block_diagonal_entropy(_kernel(), 2, basis="y")),
    ("n", lambda: zero_modes(HOPPING, 6)),
    ("n", lambda: zero_modes(PAIRING, MAX_OPEN_SITES + 1)),
    ("n", lambda: open_chain_correlations(PAIRING, MAX_OPEN_SITES + 1)),
    ("r", lambda: _kernel().value(5)),
    ("n", lambda: correlator_kernel(PAIRING, n=32, l_max=8)),
    ("source", lambda: sigma_z_correlator(_kernel(), [0, 5])),
    ("sites", lambda: sigma_z_correlator(_kernel(), range(21))),
    ("mat", lambda: pfaffian(np.zeros((2, 3)))),
    ("mat", lambda: pfaffian(np.ones((2, 2)))),
    ("samples", lambda: winding_number(PAIRING, samples=128)),
    ("samples", lambda: trajectory(PAIRING, samples=128)),
    ("name", lambda: nu_change_locations(PAIRING, "r", [0.0, 1.0])),
    ("channels", lambda: comparative_scan(PAIRING, "mu", [0.0], channels=["S"])),
    ("boundary", lambda: ed_ground_state(PAIRING, 4, boundary="ring")),
    ("n", lambda: ed_ground_state(PAIRING, 13)),
    ("basis", lambda: ed_diagonal_marginal(_closed_state(), [0], "x")),
    ("basis", lambda: ed_diagonal_marginal(_closed_state(), [0], "y")),
    ("l_max", lambda: correlator_kernel(PAIRING, n=64, l_max=-1)),
    ("sites", lambda: sigma_z_correlator(_dense(), [-1])),
    ("sites", lambda: sigma_z_correlator(_dense(), [8, 8])),
    ("sites", lambda: sigma_x_correlator(_dense(), [-1, 2])),
    ("start", lambda: block_diagonal_entropy(_dense(), 4, start=-2)),
    ("start", lambda: block_diagonal_entropy(_dense(), 4, start=6)),
    ("a", lambda: pair_correlation(_dense(), -1, 0)),
    ("b", lambda: pair_correlation(_dense(), 0, 8)),
    ("tol", lambda: zero_modes(PAIRING, 20, tol=0.0)),
    ("tol", lambda: mode_count(PAIRING, 20, tol=math.nan)),
    ("kappa", lambda: detect_critical_points(_curve(), kappa=0.0)),
    ("kappa", lambda: detect_critical_points(_curve(), kappa=math.nan)),
    # a cutoff tol * max(s) at or above max(s) counted ordinary singular
    # values: this trivial chain read 20 pairs at tol = 11 and 100
    ("tol", lambda: mode_count(PAIRING, 20, tol=1.0)),
    ("tol", lambda: zero_modes(PAIRING, 20, tol=11.0)),
    ("tol", lambda: mode_count(PAIRING, 20, tol=100.0)),
    # the oracle reads sites as bits of the basis index: a site beyond the
    # chain would drop out of the product instead of failing
    ("sites", lambda: ed_sigma_z_product(_closed_state(), [1, 4])),
    ("sites", lambda: ed_sigma_x_product(PAIRING, 4, [-1, 2])),
    # NaN failed the antisymmetry comparison silently, inf ran into a warning
    ("mat", lambda: pfaffian([[0.0, math.nan], [-math.nan, 0.0]])),
    ("mat", lambda: pfaffian([[0.0, math.inf], [-math.inf, 0.0]])),
    # all-zero sizes divided the volume-law slope by zero
    ("sizes", lambda: fit_volume_law([0, 0, 0], [1.0, 2.0, 3.0])),
    ("sizes", lambda: fit_volume_law([100, -200, 300], [1.0, 2.0, 3.0])),
    # the oracle's one site check: before it, numpy's bare ValueError or
    # IndexError, a "negative shift count", or a silent read of site 1 for 1.5
    ("sites", lambda: ed_diagonal_marginal(_closed_state(), [0, 4])),
    ("sites", lambda: ed_diagonal_marginal(_closed_state(), [-1])),
    ("sites", lambda: ed_diagonal_marginal(_closed_state(), [2, 2])),
    ("sites", lambda: ed_diagonal_marginal(_closed_state(), [1.5])),
    ("sites", lambda: ed_sigma_z_product(_closed_state(), [1.5])),
    ("a", lambda: ed_pair_correlator(_closed_state(), 4, 0)),
    ("a", lambda: ed_pair_correlator(_closed_state(), -1, 0)),
    ("b", lambda: ed_pair_correlator(_closed_state(), 0, 4)),
    ("b", lambda: ed_pair_correlator(_closed_state(), 0, -1)),
    # a float r built a range-3 ring and an open chain that ran into a TypeError
    ("r", lambda: ModelSpec.pairing_hopping(r=2.5)),
    ("r", lambda: ModelSpec.pairing_hopping(r=3.0)),
    ("r", lambda: ModelSpec.pairing_hopping(r=True)),
    # one value per point: susceptibility returned 6 chi values for 8
    # interior points, the fits ended in numpy errors
    ("values", lambda: susceptibility("x", np.arange(10.0), np.arange(8.0))),
    ("values", lambda: fit_volume_law([100, 200, 300], [1.0, 2.0])),
    ("values", lambda: fit_block_law(range(4, 10), np.ones(5))),
    # an odd sample count was named n by momentum_grid
    ("samples", lambda: winding_number(PAIRING, samples=1025)),
    ("samples", lambda: trajectory(PAIRING, samples=1025)),
    # no block length ended in max()'s bare ValueError
    ("lengths", lambda: block_coefficients(PAIRING, lengths=[])),
    ("lengths", lambda: sweep_block_coefficients(PAIRING, "mu", [0.5], lengths=[])),
    ("lengths", lambda: comparative_scan(PAIRING, "mu", [0.5], channels=["a"],
                                         lengths=[])),
]


@pytest.mark.parametrize("param,call", SITES, ids=[f"{i}-{p}" for i, (p, _) in
                                                   enumerate(SITES)])
def test_check_names_argument(param, call):
    with pytest.raises(InvalidParameterError) as info:
        call()
    assert info.value.param == param
    assert isinstance(info.value, ValueError)
