"""Every library argument check raises InvalidParameterError naming the
argument, and is still a ValueError."""
import ast
import math
from pathlib import Path

import numpy as np
import pytest

from kitaev_de import (InvalidParameterError, ModelSpec, Variant,
                       block_coefficients, block_diagonal_distribution,
                       block_diagonal_entropy, comparative_scan,
                       correlator_kernel, de_density,
                       detect_critical_points, dispersion, fit_block_law,
                       fit_volume_law, minimum_gap, mode_count, momentum_grid,
                       open_chain_correlations, pair_correlation, pfaffian,
                       phase_boundary_scan, sigma_x_correlator,
                       sigma_z_correlator, susceptibility,
                       sweep_block_coefficients, sweep_de_density, trajectory,
                       winding_number, zero_modes)
from kitaev_de.majorana import MAX_OPEN_SITES
from kitaev_de.model import open_chain_weights
from kitaev_de.oracle import (ed_diagonal_marginal, ed_ground_state,
                              ed_pair_correlator, ed_sigma_x_product,
                              ed_sigma_z_product, ed_spectrum)
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


def integer_rule_uses(source: str) -> list[int]:
    """Lines of ``source`` that import ``numbers`` or use ``operator.index``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(a.name.split(".")[0] == "numbers" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "numbers" or (
                node.module == "operator" and any(a.name == "index" for a in node.names))
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "index"
                   and isinstance(node.value, ast.Name) and node.value.id == "operator")
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_finds_an_integer_rule_use():
    src = ("import numbers\nfrom numbers import Integral\nfrom operator import index\n"
           "y = operator.index(3)\nimport operator\nz = x.index(3)\n")
    assert integer_rule_uses(src) == [1, 2, 3, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_integer_rule_has_one_home(path):
    # errors._integer is the one check of every count, length and site
    assert bool(integer_rule_uses(path.read_text())) == (path.name == "errors.py")


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
    # one integer rule for every count, length and site: a float twin of a
    # valid value, a half-integer and a bool per argument.  Before it, numpy's
    # TypeError, IndexError or KeyError, or a silent result (a float grid
    # size, a bool block length, site 1 read for 1.5)
    ("n", lambda: momentum_grid(64.0)),
    ("n", lambda: minimum_gap(PAIRING, 64.0)),
    ("n", lambda: dispersion(PAIRING, 0.1, 8.5)),
    ("n", lambda: de_density(PAIRING, True)),
    ("samples", lambda: trajectory(PAIRING, samples=1024.0)),
    ("samples", lambda: winding_number(PAIRING, samples=1024.0)),
    ("samples", lambda: winding_number(PAIRING, samples=1024.5)),
    ("samples", lambda: trajectory(PAIRING, samples=True)),
    ("n", lambda: open_chain_weights(PAIRING, 4.0)),
    ("n", lambda: mode_count(PAIRING, 20.0)),
    ("n", lambda: open_chain_correlations(PAIRING, 4.5)),
    ("n", lambda: open_chain_correlations(PAIRING, True)),
    ("n", lambda: zero_modes(PAIRING, True)),
    ("n", lambda: ed_ground_state(PAIRING, 4.0)),
    ("n", lambda: ed_ground_state(PAIRING, 4.5)),
    ("n", lambda: ed_ground_state(PAIRING, True)),
    ("n", lambda: ed_sigma_x_product(PAIRING, 4.0, [0, 1])),
    ("n", lambda: correlator_kernel(PAIRING, n=1024.0)),
    ("n", lambda: correlator_kernel(PAIRING, n=1024.5)),
    ("n", lambda: correlator_kernel(PAIRING, n=True, l_max=0)),
    ("l_max", lambda: correlator_kernel(PAIRING, n=64, l_max=4.0)),
    ("l_max", lambda: correlator_kernel(PAIRING, n=64, l_max=4.5)),
    ("l_max", lambda: correlator_kernel(PAIRING, n=64, l_max=True)),
    ("r", lambda: _kernel().value(2.0)),
    ("r", lambda: _kernel().value(1.5)),
    ("r", lambda: _kernel().value(True)),
    ("sites", lambda: sigma_z_correlator(_kernel(), [1.5])),
    ("sites", lambda: sigma_z_correlator(_dense(), [1.5])),
    ("sites", lambda: sigma_z_correlator(_dense(), [2.0])),
    ("sites", lambda: sigma_z_correlator(_kernel(), [True])),
    ("sites", lambda: sigma_x_correlator(_kernel(), [0, 2.0])),
    ("sites", lambda: sigma_x_correlator(_dense(), [0.5, 2])),
    ("sites", lambda: sigma_x_correlator(_dense(), [True, 2])),
    ("a", lambda: pair_correlation(_kernel(), 1.5, 0)),
    ("b", lambda: pair_correlation(_dense(), 0, 2.0)),
    ("a", lambda: pair_correlation(_dense(), True, 0)),
    ("sites", lambda: ed_sigma_z_product(_closed_state(), [2.0])),
    ("sites", lambda: ed_diagonal_marginal(_closed_state(), [True])),
    ("a", lambda: ed_pair_correlator(_closed_state(), 1.0, 0)),
    ("b", lambda: ed_pair_correlator(_closed_state(), 0, True)),
    ("lengths", lambda: block_diagonal_entropy(_kernel(), 4.0)),
    ("lengths", lambda: block_diagonal_entropy(_kernel(), 2.5)),
    ("lengths", lambda: block_diagonal_entropy(_kernel(), True)),
    ("lengths", lambda: block_diagonal_distribution(_dense(), 3.0)),
    ("lengths", lambda: block_coefficients(PAIRING, lengths=[4.5, 5, 6, 7, 8])),
    ("lengths", lambda: block_coefficients(PAIRING, lengths=[4, 5, 6, 7, 8.0])),
    ("start", lambda: block_diagonal_entropy(_kernel(), 2, start=2.0)),
    ("start", lambda: block_diagonal_entropy(_dense(), 2, start=1.5)),
    ("start", lambda: block_diagonal_entropy(_dense(), 2, start=True)),
    # np.log2 warned on a block length of 0 or below before the fit failed
    ("lengths", lambda: fit_block_law([0, 2, 3, 4, 5, 6], np.ones(6))),
    ("lengths", lambda: fit_block_law([-1, 2, 3, 4, 5, 6], np.ones(6))),
    # a matrix that is not 2-D ended in an IndexError
    ("mat", lambda: pfaffian(3.0)),
    ("mat", lambda: pfaffian([0.0, 1.0])),
    ("n", lambda: ed_spectrum(PAIRING, 4.0, "antiperiodic")),
    ("n", lambda: ed_spectrum(PAIRING, True, "antiperiodic")),
    # a coupling that is not a real number within the float range ended in a
    # TypeError or OverflowError, or was taken as a number (a bool)
    ("j", lambda: ModelSpec.pairing(j="1")),
    ("j", lambda: ModelSpec.pairing(j=None)),
    ("alpha", lambda: ModelSpec.pairing(alpha="inf")),
    ("beta", lambda: ModelSpec.pairing_hopping(beta="x")),
    ("mu", lambda: ModelSpec.pairing(mu=True)),
    ("j", lambda: ModelSpec.pairing(j=10**400)),
    ("alpha", lambda: ModelSpec.pairing(alpha=10**400)),
    # a basis that is not a string ended in an AttributeError
    ("basis", lambda: block_diagonal_entropy(_kernel(), 4, basis=1)),
    ("basis", lambda: ed_diagonal_marginal(_closed_state(), [0], basis=1)),
    # a string of channels iterated by character
    ("channels", lambda: comparative_scan(PAIRING, "mu", [0.0], channels="nu")),
    ("channels", lambda: comparative_scan(PAIRING, "mu", [0.0], channels="sE")),
    # a variant that is no Variant member: the value name raised for beta,
    # an unknown name built a pairing+hopping chain that wound once
    ("variant", lambda: ModelSpec("pairing")),
    ("variant", lambda: ModelSpec("x", 1.0, 1.0, 0.0, 0.2, 0.2, 3)),
    # sweep values that are not a 1-D sequence ended in a bare TypeError
    ("values", lambda: sweep_de_density(PAIRING, "mu", 0.5)),
    ("values", lambda: comparative_scan(PAIRING, "mu", 0.5, ["s"])),
    ("values", lambda: nu_change_locations(PAIRING, "mu", 0.5)),
    ("y_values", lambda: phase_boundary_scan(PAIRING, "mu", [0.0, 1.0], "delta")),
    # with no rows a scalar x_values was never checked and came back 0-d;
    # y_values without y_name was dropped
    ("x_values", lambda: phase_boundary_scan(PAIRING, "mu", 0.5, "delta", [])),
    ("y_values", lambda: phase_boundary_scan(PAIRING, "mu", [0.0, 1.0], y_values=[0.1])),
    # points that are not 1-D ended in a bare ValueError or TypeError, or
    # gave a curve that detect_critical_points could not read
    ("sizes", lambda: fit_volume_law(np.ones((3, 1)), np.ones((3, 1)))),
    ("lengths", lambda: fit_block_law(np.arange(4.0, 10.0).reshape(6, 1), np.ones((6, 1)))),
    ("grid", lambda: susceptibility("x", np.arange(4.0).reshape(2, 2), np.ones((2, 2)))),
    ("grid", lambda: susceptibility("x", np.arange(18.0).reshape(9, 2), np.ones((9, 2)))),
    # an infinite size warned and gave a NaN slope
    ("sizes", lambda: fit_volume_law([4, 5, math.inf], [1.0, 2.0, 3.0])),
    # a non-finite value warned or gave NaN parameters
    ("values", lambda: fit_volume_law([4, 5, 6], [1.0, 2.0, math.inf])),
    ("values", lambda: fit_volume_law([4, 5, 6], [1.0, math.nan, 3.0])),
    ("values", lambda: fit_block_law(range(4, 10), [1.0, 2, 3, 4, 5, math.nan])),
    ("values", lambda: fit_block_law(range(4, 10), [1.0, 2, 3, 4, 5, -math.inf])),
]


@pytest.mark.parametrize("param,call", SITES, ids=[f"{i}-{p}" for i, (p, _) in
                                                   enumerate(SITES)])
def test_check_names_argument(param, call):
    with pytest.raises(InvalidParameterError) as info:
        call()
    assert info.value.param == param
    assert isinstance(info.value, ValueError)


def test_numpy_integers_match_python_ints():
    # rng.choice and np.arange hand out numpy integers as counts and sites
    i = np.int64
    assert de_density(PAIRING, i(64)) == de_density(PAIRING, 64)
    want = correlator_kernel(PAIRING, n=64, l_max=4)
    got = correlator_kernel(PAIRING, n=i(64), l_max=i(4))
    assert got.g.tobytes() == want.g.tobytes() and (got.n, got.l_max) == (64, 4)
    for source in (_kernel(), _dense()):
        assert sigma_z_correlator(source, np.arange(1, 4)) == sigma_z_correlator(
            source, [1, 2, 3])
    assert (block_coefficients(PAIRING, lengths=np.arange(4, 9))
            == block_coefficients(PAIRING, lengths=range(4, 9)))
    want, got = ed_ground_state(PAIRING, 4), ed_ground_state(PAIRING, i(4))
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
    assert got.energy == want.energy

