"""Every name a library module imports is used in that module, only the
per-mode outputs read the full momentum grid, and only the mirror builds it."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "kitaev_de"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` (``from __future__``
    excepted) that no expression in it reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    src = "from __future__ import annotations\nimport os, numpy as np\nfrom a.b import c, d\nnp.x(d)\n"
    assert unused_imports(src) == ["os", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_used(path):
    assert unused_imports(path.read_text()) == []


def callers(name: str) -> set[tuple[str, str]]:
    """``(module, function)`` for every library function whose body calls
    ``name``, by plain name or as an attribute."""
    found = set()
    for path in MODULES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    found.add((path.stem, fn.name))
    return found


def test_only_per_mode_outputs_read_the_full_grid():
    # every closed-chain reduction reads the k > 0 half through
    # model._gapped_grid; the full grid serves the per-mode outputs alone
    assert callers("grid_numerators") == {("model", "solve_chain"),
                                          ("topology", "trajectory")}
    assert ("gaussian", "correlator_kernel") in callers("_gapped_grid")


def test_only_the_mirror_builds_the_full_grid():
    # the harmonic cache holds the k > 0 half; grid_numerators mirrors it
    # and momentum_grid mirrors the bare momenta, and no other function
    # builds a length-n grid
    assert callers("momentum_grid") == set()
    assert callers("fftshift") == set()
    assert {fn for module, fn in callers("concatenate") if module == "model"} == {
        "grid_numerators", "momentum_grid"}
