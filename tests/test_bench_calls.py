"""Every library name the benchmark harness reaches exists in the package.

The suite does not run ``bench/``, so a renamed or deleted library function
that the harness calls would go unseen here.  This reads the harness's two
call sites with ``ast``, without importing them, and looks each name up in
the package."""
import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).parent.parent / "bench"
SOURCES = ("workloads.py", "run.py")
# how the harness spells each library module it reads attributes of
ALIASES = {"kd": "kitaev_de", "kitaev_de": "kitaev_de", "model": "kitaev_de.model",
           "self.oracle": "kitaev_de.oracle", "o": "kitaev_de.oracle",
           "self.cli": "kitaev_de.cli"}


def library_names(source: str) -> set[tuple[str, str]]:
    """``(module, name)`` for every ``alias.name`` read through an alias of
    :data:`ALIASES` and every name imported from the package."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in ALIASES:
            found.add((ALIASES[ast.unparse(node.value)], node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.partition(".")[0] == "kitaev_de":
            found.update((node.module, a.name) for a in node.names)
    return found


def exists(module: str, name: str) -> bool:
    """``name`` is an attribute or a submodule of the package module."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_finds_library_names():
    src = ("import kitaev_de as kd\nfrom kitaev_de.model import nope, solve_chain\n"
           "kd.ModelSpec.pairing(); o.gone(); self.cli.main(); other.x\n")
    assert library_names(src) == {
        ("kitaev_de", "ModelSpec"), ("kitaev_de.model", "nope"),
        ("kitaev_de.model", "solve_chain"), ("kitaev_de.oracle", "gone"),
        ("kitaev_de.cli", "main")}
    assert [n for n in sorted(library_names(src)) if not exists(*n)] == [
        ("kitaev_de.model", "nope"), ("kitaev_de.oracle", "gone")]


@pytest.mark.parametrize("source", SOURCES)
def test_harness_names_exist(source):
    names = library_names((BENCH / source).read_text())
    assert names  # the scan reads the harness, not an empty file
    assert [n for n in sorted(names) if not exists(*n)] == []


def test_harness_reads_the_harmonic_cache_stats():
    # bench/run.py reports the cache's hit ratio from cache_info()
    assert ("kitaev_de.model", "_grid_harmonics") in library_names(
        (BENCH / "run.py").read_text())
    from kitaev_de import model
    assert callable(model._grid_harmonics.cache_info)
