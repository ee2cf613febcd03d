"""Smoke runs of every demo script: each exits 0, and each that writes CSVs
writes at least one."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kitaev_de

DEMOS = Path(__file__).parent.parent / "demos"


# every demo but the oracle cross-check, which only prints
WRITES_CSV = {"demo_basis_independence", "demo_critical_scan",
              "demo_entropy_scaling", "demo_global_entanglement",
              "demo_majorana_modes", "demo_winding_and_phases"}


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("demo_*.py")))
def test_demo_runs(tmp_path, name):
    # run a copy: each demo writes its CSVs next to itself
    script = tmp_path / f"{name}.py"
    shutil.copy(DEMOS / script.name, script)
    src = str(Path(kitaev_de.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, cwd=tmp_path, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert bool(list(tmp_path.glob("*.csv"))) == (name in WRITES_CSV)
