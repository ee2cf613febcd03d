"""Smoke runs of the demo scripts that drive the sweep API."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kitaev_de

DEMOS = Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize("name", ["demo_basis_independence",
                                  "demo_global_entanglement",
                                  "demo_critical_scan"])
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
    assert list(tmp_path.glob("*.csv"))
