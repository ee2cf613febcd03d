"""Command-line interface: validation, outputs, determinism, exit codes."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kitaev_de
from kitaev_de.cli import main


def run_cli(args):
    return main(list(args))


class TestValidation:
    def test_missing_r_names_field(self, tmp_path, capsys):
        code = run_cli(["--task", "winding", "--variant", "2", "--j", "0.8",
                        "--beta", "0.2",
                        "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "'r'" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"task": "winding", "bogus": 1}))
        code = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_missing_task(self, tmp_path, capsys):
        assert run_cli(["--out", str(tmp_path / "o.csv")]) == 1
        assert "task" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,field", [
        (["--l", "20"], "'l'"), (["--l", "0"], "'l'"),
        (["--l-max", "20"], "'l_max'"), (["--l-min", "0"], "'l_min'"),
        (["--l-min", "9", "--l-max", "5"], "'l_max'")])
    def test_block_length_out_of_range(self, tmp_path, capsys, flags, field):
        code = run_cli(["--task", "de-block", *flags,
                        "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert field in capsys.readouterr().err

    def test_numerical_failure_exit_2(self, tmp_path, capsys):
        # spec whose gap closes exactly on a sampled momentum
        from conftest import grid_gapless_spec
        spec = grid_gapless_spec(4096)
        code = run_cli(["--task", "winding", "--variant", "1", "--delta", "0",
                        "--mu", repr(spec.mu), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "GaplessSpecError" in capsys.readouterr().err


class TestOutputs:
    def test_winding_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "w.csv"
        code = run_cli(["--task", "winding", "--variant", "1", "--delta", "-1",
                        "--mu", "-1.5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "nu_raw,nu,gapped,min_gap"
        side = json.loads((tmp_path / "w.json").read_text())
        assert side["results"]["nu"] == 0.0
        assert side["version"]
        assert side["config"]["task"] == "winding"
        assert side["config"]["alpha"] == "inf"  # defaults materialised

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--task", "critical-scan", "--variant", "2", "--j", "-0.8",
                "--alpha", "0.2", "--beta", "0.2", "--r", "3",
                "--param", "mu", "--start", "-0.6", "--stop", "-0.2",
                "--step", "0.01", "--n", "500"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_critical_scan_columns(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run_cli(["--task", "critical-scan", "--variant", "1",
                        "--delta", "1", "--param", "mu", "--start", "0.5",
                        "--stop", "1.5", "--step", "0.01", "--n", "500",
                        "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "mu,s,chi_s,flagged"
        assert len(lines) == 102
        flagged_rows = [ln for ln in lines[1:] if ln.endswith(",1")]
        assert flagged_rows  # the mu = 1 transition is flagged

    def test_fit_block_results(self, tmp_path):
        out = tmp_path / "fit.csv"
        code = run_cli(["--task", "fit-block", "--variant", "1", "--delta",
                        "-1", "--alpha", "0", "--mu", "0.8", "--n", "2048",
                        "--l-min", "4", "--l-max", "10", "--out", str(out)])
        assert code == 0
        side = json.loads((tmp_path / "fit.json").read_text())
        assert side["results"]["residual_rms"] < 1e-3
        assert len(out.read_text().strip().split("\n")) == 8

    def test_trajectory_rows(self, tmp_path):
        out = tmp_path / "tr.csv"
        assert run_cli(["--task", "trajectory", "--variant", "1",
                        "--samples", "256", "--mu", "-1.5", "--delta", "-1",
                        "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "k,h_y,h_z,gapless"
        assert len(lines) == 257

    def test_mzm_profile(self, tmp_path):
        out = tmp_path / "mzm.csv"
        assert run_cli(["--task", "mzm", "--variant", "1", "--delta", "1",
                        "--mu", "-0.5", "--n", "60", "--out", str(out)]) == 0
        side = json.loads((tmp_path / "mzm.json").read_text())
        assert side["results"]["pairs"] == 1
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "site,p_left_1,p_right_1"
        assert len(lines) == 61

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"task": "ge", "variant": 1, "mu": 0.0,
                                   "delta": 1.0, "n": 2048}))
        out = tmp_path / "ge.csv"
        assert run_cli(["--config", str(cfg), "--mu", "3.0",
                        "--out", str(out)]) == 0
        side = json.loads((tmp_path / "ge.json").read_text())
        assert side["config"]["mu"] == 3.0  # flag wins over file

    def test_de_pure_and_block(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run_cli(["--task", "de-pure", "--variant", "1", "--delta", "-1",
                        "--mu", "-1.5", "--n", "500", "--out", str(out)]) == 0
        header, row = out.read_text().strip().split("\n")
        assert header == "n,s_total_bits,s_density"
        n, total, dens = row.split(",")
        assert float(total) / 500 == float(dens)
        out2 = tmp_path / "b.csv"
        assert run_cli(["--task", "de-block", "--variant", "1", "--delta", "-1",
                        "--mu", "-1.5", "--l", "6", "--n", "1024", "--basis",
                        "x", "--out", str(out2)]) == 0
        assert out2.read_text().startswith("l,basis,entropy_bits\n6,x,")

    def test_sweep_quantity(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["--task", "sweep", "--variant", "1", "--delta", "1",
                        "--param", "mu", "--start", "1.2", "--stop", "1.4",
                        "--step", "0.05", "--quantity", "s", "--n", "400",
                        "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "mu,s"
        assert len(lines) == 6

    def test_compare_columns(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli(["--task", "compare", "--variant", "1", "--delta", "1",
                        "--mu", "1.5", "--param", "delta", "--start", "0.5",
                        "--stop", "0.7", "--step", "0.1", "--channels", "s,E,nu",
                        "--n", "400", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "delta,s,E,nu"
        assert len(lines) == 4

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KITAEV_DE_THREADS", "2")
        out = tmp_path / "ge.csv"
        assert run_cli(["--task", "ge", "--variant", "1", "--mu", "2.0",
                        "--n", "1024", "--out", str(out)]) == 0
        side = json.loads((tmp_path / "ge.json").read_text())
        assert side["config"]["threads"] == 2


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # the child imports the same package as the tests, installed or not
        out = tmp_path / "w.csv"
        src = str(Path(kitaev_de.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "kitaev_de.cli", "--task", "winding",
             "--variant", "1", "--delta", "1", "--mu", "-0.5",
             "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert out.exists()
