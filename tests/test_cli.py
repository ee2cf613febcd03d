"""Command-line interface: validation, outputs, determinism, exit codes."""
import glob
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kitaev_de
from kitaev_de import cli, majorana
from kitaev_de.cli import (DEFAULTS, MAX_GRID_POINTS, _grid, _spec, main,
                           resolve_config, write_csv)

from test_acceptance import gap_closing_mus

CONFIGS = sorted(glob.glob(str(Path(__file__).parent.parent / "configs" / "*.json")))

# Each config's CSV as checked in.  To regenerate one, run its config through
# the CLI (python -m kitaev_de.cli --config configs/<name>.json --out <file>)
# and copy the CSV here, keeping a trajectory's header and every 16th row.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_STRIDE = {"trajectory": 16}  # task -> data rows per golden row
EXACT_COLUMNS = {"l", "n", "site", "nu", "flagged", "gapless"}  # integers, flags
ABSOLUTE_COLUMNS = {"p_left", "p_right"}  # mzm profiles: absolute bound
GOLDEN_TOL = 1e-12  # relative, absolute for ABSOLUTE_COLUMNS


def run_cli(args):
    return main(list(args))


def _no_work(*args, **kwargs):
    raise AssertionError("reached work the checks should have prevented")


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

    @pytest.mark.parametrize("flags,message", [
        (["--task", "winding", "--mu", "nan"], "mu must be finite"),
        (["--task", "winding", "--mu", "inf"], "mu must be finite"),
        (["--task", "compare", "--start", "0", "--stop", "1", "--step", "0"],
         "'step'"),
        (["--task", "fit-volume", "--sizes", "200:abc:2"], "'sizes'"),
        (["--task", "mzm", "--variant", "2", "--r", "3", "--beta", "0",
          "--alpha", "0", "--n", "6"], "'n'"),
        (["--task", "compare", "--start", "nan", "--stop", "1"], "'start'"),
        (["--task", "compare", "--start", "0", "--stop", "inf"], "'stop'"),
        (["--task", "compare", "--start", "0", "--stop", "1", "--step", "1e-300"],
         "'step'"),
        (["--task", "compare", "--param", "alpha", "--start", "-1", "--stop", "1"],
         "'alpha'"),
        (["--task", "ge", "--n", "7"], "'n'"),
        (["--task", "de-block", "--l", "8", "--n", "32"], "'n'"),
        (["--task", "winding", "--n", "10"], "'n'"),
        (["--task", "compare", "--start", "0", "--stop", "1", "--channels",
          "foo,S"], "'channels'"),
        (["--task", "compare", "--start", "0", "--stop", "1", "--channels",
          "s,s"], "'channels'"),
        (["--task", "ge", "--n", "1.5"], "'n'"),
        (["--task", "winding", "--variant", "3"], "'variant'"),
        (["--task", "de-block", "--basis", "y"], "'basis'"),
        (["--task", "compare", "--param", "foo", "--start", "0", "--stop", "1"],
         "'param'"),
        (["--task", "compare", "--quantity", "E", "--start", "0", "--stop", "1"],
         "'--quantity'"),
        (["--task", "winding", "--n", "abc"], "'n'"),
        (["--task", "winding", "--bogus", "1"], "'--bogus'"),
        (["--task", "winding", "--mu", "--j", "1"], "'mu'"),
        (["--task=winding", "--mu="], "'mu'"),
        (["--task", "trajectory", "--n", "257"], "'n'"),
        (["--task", "compare", "--start", "1", "--stop", "0"], "'stop'"),
        (["--task", "critical-scan", "--start", "0", "--stop", "1", "--step",
          "0.1", "--kappa", "0"], "'kappa'"),
        (["--task", "critical-scan", "--start", "0", "--stop", "1", "--step",
          "0.1", "--kappa", "nan"], "'kappa'"),
        (["--task", "mzm", "--n", "20", "--tol", "-1"], "'tol'"),
        (["--task", "mzm", "--n", "20", "--tol", "inf"], "'tol'"),
        (["--task", "mzm", "--n", "20", "--tol", "1"], "'tol'"),
        (["--task", "mzm", "--n", "20", "--mu", "3", "--tol", "11"], "'tol'"),
        (["--task", "mzm", "--n", "20", "--mu", "3", "--tol", "100"], "'tol'")])
    def test_bad_value_names_field(self, tmp_path, capsys, flags, message):
        code = run_cli([*flags, "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags,ring", [
        (["--task", "de-pure", "--n", "4", "--r", "4"], 4),
        (["--task", "ge", "--n", "8", "--r", "9"], 8),
        (["--task", "winding", "--n", "256", "--r", "300"], 256),
        (["--task", "trajectory", "--n", "256", "--r", "256"], 256),
        (["--task", "fit-volume", "--sizes", "60:0:-20", "--r", "20"], 20),
        (["--task", "critical-scan", "--n", "10", "--r", "10", "--start", "-3",
          "--stop", "-2"], 10),
        (["--task", "compare", "--n", "8000", "--r", "5000", "--start", "-3",
          "--stop", "-2.9", "--step", "0.1"], 4096),
        (["--task", "mzm", "--n", "9002", "--r", "4500", "--alpha", "0.2"], 4096)])
    def test_range_beyond_closed_chain_names_r(self, tmp_path, capsys, flags, ring):
        # a range r >= n has ring distance min(l, n - l) = 0 on the closed chain
        code = run_cli([*flags, "--variant", "2", "--beta", "0.2", "--mu", "-3",
                        "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "'r'" in err and f"below the {ring} sites" in err

    @pytest.mark.parametrize("flags,field", [
        (["--task", "winding", "--variant", "1", "--r", "3"], "'r'"),
        (["--task", "winding", "--variant", "1", "--beta", "0.2"], "'beta'"),
        (["--task", "winding", "--variant", "2"], "'beta'")])
    def test_model_fields_checked_by_model(self, tmp_path, capsys, flags, field):
        assert run_cli([*flags, "--out", str(tmp_path / "o.csv")]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--task", "compare", "--channels", "E", "--n", "100", "--variant", "2",
         "--r", "200", "--beta", "0.2", "--start", "0", "--stop", "0.1",
         "--step", "0.1"],
        ["--task", "compare", "--channels", "E", "--n", "7", "--start", "0",
         "--stop", "0.1", "--step", "0.1"],
        ["--task", "fit-volume", "--n", "7", "--sizes", "20:60:20"],
        ["--task", "mzm", "--n", "1"]])
    def test_unbuilt_grid_not_checked(self, tmp_path, flags):
        # n (and the ring r must fit) is checked by the chain that is built;
        # these tasks build none of that length
        assert run_cli([*flags, "--out", str(tmp_path / "o.csv")]) == 0

    @pytest.mark.parametrize("task", ["ge", "de-pure", "winding", "mzm"])
    @pytest.mark.parametrize("n", ["1e300", str(MAX_GRID_POINTS + 2)])
    def test_huge_n_rejected_before_work(self, tmp_path, capsys, monkeypatch,
                                         task, n):
        monkeypatch.setattr(cli, "run_task", _no_work)
        code = run_cli(["--task", task, "--n", n, "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "'n'" in capsys.readouterr().err

    def test_huge_size_rejected_before_work(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_task", _no_work)
        sizes = f"2:{MAX_GRID_POINTS + 2}:{MAX_GRID_POINTS}"
        code = run_cli(["--task", "fit-volume", "--sizes", sizes,
                        "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "'sizes'" in capsys.readouterr().err

    def test_long_open_chain_rejected_before_eigensolve(self, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.setattr(majorana, "build_coupling", _no_work)
        code = run_cli(["--task", "mzm", "--n", str(majorana.MAX_OPEN_SITES + 1),
                        "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "'n'" in capsys.readouterr().err

    def test_integer_beyond_float_range_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"task": "ge", "n": 10**400,
                                   "out": str(tmp_path / "o.csv")}))
        assert run_cli(["--config", str(cfg)]) == 1
        assert "'n'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--task", "de-pure", "--n", "4", "--r", "3"],
        ["--task", "winding", "--n", "256", "--r", "255"]])
    def test_longest_range_on_closed_chain(self, tmp_path, flags):
        code = run_cli([*flags, "--variant", "2", "--beta", "0.2", "--mu", "-3",
                        "--out", str(tmp_path / "o.csv")])
        assert code == 0

    @pytest.mark.parametrize("flags", [
        ["--task", "winding", "--mu", "-1e-3"],
        ["--task", "compare", "--start", "-2e-1", "--stop", "0"],
        ["--task", "winding", "--n", "1e3"]])
    def test_flags_read_like_config(self, tmp_path, flags):
        # a flag value is the config value of the same string
        values = dict(zip((f[2:] for f in flags[::2]), flags[1::2]))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(values))
        sides = []
        for name, argv in (("f", flags), ("c", ["--config", str(cfg)])):
            assert run_cli([*argv, "--out", str(tmp_path / f"{name}.csv")]) == 0
            sides.append(json.loads((tmp_path / f"{name}.json").read_text())["config"])
            del sides[-1]["out"]
        assert sides[0] == sides[1]
        assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()

    @pytest.mark.parametrize("values,field", [
        ({"task": "ge", "n": "abc"}, "'n'"),
        ({"task": "compare", "start": 0, "stop": 1, "step": "x"}, "'step'"),
        ({"task": "critical-scan", "start": 0, "stop": 1, "kappa": "x"},
         "'kappa'"),
        ({"task": "ge", "mu": "abc"}, "'mu'"),
        ({"task": "ge", "n": True}, "'n'"),
        ({"task": "ge", "n": 2.5}, "'n'"),
        ({"task": "ge", "alpha": [1]}, "'alpha'"),
        ({"task": "ge", "j": None}, "'j'"),
        ({"task": "compare", "start": 0, "stop": 1, "param": "x"}, "'param'"),
        ({"task": "ge", "out": 5}, "'out'"),
        # a field and a task the CLI no longer has
        ({"task": "compare", "start": 0, "stop": 1, "quantity": "E"}, "'quantity'"),
        ({"task": "sweep", "start": 0, "stop": 1}, "'task'")])
    def test_bad_config_value_names_field(self, tmp_path, capsys, values, field):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "o.csv"), **values}))
        assert run_cli(["--config", str(cfg)]) == 1
        assert field in capsys.readouterr().err

    def test_config_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("[1, 2]")
        assert run_cli(["--config", str(cfg)]) == 1
        assert "'config'" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [b"\xff\xfe{}", b"{", b"[" * 100000],
                             ids=["not-utf8", "truncated", "too-deep"])
    def test_unreadable_config_names_field(self, tmp_path, capsys, data):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(data)
        assert run_cli(["--config", str(cfg)]) == 1
        assert "'config'" in capsys.readouterr().err

    def test_unwritable_out_names_field(self, tmp_path, capsys):
        out = tmp_path / "missing" / "o.csv"
        assert run_cli(["--task", "winding", "--out", str(out)]) == 1
        assert "'out'" in capsys.readouterr().err

    def test_numerical_failure_exit_2(self, tmp_path, capsys):
        # spec whose gap closes exactly on a sampled momentum
        from conftest import grid_gapless_spec
        spec = grid_gapless_spec(4096)
        code = run_cli(["--task", "winding", "--variant", "1", "--delta", "0",
                        "--mu", repr(spec.mu), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "GaplessSpecError" in capsys.readouterr().err


    @pytest.mark.parametrize("flags", [
        ["--task", "winding", "--delta", "1e308", "--alpha", "0"],
        ["--task", "winding", "--mu", "1e308", "--j", "1e308"],
        ["--task", "de-block", "--mu", "1e308", "--j", "1e308"],
        ["--task", "de-pure", "--mu", "1e308", "--j", "1e308"],
        ["--task", "ge", "--mu", "1e308", "--j", "1e308"],
        ["--task", "fit-block", "--basis", "x", "--mu", "1e308", "--j", "1e308"],
        ["--task", "mzm", "--n", "20", "--mu", "1e308", "--j", "1e308"],
        ["--task", "mzm", "--n", "20", "--variant", "2", "--r", "1", "--alpha",
         "inf", "--beta", "inf", "--j", "1e308", "--delta=-1e308"],
    ])
    def test_overflowing_couplings_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "o.csv"
        assert run_cli(flags + ["--out", str(out)]) == 2
        assert "SpectrumOverflowError" in capsys.readouterr().err
        assert not out.exists()


class TestGrid:
    @pytest.mark.parametrize("start,stop,step,count", [
        (-2.0, 0.5, 0.01, 251), (-1.5, 1.5, 0.01, 301), (-0.6, -0.2, 0.01, 41),
        (1.2, 1.4, 0.05, 5), (0.0, 1e5, 0.1, 1000001), (0.0, 0.95, 0.1, 10),
        (0.3, 0.3, 0.1, 1)])
    def test_point_count_keeps_stop(self, start, stop, step, count):
        grid = _grid({"start": start, "stop": stop, "step": step})
        assert grid.size == count
        assert grid[0] == start
        assert grid[-1] <= stop + 1e-9 * step * count
        assert np.allclose(np.diff(grid), step)

    @pytest.mark.parametrize("name,count", [("critical_scan_j-0.8", 251),
                                            ("ge_sweep_mu0", 301)])
    def test_checked_in_scans(self, name, count):
        path = Path(__file__).parent.parent / "configs" / f"{name}.json"
        config = resolve_config(json.loads(path.read_text()), {})
        assert _grid(config).size == count


class TestOutputs:
    def test_winding_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "w.csv"
        code = run_cli(["--task", "winding", "--variant", "1", "--delta", "-1",
                        "--mu", "-1.5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "nu,min_gap"
        side = json.loads((tmp_path / "w.json").read_text())
        assert sorted(side["results"]) == ["min_gap", "nu"]
        assert lines[1] == "0,%.17g" % side["results"]["min_gap"]
        assert side["results"]["nu"] == 0.0
        assert side["version"]
        assert side["config"]["task"] == "winding"
        assert side["config"]["alpha"] == "inf"  # defaults materialised

    def test_unread_non_finite_fields_rerun(self, tmp_path):
        # tol and kappa are checked only by the tasks that read them; the
        # sidecar stays standard JSON and its config reruns
        def strict(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        out = tmp_path / "w.csv"
        assert run_cli(["--task", "winding", "--tol", "nan", "--kappa", "-inf",
                        "--out", str(out)]) == 0
        side = json.loads((tmp_path / "w.json").read_text(), parse_constant=strict)
        assert (side["config"]["tol"], side["config"]["kappa"]) == ("nan", "-inf")
        rerun = tmp_path / "r.json"
        rerun.write_text(json.dumps(side["config"]))
        assert run_cli(["--config", str(rerun), "--out", str(tmp_path / "r.csv")]) == 0
        assert out.read_bytes() == (tmp_path / "r.csv").read_bytes()

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

    def test_gapless_grid_point_flagged(self, tmp_path):
        # at n = 2002 the grid hits k = pi/2, where Delta = 0 closes the gap:
        # s is NaN there, and that point is reported with a finite threshold
        out = tmp_path / "scan.csv"
        code = run_cli(["--task", "critical-scan", "--variant", "1", "--mu", "0",
                        "--param", "delta", "--start", "-1", "--stop", "1",
                        "--step", "0.01", "--n", "2002", "--out", str(out)])
        assert code == 0
        results = json.loads((tmp_path / "scan.json").read_text())["results"]
        assert math.isfinite(results["threshold"])
        assert results["critical_points"] == [
            {"channel": "chi_s", "jump": "inf", "location": 0.0}]
        assert out.read_text().split("\n")[101] == "0,nan,0,1"

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
                        "--n", "256", "--mu", "-1.5", "--delta", "-1",
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
        assert lines[0] == "site,p_left,p_right"
        assert len(lines) == 61

    def test_mzm_sides_match_null_projector(self, tmp_path):
        # each side's column is the diagonal of the projector onto that side's
        # null space of K, taken here from an independent SVD
        path = next(p for p in CONFIGS if Path(p).stem == "mzm_three_pairs")
        out = tmp_path / "mzm.csv"
        assert run_cli(["--config", path, "--out", str(out)]) == 0
        config = json.loads(out.with_suffix(".json").read_text())["config"]
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        u, s, vt = np.linalg.svd(kitaev_de.build_coupling(_spec(config), config["n"]))
        null = s < config["tol"] * s.max()
        assert null.sum() == 3
        np.testing.assert_allclose(table[:, 1], (u[:, null] ** 2).sum(axis=1),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(table[:, 2], (vt[null] ** 2).sum(axis=0),
                                   rtol=0, atol=1e-12)

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

    def test_compare_s_uses_n(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["--task", "compare", "--variant", "1", "--delta", "1",
                        "--param", "mu", "--start", "1.2", "--stop", "1.4",
                        "--step", "0.05", "--channels", "s", "--n", "400",
                        "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "mu,s"
        assert len(lines) == 6
        grid = _grid({"start": 1.2, "stop": 1.4, "step": 0.05})
        want = kitaev_de.sweep_de_density(kitaev_de.ModelSpec.pairing(), "mu", grid, 400)
        assert [float(r.split(",")[1]) for r in lines[1:]] == want.tolist()

    def test_compare_e_ignores_n(self, tmp_path):
        # E runs on the 8192-point kernel grid whatever n is
        args = ["--task", "compare", "--channels", "E", "--variant", "1", "--mu",
                "0.5", "--param", "delta", "--start", "0.5", "--stop", "0.7",
                "--step", "0.1"]
        assert run_cli(args + ["--n", "40", "--out", str(tmp_path / "a.csv")]) == 0
        assert run_cli(args + ["--out", str(tmp_path / "b.csv")]) == 0
        spec = kitaev_de.ModelSpec.pairing(mu=0.5)
        want = kitaev_de.sweep_global_entanglement(spec, "delta", [0.5, 0.6, 0.7], 8192)
        for name, n in (("a", 40), ("b", 2000)):
            side = json.loads((tmp_path / f"{name}.json").read_text())
            assert side["config"]["n"] == n
            rows = (tmp_path / f"{name}.csv").read_text().strip().split("\n")[1:]
            assert [float(r.split(",")[1]) for r in rows] == want.tolist()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_winding_uses_n(self, tmp_path):
        spec = kitaev_de.ModelSpec.pairing(mu=-0.5)
        gaps = []
        for n in (512, 4096):
            out = tmp_path / f"w{n}.csv"
            assert run_cli(["--task", "winding", "--variant", "1", "--mu", "-0.5",
                            "--n", str(n), "--out", str(out)]) == 0
            gaps.append(json.loads(out.with_suffix(".json").read_text())
                        ["results"]["min_gap"])
            assert gaps[-1] == kitaev_de.winding_number(spec, samples=n).min_gap
        assert gaps[0] != gaps[1]

    def test_compare_columns(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli(["--task", "compare", "--variant", "1", "--delta", "1",
                        "--mu", "1.5", "--param", "delta", "--start", "0.5",
                        "--stop", "0.7", "--step", "0.1", "--channels", "s,E,nu",
                        "--n", "400", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "delta,s,E,nu"
        assert len(lines) == 4


def golden_mismatches(text: str, golden: str, stride: int = 1) -> list[str]:
    """One line per column of the CSV ``text`` (every ``stride``-th data row)
    that differs from ``golden``, with its largest difference."""
    head, *rows = text.splitlines()
    golden_head, *golden_rows = golden.splitlines()
    rows = rows[::stride]
    if head != golden_head or len(rows) != len(golden_rows):
        return [f"shape: {head!r} with {len(rows)} rows, golden "
                f"{golden_head!r} with {len(golden_rows)}"]
    cells = zip(head.split(","), zip(*(r.split(",") for r in rows)),
                zip(*(r.split(",") for r in golden_rows)))
    bad = []
    for name, got, want in cells:
        if name in EXACT_COLUMNS:
            if got != want:
                bad.append(f"{name}: {sum(map(str.__ne__, got, want))} cells differ")
            continue
        got, want = np.array(got, dtype=float), np.array(want, dtype=float)
        with np.errstate(invalid="ignore"):
            err = np.abs(got - want)
        bound = GOLDEN_TOL * (1.0 if name in ABSOLUTE_COLUMNS else np.abs(want))
        ok = (err <= bound) | (got == want) | (np.isnan(got) & np.isnan(want))
        if not ok.all():
            bad.append(f"{name}: largest difference {err[~ok].max():.3e}")
    return bad


def test_golden_mismatches_name_each_column():
    golden = "l,s,p_left\n1,0.5,1e-13\n2,-0.25,0\n3,nan,0\n"
    assert golden_mismatches(golden, golden) == []
    near = "l,s,p_left\n1,0.50000000000000011,5e-13\n2,-0.25,-1e-12\n3,nan,0\n"
    assert golden_mismatches(near, golden) == []
    far = "l,s,p_left\n1,0.5000001,1e-13\n4,-0.25,0\n3,0.5,2e-12\n"
    assert golden_mismatches(far, golden) == [
        "l: 1 cells differ", "s: largest difference nan",
        "p_left: largest difference 2.000e-12"]
    rows = "l,s,p_left\n1,0.5,1e-13\n9,9,9\n2,-0.25,0\n9,9,9\n3,nan,0\n"
    assert golden_mismatches(rows, golden, stride=2) == []
    assert golden_mismatches(rows, golden)[0].startswith("shape:")


def _fmt(x) -> str:
    """Row-wise cell format the column writer must reproduce."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return format(float(x), ".17g")


class TestWriter:
    def test_columns_match_row_wise_format(self, tmp_path):
        floats = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
                           1.7976931348623157e308, 0.1, -1 / 3])
        columns = [np.arange(floats.size) % 2 == 0, np.arange(-3, floats.size - 3),
                   list("zxzxzxzxzx"), floats]
        out = tmp_path / "w.csv"
        write_csv(str(out), ["flag", "i", "basis", "x"], columns)
        want = "flag,i,basis,x\n" + "".join(
            ",".join(_fmt(x) for x in row) + "\n" for row in zip(*columns))
        assert out.read_text() == want
        assert want.splitlines()[2] == "0,-2,x,nan"

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(str(tmp_path / "w.csv"), ["a", "b"], [[1, 2], [1.0]])


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: Path(p).stem)
def test_checked_in_config(tmp_path, path):
    # exit 0, byte-identical reruns of the config and of its sidecar's
    # resolved config, the checked-in golden, and the results the datasets
    # exist for
    name = Path(path).stem
    outs = [tmp_path / f"{name}_{i}.csv" for i in (1, 2, 3)]
    for out in outs[:2]:
        assert run_cli(["--config", path, "--out", str(out)]) == 0
    side = json.loads(outs[0].with_suffix(".json").read_text())
    resolved = tmp_path / "resolved.json"
    resolved.write_text(json.dumps(side["config"]))
    assert run_cli(["--config", str(resolved), "--out", str(outs[2])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    results = side.get("results", {})
    config = resolve_config(json.loads(Path(path).read_text()), {})
    bad = golden_mismatches(outs[0].read_text(), (GOLDEN / f"{name}.csv").read_text(),
                            GOLDEN_STRIDE.get(config["task"], 1))
    assert not bad, "; ".join(bad)
    want_pairs = {"mzm_single_pair": 1, "mzm_three_pairs": 3}.get(name)
    if want_pairs is not None:
        assert results["pairs"] == want_pairs
    if config["task"] == "critical-scan":
        mus = gap_closing_mus(_spec(config))
        want = [m for m in mus if config["start"] <= m <= config["stop"]]
        locs = [p["location"] for p in results["critical_points"]]
        assert len(locs) == len(want) and want
        assert all(abs(l - w) <= 0.02 for l, w in zip(locs, want))
    if "residual_rms" in results:
        assert results["residual_rms"] < 1e-3


def _child_env():
    # the child imports the same package as the tests, installed or not
    src = str(Path(kitaev_de.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _run_module(*args):
    return subprocess.run([sys.executable, "-m", "kitaev_de.cli", *args],
                          capture_output=True, text=True, env=_child_env())


def test_import_loads_no_scipy():
    # the library, the CLI and the ED oracle's solve run on numpy alone
    code = ("import sys, kitaev_de, kitaev_de.cli, kitaev_de.oracle as o; "
            "o.ed_ground_state(kitaev_de.ModelSpec.pairing(mu=-2.0), 6); "
            "print(sorted(m for m in "
            "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_child_env(), check=True)
    assert out.stdout.strip() == "[]"


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "w.csv"
        proc = _run_module("--task", "winding", "--variant", "1", "--delta", "1",
                           "--mu", "-0.5", "--out", str(out))
        assert proc.returncode == 0
        assert out.exists()

    def test_help_lists_fields(self):
        proc = _run_module("--help")
        assert proc.returncode == 0
        listed = set(re.findall(r"^\s+(--[\w-]+)", proc.stdout, re.M))
        assert listed == {"--config"} | {"--" + f.replace("_", "-") for f in DEFAULTS}
        assert {"--l-min", "--l-max"} <= listed

    def test_flag_without_value(self):
        proc = _run_module("--task", "winding", "--mu")
        assert proc.returncode == 1
        assert "'mu'" in proc.stderr


_FIELD_NAMED = re.compile(r"'(\w+)'")
_JUNK = st.sampled_from(["nan", "inf", "-inf", "abc", "", "1e999", "1e-300",
                         "-1", "0", "3.5"])
_REAL = st.one_of(st.floats(-3.0, 3.0), st.floats(-1.8e308, 1.8e308),
                  st.sampled_from([0.0, 1e300, -1e300, 1e308, -1.7976931348623157e308,
                                   5e-324, -2.2e-308]))
_SMALL_INT = st.integers(-4, 600)
# field -> values that are valid, out of range, non-finite or not numbers;
# valid draws stay small enough that every run takes milliseconds
_FUZZ_FIELDS = {
    "variant": st.one_of(st.integers(0, 3), _JUNK),
    "j": st.one_of(_REAL, _JUNK), "delta": st.one_of(_REAL, _JUNK),
    "mu": st.one_of(_REAL, _JUNK), "alpha": st.one_of(_REAL, _JUNK),
    "beta": st.one_of(_REAL, _JUNK), "r": st.one_of(st.integers(-2, 12), _JUNK),
    "n": st.one_of(_SMALL_INT, _JUNK),
    "l": st.one_of(st.integers(-2, 20), _JUNK),
    "l_min": st.one_of(st.integers(-2, 20), _JUNK),
    "l_max": st.one_of(st.integers(-2, 20), _JUNK),
    "basis": st.sampled_from(["z", "x", "y"]),
    "param": st.sampled_from(["mu", "delta", "j", "alpha", "beta", "r"]),
    "start": st.one_of(_REAL, _JUNK), "stop": st.one_of(_REAL, _JUNK),
    "step": st.one_of(st.sampled_from([0.5, 1.0, 0.0, -0.5, 1e-300, 1e300]), _JUNK),
    "tol": st.one_of(st.sampled_from([1e-8, 0.0, -1.0]), _JUNK),
    "kappa": st.one_of(st.sampled_from([10.0, 0.0, -1.0]), _JUNK),
    "channels": st.sampled_from(["s,nu", "E", "a,b,c", "", "s,q", " nu , s "]),
    "sizes": st.sampled_from(["20:60:20", "40:20:-10", "2:2:1", "20:60:0",
                              "3:9:2", "a:b:c", "20:60", ""]),
}
_GRID_TASKS = ("critical-scan", "compare")


class TestFuzz:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(task=st.sampled_from(["winding", "trajectory", "mzm", "de-pure",
                                 "de-block", "ge", "fit-volume", "fit-block",
                                 "critical-scan", "compare"]),
           values=st.lists(st.sampled_from(sorted(_FUZZ_FIELDS)), max_size=6,
                           unique=True).flatmap(lambda keys: st.fixed_dictionaries(
                               {k: _FUZZ_FIELDS[k] for k in keys})),
           as_flags=st.booleans(), retype=st.integers(-1, 5),
           extra=st.sampled_from([None, True, [1], {"a": 1}]))
    def test_exit_code_contract(self, tmp_path, capsys, task, values, as_flags,
                                retype, extra):
        # every input exits 0, 1 (naming a field) or 2 (naming the library
        # error); an uncaught exception, SystemExit included, fails here
        out = str(tmp_path / "o.csv")
        if task in _GRID_TASKS:  # 13 points: enough for critical-scan's chi
            values = {"start": -3.0, "stop": 3.0, "step": 0.5, **values}
        if task == "mzm":  # a small chain keeps the eigensolve cheap
            values = {"n": 20, **values}
        if task == "fit-volume":  # small chains keep the fit cheap
            values = {"sizes": "20:60:20", **values}
        if as_flags:
            argv = ["--task", task, "--out", out]
            for key, val in values.items():
                argv += ["--" + key.replace("_", "-"), str(val)]
        else:
            if values and retype >= 0:  # a JSON value of the wrong type
                values[sorted(values)[retype % len(values)]] = extra
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"task": task, "out": out, **values}))
            argv = ["--config", str(cfg)]
        code = run_cli(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), err
        if code == 1:
            named = set(_FIELD_NAMED.findall(err))
            assert named & (set(DEFAULTS) | {"config"}), err
