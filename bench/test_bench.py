"""Tests of the benchmark's own code: ``python3 -m pytest bench``."""
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
from run import WORKLOAD_NAMES, op_seconds  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(workload, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_self_time_of_synthetic_tree():
    spans = [
        tracing.Span("root", 0.0, 10.0),
        tracing.Span("a", 1.0, 3.0, parent=0),
        tracing.Span("b", 2.0, 5.0, parent=0),     # overlaps a (pool threads)
        tracing.Span("c", 8.0, 12.0, parent=0),    # clipped to the root's end
        tracing.Span("a1", 1.5, 2.5, parent=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_op_seconds_sums_each_steps_fastest_run():
    steps = {"a": [3.0, 1.0, 2.0], "b": [0.5, 0.25], "c": [4.0]}
    layout = {"a": 1, "b": 2, "c": 1}
    assert op_seconds(steps, layout, units=2.0) == pytest.approx((1.0 + 0.5 + 4.0) / 2.0)


def test_wrappers_nest_and_uninstall():
    import kitaev_de as kd
    from kitaev_de import analysis, gaussian, model
    originals = (kd.block_coefficients, analysis.correlator_kernel,
                 gaussian.grid_numerators)
    tracer = tracing.Tracer()
    tracer.install([kd, analysis, gaussian, model])
    try:
        kd.block_coefficients(kd.ModelSpec.pairing(mu=0.5), lengths=range(2, 8), n=256)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names[:3] == ["analysis.block_coefficients", "gaussian.correlator_kernel",
                         "model.grid_numerators"]
    assert [s.parent for s in tracer.spans[:3]] == [None, 0, 1]
    assert (kd.block_coefficients, analysis.correlator_kernel,
            gaussian.grid_numerators) == originals


def test_benchmark_json_is_well_formed():
    doc = spec()
    assert doc["paths"] == ["bench"] and 1 <= doc["run_seconds"] <= 60
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOAD_NAMES)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_has_no_failures(workload):
    result = run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == listed
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    result = run("density-scan", trace=1)
    assert result["correct"] and result["failed"] == 0
    listed = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == listed
    assert all(NAME.match(k) for k in result["metrics"])
