"""Command-line front end: single evaluations, sweeps, fits and scans.

Every run writes one CSV (header row, ``%.17g`` floats, ``\\n`` line endings,
rows ordered by grid index) plus a JSON sidecar echoing the fully resolved
configuration (defaults materialised) and the library version, so re-running
a sidecar reproduces the CSV byte for byte.

Configuration is a flat JSON object; command-line flags override file values.
Exit codes: 1 for validation errors (the message names the offending field),
2 for numerical failures (the message names the library error).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .analysis import (comparative_scan, detect_critical_points,
                       fit_block_law, fit_volume_law, susceptibility,
                       sweep_block_coefficients, sweep_de_density,
                       sweep_global_entanglement)
from .entropy import (MAX_BLOCK, block_diagonal_entropy, de_density,
                      global_entanglement, pure_state_diagonal_entropy)
from .errors import KitaevDEError
from .gaussian import correlator_kernel
from .majorana import Side, zero_modes
from .model import ModelSpec, Variant
from .topology import trajectory, winding_number

TASKS = ("winding", "trajectory", "mzm", "de-pure", "de-block", "ge",
         "fit-volume", "fit-block", "sweep", "critical-scan", "compare")

DEFAULTS = {
    "task": None,
    "variant": 1,
    "j": 1.0,
    "delta": 1.0,
    "mu": 0.0,
    "alpha": "inf",
    "beta": None,
    "r": None,
    "n": None,            # task-specific default materialised below
    "samples": 4096,
    "l": 8,               # de-block block length
    "l_min": 4,
    "l_max": 14,
    "basis": "z",
    "param": "mu",        # sweep parameter
    "start": None,
    "stop": None,
    "step": 0.01,
    "kappa": 10.0,
    "tol": 1e-8,
    "quantity": "s",      # sweep quantity: s | E
    "channels": "s,a,b,c,E,nu",
    "sizes": "200:2000:200",   # fit-volume chain sizes start:stop:step
    "threads": 1,
    "out": "out.csv",
}

_TASK_N = {"winding": 4096, "trajectory": 4096, "mzm": 100, "de-pure": 2000,
           "de-block": 8192, "ge": 8192, "fit-volume": 2000, "fit-block": 8192,
           "sweep": 2000, "critical-scan": 2000, "compare": 2000}


class ValidationError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return format(float(x), ".17g")


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _sidecar(path: str, config: dict, extra: dict | None = None) -> None:
    doc = {"version": __version__, "config": _jsonable(config)}
    if extra:
        doc["results"] = _jsonable(extra)
    side = os.path.splitext(path)[0] + ".json"
    with open(side, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _parse_alpha(value, field):
    if value is None:
        return None
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        try:
            return float(value)
        except ValueError:
            raise ValidationError(f"field '{field}' must be a number or 'inf'")
    return float(value)


def resolve_config(file_values: dict, overrides: dict) -> dict:
    config = dict(DEFAULTS)
    for key in file_values:
        if key not in DEFAULTS:
            raise ValidationError(f"unknown config field '{key}'")
    config.update(file_values)
    for key, val in overrides.items():
        if val is not None:
            config[key] = val
    if config["task"] not in TASKS:
        raise ValidationError(f"field 'task' must be one of {TASKS}, "
                              f"got {config['task']!r}")
    if config["n"] is None:
        config["n"] = _TASK_N[config["task"]]
    config["alpha"] = _parse_alpha(config["alpha"], "alpha")
    config["beta"] = _parse_alpha(config["beta"], "beta")
    if int(config["variant"]) not in (1, 2):
        raise ValidationError("field 'variant' must be 1 or 2")
    if int(config["variant"]) == 2:
        if config["r"] is None:
            raise ValidationError("field 'r' is required for variant 2")
        if config["beta"] is None:
            raise ValidationError("field 'beta' is required for variant 2")
    for field in ("n", "samples", "l", "l_min", "l_max", "threads"):
        config[field] = int(config[field])
    for field, lo in (("l", 1), ("l_min", 1), ("l_max", config["l_min"])):
        if not lo <= config[field] <= MAX_BLOCK:
            raise ValidationError(f"field '{field}' must be in {lo}..{MAX_BLOCK}, "
                                  f"got {config[field]}")
    if config["basis"] not in ("z", "x"):
        raise ValidationError("field 'basis' must be 'z' or 'x'")
    return config


def _spec(config: dict) -> ModelSpec:
    if int(config["variant"]) == 1:
        return ModelSpec(Variant.LONG_RANGE_PAIRING, j=float(config["j"]),
                         delta=float(config["delta"]), mu=float(config["mu"]),
                         alpha=config["alpha"])
    return ModelSpec(Variant.LONG_RANGE_PAIRING_HOPPING, j=float(config["j"]),
                     delta=float(config["delta"]), mu=float(config["mu"]),
                     alpha=config["alpha"], beta=config["beta"],
                     r=int(config["r"]))


def _grid(config: dict) -> np.ndarray:
    if config["start"] is None or config["stop"] is None:
        raise ValidationError("fields 'start' and 'stop' are required for sweeps")
    return np.arange(float(config["start"]),
                     float(config["stop"]) + 1e-12, float(config["step"]))


def _lengths(config: dict) -> list[int]:
    return list(range(config["l_min"], config["l_max"] + 1))


def run_task(config: dict) -> dict:
    """Execute one resolved configuration; returns sidecar results."""
    spec = _spec(config)
    out = config["out"]
    task = config["task"]
    results: dict = {}

    if task == "winding":
        res = winding_number(spec, samples=config["samples"])
        write_csv(out, ["nu_raw", "nu", "gapped", "min_gap"],
                  [[res.nu_raw, res.nu, res.gapped, res.min_gap]])
        results = {"nu": res.nu, "nu_raw": res.nu_raw, "min_gap": res.min_gap}
    elif task == "trajectory":
        tr = trajectory(spec, samples=config["samples"])
        write_csv(out, ["k", "h_y", "h_z", "gapless"],
                  zip(tr.k, tr.hy, tr.hz, tr.gapless))
    elif task == "mzm":
        modes = zero_modes(spec, config["n"], tol=float(config["tol"]))
        header = ["site"]
        cols = []
        for i, mode in enumerate(modes):
            side = "left" if mode.side is Side.LEFT else "right"
            header.append(f"p_{side}_{i // 2 + 1}")
            cols.append(mode.probability)
        rows = [[j + 1, *(c[j] for c in cols)] for j in range(config["n"])]
        write_csv(out, header, rows)
        results = {"pairs": len(modes) // 2,
                   "singular_values": [m.singular_value for m in modes]}
    elif task == "de-pure":
        rep = pure_state_diagonal_entropy(spec, config["n"])
        write_csv(out, ["n", "s_total_bits", "s_density"],
                  [[config["n"], rep.value, rep.value / config["n"]]])
        results = {"entropy_bits": rep.value}
    elif task == "de-block":
        kernel = correlator_kernel(spec, n=config["n"], l_max=config["l"])
        rep = block_diagonal_entropy(kernel, config["l"], config["basis"])
        write_csv(out, ["l", "basis", "entropy_bits"],
                  [[config["l"], config["basis"], rep.value]])
        results = {"entropy_bits": rep.value}
    elif task == "ge":
        e = global_entanglement(spec, config["n"])
        write_csv(out, ["ge"], [[e]])
        results = {"ge": e}
    elif task == "fit-volume":
        lo, hi, st = (int(x) for x in str(config["sizes"]).split(":"))
        sizes = list(range(lo, hi + 1, st))
        values = [pure_state_diagonal_entropy(spec, n).value for n in sizes]
        fit = fit_volume_law(sizes, values)
        write_csv(out, ["n", "entropy_bits"], zip(sizes, values))
        results = {"s": fit.params[0], "residual_rms": fit.residual_rms}
    elif task == "fit-block":
        lengths = _lengths(config)
        kernel = correlator_kernel(spec, n=config["n"], l_max=max(lengths))
        values = [block_diagonal_entropy(kernel, l, config["basis"]).value
                  for l in lengths]
        fit = fit_block_law(lengths, values)
        write_csv(out, ["l", "entropy_bits"], zip(lengths, values))
        results = {"a": fit.params[0], "b": fit.params[1], "c": fit.params[2],
                   "residual_rms": fit.residual_rms}
    elif task == "sweep":
        grid = _grid(config)
        name = config["param"]
        if config["quantity"] == "s":
            vals = sweep_de_density(spec, name, grid, config["n"])
        elif config["quantity"] == "E":
            vals = sweep_global_entanglement(spec, name, grid)
        else:
            raise ValidationError("field 'quantity' must be 's' or 'E'")
        write_csv(out, [name, config["quantity"]], zip(grid, vals))
    elif task == "critical-scan":
        grid = _grid(config)
        name = config["param"]
        vals = sweep_de_density(spec, name, grid, config["n"])
        curve = susceptibility(name, grid, vals)
        report = detect_critical_points(curve, kappa=float(config["kappa"]),
                                        channel="chi_s")
        chi = np.full(grid.size, np.nan)
        chi[1:-1] = curve.chi
        flagged = np.zeros(grid.size, dtype=bool)
        for pt in report.points:
            flagged |= np.abs(grid - pt.location) <= 0.51 * float(config["step"])
        write_csv(out, [name, "s", "chi_s", "flagged"],
                  zip(grid, vals, chi, flagged))
        results = {"critical_points": [asdict(p) for p in report.points],
                   "threshold": report.threshold}
    elif task == "compare":
        grid = _grid(config)
        channels = [c.strip() for c in str(config["channels"]).split(",") if c.strip()]
        table = comparative_scan(spec, config["param"], grid,
                                 channels=channels, basis=config["basis"],
                                 lengths=_lengths(config),
                                 n_density=config["n"],
                                 threads=config["threads"])
        header = [config["param"]] + [c for c in channels if c in table]
        write_csv(out, header, zip(*(table[h] for h in header)))
    return results


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kitaev-de",
        description="Diagonal-entropy analysis of extended Kitaev chains")
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--config", help="flat JSON config file")
    p.add_argument("--out", help="output CSV path (JSON sidecar next to it)")
    p.add_argument("--threads", type=int,
                   default=None, help="sweep parallelism; falls back to "
                   "KITAEV_DE_THREADS, then 1")
    p.add_argument("--variant", type=int, choices=(1, 2))
    p.add_argument("--mu", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--j", type=float)
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--r", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--l-min", dest="l_min", type=int)
    p.add_argument("--l-max", dest="l_max", type=int)
    p.add_argument("--basis", choices=("z", "x"))
    p.add_argument("--param", choices=("mu", "delta", "j", "alpha", "beta"))
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--step", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--quantity", choices=("s", "E"))
    p.add_argument("--channels")
    p.add_argument("--sizes")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k != "config"}
    if overrides.get("threads") is None:
        env = os.environ.get("KITAEV_DE_THREADS")
        if env is not None:
            try:
                overrides["threads"] = int(env)
            except ValueError:
                print("error: field 'threads' (KITAEV_DE_THREADS) must be an "
                      "integer", file=sys.stderr)
                return 1
    file_values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: field 'config': {exc}", file=sys.stderr)
            return 1
    try:
        config = resolve_config(file_values, overrides)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        results = run_task(config)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KitaevDEError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    _sidecar(config["out"], config, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
