"""Command-line front end: single evaluations, sweeps, fits and scans.

Every run writes one CSV (header row, ``%.17g`` floats, ``\\n`` line endings,
rows ordered by grid index) plus a JSON sidecar echoing the fully resolved
configuration (defaults materialised) and the library version, so re-running
a sidecar reproduces the CSV byte for byte.  The sidecar is ``out`` with its
extension replaced by ``.json``, so ``out`` itself may not end in ``.json``.

Configuration is a flat JSON object. Flags ``--field value`` or
``--field=value`` (``--l-min`` for ``l_min``) override its fields and are read
as plain strings, checked exactly like config values. Exit codes: 1 for
validation errors (the message names the offending field or unknown flag;
a config or sidecar holding a field the CLI no longer has is unknown), 2 for
numerical failures (the message names the library error).

The CLI checks only what the library cannot name: the choices, the block
lengths, the sweep grid and the sizes of every grid.  Everything else --
the model's couplings, the length of each chain a task builds, the range r
on that chain -- the library checks where it is used, and its
:class:`~kitaev_de.errors.InvalidParameterError` exits 1 naming the field
of the argument it names.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .analysis import (CHANNELS, DEFAULT_BLOCK_RANGE, DEFAULT_KAPPA, SWEEPABLE,
                       block_coefficients, comparative_scan,
                       detect_critical_points, fit_volume_law, susceptibility)
from .entropy import (DEFAULT_N_DENSITY, MAX_BLOCK, block_diagonal_entropy,
                      global_entanglement, pure_state_diagonal_entropy)
from .errors import InvalidParameterError, KitaevDEError
from .gaussian import correlator_kernel
from .majorana import DEFAULT_TOL, Side, zero_modes
from .model import DEFAULT_GRID, ModelSpec, Variant
from .topology import DEFAULT_SAMPLES, trajectory, winding_number

TASKS = ("winding", "trajectory", "mzm", "de-pure", "de-block", "ge",
         "fit-volume", "fit-block", "critical-scan", "compare")

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
    "l": 8,               # de-block block length
    "l_min": DEFAULT_BLOCK_RANGE[0],
    "l_max": DEFAULT_BLOCK_RANGE[-1],
    "basis": "z",
    "param": "mu",        # sweep parameter
    "start": None,
    "stop": None,
    "step": 0.01,
    "kappa": DEFAULT_KAPPA,
    "tol": DEFAULT_TOL,
    "channels": ",".join(CHANNELS),
    "sizes": "200:2000:200",   # fit-volume chain sizes start:stop:step
    "out": "out.csv",
}

_TASK_N = {"winding": DEFAULT_SAMPLES, "trajectory": DEFAULT_SAMPLES, "mzm": 100,
           "de-pure": DEFAULT_N_DENSITY, "de-block": DEFAULT_GRID,
           "ge": DEFAULT_GRID, "fit-volume": DEFAULT_N_DENSITY,
           "fit-block": DEFAULT_GRID, "critical-scan": DEFAULT_N_DENSITY,
           "compare": DEFAULT_N_DENSITY}

_INT_FIELDS = ("variant", "r", "n", "l", "l_min", "l_max")
_FLOAT_FIELDS = ("j", "delta", "mu", "alpha", "beta", "start", "stop", "step",
                 "kappa", "tol")
_FINITE_FIELDS = ("start", "stop", "step")
_CHOICES = {"task": TASKS, "basis": ("z", "x"), "param": SWEEPABLE}
_SWEEP_TASKS = ("critical-scan", "compare")
_VARIANTS = {1: Variant.LONG_RANGE_PAIRING, 2: Variant.LONG_RANGE_PAIRING_HOPPING}
# library argument -> CLI field, where the names differ
_ARGUMENT_FIELDS = {"samples": "n"}
MAX_GRID_POINTS = 10**8


class ValidationError(Exception):
    pass


# cell format by numpy dtype kind: booleans 1/0, integers as given, floats
# %.17g (nan, inf, -0 included), strings unchanged
_CELL = {"b": lambda v: "1" if v else "0", "i": str, "u": str,
         "f": "%.17g".__mod__, "U": str}


def write_csv(path: str, header: list[str], columns) -> None:
    """One row per index of the equal-length ``columns``, each column
    formatted once by its dtype."""
    cells = [list(map(_CELL[col.dtype.kind], col.tolist()))
             for col in map(np.asarray, columns)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells, strict=True))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)  # "inf", "-inf" or "nan": JSON has no such numbers
    return obj


def _sidecar(path: str, config: dict, extra: dict | None = None) -> None:
    doc = {"version": __version__, "config": _jsonable(config)}
    if extra:
        doc["results"] = _jsonable(extra)
    side = os.path.splitext(path)[0] + ".json"
    with open(side, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _coerce(field: str, value, kind):
    """``value`` as ``kind`` (``int`` or ``float``).

    Accepts numbers and numeric strings (``"inf"`` included), and ``None``
    for fields whose default is ``None``; booleans, containers, other
    strings and integers beyond the float range raise a
    :class:`ValidationError` naming the field.
    """
    if value is None and DEFAULTS[field] is None:
        return None
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise TypeError
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"field '{field}' must be a number, "
                              f"got {value!r}") from None
    if kind is int:
        if not x.is_integer():
            raise ValidationError(f"field '{field}' must be an integer, got {value!r}")
        return int(x)
    return x


def resolve_config(file_values: dict, overrides: dict) -> dict:
    config = dict(DEFAULTS)
    for key in file_values:
        if key not in DEFAULTS:
            raise ValidationError(f"unknown config field '{key}'")
    config.update(file_values)
    config.update(overrides)
    for field, allowed in _CHOICES.items():
        if config[field] not in allowed:
            raise ValidationError(f"field '{field}' must be one of {allowed}, "
                                  f"got {config[field]!r}")
    for field in ("out", "channels", "sizes"):
        if not isinstance(config[field], str):
            raise ValidationError(f"field '{field}' must be a string, "
                                  f"got {config[field]!r}")
    if os.path.splitext(config["out"])[1].lower() == ".json":
        raise ValidationError("field 'out' must not end in .json, which names the "
                              f"sidecar and would overwrite the CSV, got {config['out']!r}")
    if config["n"] is None:
        config["n"] = _TASK_N[config["task"]]
    for field in _INT_FIELDS:
        config[field] = _coerce(field, config[field], int)
    for field in _FLOAT_FIELDS:
        config[field] = _coerce(field, config[field], float)
    for field in _FINITE_FIELDS:
        if config[field] is not None and not math.isfinite(config[field]):
            raise ValidationError(f"field '{field}' must be finite, got {config[field]}")
    if config["variant"] not in _VARIANTS:
        raise ValidationError("field 'variant' must be 1 or 2")
    for field, lo in (("l", 1), ("l_min", 1), ("l_max", config["l_min"])):
        if not lo <= config[field] <= MAX_BLOCK:
            raise ValidationError(f"field '{field}' must be in {lo}..{MAX_BLOCK}, "
                                  f"got {config[field]}")
    if not config["step"] > 0:
        raise ValidationError(f"field 'step' must be > 0, got {config['step']}")
    if not config["n"] <= MAX_GRID_POINTS:
        raise ValidationError(f"field 'n' must be <= {MAX_GRID_POINTS}, "
                              f"got {config['n']:.17g}")
    _sizes(config)
    _channels(config)
    _spec(config)
    if config["task"] in _SWEEP_TASKS:
        _grid(config)
    return config


def _spec(config: dict) -> ModelSpec:
    return ModelSpec(_VARIANTS[config["variant"]], j=config["j"],
                     delta=config["delta"], mu=config["mu"],
                     alpha=config["alpha"], beta=config["beta"], r=config["r"])


def _grid(config: dict) -> np.ndarray:
    """``start + step * i`` for every ``i`` that keeps the point at or below
    ``stop`` (to a relative 1e-9 of a step count, so ``stop`` itself is kept
    despite rounding)."""
    start, stop, step = config["start"], config["stop"], config["step"]
    if start is None or stop is None:
        raise ValidationError("fields 'start' and 'stop' are required for sweeps")
    if stop < start:
        raise ValidationError(f"field 'stop' must be >= start = {start}, got {stop}")
    steps = (stop - start) / step
    if not steps < MAX_GRID_POINTS:
        raise ValidationError(f"field 'step' gives more than {MAX_GRID_POINTS} "
                              f"points from start to stop, got {step}")
    count = math.floor(steps + 1e-9 * max(1.0, steps)) + 1
    return start + step * np.arange(count)


def _sizes(config: dict) -> list[int]:
    try:
        lo, hi, st = (int(x) for x in config["sizes"].split(":"))
        sizes = range(lo, hi + 1, st)
    except ValueError:  # also a zero step
        raise ValidationError("field 'sizes' must be three integers start:stop:step "
                              f"with a nonzero step, got {config['sizes']!r}") from None
    if any(n < 2 or n % 2 or n > MAX_GRID_POINTS for n in sizes):
        raise ValidationError("field 'sizes' must give even chain sizes from 2 "
                              f"to {MAX_GRID_POINTS}, got {config['sizes']!r}")
    return list(sizes)


def _channels(config: dict) -> list[str]:
    channels = [c.strip() for c in config["channels"].split(",") if c.strip()]
    if not set(channels) <= set(CHANNELS) or len(set(channels)) < len(channels):
        raise ValidationError(f"field 'channels' must list distinct names from "
                              f"{CHANNELS}, got {config['channels']!r}")
    return channels


def _lengths(config: dict) -> list[int]:
    return list(range(config["l_min"], config["l_max"] + 1))


def run_task(config: dict) -> dict:
    """Execute one resolved configuration; returns sidecar results."""
    spec = _spec(config)
    out = config["out"]
    task = config["task"]
    results: dict = {}

    if task == "winding":
        res = winding_number(spec, samples=config["n"])
        write_csv(out, ["nu", "min_gap"], [[res.nu], [res.min_gap]])
        results = {"nu": res.nu, "min_gap": res.min_gap}
    elif task == "trajectory":
        tr = trajectory(spec, samples=config["n"])
        write_csv(out, ["k", "h_y", "h_z", "gapless"],
                  [tr.k, tr.hy, tr.hz, tr.gapless])
    elif task == "mzm":
        modes = zero_modes(spec, config["n"], tol=config["tol"])
        # per side, the diagonal of the null-space projector: unlike each
        # mode's profile, it does not depend on the basis LAPACK returns
        p = {side: sum((m.probability for m in modes if m.side is side),
                       np.zeros(config["n"])) for side in Side}
        write_csv(out, ["site", "p_left", "p_right"],
                  [np.arange(1, config["n"] + 1), p[Side.LEFT], p[Side.RIGHT]])
        results = {"pairs": len(modes) // 2,
                   "singular_values": [m.singular_value for m in modes]}
    elif task == "de-pure":
        rep = pure_state_diagonal_entropy(spec, config["n"])
        write_csv(out, ["n", "s_total_bits", "s_density"],
                  [[config["n"]], [rep.value], [rep.value / config["n"]]])
        results = {"entropy_bits": rep.value}
    elif task == "de-block":
        kernel = correlator_kernel(spec, n=config["n"], l_max=config["l"])
        rep = block_diagonal_entropy(kernel, config["l"], config["basis"])
        write_csv(out, ["l", "basis", "entropy_bits"],
                  [[config["l"]], [config["basis"]], [rep.value]])
        results = {"entropy_bits": rep.value}
    elif task == "ge":
        e = global_entanglement(spec, config["n"])
        write_csv(out, ["ge"], [[e]])
        results = {"ge": e}
    elif task == "fit-volume":
        sizes = _sizes(config)
        values = [pure_state_diagonal_entropy(spec, n).value for n in sizes]
        fit = fit_volume_law(sizes, values)
        write_csv(out, ["n", "entropy_bits"], [sizes, values])
        results = {"s": fit.params[0], "residual_rms": fit.residual_rms}
    elif task == "fit-block":
        fit = block_coefficients(spec, config["basis"], _lengths(config),
                                 config["n"])
        write_csv(out, ["l", "entropy_bits"], list(zip(*fit.points)))
        results = {"a": fit.params[0], "b": fit.params[1], "c": fit.params[2],
                   "residual_rms": fit.residual_rms}
    elif task == "critical-scan":
        grid = _grid(config)
        name = config["param"]
        vals = comparative_scan(spec, name, grid, ["s"], n_density=config["n"])["s"]
        curve = susceptibility(name, grid, vals)
        report = detect_critical_points(curve, kappa=config["kappa"],
                                        channel="chi_s")
        chi = np.full(grid.size, np.nan)
        chi[1:-1] = curve.chi
        flagged = np.zeros(grid.size, dtype=bool)
        for pt in report.points:
            flagged |= np.abs(grid - pt.location) <= 0.51 * config["step"]
        write_csv(out, [name, "s", "chi_s", "flagged"],
                  [grid, vals, chi, flagged])
        results = {"critical_points": [asdict(p) for p in report.points],
                   "threshold": report.threshold}
    elif task == "compare":
        grid = _grid(config)
        channels = _channels(config)
        table = comparative_scan(spec, config["param"], grid,
                                 channels=channels, basis=config["basis"],
                                 lengths=_lengths(config),
                                 n_density=config["n"])
        header = [config["param"], *channels]
        write_csv(out, header, [table[h] for h in header])
    return results


# flag -> field: --config and every field, with "_" spelled "-"
_FLAGS = {"--" + f.replace("_", "-"): f for f in ("config", *DEFAULTS)}
_HELP = ("-h", "--help")


def parse_flags(argv) -> dict | None:
    """``{field: value}`` from ``--field value`` and ``--field=value``, each
    value the string given (:func:`resolve_config` checks it), or ``None``
    for ``-h``/``--help``. Names an unknown flag or a field without a value.
    """
    flags = {}
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg in _HELP:
            return None
        name, eq, value = arg.partition("=")
        field = _FLAGS.get(name)
        if field is None:
            raise ValidationError(f"unknown flag {name!r}")
        if not eq:
            if not args or args[0] in _HELP or args[0].partition("=")[0] in _FLAGS:
                raise ValidationError(f"field '{field}' needs a value")
            value = args.pop(0)
        flags[field] = value
    return flags


def _usage() -> str:
    rows = ""
    for flag, field in _FLAGS.items():
        value = DEFAULTS.get(field)  # None: no default, or set by the task
        rows += f"  {flag:<11} {'' if value is None else value}\n"
    return ("usage: kitaev-de [--config FILE] [--FIELD VALUE | --FIELD=VALUE] ...\n"
            "Flags override the JSON config file's fields and are checked like them.\n"
            f"tasks: {', '.join(TASKS)}\nflags and defaults:\n{rows}")


def _read_config(path: str) -> dict:
    try:
        with open(path) as fh:
            values = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # also not UTF-8, too deep
        raise ValidationError(f"field 'config': {type(exc).__name__}: {exc}") from None
    if not isinstance(values, dict):
        raise ValidationError("field 'config' must hold a JSON object")
    return values


def main(argv=None) -> int:
    try:
        flags = parse_flags(sys.argv[1:] if argv is None else argv)
        if flags is None:
            print(_usage(), end="")
            return 0
        path = flags.pop("config", None)
        config = resolve_config({} if path is None else _read_config(path), flags)
        results = run_task(config)
        _sidecar(config["out"], config, results)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvalidParameterError as exc:
        field = _ARGUMENT_FIELDS.get(exc.param, exc.param)
        print(f"error: field '{field}': {exc}", file=sys.stderr)
        return 1
    except KitaevDEError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: field 'out': {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
