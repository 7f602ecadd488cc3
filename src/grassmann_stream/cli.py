"""Command-line front end: seeded experiment commands with CSV/JSON artifacts.

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 runtime/generation failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import numbers
import sys
from pathlib import Path

import numpy as np

from . import datagen, harness, theory

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    pass


def _fmt(value) -> str:
    """Round-trip serialization: 17 significant digits for floats."""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        # Strict JSON has no NaN or Infinity: an undefined statistic is null.
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _output(args, files: dict, payload, text: list[str]) -> None:
    """Every command's output: files into --out, then payload as JSON on
    stdout (--format json) or the lines of text. files maps a name to
    (header, rows) for a .csv and to a JSON payload otherwise."""
    for name, content in files.items():
        with open(Path(args.out) / name, "w", encoding="utf-8", newline="\n") as fh:
            if name.endswith(".csv"):
                header, rows = content
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows([_fmt(v) for v in row] for row in rows)
            else:
                json.dump(_jsonable(content), fh, indent=2, allow_nan=False)
                fh.write("\n")
    if args.format == "json":
        print(json.dumps(_jsonable(payload), allow_nan=False))
    else:
        print("\n".join(text))


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


_TRIAL_FIELDS = {f.name for f in dataclasses.fields(harness.TrialConfig)}
# Block -> its keys and their defaults. A given value must be an integer
# >= 1 where the default is an integer, a finite number where it is a
# float, and a JSON array where the key is declared by list. A key
# declared by a type has a default its command works out: a sweep's axes
# come from the trial config, and kappa is 1 - zeta.
_BLOCKS = {
    "sweep": {"ns": list, "ds": list, "ms": list, "trials_per_cell": 10},
    "monte_carlo": {"num_steps": 300, "num_trials": 50},
    "verify": {"num_steps": 200},
    "bounds": {
        "rho": 0.1, "zeta": 0.5, "delta": 0.25, "phi_d": 0.1, "mu0": 1.0,
        "mu_vperp": 1.0, "kappa": float,
    },
}


def _reject_unknown(keys, known, where: str) -> None:
    unknown = set(keys) - known
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _trial_config(cfg: dict, seed_override: int | None) -> harness.TrialConfig:
    kwargs = {k: v for k, v in cfg.items() if k in _TRIAL_FIELDS}
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return harness.TrialConfig(**kwargs)


def _checked(name: str, value, default):
    """value, checked against its key's default (see _BLOCKS). int() would
    truncate 50.7, float() would read "0.25" and true, and list() would
    split "500" into digits."""
    kind = default if isinstance(default, type) else type(default)
    if kind is list and not isinstance(value, list):
        raise ConfigError(f"{name} must be a JSON array, got {value!r}")
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if kind is int and not (number and isinstance(value, numbers.Integral) and value >= 1):
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
    if kind is float and not (number and math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return kind(value)


def _block(cfg: dict, name: str, required: bool = False) -> dict:
    """The block's given values, checked, over its declared defaults."""
    block = cfg.get(name, None if required else {})
    if not isinstance(block, dict):
        raise ConfigError(f"the config needs {name!r} to be an object")
    keys = _BLOCKS[name]
    _reject_unknown(block, set(keys), repr(name))
    values = {k: v for k, v in keys.items() if not isinstance(v, type)}
    values.update((k, _checked(k, v, keys[k])) for k, v in block.items())
    return values


def _cmd_run(config: harness.TrialConfig, args) -> int:
    series = harness.run_trial(config)
    records = series.records  # empty at diagnostics level "none"
    rows = [
        [*(records[c][i] for c in harness.SERIES_COLUMNS[:-1]), harness.STATUS_NAMES[int(code)]]
        for i, code in enumerate(records.get("status", ()))
    ]
    summary = {
        "config": dataclasses.asdict(config),
        "converged": series.converged,
        "iterations_to_target": series.iterations,
        "final_zeta": series.final_zeta,
        "step_counts": series.step_counts,
        "reorthonormalizations": series.reorthonormalizations,
        "wall_time_s": series.wall_time,
        "metadata": series.metadata,
    }
    text = [
        f"run: converged={series.converged} "
        f"iterations={series.iterations} final_zeta={_fmt(series.final_zeta)}"
    ]
    files = {"series.csv": (harness.SERIES_COLUMNS, rows), "summary.json": summary}
    _output(args, files, summary, text)
    return EXIT_OK


def _parse_sweep(cfg: dict, seed: int | None):
    sweep_cfg = _block(cfg, "sweep", required=True)
    base = _trial_config(cfg, seed)
    ns = sweep_cfg.get("ns", [base.n])
    ds = sweep_cfg.get("ds", [base.d])
    ms = sweep_cfg.get("ms", [base.m])
    grid = [(n, d, m) for n in ns for d in ds for m in ms]
    if not grid:
        raise ConfigError("sweep grid must be non-empty")
    for n, d, m in grid:
        # Builds each cell once, so a bad cell fails before any runs.
        dataclasses.replace(base, n=n, d=d, m=m)
    # summary.json echoes the block as given, without its defaults.
    return base, cfg["sweep"], grid, sweep_cfg["trials_per_cell"]


def _cmd_sweep(plan, args) -> int:
    base, sweep_cfg, grid, trials = plan
    cells = [dataclasses.asdict(c) for c in harness.sweep(base, grid, trials)]
    header = ("n", "d", "m", "mean_ratio", "var_ratio", "fail_frac")
    rows = [["" if c[k] is None else c[k] for k in header] for c in cells]
    summary = {"config": dataclasses.asdict(base), "sweep": sweep_cfg, "cells": cells}
    files = {"grid.csv": (header, rows), "summary.json": summary}
    _output(args, files, cells, [f"sweep: {len(cells)} cells written to grid.csv"])
    return EXIT_OK


def _parse_histogram(cfg: dict, seed: int | None):
    mc_cfg = _block(cfg, "monte_carlo", required=True)
    return _trial_config(cfg, seed), mc_cfg["num_steps"], mc_cfg["num_trials"]


def _cmd_histogram(plan, args) -> int:
    config, num_steps, num_trials = plan
    hist = harness.monte_carlo_ratio(config, num_steps, num_trials)
    header = ("bin_lo", "bin_hi", "count", "mean_ratio", "std_err", "mean_zeta", "theory")
    columns = (hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts, hist.mean_ratio,
               hist.std_err, hist.mean_zeta, hist.theory)
    rows = list(zip(*columns))
    _output(
        args, {"histogram.csv": (header, rows)}, [dict(zip(header, row)) for row in rows],
        [f"histogram: {len(rows)} bins written to histogram.csv"],
    )
    return EXIT_OK


def _parse_verify(cfg: dict, seed: int | None):
    return _trial_config(cfg, seed), _block(cfg, "verify")["num_steps"]


def _cmd_verify(plan, args) -> int:
    config, num_steps = plan
    report = harness.verify_step_invariants(config, num_steps)
    report["config"] = dataclasses.asdict(config)
    report["num_steps"] = num_steps
    unsampled = report["unsampled"]
    # n/a: an identity that does not apply to the sampling mode.
    text = [
        f"{name}: max_violation={_fmt(res['max_violation'])} tol={_fmt(res['tolerance'])} "
        + ("VIOLATED" if not res["passed"] else "UNSAMPLED" if name in unsampled
           else "ok" if res["samples"] else "n/a")
        for name, res in report["identities"].items()
    ]
    _output(args, {"verify.json": report}, report, text)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def _parse_bounds(cfg: dict, seed: int | None) -> dict:
    """Evaluates every closed-form bound at the trial config's n, d, m (n if
    unset) and zeta_star; out-of-range parameters raise here."""
    bounds_cfg = _block(cfg, "bounds")
    config = _trial_config(cfg, seed)
    n, d, zeta_star = config.n, config.d, config.zeta_star
    m = n if config.m is None else config.m
    rho, zeta, delta, phi_d, mu0, mu_vperp = (
        bounds_cfg[k] for k in ("rho", "zeta", "delta", "phi_d", "mu0", "mu_vperp")
    )
    if not 0.0 <= zeta <= 1.0:
        raise ConfigError(f"zeta is a similarity in [0, 1], got {zeta!r}")
    kappa = bounds_cfg.get("kappa", 1.0 - zeta)
    iteration = theory.iteration_bound_full(n, d, rho, zeta_star)
    rate_cs = theory.expected_rate_cs(zeta, d, m, n, delta, phi_d)
    rate_missing = theory.expected_rate_missing(zeta, d, m, n)
    missing = theory.sample_complexity_missing(d, mu0, mu_vperp, n)
    payload = {
        "params": {
            "n": n, "d": d, "m": m, "rho": rho, "zeta_star": zeta_star,
            "zeta": zeta, "delta": delta, "phi_d": phi_d, "mu0": mu0,
            "mu_vperp": mu_vperp, "kappa": kappa,
        },
        "iteration_bound_full": {
            "value": iteration.value, **iteration.components,
        },
        "heuristic_iterations": theory.heuristic_iterations(n, m, d, zeta_star),
        "expected_rate_full": theory.expected_rate_full(zeta, d),
        "expected_rate_cs": {
            "rate": rate_cs.rate,
            "probability": rate_cs.probability,
            **rate_cs.params,
        },
        "expected_rate_missing": {
            "rate": rate_missing.rate,
            "probability": rate_missing.probability,
        },
        "sample_complexity_missing": {"value": missing.value, **missing.components},
        "discrepancy_decay_missing": theory.discrepancy_decay_missing(
            kappa, d, m, n, mu0
        ),
        "expected_initial_similarity": theory.expected_zeta0(n, d),
    }
    if 0.0 < delta < 0.5:
        cs = theory.sample_complexity_cs(d, delta, phi_d, n)
        payload["sample_complexity_cs"] = {"value": cs.value, **cs.components}
    return payload


def _cmd_bounds(payload: dict, args) -> int:
    text = [
        f"{key}: " + " ".join(f"{k}={_fmt(v)}" for k, v in value.items())
        if isinstance(value, dict) else f"{key}: {_fmt(value)}"
        for key, value in payload.items()
    ]
    _output(args, {"bounds.json": payload}, payload, text)
    return EXIT_OK


# command -> (parse, execute). The parse step reads and validates the whole
# config before anything runs; the execute step takes what it returns.
_COMMANDS = {
    "run": (_trial_config, _cmd_run),
    "sweep": (_parse_sweep, _cmd_sweep),
    "histogram": (_parse_histogram, _cmd_histogram),
    "verify": (_parse_verify, _cmd_verify),
    "bounds": (_parse_bounds, _cmd_bounds),
}


def parse_config(command: str, cfg: dict, seed: int | None = None):
    """Validate cfg for command without running anything.

    Returns what the command's execute step takes. Any TypeError or
    ValueError raised while parsing is re-raised as ConfigError (exit 2).
    """
    try:
        _reject_unknown(cfg, _TRIAL_FIELDS | set(_BLOCKS), "config")
        return _COMMANDS[command][0](cfg, seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassmann-stream",
        description="Streaming subspace estimation experiments and bound evaluators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize anything else.
        return EXIT_USAGE if exc.code != 0 else EXIT_OK
    try:
        plan = parse_config(args.command, _load_config(args.config), args.seed)
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command][1](plan, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except datagen.GenerationFailed as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - boundary: everything maps to an exit code
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
