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


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


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
# Block name -> the keys its command reads.
_BLOCK_KEYS = {
    "sweep": {"ns", "ds", "ms", "trials_per_cell", "cap_multiple"},
    "monte_carlo": {"num_steps", "num_trials"},
    "verify": {"num_steps"},
    "bounds": {"n", "d", "m", "rho", "zeta_star", "zeta", "delta", "phi_d", "mu0",
               "mu_vperp", "kappa"},
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


def _print_json(payload) -> None:
    print(json.dumps(_jsonable(payload), allow_nan=False))


def _integer(name: str, value) -> int:
    """value if it is an integer (not a bool); int() would truncate 50.7."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _block(cfg: dict, name: str, required: bool = False) -> dict:
    block = cfg.get(name, None if required else {})
    if not isinstance(block, dict):
        raise ConfigError(f"the config needs {name!r} to be an object")
    _reject_unknown(block, _BLOCK_KEYS[name], repr(name))
    return block


def _cmd_run(config: harness.TrialConfig, args) -> int:
    series = harness.run_trial(config)
    out = Path(args.out)
    records = series.records  # empty at diagnostics level "none"
    rows = [
        [*(records[c][i] for c in harness.SERIES_COLUMNS[:-1]), harness.STATUS_NAMES[int(code)]]
        for i, code in enumerate(records.get("status", ()))
    ]
    _write_csv(out / "series.csv", harness.SERIES_COLUMNS, rows)
    summary = {
        "config": dataclasses.asdict(config),
        "converged": series.converged,
        "iterations_to_target": series.iterations,
        "final_zeta": series.final_zeta,
        "step_counts": series.step_counts,
        "reorthonormalizations": series.reorthonormalizations,
        "reorth_causes": series.reorth_causes,
        "wall_time_s": series.wall_time,
        "metadata": series.metadata,
    }
    _write_json(out / "summary.json", summary)
    if args.format == "json":
        _print_json(summary)
    else:
        print(
            f"run: converged={series.converged} "
            f"iterations={series.iterations} final_zeta={_fmt(series.final_zeta)}"
        )
    return EXIT_OK


def _parse_sweep(cfg: dict, seed: int | None):
    sweep_cfg = _block(cfg, "sweep", required=True)
    base = _trial_config(cfg, seed)
    ns = sweep_cfg.get("ns", [base.n])
    ds = sweep_cfg.get("ds", [base.d])
    ms = sweep_cfg.get("ms", [base.m])
    trials = _integer("trials_per_cell", sweep_cfg.get("trials_per_cell", 10))
    grid = [(n, d, m) for n in ns for d in ds for m in ms]
    if not grid or trials < 1:
        raise ConfigError("sweep grid must be non-empty with trials_per_cell >= 1")
    cap_multiple = sweep_cfg.get("cap_multiple")
    if cap_multiple is not None:
        cap_multiple = float(cap_multiple)
        if not cap_multiple > 0.0:
            raise ConfigError("cap_multiple must be positive")
    for n, d, m in grid:
        # Builds each cell once, so a bad cell fails before any runs.
        dataclasses.replace(base, n=n, d=d, m=m)
    return base, sweep_cfg, grid, trials, cap_multiple


def _cmd_sweep(plan, args) -> int:
    base, sweep_cfg, grid, trials, cap_multiple = plan
    cells = harness.sweep(base, grid, trials, cap_multiple=cap_multiple)
    out = Path(args.out)
    header = ("n", "d", "m", "mean_ratio", "var_ratio", "fail_frac")
    rows = [
        (c.n, c.d, "" if c.m is None else c.m, c.mean_ratio, c.var_ratio, c.fail_frac)
        for c in cells
    ]
    _write_csv(out / "grid.csv", header, rows)
    _write_json(
        out / "summary.json",
        {
            "config": dataclasses.asdict(base),
            "sweep": sweep_cfg,
            "cells": [dataclasses.asdict(c) for c in cells],
        },
    )
    if args.format == "json":
        _print_json([dataclasses.asdict(c) for c in cells])
    else:
        print(f"sweep: {len(cells)} cells written to grid.csv")
    return EXIT_OK


def _parse_histogram(cfg: dict, seed: int | None):
    mc_cfg = _block(cfg, "monte_carlo", required=True)
    num_steps = _integer("num_steps", mc_cfg.get("num_steps", 300))
    num_trials = _integer("num_trials", mc_cfg.get("num_trials", 50))
    if num_steps < 1 or num_trials < 1:
        raise ConfigError("num_steps and num_trials must be >= 1")
    return _trial_config(cfg, seed), num_steps, num_trials


def _cmd_histogram(plan, args) -> int:
    config, num_steps, num_trials = plan
    hist = harness.monte_carlo_ratio(config, num_steps, num_trials)
    header = ("bin_lo", "bin_hi", "count", "mean_ratio", "std_err", "mean_zeta", "theory")
    columns = (hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts, hist.mean_ratio,
               hist.std_err, hist.mean_zeta, hist.theory)
    rows = list(zip(*columns))
    _write_csv(Path(args.out) / "histogram.csv", header, rows)
    if args.format == "json":
        _print_json([dict(zip(header, row)) for row in rows])
    else:
        print(f"histogram: {len(rows)} bins written to histogram.csv")
    return EXIT_OK


def _parse_verify(cfg: dict, seed: int | None):
    verify_cfg = _block(cfg, "verify")
    return _trial_config(cfg, seed), _integer("num_steps", verify_cfg.get("num_steps", 200))


def _cmd_verify(plan, args) -> int:
    config, num_steps = plan
    report = harness.verify_step_invariants(config, num_steps)
    report["config"] = dataclasses.asdict(config)
    report["num_steps"] = num_steps
    out = Path(args.out)
    _write_json(out / "verify.json", report)
    if args.format == "json":
        _print_json(report)
    else:
        for name, res in report["identities"].items():
            print(
                f"{name}: max_violation={_fmt(res['max_violation'])} "
                f"tol={_fmt(res['tolerance'])} "
                f"{'ok' if res['passed'] else 'VIOLATED'}"
            )
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def _parse_bounds(cfg: dict, seed: int | None) -> dict:
    """Evaluates every closed-form bound; out-of-range parameters raise here."""
    bounds_cfg = _block(cfg, "bounds")
    n = _integer("n", cfg.get("n", bounds_cfg.get("n", 5000)))
    d = _integer("d", cfg.get("d", bounds_cfg.get("d", 10)))
    m = cfg.get("m", bounds_cfg.get("m"))
    m = n if m is None else _integer("m", m)
    rho = float(bounds_cfg.get("rho", 0.1))
    zeta_star = float(cfg.get("zeta_star", bounds_cfg.get("zeta_star", 1.0 - 1e-4)))
    zeta = float(bounds_cfg.get("zeta", 0.5))
    delta = float(bounds_cfg.get("delta", 0.25))
    phi_d = float(bounds_cfg.get("phi_d", 0.1))
    mu0 = float(bounds_cfg.get("mu0", 1.0))
    mu_vperp = float(bounds_cfg.get("mu_vperp", 1.0))
    kappa = float(bounds_cfg.get("kappa", 1.0 - zeta))
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
    out = Path(args.out)
    _write_json(out / "bounds.json", payload)
    if args.format == "json":
        _print_json(payload)
    else:
        for key, value in payload.items():
            if isinstance(value, dict):
                inner = " ".join(f"{k}={_fmt(v)}" for k, v in value.items())
                print(f"{key}: {inner}")
            else:
                print(f"{key}: {_fmt(value)}")
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
        _reject_unknown(cfg, _TRIAL_FIELDS | set(_BLOCK_KEYS), "config")
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
