import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grassmann_stream import cli, grouse, harness, theory

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


BASE_CFG = {
    "n": 40,
    "d": 4,
    "op_kind": "full",
    "zeta_star": 0.999,
    "max_iters": 2000,
    "seed": 3,
    "diagnostics_level": "full",
}


def test_missing_config_exits_2(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2


def test_bad_field_exits_2(tmp_path):
    cfg = _write_cfg(tmp_path, {**BASE_CFG, "zeta_star": 2.0})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    cfg = _write_cfg(tmp_path, {**BASE_CFG, "bogus_key": 1})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_no_command_exits_2(capsys):
    assert cli.main([]) == 2


def test_run_writes_series_and_summary(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", cfg, "--out", str(out)])
    assert rc == 0
    lines = (out / "series.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,zeta,kappa,theta,norm_p,norm_r_tilde,norm_r,delta,det_lower_bound,status"
    assert len(lines) > 1
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["converged"] is True
    assert summary["config"]["seed"] == 3
    counts = summary["step_counts"]
    assert set(counts) == {status.value for status in grouse.StepStatus}
    assert sum(counts.values()) == len(lines) - 1 == summary["iterations_to_target"]
    assert isinstance(summary["reorthonormalizations"], int)
    causes = summary["reorth_causes"]
    assert set(causes) == set(grouse.REORTH_CAUSES)
    assert sum(causes.values()) == summary["reorthonormalizations"]


def test_run_seed_repeatability_byte_identical(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()


def test_seed_override_changes_output(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["run", "--config", cfg, "--out", str(out1), "--seed", "7"])
    cli.main(["run", "--config", cfg, "--out", str(out2), "--seed", "8"])
    assert (out1 / "series.csv").read_bytes() != (out2 / "series.csv").read_bytes()
    # --seed wins over the config's "seed".
    summary = json.loads((out1 / "summary.json").read_text(encoding="utf-8"))
    assert BASE_CFG["seed"] != 7 and summary["config"]["seed"] == 7


def test_run_json_format_stdout(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True


def test_sweep_grid_csv(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        {
            **BASE_CFG,
            "max_iters": 5000,
            "sweep": {"ns": [40], "ds": [4], "ms": [None], "trials_per_cell": 3},
        },
    )
    out = tmp_path / "out"
    rc = cli.main(["sweep", "--config", cfg, "--out", str(out)])
    assert rc == 0
    lines = (out / "grid.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,d,m,mean_ratio,var_ratio,fail_frac"
    assert len(lines) == 2
    (cell,) = json.loads((out / "summary.json").read_text(encoding="utf-8"))["cells"]
    assert sum(cell["step_counts"].values()) >= 3
    assert cell["wall_time_s"] > 0.0


def test_sweep_empty_grid_exits_2(tmp_path):
    cfg = _write_cfg(tmp_path, {**BASE_CFG, "sweep": {"ns": [], "ds": [4], "ms": [None]}})
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_sweep_missing_block_exits_2(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_verify_passes_and_writes_report(tmp_path):
    # verify reads no diagnostics level; verify.json echoes the one given.
    payload = {**BASE_CFG, "diagnostics_level": "none", "verify": {"num_steps": 60}}
    cfg = _write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    rc = cli.main(["verify", "--config", cfg, "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "verify.json").read_text(encoding="utf-8"))
    assert report["passed"] is True
    assert report["config"]["diagnostics_level"] == "none"
    for res in report["identities"].values():
        assert set(res) >= {"max_violation", "tolerance", "passed", "samples"}


def test_verify_fault_injection_exits_1(tmp_path, monkeypatch):
    # Corrupt the update so the deterministic identities break. V, not U:
    # with a pending factor K, state.U is a fresh V @ K.
    real_step = grouse.step

    def corrupted_step(state, op, x):
        report = real_step(state, op, x)
        if report.status is grouse.StepStatus.UPDATED:
            state.V[0, 0] += 1e-4
        return report

    monkeypatch.setattr(grouse, "step", corrupted_step)
    for kind, m in (("full", None), ("gaussian", 20), ("entrywise", 20)):
        payload = {**BASE_CFG, "op_kind": kind, "m": m, "verify": {"num_steps": 40}}
        cfg = _write_cfg(tmp_path, payload)
        out = tmp_path / kind
        rc = cli.main(["verify", "--config", cfg, "--out", str(out)])
        assert rc == 1, kind
        report = json.loads((out / "verify.json").read_text(encoding="utf-8"))
        assert report["passed"] is False, kind


def test_bounds_outputs(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        {"n": 5000, "d": 10, "bounds": {"rho": 0.1, "zeta_star": 0.9999}},
    )
    out = tmp_path / "out"
    rc = cli.main(["bounds", "--config", cfg, "--out", str(out), "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["iteration_bound_full"]["K2"] == pytest.approx(
        216.39556568820785, rel=1e-10
    )
    on_disk = json.loads((out / "bounds.json").read_text(encoding="utf-8"))
    assert on_disk["iteration_bound_full"]["value"] == pytest.approx(
        14642.562582424067, rel=1e-10
    )


def _reject_constant(name):
    raise ValueError(f"strict JSON has no {name}")


def test_json_output_is_strict(tmp_path, capsys):
    # 20 similarity bins from 2 short trials: most bins are empty, so their
    # statistics are undefined and must print as null, never as NaN.
    payload = {
        **BASE_CFG, "op_kind": "entrywise", "m": 15,
        "monte_carlo": {"num_steps": 20, "num_trials": 2},
    }
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, payload)
    assert cli.main(["histogram", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    bins = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    empty = [b for b in bins if b["count"] == 0]
    assert empty and all(b["mean_ratio"] is None for b in empty)
    # Undefined sweep statistics: no trial converges within 2 steps.
    sweep = {**BASE_CFG, "max_iters": 2, "sweep": {"ns": [40], "ds": [4], "trials_per_cell": 2}}
    out = tmp_path / "sweep"
    cfg = _write_cfg(tmp_path, sweep)
    assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    cells = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert cells[0]["mean_ratio"] is None and cells[0]["fail_frac"] == 1.0
    summary = (out / "summary.json").read_text(encoding="utf-8")
    json.loads(summary, parse_constant=_reject_constant)


def test_bounds_invalid_delta_exits_2(tmp_path):
    cfg = _write_cfg(tmp_path, {"n": 100, "d": 5, "bounds": {"delta": 2.0}})
    assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_float_formatting_17_digits(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    cli.main(["run", "--config", cfg, "--out", str(out)])
    lines = (out / "series.csv").read_text(encoding="utf-8").splitlines()
    zeta_str = lines[1].split(",")[1]
    # Round-trips exactly through float parsing.
    assert format(float(zeta_str), ".17g") == zeta_str


SWEEP_BLOCK = {"ns": [40], "ds": [4], "ms": [None], "trials_per_cell": 2}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("bounds", {**BASE_CFG, "bounds": [1, 2]}),
        ("run", {**BASE_CFG, "d": 40}),
        ("run", {**BASE_CFG, "op_kind": "entrywise", "m": 41}),
        ("run", {**BASE_CFG, "n": "50"}),
        ("sweep", {**BASE_CFG, "sweep": {**SWEEP_BLOCK, "trials_per_cell": "x"}}),
        ("sweep", {**BASE_CFG, "sweep": {**SWEEP_BLOCK, "ds": [40]}}),
        ("sweep", {**BASE_CFG, "sweep": {**SWEEP_BLOCK, "cap_multiple": -1}}),
        ("verify", {**BASE_CFG, "verify": {"num_steps": "x"}}),
        ("histogram", BASE_CFG),
        ("bounds", {"n": 50.7, "d": 5}),
        ("bounds", {"n": 50, "d": 5, "bounds": {"m": 20.5}}),
        ("histogram", {**BASE_CFG, "monte_carlo": {"num_steps": 40.5}}),
        ("sweep", {**BASE_CFG, "sweep": {**SWEEP_BLOCK, "trials_per_cell": 2.5}}),
        ("verify", {**BASE_CFG, "verify": {"num_steps": 60.5}}),
        ("bounds", {"n": 5000, "d": 10, "bounds": {"delta": 0.5}}),
        ("bounds", {"n": 5000, "d": 10, "bounds": {"delta": 0.6}}),
        ("histogram", {**BASE_CFG, "monte_carlo": {"num_step": 5, "num_trials": 1}}),
        ("sweep", {**BASE_CFG, "sweep": {**SWEEP_BLOCK, "cap_multipel": 2.0}}),
        ("verify", {**BASE_CFG, "verify": {"num_step": 5}}),
        ("bounds", {"n": 100, "d": 5, "bounds": {"deltta": 0.3}}),
        ("bounds", {"n": 100, "d": 5, "deltta": 0.3}),
    ],
    ids=[
        "bounds_not_object", "d_not_below_n", "entrywise_m_above_n", "n_string",
        "trials_per_cell_string", "sweep_cell_d_not_below_n",
        "cap_multiple_negative", "verify_num_steps_string", "histogram_missing_block",
        "bounds_n_not_integer", "bounds_m_not_integer", "histogram_num_steps_not_integer",
        "trials_per_cell_not_integer", "verify_num_steps_not_integer",
        "bounds_cs_divisor_zero", "bounds_cs_divisor_negative",
        "monte_carlo_unknown_key", "sweep_unknown_key", "verify_unknown_key",
        "bounds_unknown_key", "bounds_unknown_top_level_key",
    ],
)
def test_config_errors_exit_2(tmp_path, capsys, command, payload):
    cfg = _write_cfg(tmp_path, payload)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_module_entry_point_runs_without_warning(tmp_path):
    # README's form for a checkout that is not installed.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    cfg = _write_cfg(tmp_path, {"n": 100, "d": 5})
    proc = subprocess.run(
        [sys.executable, "-m", "grassmann_stream.cli", "bounds", "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_histogram_matches_monte_carlo_ratio(tmp_path):
    payload = {
        **BASE_CFG, "op_kind": "entrywise", "m": 15,
        "monte_carlo": {"num_steps": 40, "num_trials": 3},
    }
    out = tmp_path / "out"
    assert cli.main(["histogram", "--config", _write_cfg(tmp_path, payload), "--out", str(out)]) == 0
    lines = (out / "histogram.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "bin_lo,bin_hi,count,mean_ratio,std_err,mean_zeta,theory"
    config = harness.TrialConfig(
        **{k: v for k, v in payload.items() if k != "monte_carlo"}
    )
    hist = harness.monte_carlo_ratio(config, 40, 3)
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    expected = np.column_stack(
        (hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts, hist.mean_ratio,
         hist.std_err, hist.mean_zeta, hist.theory)
    )
    assert hist.counts.sum() > 0
    assert np.array_equal(rows, expected, equal_nan=True)


def test_sweep_cap_multiple_caps_each_cell(tmp_path, monkeypatch):
    # m = 3 < d = 4 is rank deficient: its cap uses the bound at m = d + 1.
    caps = {}

    def fake_run_trial(config):
        caps.setdefault(config.m, set()).add(config.max_iters)
        return harness.TrialSeries(config, {}, False, None, 0.0, 0.0)

    monkeypatch.setattr(harness, "run_trial", fake_run_trial)
    payload = {
        **BASE_CFG, "op_kind": "entrywise", "m": 10,
        "sweep": {"ms": [3, 10, 40], "trials_per_cell": 2, "cap_multiple": 2.5},
    }
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", _write_cfg(tmp_path, payload), "--out", str(out)]) == 0
    n, d, zeta_star = BASE_CFG["n"], BASE_CFG["d"], BASE_CFG["zeta_star"]
    assert caps == {
        m: {int(2.5 * theory.heuristic_iterations(n, max(m, d + 1), d, zeta_star)) + 1}
        for m in (3, 10, 40)
    }
    assert (out / "grid.csv").read_text(encoding="utf-8").splitlines()[1].endswith(",1")


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_validate(path):
    cfg = cli._load_config(str(path))
    commands = [c for block, c in (("sweep", "sweep"), ("monte_carlo", "histogram")) if block in cfg]
    assert commands
    for command in commands:
        cli.parse_config(command, cfg)


def test_shipped_configs_present():
    assert [p.stem for p in CONFIGS] == [
        "convergence_scaling", "improvement_histogram", "undersampled_sweep"
    ]
