import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grassmann_stream import cli, grouse, harness

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


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
        assert set(res) >= {"max_violation", "tolerance", "passed", "samples", "worst_step"}
        assert (res["worst_step"] is None) == (res["samples"] == 0)


def test_verify_fails_when_an_identity_has_no_samples(tmp_path, capsys):
    # m < d: every step is rank deficient and none updates, so four of the
    # identities that apply to entry-wise sampling are never checked.
    payload = {**BASE_CFG, "op_kind": "entrywise", "m": 2, "verify": {"num_steps": 20}}
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", _write_cfg(tmp_path, payload), "--out", str(out)]) == 1
    report = json.loads((out / "verify.json").read_text(encoding="utf-8"))
    assert report["passed"] is False
    assert report["unsampled"] == [
        "residual_orthogonal_to_sampled_basis", "schur_determinant_identity",
        "undersampled_lower_bound", "projection_matches_truth_component",
    ]
    assert capsys.readouterr().out.count("UNSAMPLED") == 4


@pytest.mark.parametrize(
    "kind, m, not_applicable",
    [
        ("full", None, ["schur_determinant_identity", "undersampled_lower_bound"]),
        ("gaussian", 20, ["full_data_exact_ratio"]),
    ],
    ids=["full", "gaussian"],
)
def test_verify_text_marks_identities_that_do_not_apply(
    tmp_path, capsys, kind, m, not_applicable
):
    # An identity the mode never checks reads n/a, not ok; verify.json is
    # unchanged and still reports zero samples for it.
    payload = {**BASE_CFG, "op_kind": kind, "m": m, "verify": {"num_steps": 60}}
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", _write_cfg(tmp_path, payload), "--out", str(out)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    status = {words[0].rstrip(":"): words[-1] for words in lines}
    assert [name for name, word in status.items() if word == "n/a"] == not_applicable
    assert set(status.values()) == {"ok", "n/a"}
    report = json.loads((out / "verify.json").read_text(encoding="utf-8"))
    assert report["passed"] is True and report["unsampled"] == []
    for name in not_applicable:
        assert report["identities"][name]["samples"] == 0


def test_verify_fault_injection_exits_1(tmp_path, monkeypatch, capsys):
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
        # Each violated identity's line names the step of its worst violation.
        violated = [line for line in capsys.readouterr().out.splitlines() if "VIOLATED" in line]
        assert len(violated) == sum(not r["passed"] for r in report["identities"].values()) > 0
        for line in violated:
            name = line.split(":")[0]
            assert line.endswith(f"VIOLATED at t={report['identities'][name]['worst_step']}")


def test_bounds_outputs(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        {"n": 5000, "d": 10, "zeta_star": 0.9999, "bounds": {"rho": 0.1}},
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
    "command, payload, message",
    [
        ("bounds", {**BASE_CFG, "bounds": [1, 2]}, "'bounds' to be an object"),
        ("run", {**BASE_CFG, "d": 40}, "need 1 <= d < n"),
        ("run", {**BASE_CFG, "op_kind": "entrywise", "m": 41}, "m must not exceed n"),
        ("run", {**BASE_CFG, "n": "50"}, "n must be an integer"),
        ("sweep", {**BASE_CFG, "sweep": {**SWEEP_BLOCK, "trials_per_cell": "x"}},
         "trials_per_cell must be an integer"),
        ("sweep", {**BASE_CFG, "sweep": {**SWEEP_BLOCK, "ds": [40]}}, "need 1 <= d < n"),
        ("sweep", {**BASE_CFG, "sweep": {**SWEEP_BLOCK, "cap_multiple": 3.0}},
         "unknown 'sweep' keys"),
        ("verify", {**BASE_CFG, "verify": {"num_steps": "x"}}, "num_steps must be an integer"),
        ("histogram", BASE_CFG, "'monte_carlo' to be an object"),
        ("bounds", {"n": 50.7, "d": 5}, "n must be an integer"),
        ("bounds", {"n": 50, "d": 5, "m": 20.5}, "m must be an integer"),
        ("histogram", {**BASE_CFG, "monte_carlo": {"num_steps": 40.5}},
         "num_steps must be an integer"),
        ("sweep", {**BASE_CFG, "sweep": {**SWEEP_BLOCK, "trials_per_cell": 2.5}},
         "trials_per_cell must be an integer"),
        ("verify", {**BASE_CFG, "verify": {"num_steps": 60.5}}, "num_steps must be an integer"),
        ("bounds", {"n": 5000, "d": 10, "bounds": {"delta": 0.5}}, "2 delta sqrt(m/n) < 1"),
        ("bounds", {"n": 5000, "d": 10, "bounds": {"delta": 0.6}}, "2 delta sqrt(m/n) < 1"),
        ("histogram", {**BASE_CFG, "monte_carlo": {"num_step": 5, "num_trials": 1}},
         "unknown 'monte_carlo' keys"),
        ("sweep", {**BASE_CFG, "sweep": {**SWEEP_BLOCK, "cap_multipel": 2.0}},
         "unknown 'sweep' keys"),
        ("verify", {**BASE_CFG, "verify": {"num_step": 5}}, "unknown 'verify' keys"),
        ("bounds", {"n": 100, "d": 5, "bounds": {"deltta": 0.3}}, "unknown 'bounds' keys"),
        ("bounds", {"n": 100, "d": 5, "deltta": 0.3}, "unknown config keys"),
        ("bounds", {"n": 100, "d": 5, "op_kind": "laplace"}, "unknown operator kind"),
        ("bounds", {"n": 100, "d": 5, "init": "bogus"}, "unknown init"),
        ("bounds", {"n": 100, "d": 5, "seed": -1}, "seed must be >= 0"),
        ("bounds", {"d": 5}, "the config needs 'n'"),
        ("run", {"d": 5}, "the config needs 'n'"),
        ("bounds", {"n": 100}, "the config needs 'd'"),
        ("bounds", {"n": 100, "d": 5, "bounds": {"n": 200}}, "unknown 'bounds' keys: ['n']"),
        ("bounds", {"n": 100, "d": 5, "bounds": {"d": 10}}, "unknown 'bounds' keys: ['d']"),
        ("bounds", {"n": 100, "d": 5, "bounds": {"m": 30}}, "unknown 'bounds' keys: ['m']"),
        ("bounds", {"n": 100, "d": 5, "bounds": {"zeta_star": 0.99}},
         "unknown 'bounds' keys: ['zeta_star']"),
        ("bounds", {"n": 100, "d": 5, "bounds": {"mu0": -3}}, "mu0 must lie in"),
        ("bounds", {"n": 100, "d": 5, "bounds": {"mu0": 0}}, "mu0 must lie in"),
        ("bounds", {"n": 100, "d": 5, "bounds": {"mu0": 20.5}}, "mu0 must lie in"),
        ("bounds", {"n": 100, "d": 5, "bounds": {"mu_vperp": 0}}, "mu_vperp must lie in"),
        ("bounds", {"n": 100, "d": 5, "bounds": {"mu_vperp": 101}}, "mu_vperp must lie in"),
        ("bounds", {"n": 100, "d": 5, "bounds": {"zeta": True}}, "zeta must be a finite number"),
        ("bounds", {"n": 100, "d": 5, "bounds": {"zeta": "0.25"}}, "zeta must be a finite number"),
        ("bounds", {"n": 100, "d": 5, "bounds": {"zeta": 1.5, "kappa": 0.5}},
         "zeta is a similarity"),
        ("bounds", {"n": 100, "d": 5, "bounds": {"zeta": -0.5, "kappa": 0.5}},
         "zeta is a similarity"),
        ("verify", {**BASE_CFG, "verify": {"num_steps": 0}}, "num_steps must be an integer >= 1"),
        ("verify", {**BASE_CFG, "verify": {"num_steps": -5}}, "num_steps must be an integer >= 1"),
        ("histogram", {**BASE_CFG, "monte_carlo": {"num_trials": 0}},
         "num_trials must be an integer >= 1"),
        ("sweep", {**BASE_CFG, "sweep": {**SWEEP_BLOCK, "trials_per_cell": 0}},
         "trials_per_cell must be an integer >= 1"),
        ("bounds", {"n": 100, "d": 5, "bounds": {"rho": float("nan")}},
         "rho must be a finite number"),
        ("sweep", {**BASE_CFG, "sweep": {**SWEEP_BLOCK, "ns": "500"}}, "ns must be a JSON array"),
        ("sweep", {**BASE_CFG, "sweep": {**SWEEP_BLOCK, "ns": 500}}, "ns must be a JSON array"),
        ("sweep", {**BASE_CFG, "sweep": {**SWEEP_BLOCK, "ds": {"d": 4}}},
         "ds must be a JSON array"),
    ],
    ids=[
        "bounds_not_object", "d_not_below_n", "entrywise_m_above_n", "n_string",
        "trials_per_cell_string", "sweep_cell_d_not_below_n",
        "sweep_cap_multiple_key", "verify_num_steps_string", "histogram_missing_block",
        "bounds_n_not_integer", "bounds_m_not_integer", "histogram_num_steps_not_integer",
        "trials_per_cell_not_integer", "verify_num_steps_not_integer",
        "bounds_cs_divisor_zero", "bounds_cs_divisor_negative",
        "monte_carlo_unknown_key", "sweep_unknown_key", "verify_unknown_key",
        "bounds_unknown_key", "bounds_unknown_top_level_key",
        "bounds_op_kind_unknown", "bounds_init_unknown", "bounds_seed_negative",
        "bounds_n_missing", "run_n_missing", "bounds_d_missing", "bounds_block_n",
        "bounds_block_d", "bounds_block_m",
        "bounds_block_zeta_star", "bounds_mu0_negative", "bounds_mu0_zero",
        "bounds_mu0_above_n_over_d", "bounds_mu_vperp_zero", "bounds_mu_vperp_above_n",
        "bounds_zeta_bool", "bounds_zeta_string", "bounds_zeta_above_one",
        "bounds_zeta_negative", "verify_num_steps_zero", "verify_num_steps_negative",
        "histogram_num_trials_zero", "trials_per_cell_zero", "bounds_rho_nan",
        "ns_string", "ns_integer", "ds_object",
    ],
)
def test_config_errors_exit_2(tmp_path, capsys, command, payload, message):
    cfg = _write_cfg(tmp_path, payload)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_module_entry_point_runs_without_warning(tmp_path):
    # README's form for a checkout that is not installed.
    src = str(ROOT / "src")
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


def test_histogram_from_a_perturbed_start_bins_by_kappa(tmp_path):
    # A perturbed start sits near zeta = 1: 20 uniform bins would put every
    # step in [0.95, 1], under the floor at zeta = 0.975.
    payload = {
        "n": 500, "d": 5, "op_kind": "entrywise", "m": 100, "init": "perturbed",
        "seed": 0, "monte_carlo": {"num_steps": 100, "num_trials": 5},
    }
    out = tmp_path / "out"
    assert cli.main(["histogram", "--config", _write_cfg(tmp_path, payload), "--out", str(out)]) == 0
    lines = (out / "histogram.csv").read_text(encoding="utf-8").splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    populated = rows[rows[:, 2] > 0]
    assert len(populated) >= 2
    assert np.isfinite(populated[:, 6]).all()
    assert populated[:, 0].min() > 0.99


def test_sweep_caps_every_cell_at_max_iters(tmp_path, monkeypatch):
    # The shipped undersampled sweep: m = d = 20 is rank deficient and gets
    # the same cap as every other cell.
    caps = {}

    def fake_run_trial(config):
        caps.setdefault(config.m, set()).add(config.max_iters)
        return harness.TrialSeries(config, {}, False, None, 0.0, 0.0)

    monkeypatch.setattr(harness, "run_trial", fake_run_trial)
    path = CONFIGS[0].parent / "undersampled_sweep.json"
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    assert caps == {m: {200_000} for m in (20, 100, 200, 400)}
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


def test_readme_states_the_block_defaults():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| (.+) \|$", readme, re.MULTILINE)
    stated = {(block, key): default for block, key, default in rows}
    assert set(stated) == {(block, key) for block, keys in cli._BLOCKS.items() for key in keys}
    for block, keys in cli._BLOCKS.items():
        for key, default in keys.items():
            if not isinstance(default, type):
                assert stated[block, key] == repr(default), (block, key)
