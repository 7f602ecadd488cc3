"""Monte Carlo experiment engine: trials, binned improvement histograms,
parameter sweeps, and the per-step identity verifier.

Trials are independent; each derives its own random stream from
(seed, trial_index), so results do not depend on scheduling. Within a
trial the observation stream is strictly sequential.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import datagen, grouse, metrics, numerics, sampling, theory
from .grouse import StepStatus

SERIES_COLUMNS = (
    "t",
    "zeta",
    "kappa",
    "theta",
    "norm_p",
    "norm_r_tilde",
    "norm_r",
    "delta",
    "det_lower_bound",
    "status",
)

STATUS_CODES = {
    StepStatus.UPDATED: 0,
    StepStatus.SKIPPED_RANK_DEFICIENT: 1,
    StepStatus.SKIPPED_ZERO_RESIDUAL: 2,
    StepStatus.SKIPPED_ZERO_PROJECTION: 3,
    StepStatus.SKIPPED_NONFINITE_INPUT: 4,
}
STATUS_NAMES = {code: status.value for status, code in STATUS_CODES.items()}


@dataclass(frozen=True)
class TrialConfig:
    n: int
    d: int
    op_kind: str = "full"  # 'full' | 'gaussian' | 'entrywise'
    m: int | None = None  # measurements per vector; ignored for 'full'
    truth_kind: str = "dense"  # 'dense' | 'sparse'
    init: str = "random"  # 'random' | 'perturbed'
    zeta_star: float = 1.0 - 1e-4
    max_iters: int = 10_000
    seed: int = 0
    diagnostics_level: str = "basic"  # 'none' | 'basic' | 'full'

    def __post_init__(self):
        for name in ("n", "d", "m", "max_iters", "seed"):
            _check_type(self, name, numbers.Integral, "an integer")
        _check_type(self, "zeta_star", numbers.Real, "a number")
        if not 1 <= self.d < self.n:
            raise ValueError(f"need 1 <= d < n, got d={self.d}, n={self.n}")
        if not 0.0 < self.zeta_star < 1.0:
            raise ValueError("zeta_star must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        self.op_spec()  # OpSpec validates op_kind and m
        if self.op_kind != "full" and self.m > self.n:
            raise ValueError(f"m must not exceed n, got m={self.m}, n={self.n}")
        if self.truth_kind not in ("dense", "sparse"):
            raise ValueError(f"unknown truth_kind {self.truth_kind!r}")
        if self.init not in ("random", "perturbed"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.diagnostics_level not in ("none", "basic", "full"):
            raise ValueError(f"unknown diagnostics_level {self.diagnostics_level!r}")

    def op_spec(self) -> datagen.OpSpec:
        return datagen.OpSpec(self.op_kind, None if self.op_kind == "full" else self.m)


def _check_type(config, name: str, kind, description: str) -> None:
    value = getattr(config, name)
    if value is not None and (isinstance(value, bool) or not isinstance(value, kind)):
        raise ValueError(f"{name} must be {description}, got {value!r}")


@dataclass
class TrialSeries:
    config: TrialConfig
    records: dict[str, np.ndarray]
    converged: bool
    iterations: int | None  # steps to reach zeta_star; None if not converged
    final_zeta: float
    wall_time: float
    metadata: dict = field(default_factory=dict)
    # Steps per StepStatus value, counted at every diagnostics level.
    step_counts: dict[str, int] = field(default_factory=dict)
    reorthonormalizations: int = 0


@dataclass
class ImprovementHistogram:
    """Binned per-step similarity ratios against the theory floor.

    Bins split the pre-step similarity at bin_edges. For each bin: sample
    count, empirical mean ratio, its standard error, mean pre-step
    similarity, and theory, the mean of the steps' own theory floors. An
    empty bin reads NaN.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    mean_ratio: np.ndarray
    std_err: np.ndarray
    mean_zeta: np.ndarray
    theory: np.ndarray


# A diagnosed step: v = v_par + v_perp against the basis U before it, w_par
# for A v_par against the step's B (None without a w) and Delta against M
# before the step (NaN also without an r, or when M is singular).
Diagnosis = collections.namedtuple("Diagnosis", "U v_par v_perp w_par delta")


class _Trial:
    """One seeded stream: its truth, its GROUSE state and M = Ubar^T U.

    step() runs grouse.step, advances M across the rank-one update and
    keeps its (sign, log|det M|) as update_det; a reorthonormalization,
    which may rotate the columns of U, then re-forms M. sign, logdet and
    log_zeta are those of the current M.
    """

    def __init__(self, config: TrialConfig, index: int = 0):
        self.rng = rng = datagen.trial_rng(config.seed, index)
        if config.truth_kind == "dense":
            self.truth = datagen.gen_dense_truth(config.n, config.d, rng)
        else:
            self.truth = datagen.gen_sparse_truth(config.n, config.d, rng)
        if config.init == "random":
            self.state = grouse.init_random(config.n, config.d, rng)
        else:
            # Half the radius d mu0 / (16 n) of the local region.
            target = 0.5 * config.d * self.truth.mu0 / (16.0 * config.n)
            U0 = datagen.perturb_within_region(self.truth.Ubar, target, rng)
            self.state = grouse.GrouseState(U=U0)
        self.M = self.truth.Ubar.T @ self.state.U
        self._track()

    def stream(self, spec: datagen.OpSpec, num_steps: int):
        return datagen.gen_stream(self.truth, spec, num_steps, self.rng)

    def step(self, sample: datagen.StreamSample, diagnose: bool = False):
        """grouse.step on sample; with diagnose, also sets self.diagnosis from
        the step's B and r before M moves (v_par lies where A U revealed).
        Ubar^T r is formed once, for Delta and the update of M; for an
        entry-wise r = A^T r_tilde it is rows^T r_tilde, in O(md)."""
        U = self.state.U if diagnose else None
        Ubar = self.truth.Ubar
        report = grouse.step(self.state, sample.op, sample.x)
        Ubar_r = None
        if report.r is not None and (diagnose or report.update_coeffs is not None):
            rows = sample.rows
            Ubar_r = Ubar.T @ report.r if rows is None else rows.T @ report.r_tilde
        if diagnose:
            v_par, v_perp = numerics.project(U, sample.v)
            w_par, delta = None, np.nan
            if report.w is not None:
                x_par = sampling.apply(sample.op, v_par)
                with contextlib.suppress(numerics.RankDeficient, theory.SingularOverlap):
                    w_par, w_perp = theory.coefficient_split(report.B, sample.x, x_par)
                    if report.r is not None:
                        delta = theory.delta_term(self.M, Ubar_r, w_perp)
            self.diagnosis = Diagnosis(U, v_par, v_perp, w_par, delta)
        if report.update_coeffs is not None:
            change = report.overlap_change(self.M, Ubar_r)
            self.M += np.multiply.outer(change, report.update_coeffs)
        self._track()
        self.update_det = (self.sign, self.logdet)
        if report.reorthonormalized:
            self.M = Ubar.T @ self.state.U
            self._track()
        return report

    def _track(self) -> None:
        """(sign, log|det M|) and log zeta of the current M, from one slogdet."""
        self.sign, self.logdet = numerics.slogdet(self.M)
        self.log_zeta = metrics.log_similarity(self.logdet)


def run_trial(config: TrialConfig) -> TrialSeries:
    """Run one seeded stream until the similarity target or the cap."""
    start = time.perf_counter()
    trial = _Trial(config)

    record = config.diagnostics_level != "none"
    full_diag = config.diagnostics_level == "full"
    cols: dict[str, list] = {c: [] for c in SERIES_COLUMNS} if record else {}

    converged = False
    iterations = None
    step_counts = dict.fromkeys(StepStatus, 0)
    reorthonormalizations = 0
    zeta = float(np.exp(trial.log_zeta))
    for t, sample in enumerate(trial.stream(config.op_spec(), config.max_iters)):
        report = trial.step(sample, diagnose=full_diag)
        delta = trial.diagnosis.delta if full_diag else np.nan
        bound = np.nan
        step_counts[report.status] += 1
        reorthonormalizations += report.reorthonormalized
        zeta = float(np.exp(trial.log_zeta))
        if full_diag and report.status is StepStatus.UPDATED and np.isfinite(delta):
            bound = theory.step_lower_bound_undersampled(
                report.norm_p, report.norm_r_tilde, report.norm_r, delta
            )
        if record:
            cols["t"].append(t)
            cols["zeta"].append(zeta)
            cols["kappa"].append(1.0 - zeta)
            cols["theta"].append(report.theta)
            cols["norm_p"].append(report.norm_p)
            cols["norm_r_tilde"].append(report.norm_r_tilde)
            cols["norm_r"].append(report.norm_r)
            cols["delta"].append(delta)
            cols["det_lower_bound"].append(bound)
            cols["status"].append(STATUS_CODES[report.status])
        if zeta >= config.zeta_star:
            converged = True
            iterations = t + 1
            break

    records = {
        c: np.asarray(v, dtype=np.int64 if c in ("t", "status") else np.float64)
        for c, v in cols.items()
    }
    return TrialSeries(
        config=config,
        records=records,
        converged=converged,
        iterations=iterations,
        final_zeta=zeta,
        wall_time=time.perf_counter() - start,
        step_counts={status.value: count for status, count in step_counts.items()},
        reorthonormalizations=reorthonormalizations,
        metadata={"mu0": trial.truth.mu0, "truth_kind": trial.truth.kind},
    )


def _bin_edges(init: str) -> np.ndarray:
    """20 uniform bins of [0, 1] for a random start. A perturbed start sits
    within about d mu0 / (32 n) of zeta = 1, so its bins split
    kappa = 1 - zeta at quarter decades, 10^(-k/4) for k = 1..24."""
    if init == "random":
        return np.linspace(0.0, 1.0, 21)
    return np.concatenate(([0.0], 1.0 - 10.0 ** (-np.arange(1, 25) / 4.0), [1.0]))


def _mode_rate(config: TrialConfig):
    """The expected-rate floor of config's sampling mode at (zeta, M).

    Gaussian sampling takes delta = 0.25 and the largest principal angle
    of M, kept below pi/2.
    """
    d, m, n = config.d, config.m, config.n
    if config.op_kind == "full":
        return lambda zeta, M: theory.expected_rate_full(zeta, d)
    if config.op_kind == "entrywise":
        return lambda zeta, M: theory.expected_rate_missing(zeta, d, m, n).rate

    def cs_rate(zeta: float, M: np.ndarray) -> float:
        phi_d = min(float(np.arccos(metrics.overlap_cosines(M)[-1])), np.pi / 2 - 1e-9)
        return theory.expected_rate_cs(zeta, d, m, n, delta=0.25, phi_d=phi_d).rate

    return cs_rate


def monte_carlo_ratio(
    config: TrialConfig,
    num_steps: int,
    num_trials: int,
    theory_step_fn=None,
    warmup_targets=None,
) -> ImprovementHistogram:
    """Empirical per-step improvement, binned by pre-step similarity.

    Runs num_trials independent streams of num_steps updates each;
    skipped steps contribute nothing. config's zeta_star, max_iters and
    diagnostics_level are not read. Each updated step records its
    pre-step zeta, its ratio and its floor theory_step_fn(zeta, M) at the
    pre-step overlap M = Ubar^T U (a copy, as the step moves M in place);
    by default the floor is the mode's expected rate (_mode_rate). A
    skipped step takes no floor. The records are binned once, at the end,
    at the edges that _bin_edges gives config.init: bin b holds edges[b]
    <= zeta < edges[b + 1], and the last bin also holds zeta = 1.

    warmup_targets, when given, is cycled across trials: before the
    measured steps, each trial is advanced with at most 20,000 fully
    sampled updates until its similarity reaches the target, so the histogram
    covers similarity levels a short undersampled run could not reach.
    """
    if theory_step_fn is None:
        theory_step_fn = _mode_rate(config)
    # Rows zeta, ratio and per-step floor: 24 bytes per updated step.
    samples = np.empty((3, num_trials * num_steps))
    recorded = 0
    for index in range(num_trials):
        trial = _Trial(config, index)
        if warmup_targets is not None:
            target = warmup_targets[index % len(warmup_targets)]
            for sample in trial.stream(datagen.OpSpec("full"), 20_000):
                if np.exp(trial.log_zeta) >= target:
                    break
                trial.step(sample)
        for sample in trial.stream(config.op_spec(), num_steps):
            log_zeta, M = trial.log_zeta, trial.M.copy()
            report = trial.step(sample)
            if report.status is StepStatus.UPDATED and np.isfinite(log_zeta):
                zeta = float(np.exp(log_zeta))
                ratio = np.exp(trial.log_zeta - log_zeta)
                samples[:, recorded] = zeta, ratio, theory_step_fn(zeta, M)
                recorded += 1

    edges = _bin_edges(config.init)
    return ImprovementHistogram(edges, **_bin_samples(edges, *samples[:, :recorded]))


def _bin_samples(edges, zeta, ratio, floor) -> dict:
    """The per-bin statistics of ImprovementHistogram from all records at once.

    A zeta outside the edges falls in the nearest end bin. Empty bins read
    NaN, and so does the standard error of a one-sample bin.
    """
    num_bins = len(edges) - 1
    index = np.clip(np.searchsorted(edges, zeta, side="right") - 1, 0, num_bins - 1)
    counts = np.bincount(index, minlength=num_bins)

    def bin_mean(values):
        return np.bincount(index, values, minlength=num_bins) / counts

    with np.errstate(invalid="ignore", divide="ignore"):
        mean_ratio = bin_mean(ratio)
        m2 = np.bincount(index, (ratio - mean_ratio[index]) ** 2, minlength=num_bins)
        return dict(
            counts=counts,
            mean_ratio=mean_ratio,
            std_err=np.sqrt(m2 / (counts - 1) / counts),
            mean_zeta=bin_mean(zeta),
            theory=bin_mean(floor),
        )


@dataclass
class SweepCell:
    n: int
    d: int
    m: int | None
    mean_ratio: float
    var_ratio: float
    fail_frac: float
    trials: int
    # Summed over the cell's trials: tells a cell that skips from a slow one.
    step_counts: dict[str, int]
    wall_time_s: float


def sweep(
    base: TrialConfig,
    grid: list[tuple[int, int, int | None]],
    trials_per_cell: int,
) -> list[SweepCell]:
    """Ratio of actual iterations to the heuristic count over a (n, d, m) grid.

    The heuristic is theory.heuristic_iterations(n, m, d, base.zeta_star),
    with m = n for full sampling. Every trial runs for at most
    base.max_iters steps; trials that reach it count toward fail_frac and
    are excluded from the ratio statistics. A cell with m <= d skips all
    or nearly all of its steps, so each of its trials runs the whole cap.
    Cell c's trial t takes seed base.seed + c max(1000, trials_per_cell) + t.
    """
    cells = []
    for n, d, m in grid:
        start = time.perf_counter()
        cell = dataclasses.replace(base, n=n, d=d, m=m, diagnostics_level="none")
        sampled = n if cell.op_kind == "full" else m
        bound = theory.heuristic_iterations(n, sampled, d, base.zeta_star)
        ratios = []
        step_counts = {status.value: 0 for status in StepStatus}
        for trial in range(trials_per_cell):
            seed = base.seed + max(1000, trials_per_cell) * len(cells) + trial
            series = run_trial(dataclasses.replace(cell, seed=seed))
            for name, count in series.step_counts.items():
                step_counts[name] += count
            if series.converged:
                ratios.append(series.iterations / bound)
        ok = np.array(ratios)
        cells.append(
            SweepCell(
                n=n,
                d=d,
                m=m,
                mean_ratio=float(np.mean(ok)) if ok.size else np.nan,
                var_ratio=float(np.var(ok, ddof=1)) if ok.size > 1 else np.nan,
                fail_frac=(trials_per_cell - ok.size) / trials_per_cell,
                trials=trials_per_cell,
                step_counts=step_counts,
                wall_time_s=time.perf_counter() - start,
            )
        )
    return cells


# Identity name -> tolerance. Violations are worst-case over all steps.
INVARIANT_TOLERANCES = {
    "residual_orthogonal_to_sampled_basis": 1e-10,
    "full_data_exact_ratio": 1e-9,
    "schur_determinant_identity": 1e-9,
    "undersampled_lower_bound": 1e-9,
    "projection_matches_truth_component": 1e-8,
    "similarity_vs_frobenius_discrepancy": 1e-12,
    "truth_overlap_of_residual": 1e-9,
}


def verify_step_invariants(config: TrialConfig, num_steps: int) -> dict:
    """Check every deterministic per-step identity along one stream.

    The stream runs num_steps steps; config's zeta_star, max_iters and
    diagnostics_level are not read. Returns {"passed": bool,
    "identities": {name: {max_violation, tolerance, passed, samples}},
    "unsampled": [name, ...]}. Identities that do not apply to the
    configured sampling mode report zero samples. One that applies and has
    none is listed in "unsampled" and fails the stream: a stream whose
    steps never reach an identity has not checked it.
    """
    trial = _Trial(config)
    Ubar = trial.truth.Ubar
    overlap_tol = INVARIANT_TOLERANCES["truth_overlap_of_residual"]
    perp_rounding = (config.d + 1) * np.sqrt(config.n) * np.finfo(float).eps
    worst = {name: 0.0 for name in INVARIANT_TOLERANCES}
    samples = {name: 0 for name in INVARIANT_TOLERANCES}

    def note(name, violation):
        worst[name] = max(worst[name], float(violation))
        samples[name] += 1

    for sample in trial.stream(config.op_spec(), num_steps):
        sign_before, logdet_before = trial.sign, trial.logdet
        cosines_before = metrics.overlap_cosines(trial.M)
        zeta_before = float(np.exp(trial.log_zeta))

        report = trial.step(sample, diagnose=True)
        U_before, v_par, v_perp, w_par, delta = trial.diagnosis
        norm_v = max(float(np.linalg.norm(sample.v)), 1e-300)
        norm_v_par = float(np.linalg.norm(v_par))
        norm_v_perp = float(np.linalg.norm(v_perp))

        # Identities independent of the update outcome.
        frob = float(np.sum(1.0 - cosines_before**2))
        note("similarity_vs_frobenius_discrepancy", (1.0 - frob) - zeta_before)
        # ||Ubar^T v_perp|| <= sin(phi_d) ||v_perp|| is checked only where
        # rounding cannot reach the tolerance. The computed v_perp =
        # v - U (U^T v) is off by some e: its part in span(U), from the
        # n-term inner products in U^T v and the drift of U from
        # orthonormality, is ||U^T v_perp||; the rest, from forming
        # U (U^T v) and subtracting, is a few eps ||v||. e moves each side
        # of the bound by up to ||e||. cos(phi_d) comes from M, itself made
        # of n-term inner products; its error of a few eps moves
        # sin(phi_d) ||v_perp|| by at most that times ||v||, as sin(phi_d)
        # >= ||v_perp|| / ||v||. The unmeasured terms get
        # (d + 1) sqrt(n) eps ||v||.
        allowance = 2.0 * np.linalg.norm(U_before.T @ v_perp) + perp_rounding * norm_v
        if allowance < overlap_tol * norm_v_perp:
            sin_phi_d = float(np.sqrt(max(0.0, 1.0 - cosines_before[-1] ** 2)))
            overlap = float(np.linalg.norm(Ubar.T @ v_perp))
            note(
                "truth_overlap_of_residual",
                (overlap - sin_phi_d * norm_v_perp) / norm_v_perp,
            )
        if w_par is not None:
            note(
                "projection_matches_truth_component",
                np.linalg.norm(U_before @ w_par - v_par) / norm_v,
            )

        if report.status is not StepStatus.UPDATED:
            continue

        note(
            "residual_orthogonal_to_sampled_basis",
            np.linalg.norm(report.B.T @ report.r_tilde)
            / max(np.linalg.norm(sample.x), 1e-300),
        )

        # The determinant across the rank-one update alone, before any
        # reorthonormalization rotates the columns of U.
        sign_after, logdet_after = trial.update_det
        det_ratio = float(sign_before * sign_after * np.exp(logdet_after - logdet_before))
        zeta_ratio = det_ratio**2

        # With full data and the greedy angle the signed ratio is
        # cos(theta) + (||v_perp|| / ||v_par||) sin(theta) > 0, so the sign
        # is checked too: a flipped one reads 2.
        if config.op_kind == "full" and norm_v_par > 1e-12:
            predicted = theory.exact_full_ratio(norm_v_par, norm_v_perp)
            note("full_data_exact_ratio", abs(det_ratio * abs(det_ratio) / predicted - 1.0))
        if config.op_kind != "full" and not np.isnan(delta):
            norm_p, norm_r, norm_rt = report.norm_p, report.norm_r, report.norm_r_tilde
            predicted_det = (norm_p**2 + norm_rt**2 + delta) / (
                norm_p * np.sqrt(norm_p**2 + norm_r**2)
            )
            note("schur_determinant_identity", abs(det_ratio / predicted_det - 1.0))
            bound = theory.step_lower_bound_undersampled(norm_p, norm_rt, norm_r, delta)
            note("undersampled_lower_bound", bound - zeta_ratio)

    identities = {
        name: {
            "max_violation": worst[name],
            "tolerance": tol,
            "passed": worst[name] <= tol,
            "samples": samples[name],
        }
        for name, tol in INVARIANT_TOLERANCES.items()
    }
    if config.op_kind == "full":
        not_applicable = {"schur_determinant_identity", "undersampled_lower_bound"}
    else:
        not_applicable = {"full_data_exact_ratio"}
    unsampled = [k for k in identities if k not in not_applicable and samples[k] == 0]
    return {
        "passed": all(v["passed"] for v in identities.values()) and not unsampled,
        "identities": identities,
        "unsampled": unsampled,
    }

