"""Monte Carlo experiment engine: trials, binned improvement histograms,
parameter sweeps, and the per-step identity verifier.

Trials are independent; each derives its own random stream from
(seed, trial_index), so results do not depend on scheduling. Within a
trial the observation stream is strictly sequential.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import datagen, grouse, metrics, sampling, theory
from .grouse import StepStatus
from .numerics import project

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
    init_target: float | None = None  # Frobenius discrepancy for 'perturbed'
    zeta_star: float = 1.0 - 1e-4
    max_iters: int = 10_000
    seed: int = 0
    reorth_cadence: int = 100
    diagnostics_level: str = "basic"  # 'none' | 'basic' | 'full'

    def __post_init__(self):
        for name in ("n", "d", "m", "max_iters", "seed", "reorth_cadence"):
            _check_type(self, name, numbers.Integral, "an integer")
        for name in ("zeta_star", "init_target"):
            _check_type(self, name, numbers.Real, "a number")
        if not 1 <= self.d < self.n:
            raise ValueError(f"need 1 <= d < n, got d={self.d}, n={self.n}")
        if not 0.0 < self.zeta_star < 1.0:
            raise ValueError("zeta_star must lie in (0, 1)")
        if self.max_iters < 1 or self.reorth_cadence < 1:
            raise ValueError("max_iters and reorth_cadence must be >= 1")
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
    """Binned per-step similarity ratios with theory overlays.

    Bins partition [0, 1) uniformly by the pre-step similarity. For each
    bin: sample count, empirical mean ratio, its standard error, the mean
    pre-step similarity of contributing samples, the theory factor at the
    bin center, and (when a per-step theory function was supplied) the
    mean of per-step theory values.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    mean_ratio: np.ndarray
    std_err: np.ndarray
    mean_zeta: np.ndarray
    theory: np.ndarray
    theory_step_mean: np.ndarray

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


def _setup_trial(config: TrialConfig, rng: np.random.Generator):
    if config.truth_kind == "dense":
        truth = datagen.gen_dense_truth(config.n, config.d, rng)
    else:
        truth = datagen.gen_sparse_truth(config.n, config.d, rng)
    if config.init == "random":
        state = grouse.init_random(
            config.n, config.d, rng, reorth_every=config.reorth_cadence
        )
    else:
        target = config.init_target
        if target is None:
            target = 0.5 * config.d * truth.mu0 / (16.0 * config.n)
        U0 = datagen.perturb_within_region(truth.Ubar, target, rng)
        state = grouse.GrouseState(U=U0, reorth_every=config.reorth_cadence)
    return truth, state


class _OverlapTracker:
    """Maintains M = Ubar^T U across rank-one updates and reorthonormalizations."""

    def __init__(self, Ubar: np.ndarray, U: np.ndarray):
        self.Ubar = Ubar
        self.M = Ubar.T @ U

    def advance(self, state: grouse.GrouseState, report: grouse.StepReport) -> None:
        if report.reorthonormalized:
            self.M = self.Ubar.T @ state.U
        elif report.update_dir is not None:
            self.M += np.outer(self.Ubar.T @ report.update_dir, report.update_coeffs)

    def zeta(self) -> float:
        return float(np.exp(metrics.log_similarity(self.M)))


def run_trial(config: TrialConfig) -> TrialSeries:
    """Run one seeded stream until the similarity target or the cap."""
    start = time.perf_counter()
    rng = datagen.trial_rng(config.seed, 0)
    truth, state = _setup_trial(config, rng)
    tracker = _OverlapTracker(truth.Ubar, state.U)

    record = config.diagnostics_level != "none"
    full_diag = config.diagnostics_level == "full"
    cols: dict[str, list] = {c: [] for c in SERIES_COLUMNS} if record else {}

    converged = False
    iterations = None
    step_counts = dict.fromkeys(StepStatus, 0)
    reorthonormalizations = 0
    zeta = tracker.zeta()
    stream = datagen.gen_stream(truth, config.op_spec(), config.max_iters, rng)
    for t, sample in enumerate(stream):
        delta = np.nan
        bound = np.nan
        if full_diag:
            try:
                delta = theory.delta_term(state.U, truth.Ubar, sample.op, sample.v)
            except (theory.SingularOverlap, grouse.RankDeficient):
                delta = np.nan
        report = grouse.step(state, sample.op, sample.x)
        tracker.advance(state, report)
        step_counts[report.status] += 1
        reorthonormalizations += report.reorthonormalized
        zeta = tracker.zeta()
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
        metadata={"mu0": truth.mu0, "truth_kind": truth.kind},
    )


def default_theory_fn(config: TrialConfig):
    """Bin-center theory overlay for the configured sampling mode.

    For Gaussian sampling the rate depends on the largest principal
    angle as well; the overlay assumes equal angles at the given
    similarity, which is the optimistic extreme. Prefer a per-step
    theory function for that case.
    """
    if config.op_kind == "full":
        return lambda zeta: theory.expected_rate_full(zeta, config.d)
    if config.op_kind == "entrywise":
        return lambda zeta: theory.expected_rate_missing(
            zeta, config.d, config.m, config.n
        ).rate

    def cs_rate(zeta: float) -> float:
        phi = float(np.arccos(np.clip(zeta ** (1.0 / (2 * config.d)), 0.0, 1.0)))
        phi = min(phi, np.pi / 2 - 1e-9)
        return theory.expected_rate_cs(
            zeta, config.d, config.m, config.n, delta=0.25, phi_d=phi
        ).rate

    return cs_rate


def monte_carlo_ratio(
    config: TrialConfig,
    num_steps: int,
    num_trials: int,
    bins: int = 20,
    theory_fn=None,
    theory_step_fn=None,
    warmup_targets=None,
) -> ImprovementHistogram:
    """Empirical per-step improvement, binned by pre-step similarity.

    Runs num_trials independent streams of num_steps updates each;
    skipped steps contribute nothing. theory_fn(zeta) is evaluated at
    bin centers; theory_step_fn(zeta, phi_d), when given, is evaluated
    at every recorded step and averaged per bin.

    warmup_targets, when given, is cycled across trials: before the
    measured steps, each trial is advanced with cheap fully sampled
    updates until its similarity reaches the target, so the histogram
    covers similarity levels a short undersampled run could not reach.
    """
    if theory_fn is None:
        theory_fn = default_theory_fn(config)
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts = np.zeros(bins, dtype=np.int64)
    mean = np.zeros(bins)
    m2 = np.zeros(bins)
    zeta_sum = np.zeros(bins)
    theory_sum = np.zeros(bins)

    for trial in range(num_trials):
        rng = datagen.trial_rng(config.seed, trial)
        truth, state = _setup_trial(config, rng)
        tracker = _OverlapTracker(truth.Ubar, state.U)
        if warmup_targets is not None:
            target = warmup_targets[trial % len(warmup_targets)]
            _warmup_full(state, truth, tracker, target, rng)
        log_zeta = metrics.log_similarity(tracker.M)
        for sample in datagen.gen_stream(truth, config.op_spec(), num_steps, rng):
            if theory_step_fn is not None:
                cosines = metrics.overlap_cosines(tracker.M)
            report = grouse.step(state, sample.op, sample.x)
            tracker.advance(state, report)
            new_log_zeta = metrics.log_similarity(tracker.M)
            if report.status is StepStatus.UPDATED and np.isfinite(log_zeta):
                zeta = float(np.exp(log_zeta))
                ratio = float(np.exp(new_log_zeta - log_zeta))
                b = min(int(zeta * bins), bins - 1)
                counts[b] += 1
                delta_mean = ratio - mean[b]
                mean[b] += delta_mean / counts[b]
                m2[b] += delta_mean * (ratio - mean[b])
                zeta_sum[b] += zeta
                if theory_step_fn is not None:
                    phi_d = float(np.arccos(cosines[-1]))
                    theory_sum[b] += theory_step_fn(zeta, phi_d)
            log_zeta = new_log_zeta

    with np.errstate(invalid="ignore", divide="ignore"):
        variance = np.where(counts > 1, m2 / np.maximum(counts - 1, 1), np.nan)
        std_err = np.sqrt(variance / np.maximum(counts, 1))
        mean_zeta = np.where(counts > 0, zeta_sum / np.maximum(counts, 1), np.nan)
        theory_step_mean = np.where(
            counts > 0, theory_sum / np.maximum(counts, 1), np.nan
        )
    centers = 0.5 * (edges[:-1] + edges[1:])
    theory_vals = np.array([theory_fn(c) for c in centers])
    return ImprovementHistogram(
        bin_edges=edges,
        counts=counts,
        mean_ratio=np.where(counts > 0, mean, np.nan),
        std_err=std_err,
        mean_zeta=mean_zeta,
        theory=theory_vals,
        theory_step_mean=theory_step_mean,
    )


def _warmup_full(state, truth, tracker, target_zeta, rng, cap=20_000):
    """Advance a trial with fully sampled updates until zeta >= target."""
    spec = datagen.OpSpec("full")
    for sample in datagen.gen_stream(truth, spec, cap, rng):
        if tracker.zeta() >= target_zeta:
            return
        report = grouse.step(state, sample.op, sample.x)
        tracker.advance(state, report)


@dataclass
class SweepCell:
    n: int
    d: int
    m: int | None
    mean_ratio: float
    var_ratio: float
    fail_frac: float
    trials: int


def _sweep_trial(args):
    config, bound = args
    series = run_trial(config)
    if not series.converged:
        return None
    return series.iterations / bound


def sweep(
    base: TrialConfig,
    grid: list[tuple[int, int, int | None]],
    trials_per_cell: int,
    bound_fn,
    jobs: int = 1,
    cap_multiple: float | None = None,
) -> list[SweepCell]:
    """Ratio of actual iterations to bound_fn(n, d, m) over a (n, d, m) grid.

    Trials that hit the iteration cap count toward fail_frac and are
    excluded from the ratio statistics. With cap_multiple, each cell's
    cap is int(cap_multiple * bound_fn(n, d, max(m, d + 1))) + 1 instead
    of base.max_iters: rank-deficient cells (m <= d) would otherwise burn
    the whole budget on skipped steps.
    """
    cells = []
    for n, d, m in grid:
        bound = bound_fn(n, d, m)
        cell = dataclasses.replace(base, n=n, d=d, m=m, diagnostics_level="none")
        if cap_multiple is not None:
            cap_m = None if m is None else max(m, d + 1)
            cell = dataclasses.replace(
                cell, max_iters=int(cap_multiple * bound_fn(n, d, cap_m)) + 1
            )
        tasks = [
            (dataclasses.replace(cell, seed=base.seed + 1000 * len(cells) + trial), bound)
            for trial in range(trials_per_cell)
        ]
        if jobs > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                ratios = list(pool.map(_sweep_trial, tasks))
        else:
            ratios = [_sweep_trial(t) for t in tasks]
        ok = np.array([r for r in ratios if r is not None])
        failed = sum(r is None for r in ratios)
        cells.append(
            SweepCell(
                n=n,
                d=d,
                m=m,
                mean_ratio=float(np.mean(ok)) if ok.size else np.nan,
                var_ratio=float(np.var(ok, ddof=1)) if ok.size > 1 else np.nan,
                fail_frac=failed / trials_per_cell,
                trials=trials_per_cell,
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

    Returns {"passed": bool, "identities": {name: {max_violation,
    tolerance, passed, samples}}}. Identities that do not apply to the
    configured sampling mode report zero samples.
    """
    rng = datagen.trial_rng(config.seed, 0)
    truth, state = _setup_trial(config, rng)
    tracker = _OverlapTracker(truth.Ubar, state.U)
    worst = {name: 0.0 for name in INVARIANT_TOLERANCES}
    samples = {name: 0 for name in INVARIANT_TOLERANCES}

    def note(name, violation):
        worst[name] = max(worst[name], float(violation))
        samples[name] += 1

    for sample in datagen.gen_stream(truth, config.op_spec(), num_steps, rng):
        U_before = state.U.copy()
        sign_before, logdet_before = np.linalg.slogdet(tracker.M)
        cosines_before = metrics.overlap_cosines(tracker.M)

        v_par, v_perp = project(U_before, sample.v)
        norm_v_par = float(np.linalg.norm(v_par))
        norm_v_perp = float(np.linalg.norm(v_perp))

        try:
            delta = theory.delta_term(U_before, truth.Ubar, sample.op, sample.v)
        except (theory.SingularOverlap, grouse.RankDeficient):
            delta = None
        try:
            w_par, _ = theory.coefficient_split(U_before, sample.op, sample.v)
        except grouse.RankDeficient:
            w_par = None

        report = grouse.step(state, sample.op, sample.x)
        tracker.advance(state, report)

        # Identities independent of the update outcome.
        frob = float(np.sum(1.0 - cosines_before**2))
        zeta_before = float(np.exp(metrics.log_similarity_from_logdet(logdet_before)))
        note("similarity_vs_frobenius_discrepancy", (1.0 - frob) - zeta_before)
        if norm_v_perp > 1e-12:
            sin_phi_d = float(np.sqrt(max(0.0, 1.0 - cosines_before[-1] ** 2)))
            overlap = float(np.linalg.norm(truth.Ubar.T @ v_perp))
            note(
                "truth_overlap_of_residual",
                (overlap - sin_phi_d * norm_v_perp) / norm_v_perp,
            )
        if w_par is not None:
            note(
                "projection_matches_truth_component",
                np.linalg.norm(U_before @ w_par - v_par)
                / max(np.linalg.norm(sample.v), 1e-300),
            )

        if report.status is not StepStatus.UPDATED:
            continue

        B = sampling.restrict_basis(sample.op, U_before)
        r_tilde = sample.x - B @ report.w
        note(
            "residual_orthogonal_to_sampled_basis",
            np.linalg.norm(B.T @ r_tilde) / max(np.linalg.norm(sample.x), 1e-300),
        )

        if report.reorthonormalized:
            # Reorthonormalization may rotate columns; the determinant
            # identities below compare raw determinants, so recompute the
            # post-step overlap from the pre-reorth update instead.
            M_after = tracker.Ubar.T @ U_before + np.outer(
                tracker.Ubar.T @ report.update_dir, report.update_coeffs
            )
        else:
            M_after = tracker.M
        sign_after, logdet_after = np.linalg.slogdet(M_after)
        det_ratio = float(sign_before * sign_after * np.exp(logdet_after - logdet_before))
        zeta_ratio = det_ratio**2

        if config.op_kind == "full" and norm_v_par > 1e-12:
            predicted = theory.exact_full_ratio(norm_v_par, norm_v_perp)
            note("full_data_exact_ratio", abs(zeta_ratio / predicted - 1.0))
        if config.op_kind != "full" and delta is not None:
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
    return {
        "passed": all(v["passed"] for v in identities.values()),
        "identities": identities,
    }

