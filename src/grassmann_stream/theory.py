"""Closed-form evaluators for the convergence rates, bounds, and sample
complexities, plus the perturbation diagnostic for undersampled updates.

Each evaluator is a direct transcription of a closed-form expression;
nothing here runs the algorithm. Probability expressions arising from
union bounds can go negative for small sample counts; they are clamped
to [0, 1] and flagged as vacuous in the params map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics


class ZeroProjection(ValueError):
    pass


class SingularOverlap(ValueError):
    """The overlap matrix between estimate and truth is singular (zeta = 0)."""


@dataclass(frozen=True)
class RateBound:
    """Multiplicative expected per-step improvement factor on the similarity.

    probability is the confidence the factor holds (1.0 when
    deterministic); params records the intermediate quantities.
    """

    rate: float
    probability: float
    params: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ComplexityBound:
    """An iteration or measurement count with its named components."""

    value: float
    components: dict[str, float] = field(default_factory=dict)


# --- fully sampled data ---------------------------------------------------


def exact_full_ratio(norm_v_par: float, norm_v_perp: float) -> float:
    """Per-step similarity ratio for full data: 1 + ||v_perp||^2 / ||v_par||^2."""
    if norm_v_par <= 0.0:
        raise ZeroProjection("projection norm must be positive")
    return 1.0 + (norm_v_perp / norm_v_par) ** 2


def expected_rate_full(zeta: float, d: int) -> float:
    """Expected improvement factor with full data: 1 + (1 - zeta)/d."""
    return 1.0 + (1.0 - zeta) / d


# The constant C in the expected initial similarity C (d / (n e))^d of a
# random start; the analysis pins it only as approximately 1.
C = 1.0


def iteration_bound_full(n: int, d: int, rho: float, zeta_star: float) -> ComplexityBound:
    """Iterations sufficient for similarity >= zeta_star w.p. >= 1 - 2*rho.

    Two phases: K1 climbs from a random start to similarity 1/2, K2
    closes the remaining gap. The components record the module's C.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if not 0.0 < zeta_star < 1.0:
        raise ValueError("zeta_star must lie in (0, 1)")
    log_n = math.log(n)
    tau0 = 1.0 + (math.log((1.0 - rho / 2.0) / C) + d * math.log(math.e / d)) / (
        d * log_n
    )
    K1 = (2.0 * d**2 / rho + 1.0) * tau0 * log_n
    K2 = 2.0 * d * math.log(1.0 / (2.0 * rho * (1.0 - zeta_star)))
    return ComplexityBound(value=K1 + K2, components={"K1": K1, "K2": K2, "tau0": tau0, "C": C})


def heuristic_iterations(n: int, m: int, d: int, zeta_star: float) -> float:
    """Observed iteration scale: full-data count over the sampling density.

    (n/m) * (d^2 log n + d log(1/(1 - zeta_star))).
    """
    if m > n:
        raise ValueError("m must not exceed n")
    return (n / m) * (d**2 * math.log(n) + d * math.log(1.0 / (1.0 - zeta_star)))


# --- undersampled data ----------------------------------------------------


def coefficient_split(
    qr: numerics.HouseholderQR, x: np.ndarray, x_par: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split the least-squares coefficients of x against B = A U.

    qr is the Householder QR of B = Q R that the step's own solve made
    (StepReport.qr), so B is neither factored nor rank-tested again.
    x = A v are the measurements of v and x_par = A v_par those of its
    projection v_par onto span(U). Returns (w_par, w_perp): the
    coefficients of x_par and of x - x_par, R^-1 Q^T [x_par, x - x_par]
    from one solve with a two-column right-hand side. Their sum solves the
    least squares of x. Q is formed from the reflectors by LAPACK's orgqr,
    which is as backward stable as applying them (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 19).

    The measurements of v_perp are taken as x - x_par, so a lazy Gaussian
    operator is not asked about v_perp: near convergence its rounding
    error would look like a new direction.
    """
    X = np.column_stack((x_par, x - x_par))
    W = numerics.solve(qr.R, qr.Q().T @ X)
    return W[:, 0], W[:, 1]


def delta_term(M: np.ndarray, Ubar_r: np.ndarray, w_perp: np.ndarray) -> float:
    """The perturbation undersampling injects into the determinant update.

    Delta = w_perp^T M^{-1} Ubar^T r, where M = Ubar^T U is the overlap of
    the basis U before the step, w_perp is the coefficient leakage of the
    orthogonal remainder of v (from coefficient_split) and Ubar_r = Ubar^T r
    for the lifted residual r = A^T (x - B w) of the least-squares solution
    w = w_par + w_perp. O(d^3). Zero (to rounding) for full sampling. Raises
    SingularOverlap when M is exactly singular.
    """
    try:
        return float(w_perp @ numerics.solve(M, Ubar_r))
    except np.linalg.LinAlgError as exc:
        raise SingularOverlap("estimate and truth share no overlap in some direction") from exc


def step_lower_bound_undersampled(
    norm_p: float, norm_r_tilde: float, norm_r: float, delta: float
) -> float:
    """Deterministic per-step floor on the similarity ratio.

    1 + (2 ||r_tilde||^2 - ||r||^2) / ||p||^2 + 2 Delta / ||p||^2. For
    entry-wise sampling the residual norms coincide and this reduces to
    1 + ||r||^2 / ||p||^2 + 2 Delta / ||p||^2.
    """
    if norm_p <= 0.0:
        raise ZeroProjection("projection norm must be positive")
    p_sq = norm_p**2
    return 1.0 + (2.0 * norm_r_tilde**2 - norm_r**2) / p_sq + 2.0 * delta / p_sq


def expected_rate_cs(
    zeta: float, d: int, m: int, n: int, delta: float, phi_d: float
) -> RateBound:
    """Expected improvement factor for Gaussian compressive sampling.

    rate = 1 + g1 (1 - g2 d/m) (m/n) (1 - zeta)/d, with g1, g2 as in the
    compressive-sampling guarantee; phi_d is the largest principal angle
    between estimate and truth. The statement's form of g2 (with
    sqrt((1+delta) d/m) in the denominator) is primary; the proof
    variant with sqrt((1-delta^2) d/m) is recorded in params. Vacuous when
    the probability is 0 or, below zeta = 1, the rate is at most 1.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 <= phi_d < math.pi / 2:
        raise ValueError("phi_d must lie in [0, pi/2)")
    if m > n:
        raise ValueError("m must not exceed n")
    ratio = m / n
    shrink = 1.0 - 2.0 * delta * math.sqrt(ratio)
    if shrink <= 0.0:
        raise ValueError("need 2 delta sqrt(m/n) < 1")
    g1 = (1.0 - delta) * shrink / (1.0 + math.sqrt((1.0 + delta) / (1.0 - delta) * d / m)) ** 2
    tan_term = 2.0 * math.tan(phi_d) + delta * d / math.cos(phi_d)
    g2 = (1.0 + tan_term / (shrink * math.sqrt((1.0 + delta) * d / m))) * (
        (1.0 + delta) / (1.0 - delta)
    )
    g2_proof = (
        1.0
        + 2.0
        * (math.tan(phi_d) + delta * d / math.cos(phi_d))
        / (shrink * math.sqrt((1.0 - delta**2) * d / m))
    ) * ((1.0 + delta) / (1.0 - delta))
    rate = 1.0 + g1 * (1.0 - g2 * d / m) * ratio * (1.0 - zeta) / d
    prob = (
        1.0
        - math.exp(-d * delta**2 / 8.0)
        - math.exp(-m * delta**2 / 32.0 + d * math.log(24.0 / delta))
        - (4.0 * d + 2.0) * math.exp(-m * delta**2 / 8.0)
    )
    params = {
        "gamma1": g1,
        "gamma2": g2,
        "gamma2_proof_variant": g2_proof,
        "vacuous": float(prob <= 0.0 or (zeta < 1.0 and rate <= 1.0)),
    }
    return RateBound(rate=rate, probability=min(max(prob, 0.0), 1.0), params=params)


def sample_complexity_cs(d: int, delta: float, phi_d: float, n: int) -> ComplexityBound:
    """Measurements per vector sufficient for the compressive guarantee.

    m >= d * max{ (32/delta^2) log(24 n^{2/d} / delta),
                  beta (tan phi + delta cos(phi) d)(tan phi + delta cos(phi) d + 1/2) }
    with beta = 8 (1+delta) / ((1-delta)^2 (1-2 delta)^2). The statement
    writes delta*cos(phi)*d; the proof uses delta*d/cos(phi), recorded as
    a separate component.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    beta = 8.0 * (1.0 + delta) / ((1.0 - delta) ** 2 * (1.0 - 2.0 * delta) ** 2)
    term1 = d * (32.0 / delta**2) * math.log(24.0 * n ** (2.0 / d) / delta)
    a = math.tan(phi_d) + delta * math.cos(phi_d) * d
    term2 = d * beta * a * (a + 0.5)
    a_proof = math.tan(phi_d) + delta * d / math.cos(phi_d)
    term2_proof = d * beta * a_proof * (a_proof + 0.5)
    return ComplexityBound(
        value=max(term1, term2),
        components={
            "covering_term": term1,
            "perturbation_term": term2,
            "perturbation_term_proof_variant": term2_proof,
            "beta": beta,
        },
    )


# delta in the missing-data union bounds is fixed by the analysis.
def _missing_delta(n: int) -> float:
    return 1.0 / n**2


def expected_rate_missing(zeta: float, d: int, m: int, n: int) -> RateBound:
    """Expected improvement factor with entry-wise missing data.

    rate = 1 + (1/4)(m/n)(1 - zeta)/d bounds E[zeta_next] / zeta from
    below inside the local region of the truth, with probability
    1 - 3/n^2 (clamped to [0, 1]). params holds the analysis's
    delta = 1/n^2 and the vacuous flag.
    """
    if m > n:
        raise ValueError("m must not exceed n")
    rate = 1.0 + 0.25 * (m / n) * (1.0 - zeta) / d
    prob = 1.0 - 3.0 / n**2
    return RateBound(
        rate=rate,
        probability=min(max(prob, 0.0), 1.0),
        params={"delta": _missing_delta(n), "vacuous": float(prob <= 0.0)},
    )


def _check_mu0(mu0: float, d: int, n: int) -> None:
    if not 1.0 <= mu0 <= n / d:
        raise ValueError(f"mu0 must lie in [1, n/d] = [1, {n / d:g}], got {mu0}")


def sample_complexity_missing(
    d: int, mu0: float, mu_vperp: float, n: int
) -> ComplexityBound:
    """Observed entries per vector sufficient for the missing-data guarantee.

    mu0 must lie in [1, n/d] and mu_vperp in [1, n], as their definitions do.
    """
    _check_mu0(mu0, d, n)
    if not 1.0 <= mu_vperp <= n:
        raise ValueError(f"mu_vperp must lie in [1, n] = [1, {n}], got {mu_vperp}")
    log_n = math.log(n)
    term1 = (128.0 * d * mu0 / 3.0) * math.log(math.sqrt(2.0 * d) * n)
    term2 = 64.0 * mu_vperp**2 * log_n
    term3 = 52.0 * (1.0 + 2.0 * math.sqrt(mu_vperp * log_n)) ** 2 * d * mu0
    return ComplexityBound(
        value=max(term1, term2, term3),
        components={
            "basis_coverage_term": term1,
            "residual_coverage_term": term2,
            "perturbation_term": term3,
        },
    )


def discrepancy_decay_missing(
    kappa: float, d: int, m: int, n: int, mu0: float
) -> float:
    """Expected next-step discrepancy bound with missing data.

    kappa shrinks by the factor 1 - (1/4)(1 - d mu0 / 16n)(m / (n d)), for
    mu0 in [1, n/d].
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    _check_mu0(mu0, d, n)
    factor = 1.0 - 0.25 * (1.0 - d * mu0 / (16.0 * n)) * m / (n * d)
    return factor * kappa


def expected_zeta0(n: int, d: int) -> float:
    """Expected initial similarity of a random start: C (d / (n e))^d."""
    if d >= n:
        raise ValueError("d must be below n")
    return float(math.exp(math.log(C) + d * (math.log(d) - math.log(n) - 1.0)))
