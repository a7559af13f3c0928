"""Output checks for the benchmark workloads.

Every function here takes plain numbers or numpy arrays produced by the
program and raises ``CheckError`` when they violate a closed form or a
property the method must have.  Nothing here imports whittlesched, so a fault
in the program cannot make a check pass by agreeing with itself.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(AssertionError):
    pass


# Closed-form relaxed optimum of the two benchmark mixes (omega*, rho*,
# per-user throughput), the values criterion 04 of the acceptance suite pins.
CLOSED_FORMS = {
    "single-class": (0.2, 1.0 / 6.0, 0.45),
    "two-class": (360.0 / 491.0, 151157.0 / 203835.0, 3397089.0 / 6832265.0),
}
# rho* comes from a bisection to 1e-13; omega* and the throughput are closed
# forms evaluated in floating point.  An error of 1e-9 must be rejected.
CLOSED_FORM_TOL = 1e-11
FIXED_POINT_TOL = 1e-10
AFFINE_TOL = 1e-12
BLOCKS_TOL = 1e-12
# Gelfand estimates are upper bounds on the spectral radius; the slack only
# absorbs the rounding of eigvals itself.
SPECTRAL_SLACK = 1e-12
ACTIVATION_TOL = 1e-12
MASS_DRIFT_TOL = 1e-14
CONVERGED_TOL = 1e-8

# Monte Carlo checks compare a mean over seeds with its target in units of the
# standard error.  A run makes twenty such comparisons and an evaluation makes
# about a hundred runs.  At 3 se each comparison of correct code fails with
# probability 0.7% (Student t, 20 seeds), so most evaluations would see a
# false alarm.  At 6 se and at least 20 seeds it is below 1e-5 per comparison
# (below 1e-6 at the 50 or more seeds a 40 s run has), while a bias of a few
# se per cell still shows.
SE_LIMIT = 6.0
MIN_SAMPLES = 20


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def closed_form(name: str, omega: float, rho: float, throughput: float) -> None:
    """The relaxed solution of a benchmark mix equals its closed form."""
    want = CLOSED_FORMS[name]
    for label, got, ref in zip(("omega*", "rho*", "throughput"),
                               (omega, rho, throughput), want):
        _require(abs(got - ref) <= CLOSED_FORM_TOL,
                 f"{name}: {label} = {got!r}, closed form {ref!r}")


def fixed_point(residual: float) -> None:
    """||F(zeta) - zeta|| is below the fixed-point tolerance."""
    _require(math.isfinite(residual) and residual < FIXED_POINT_TOL,
             f"||F(zeta) - zeta|| = {residual!r} >= {FIXED_POINT_TOL}")


def affine_match(mapped: np.ndarray, affine: np.ndarray) -> None:
    """The fluid map and the linearization's affine step agree on points of
    the marginal-rung region (rows are points)."""
    err = float(np.max(np.abs(np.asarray(mapped) - np.asarray(affine))))
    _require(err <= AFFINE_TOL, f"|F(z) - affine(z)| = {err!r} > {AFFINE_TOL}")


def gelfand(estimates, u_star: np.ndarray) -> None:
    """Gelfand estimates are finite and bound the spectral radius of
    U* + I from above, as ||A^K||^(1/K) >= rho(A) for every K."""
    values = [float(v) for _, v in estimates]
    _require(all(math.isfinite(v) for v in values),
             f"Gelfand estimates not finite: {values}")
    u_star = np.asarray(u_star, dtype=float)
    _require(bool(np.isfinite(u_star).all()),
             f"U* has {int((~np.isfinite(u_star)).sum())} non-finite entries")
    radius = float(np.max(np.abs(np.linalg.eigvals(u_star + np.eye(u_star.shape[0])))))
    low = min(values)
    _require(low >= radius - SPECTRAL_SLACK,
             f"Gelfand estimate {low!r} below the spectral radius {radius!r}")


def analytic_blocks(blocks_u: np.ndarray, blocks_b: np.ndarray,
                    lin_u: np.ndarray, lin_b: np.ndarray) -> None:
    """Closed-form reduced blocks equal the numerical linearization."""
    err = max(float(np.max(np.abs(blocks_u - lin_u))),
              float(np.max(np.abs(blocks_b - lin_b))))
    _require(err <= BLOCKS_TOL, f"analytic blocks differ from linearize by {err!r}")


def pipeline_status(report: dict) -> None:
    """A pipeline report either passes or names the transient regime with a
    reason; both are correct outcomes."""
    status = report.get("status")
    if status == "transient-regime":
        _require(bool(report["relaxed"].get("degenerate_reason")),
                 "transient-regime report without a reason")
        return
    _require(status == "pass", f"pipeline status {status!r}")


def trajectory(final: np.ndarray, zeta: np.ndarray, gamma, block: int) -> None:
    """A fluid trajectory conserves class mass, stays non-negative and ends
    at the relaxed fixed point."""
    final = np.asarray(final, dtype=float)
    for k, g in enumerate(gamma):
        drift = abs(float(final[k * block:(k + 1) * block].sum()) - g)
        _require(drift <= MASS_DRIFT_TOL, f"class {k} mass drift {drift!r}")
    low = float(final.min())
    _require(low >= 0.0, f"negative entry {low!r}")
    dist = float(np.linalg.norm(final - np.asarray(zeta)))
    _require(dist < CONVERGED_TOL, f"||z - zeta|| = {dist!r} >= {CONVERGED_TOL}")


def whittle_activation(activation: float, alpha: float) -> None:
    """The index policy spends exactly the budget every slot."""
    _require(abs(activation - alpha) <= ACTIVATION_TOL,
             f"whittle activation {float(activation)!r} != alpha {alpha!r}")


def _mean_se(values) -> tuple[float, float]:
    v = np.asarray(values, dtype=float)
    _require(v.size >= MIN_SAMPLES, f"{v.size} samples, need {MIN_SAMPLES}")
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size))


def mean_near(values, target: float, label: str) -> float:
    """Mean over seeds within SE_LIMIT standard errors of target; returns the
    deviation in standard errors."""
    mean, se = _mean_se(values)
    z = abs(mean - target) / se if se > 0 else (0.0 if mean == target else math.inf)
    _require(z <= SE_LIMIT, f"{label}: mean {mean!r} is {z:.2f} se from {target!r}")
    return z


def mean_at_most(values, bound: float, label: str) -> float:
    """Mean over seeds no more than SE_LIMIT standard errors above bound;
    returns the excess in standard errors (negative when below)."""
    mean, se = _mean_se(values)
    z = (mean - bound) / se if se > 0 else (-math.inf if mean <= bound else math.inf)
    _require(z <= SE_LIMIT, f"{label}: mean {mean!r} is {z:.2f} se above {bound!r}")
    return z
