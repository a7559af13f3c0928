"""Each benchmark check accepts the program's real output and rejects a
wrong one, so no check can pass vacuously."""

import numpy as np
import pytest

import checks
from whittlesched import (
    ChannelClass,
    ClassMix,
    SimConfig,
    fluid_trajectory,
    get_preset,
    linearize,
    run_throughput,
    solve_relaxed,
    stability_certificate,
)


def _preset_mix(name):
    d = get_preset(name)["mix"]
    return ClassMix(tuple(ChannelClass(c["p"], c["r"], c["tau"]) for c in d["classes"]),
                    tuple(d["gamma"]), d["alpha"])


@pytest.fixture(scope="module")
def two_class():
    return solve_relaxed(_preset_mix("two-class"))


def test_closed_form_rejects_omega_off_by_1e_9(two_class):
    s = two_class
    checks.closed_form("two-class", s.omega_star, s.rho_star, s.throughput_per_user)
    with pytest.raises(checks.CheckError, match="omega"):
        checks.closed_form("two-class", s.omega_star + 1e-9, s.rho_star,
                           s.throughput_per_user)


def test_gelfand_rejects_one_nan_in_u_star(two_class):
    u_star = linearize(two_class).u_star
    estimates = stability_certificate(u_star).estimates
    checks.gelfand(estimates, u_star)
    broken = u_star.copy()
    broken[3, 5] = np.nan
    with pytest.raises(checks.CheckError, match="non-finite"):
        checks.gelfand(estimates, broken)


def _trajectory(solution, steps):
    gamma = solution.mix.gamma
    block = 2 * solution.mix.tau + 1
    z0 = np.zeros(len(gamma) * block)
    z0[block * np.arange(len(gamma))] = gamma  # everyone just observed OFF
    final = fluid_trajectory(z0, steps, solution.table, zeta=solution.zeta).final
    return final, gamma, block


def test_trajectory_rejects_class_mass_drift(two_class):
    final, gamma, block = _trajectory(two_class, 500)
    checks.trajectory(final, two_class.zeta, gamma, block)
    drifted = final.copy()
    drifted[block] += 1e-12
    with pytest.raises(checks.CheckError, match="mass drift"):
        checks.trajectory(drifted, two_class.zeta, gamma, block)


def test_trajectory_rejects_a_run_that_has_not_converged(two_class):
    final, gamma, block = _trajectory(two_class, 5)
    with pytest.raises(checks.CheckError, match="zeta"):
        checks.trajectory(final, two_class.zeta, gamma, block)


def test_whittle_activation_rejects_a_missed_budget():
    mix = _preset_mix("single-class")
    out = run_throughput(SimConfig(mix=mix, n_users=100, horizon=40, seed=1))
    checks.whittle_activation(out["activation"], mix.alpha)
    one_user_slot = 1.0 / (100 * out["slots"])
    with pytest.raises(checks.CheckError, match="activation"):
        checks.whittle_activation(out["activation"] - one_user_slot, mix.alpha)


def test_seed_means_reject_a_bias_of_many_standard_errors():
    rng = np.random.default_rng(0)
    sample = 0.45 + 1e-3 * rng.standard_normal(30)
    checks.mean_near(sample, 0.45, "fair")
    checks.mean_at_most(sample, 0.45, "fair")
    with pytest.raises(checks.CheckError):
        checks.mean_near(sample + 5e-3, 0.45, "biased")
    with pytest.raises(checks.CheckError):
        checks.mean_at_most(sample + 5e-3, 0.45, "above the bound")
    with pytest.raises(checks.CheckError, match="samples"):
        checks.mean_near(sample[:5], 0.45, "too few seeds")
