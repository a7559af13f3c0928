"""Mean-field dynamics tests: activation profile, slot map, fixed points,
affine structure on the marginal-rung region, and stability certificates."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whittlesched import (
    ChannelClass,
    ClassMix,
    FluidModel,
    analytic_blocks,
    fluid_trajectory,
    linearize,
    off_age,
    on_age,
    solve_relaxed,
    stability_certificate,
)
from whittlesched.cli import main as cli_main, parse_mix
from whittlesched.presets import get_preset

FIXED_POINT_TOL = 1e-10
AFFINE_TOL = 1e-12
ANALYTIC_TOL = 1e-12
CLASS_MASS_TOL = 1e-12
DECAY_TOL = 1e-8

PRESET_NAMES = ["single", "two"]

# frozen from the canonical two-class linearization (Frobenius Gelfand
# estimates of the closed-loop matrix U* + I at powers 64/128/256)
TWO_CLASS_GELFAND = {
    64: 0.6246090084438354,
    128: 0.6070131955877898,
    256: 0.5982802730402855,
}


@pytest.fixture(params=PRESET_NAMES)
def preset(request):
    solution = request.getfixturevalue(f"{request.param}_solution")
    table = request.getfixturevalue(f"{request.param}_table")
    return solution, table


@pytest.fixture(scope="module")
def two_lin(two_solution):
    return linearize(two_solution)


@pytest.fixture(scope="module")
def single_lin(single_solution):
    return linearize(single_solution)


def random_state(model, rng):
    """Random point of the product simplex (per-class mass gamma_k)."""
    z = np.empty(model.dim)
    for k in range(model.mix.n_classes):
        sl = model.class_slice(k)
        z[sl] = model.mix.gamma[k] * rng.dirichlet(np.ones(model.block))
    return z


def region_point(model, zeta, rung_idx, rng, scale=2e-3):
    """Perturb the fixed point along class-mass-preserving directions until
    the result is nonnegative and still inside the marginal-rung region."""
    support = np.flatnonzero(zeta > 1e-6)
    for _ in range(60):
        z = zeta.copy()
        for k in range(model.mix.n_classes):
            sl = model.class_slice(k)
            idx = support[(support >= sl.start) & (support < sl.stop)]
            if len(idx) < 2:
                continue
            noise = rng.normal(size=len(idx))
            noise -= noise.mean()
            z[idx] += scale * noise
        if z.min() >= 0.0 and model.in_linear_region(z, rung_idx):
            return z
        scale *= 0.5
    raise AssertionError("could not sample a point inside the linear region")


# ---------------------------------------------------------------------------
# activation profile


def test_profile_at_single_class_fixed_point(single_solution, single_table):
    model = FluidModel(single_solution.mix, single_table)
    zeta = single_solution.zeta
    g = model.activation_profile(zeta)
    expected = np.ones(model.dim)
    expected[model.position(0, off_age(1))] = 1.0 / 6.0
    assert g == pytest.approx(expected, abs=1e-12)
    assert float(g @ zeta) == pytest.approx(single_solution.mix.alpha, abs=1e-12)


def test_profile_serves_everything_with_unit_budget(single_solution):
    mix = single_solution.mix
    model = FluidModel(ClassMix(mix.classes, mix.gamma, 1.0))
    on1, off2, off1 = (model.position(0, s) for s in (on_age(1), off_age(2), off_age(1)))
    # a dyadic state: its sums in ladder order are exact, so all of it is served
    z = np.zeros(model.dim)
    z[[on1, off2, off1]] = 0.5, 0.25, 0.25
    assert np.all(model.activation_profile(z) == 1.0)
    # zeta's masses added in ladder order (OnAge(1), OffAge(2), OffAge(1)) may
    # exceed 1 by rounding; the last rung, OffAge(1), is left exactly that
    # excess unserved and everything else is served in full
    zeta = single_solution.zeta
    above = zeta[on1] + zeta[off2]
    excess = Fraction(above) + Fraction(zeta[off1]) - 1
    g = model.activation_profile(zeta)
    assert np.all(np.delete(g, off1) == 1.0)
    want = 1.0 if excess <= 0 else (zeta[off1] - float(excess)) / zeta[off1]
    assert g[off1] == want


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_profile_budget_and_threshold_structure(preset, seed):
    solution, table = preset
    model = FluidModel(solution.mix, table)
    rng = np.random.default_rng(seed)
    z = random_state(model, rng)
    g = model.activation_profile(z)
    assert g.min() >= 0.0 and g.max() <= 1.0
    assert float(g @ z) == pytest.approx(min(model.alpha, z.sum()), abs=1e-12)
    # down the ladder the massed rungs read 1...1, at most one partial, 0...0
    levels = []
    for _, pos in model.rungs:
        if z[pos].sum() > 0.0:
            levels.append(float(g[pos][0]))
    partials = [v for v in levels if 0.0 < v < 1.0]
    assert len(partials) <= 1
    first_not_full = next((i for i, v in enumerate(levels) if v < 1.0), len(levels))
    assert all(v == 0.0 for v in levels[first_not_full + 1:])


def test_profile_ties_within_a_rung_share_one_fraction(two_solution, two_table):
    model = FluidModel(two_solution.mix, two_table)
    g = model.activation_profile(two_solution.zeta)
    for _, pos in model.rungs:
        assert np.ptp(g[pos]) == 0.0


# ---------------------------------------------------------------------------
# slot map and generator matrix


@pytest.mark.parametrize("seed", [1, 12])
def test_transition_matrix_matches_step(preset, seed):
    solution, table = preset
    model = FluidModel(solution.mix, table)
    z = random_state(model, np.random.default_rng(seed))
    q = model.transition_matrix(z)
    assert np.abs(q.sum(axis=0)).max() < 1e-13
    assert z + q @ z == pytest.approx(model.step(z), abs=1e-13)


@pytest.mark.parametrize("name", ["single-class", "two-class", "fig5"])
def test_batched_step_rows_equal_single_steps(name):
    model = FluidModel(parse_mix(get_preset(name)["mix"]))
    rng = np.random.default_rng(11)
    batch = np.stack([random_state(model, rng) for _ in range(20)])
    for _ in range(120):
        nxt = model.step(batch)
        assert nxt.shape == batch.shape
        for row, z in zip(nxt, batch):
            assert np.array_equal(row, model.step(z))
        batch = nxt


def test_step_conserves_class_mass(preset):
    solution, table = preset
    model = FluidModel(solution.mix, table)
    rng = np.random.default_rng(42)
    for _ in range(10):
        z = random_state(model, rng)
        for t in range(300):
            z = model.step(z)
            assert z.min() >= 0.0
        for k in range(model.mix.n_classes):
            assert z[model.class_slice(k)].sum() == pytest.approx(
                model.mix.gamma[k], abs=CLASS_MASS_TOL)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_step_invariants_hold_from_any_start(two_solution, two_table, seed):
    model = FluidModel(two_solution.mix, two_table)
    z = random_state(model, np.random.default_rng(seed))
    g = model.activation_profile(z)
    assert float(g @ z) == pytest.approx(min(model.alpha, z.sum()), abs=1e-12)
    nxt = model.step(z)
    assert nxt.min() >= 0.0
    for k in range(model.mix.n_classes):
        assert nxt[model.class_slice(k)].sum() == pytest.approx(
            model.mix.gamma[k], abs=CLASS_MASS_TOL)


def test_validate_rejects_malformed_states(single_table):
    model = FluidModel(single_table.mix, single_table)
    with pytest.raises(ValueError, match="shape"):
        model.validate(np.zeros(model.dim + 1))
    bad = np.zeros(model.dim)
    bad[0] = -1e-3
    with pytest.raises(ValueError, match="negative"):
        model.validate(bad)
    wrong = np.zeros(model.dim)
    wrong[0] = 0.5
    with pytest.raises(ValueError, match="gamma"):
        model.validate(wrong)


# ---------------------------------------------------------------------------
# fixed points and trajectories


def test_zeta_is_a_fixed_point(preset):
    solution, table = preset
    model = FluidModel(solution.mix, table)
    resid = np.abs(model.step(solution.zeta) - solution.zeta).max()
    assert resid < FIXED_POINT_TOL


def test_trajectory_constant_at_fixed_point(preset):
    solution, table = preset
    traj = fluid_trajectory(solution.zeta, 50, table, zeta=solution.zeta)
    assert traj.distances.shape == (51,)
    assert traj.distances.max() < 1e-12


def test_small_perturbation_decays(preset):
    solution, table = preset
    model = FluidModel(solution.mix, table)
    rung = model.crossing_rung(solution)
    zeta = solution.zeta
    probe = region_point(model, zeta, rung, np.random.default_rng(5))
    delta = probe - zeta
    delta *= 1e-3 / np.linalg.norm(delta)
    traj = fluid_trajectory(zeta + delta, 2000, table, zeta=zeta)
    assert traj.distances[0] == pytest.approx(1e-3, rel=1e-9)
    assert traj.distances[500] < traj.distances[0]
    assert traj.distances[-1] < DECAY_TOL


def test_random_starts_converge_to_zeta(preset):
    solution, table = preset
    zeta = solution.zeta
    rng = np.random.default_rng(9)
    model = FluidModel(solution.mix, table)
    for _ in range(4):
        z0 = random_state(model, rng)
        traj = fluid_trajectory(z0, 5000, table, zeta=zeta)
        assert traj.distances[-1] < 1e-8


def test_trajectory_shapes_and_region_flags(two_solution, two_table):
    model = FluidModel(two_solution.mix, two_table)
    rung = model.crossing_rung(two_solution)
    traj = fluid_trajectory(two_solution.zeta, 10, two_table,
                            zeta=two_solution.zeta, region=(model, rung),
                            store_path=True)
    assert traj.path.shape == (11, model.dim)
    assert traj.in_region.shape == (11,)
    assert bool(traj.in_region.all())
    assert np.array_equal(traj.path[0], two_solution.zeta)


def test_trajectory_from_all_mass_at_first_off_age(preset):
    solution, table = preset
    model = FluidModel(solution.mix, table)
    rung = model.crossing_rung(solution)
    z0 = np.zeros(model.dim)
    for k in range(model.mix.n_classes):
        z0[model.position(k, off_age(1))] = model.mix.gamma[k]
    traj = fluid_trajectory(z0, 400, table, zeta=solution.zeta,
                            region=(model, rung))
    model.validate(traj.final)
    assert np.isfinite(traj.distances).all()
    # the corner start pins the marginal rung for the single-class chain (all
    # mass sits on it) but not for the two-class one (its rung starts empty)
    expected_start_in_region = model.mix.n_classes == 1
    assert bool(traj.in_region[0]) is expected_start_in_region
    assert traj.distances[-1] < traj.distances[0]


def test_trajectory_validates_start(single_table):
    z0 = np.zeros(2 * single_table.mix.tau + 1)
    z0[0] = -0.5
    with pytest.raises(ValueError, match="negative"):
        fluid_trajectory(z0, 5, single_table)


# ---------------------------------------------------------------------------
# linearization on the marginal-rung region


def test_crossing_rung_matches_omega_star(preset):
    solution, table = preset
    model = FluidModel(solution.mix, table)
    idx = model.crossing_rung(solution)
    assert model.rungs[idx][0] == solution.omega_star


def test_crossing_rung_rejects_foreign_solution(single_table, two_solution):
    model = FluidModel(single_table.mix, single_table)
    with pytest.raises(ValueError, match="not a rung"):
        model.crossing_rung(two_solution)


def test_affine_form_is_exact_on_the_region(preset):
    solution, table = preset
    lin = linearize(solution)
    model = FluidModel(solution.mix, table)
    rung = model.crossing_rung(solution)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        z = region_point(model, solution.zeta, rung, rng)
        full = model.step(z)
        worst = max(worst, np.abs(full - lin.affine_step(z)).max())
        reduced = lin.reduce(z)
        reduced_next = reduced + lin.u_star @ reduced + lin.b_star
        worst = max(worst, np.abs(lin.reduce(full) - reduced_next).max())
    assert worst < AFFINE_TOL


def test_linearization_fixed_point_identities(preset):
    solution, _ = preset
    lin = linearize(solution)
    zeta = solution.zeta
    assert lin.affine_step(zeta) == pytest.approx(zeta, abs=1e-13)
    assert np.abs(lin.u_star @ lin.zeta_reduced + lin.b_star).max() < 1e-15
    assert np.array_equal(lin.reduce(zeta), lin.zeta_reduced)
    n = solution.mix.n_classes
    assert len(lin.eliminated) == n
    dim = len(zeta)
    assert lin.u_star.shape == (dim - n, dim - n)
    assert lin.region.omega_star == solution.omega_star


def test_eliminated_coordinates_follow_the_policies(two_solution, two_table):
    lin = linearize(two_solution)
    model = FluidModel(two_solution.mix, two_table)
    pol = two_solution.policies
    assert pol[0].randomized is False and pol[0].threshold_age == 3
    assert pol[1].randomized is True and pol[1].threshold_age == 6
    expected = (model.position(0, off_age(2)), model.position(1, off_age(6)))
    assert lin.eliminated == expected


def test_linearize_rejects_degenerate_solution():
    mix = ClassMix((ChannelClass(0.9, 0.8), ChannelClass(0.6, 0.1)),
                   (0.5, 0.5), 0.4)
    solution = solve_relaxed(mix)
    assert solution.degenerate
    with pytest.raises(ValueError, match="degenerate"):
        linearize(solution)


def test_linearize_rejects_boundary_alpha():
    solution = solve_relaxed(ClassMix((ChannelClass(0.8, 0.2),), (1.0,), 1.0))
    assert solution.rho_star == 1.0
    with pytest.raises(ValueError, match="non-generic alpha"):
        linearize(solution)


def test_linearize_rejects_tied_crossing_rung():
    mix = ClassMix((ChannelClass(0.8, 0.2), ChannelClass(0.8, 0.2)),
                   (0.5, 0.5), 0.75)
    solution = solve_relaxed(mix)
    with pytest.raises(ValueError, match="tied across classes"):
        linearize(solution)


def test_linearize_with_an_empty_eliminated_coordinate(tmp_path):
    # the second class has threshold age 1, so its eliminated coordinate is
    # the stationary state, where zeta holds no mass
    mix = {"classes": [{"p": 0.6, "r": 0.075, "tau": 16},
                       {"p": 0.6, "r": 0.3, "tau": 16}],
           "gamma": [0.45, 0.55], "alpha": 0.6}
    solution = solve_relaxed(parse_mix(mix))
    lin = linearize(solution)
    assert solution.zeta[list(lin.eliminated)].min() == 0.0
    assert np.isfinite(lin.u_star).all() and np.isfinite(lin.b_star).all()
    model = FluidModel(solution.mix, solution.table)
    rung = model.crossing_rung(solution)
    rng = np.random.default_rng(29)
    for _ in range(50):
        z = region_point(model, solution.zeta, rung, rng)
        assert np.abs(model.step(z) - lin.affine_step(z)).max() < AFFINE_TOL
    assert stability_certificate(lin.u_star).certified
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"schema": 1, "mix": mix}))
    assert cli_main(["pipeline", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "pipeline_report.json").read_text())
    assert report["status"] == "pass"


# ---------------------------------------------------------------------------
# closed-form blocks for the canonical two-class configuration


def test_analytic_blocks_match_numeric_linearization(two_solution, two_lin):
    blocks = analytic_blocks(two_solution)
    assert blocks.randomized_class == 1
    assert blocks.deterministic_class == 0
    assert np.abs(blocks.u_star - two_lin.u_star).max() < ANALYTIC_TOL
    assert np.abs(blocks.b_star - two_lin.b_star).max() < ANALYTIC_TOL


def test_analytic_block_layout(two_solution):
    blocks = analytic_blocks(two_solution)
    size = blocks.q_randomized.shape[0]
    sl = [slice(0, size), slice(size, 2 * size)]
    r, d = blocks.randomized_class, blocks.deterministic_class
    assert np.array_equal(blocks.u_star[sl[r], sl[r]], blocks.q_randomized)
    assert np.array_equal(blocks.u_star[sl[d], sl[d]], blocks.q_deterministic)
    assert np.array_equal(blocks.u_star[sl[r], sl[d]], blocks.coupling)
    # the deterministic class evolves autonomously inside the region
    assert np.all(blocks.u_star[sl[d], sl[r]] == 0.0)


def test_analytic_blocks_reject_noncanonical_inputs(single_solution):
    with pytest.raises(ValueError, match="two-class"):
        analytic_blocks(single_solution)
    transient = solve_relaxed(ClassMix(
        (ChannelClass(0.9, 0.8), ChannelClass(0.6, 0.1)), (0.5, 0.5), 0.4))
    with pytest.raises(ValueError, match="degenerate"):
        analytic_blocks(transient)
    tied = solve_relaxed(ClassMix(
        (ChannelClass(0.8, 0.2), ChannelClass(0.8, 0.2)), (0.5, 0.5), 0.75))
    with pytest.raises(ValueError, match="exactly one randomized"):
        analytic_blocks(tied)


# ---------------------------------------------------------------------------
# stability certificates


def test_certificate_holds_for_both_presets(preset):
    solution, _ = preset
    cert = stability_certificate(linearize(solution).u_star)
    assert cert.certified
    assert [k for k, _ in cert.estimates] == [64, 128, 256]
    values = [v for _, v in cert.estimates]
    assert all(v < 1.0 for v in values)
    assert values[0] > values[1] > values[2]


def test_certificate_two_class_values_are_stable(two_lin):
    cert = stability_certificate(two_lin.u_star)
    for k, value in cert.estimates:
        assert value == pytest.approx(TWO_CLASS_GELFAND[k], rel=1e-9)


def test_certificate_trivial_contraction():
    cert = stability_certificate(-np.eye(6))
    assert cert.certified
    assert all(v == 0.0 for _, v in cert.estimates)


def test_certificate_refuses_expanding_map():
    cert = stability_certificate(0.5 * np.eye(4))
    assert not cert.certified
    assert "not certified" in cert.note


def test_certificate_rejects_unreachable_powers():
    with pytest.raises(ValueError, match="repeated squaring"):
        stability_certificate(-np.eye(3), powers=(48,))
    with pytest.raises(ValueError, match="repeated squaring"):
        stability_certificate(-np.eye(3), powers=(64, 100))
