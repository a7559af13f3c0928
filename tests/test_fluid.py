"""Mean-field dynamics tests: activation profile, slot map, fixed points,
affine structure on the marginal-rung region, and stability certificates."""

import hashlib
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
    build_index_table,
    check_state,
    fluid_trajectory,
    lattice_moves,
    lattice_states,
    linearize,
    off_age,
    on_age,
    solve_relaxed,
    stability_certificate,
    step_feedback,
    step_idle,
)
from whittlesched.cli import main as cli_main, parse_mix
from whittlesched.presets import get_preset

FIXED_POINT_TOL = 1e-10
AFFINE_TOL = 1e-12
ANALYTIC_TOL = 1e-12
CLASS_MASS_TOL = 1e-12
DECAY_TOL = 1e-8

PRESET_NAMES = ["single", "two"]

# two identical classes: every rung of the ladder is tied across them
IDENTICAL_CLASSES = ClassMix(classes=(ChannelClass(0.8, 0.2),) * 2,
                             gamma=(0.5, 0.5), alpha=0.75)

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


def named_mix(name):
    """A preset's mix, or the identical-classes one."""
    if name == "identical-classes":
        return IDENTICAL_CLASSES
    return parse_mix(get_preset(name)["mix"])


def corner(model, offset):
    """All of each class's mass on one state: offset 0 is OffAge(1) (start
    x), offset tau the stationary state (start y)."""
    z = np.zeros(model.dim)
    z[offset + model.block * np.arange(model.mix.n_classes)] = model.mix.gamma
    return z


def marginal_rung(model, z):
    return next(j for j in range(len(model.rungs)) if model.in_linear_region(z, j))


def boundary_state(model, j):
    """A state whose cumulative rung mass meets alpha exactly at the bottom
    of rung j: alpha/2 on the top rung and alpha/2 on rung j (both halves on
    the top rung when j is 0), the rest of a unit mass on the bottom rung.
    Halving is exact, so the ladder sums reach alpha exactly."""
    z = np.zeros(model.dim)
    z[model.rungs[0][1][0]] = model.alpha / 2
    z[model.rungs[j][1][-1]] += model.alpha / 2
    z[model.rungs[-1][1][0]] += 1.0 - model.alpha
    return z


def edge_states(model, rng):
    """States on which the single-state walk of ``step`` could part from the
    batch path: the corners (zero-mass rungs above and at the marginal one),
    a state with every other rung empty, states whose ladder sums meet
    alpha exactly at a rung boundary, and the x corner carrying -5e-10 (as
    ``check_state`` allows) on a rung above its marginal one."""
    states = [corner(model, 0), corner(model, model.tau)]
    z = random_state(model, rng)
    for _, pos in model.rungs[1::2]:
        z[pos] = 0.0
    states.append(z)
    n_rungs = len(model.rungs)
    states += [boundary_state(model, j) for j in (0, 1, n_rungs // 2, n_rungs - 2)]
    z = corner(model, 0)
    p = model.rungs[1][1][0]
    assert marginal_rung(model, z) > 1 and z[p] == 0.0
    z[p] = -5e-10
    z[p - p % model.block] += 5e-10  # the class's OffAge(1)
    check_state(z, model.mix)
    states.append(z)
    return np.stack(states)


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
# lattice moves


def three_case_moves(model):
    """The moves written out per layout position: OffAge(l) ages to
    OffAge(l + 1); OffAge(tau), the stationary state and OnAge(tau) to the
    stationary state; OnAge(l) to OnAge(l + 1), one position to the left.
    Observed users reset to the last (OnAge(1)) and the first (OffAge(1))
    position of their class block."""
    tau = model.tau
    age_to = np.empty(model.dim, dtype=np.intp)
    for k in range(model.mix.n_classes):
        base = k * model.block
        for i in range(model.block):
            if i < tau - 1:          # OffAge(l) -> OffAge(l+1)
                age_to[base + i] = base + i + 1
            elif i in (tau - 1, tau, tau + 1):  # OffAge(tau), stationary, OnAge(tau)
                age_to[base + i] = base + tau
            else:                    # OnAge(l) -> OnAge(l+1): one slot left
                age_to[base + i] = base + i - 1
    on1 = [k * model.block + 2 * tau for k in range(model.mix.n_classes)]
    off1 = [k * model.block for k in range(model.mix.n_classes)]
    return age_to, on1, off1


@pytest.mark.parametrize("tau", [2, 16, 32])
@pytest.mark.parametrize("n_classes", [1, 2])
def test_lattice_moves_follow_step_idle_and_step_feedback(n_classes, tau):
    classes = (ChannelClass(0.8, 0.2, tau), ChannelClass(0.9, 0.3, tau))[:n_classes]
    mix = ClassMix(classes=classes, gamma=(1.0,) if n_classes == 1 else (0.4, 0.6),
                   alpha=0.5)
    model = FluidModel(mix)
    age_to, on1, off1 = three_case_moves(model)
    assert model.age_to.tolist() == age_to.tolist()
    assert model.on1.tolist() == on1 and model.off1.tolist() == off1
    states = lattice_states(tau)
    for cls in classes:
        idle, on, off = lattice_moves(cls)
        assert [states[i] for i in idle] == [step_idle(cls, s) for s in states]
        assert (states[on], states[off]) == (step_feedback(True), step_feedback(False))


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


@pytest.mark.parametrize("name", ["single-class", "two-class", "fig5", "identical-classes"])
def test_batched_step_rows_equal_single_steps(name):
    """A batch is served through activation_profile and a single state by
    the ladder walk; every row must come out with the same bytes."""
    model = FluidModel(named_mix(name))
    rng = np.random.default_rng(11)
    batch = np.concatenate([edge_states(model, rng),
                            [random_state(model, rng) for _ in range(20)]])
    for _ in range(120):
        nxt = model.step(batch)
        assert nxt.shape == batch.shape
        for row, z in zip(nxt, batch):
            assert row.tobytes() == model.step(z).tobytes()
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


def test_check_state_rejects_malformed_states(single_table):
    mix = single_table.mix
    dim = 2 * mix.tau + 1
    with pytest.raises(ValueError, match="shape"):
        check_state(np.zeros(dim + 1), mix)
    bad = np.zeros(dim)
    bad[0] = 1.0 + 1e-3
    bad[1] = -1e-3
    with pytest.raises(ValueError, match="negative"):
        check_state(bad, mix)
    bad[1] = np.nan
    with pytest.raises(ValueError, match="negative"):
        check_state(bad, mix)
    wrong = np.zeros(dim)
    wrong[0] = 0.5
    with pytest.raises(ValueError, match="class 0 mass 0.5 falls short of gamma_0 = 1.0"):
        check_state(wrong, mix)
    wrong[0] = 1.5
    with pytest.raises(ValueError, match="class 0 mass 1.5 exceeds gamma_0 = 1.0"):
        check_state(wrong, mix)
    # slack of MASS_TOL either way; the checked state comes back as floats
    ok = np.zeros(dim, dtype=int)
    ok[0] = 1
    ok_float = check_state(ok, mix)
    assert ok_float.dtype == float and np.array_equal(ok_float, ok)
    ok_float[1] = -5e-10
    assert check_state(ok_float, mix) is ok_float


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
    traj = fluid_trajectory(two_solution.zeta, 10, two_table, zeta=two_solution.zeta)
    assert traj.distances.shape == (11,)
    assert traj.final.shape == (model.dim,)
    path = [two_solution.zeta]
    for _ in range(10):
        path.append(model.step(path[-1]))
    assert all(model.in_linear_region(z, rung) for z in path)
    assert np.array_equal(path[-1], traj.final)


def test_trajectory_from_all_mass_at_first_off_age(preset):
    solution, table = preset
    model = FluidModel(solution.mix, table)
    rung = model.crossing_rung(solution)
    z0 = np.zeros(model.dim)
    for k in range(model.mix.n_classes):
        z0[model.position(k, off_age(1))] = model.mix.gamma[k]
    traj = fluid_trajectory(z0, 400, table, zeta=solution.zeta)
    check_state(traj.final, model.mix)
    assert np.isfinite(traj.distances).all()
    # the corner start pins the marginal rung for the single-class chain (all
    # mass sits on it) but not for the two-class one (its rung starts empty)
    expected_start_in_region = model.mix.n_classes == 1
    assert model.in_linear_region(z0, rung) is expected_start_in_region
    assert traj.distances[-1] < traj.distances[0]


def test_trajectory_validates_start(single_table):
    z0 = np.zeros(2 * single_table.mix.tau + 1)
    z0[0] = -0.5
    with pytest.raises(ValueError, match="negative"):
        fluid_trajectory(z0, 5, single_table)


# sha256 of distances, final, path and in_region (in that order) of a
# 300-step fluid_trajectory, recorded before the single-state ladder walk;
# in_region holds each path state's in_linear_region flag at the crossing rung
TRAJECTORY_STEPS = 300
TRAJECTORY_DIGESTS = {
    ("single-class", "x"):
        "12af9203d28a100899b1fa0e2ea82a138f7e373f622114424b7eecdca3689dd4",
    ("single-class", "y"):
        "05ec4aaed523c37438096b62fa0c2c0b67f408286067d287382e7bce3060017b",
    ("single-class", "dirichlet"):
        "d549209c1a2242bd6ed76d28090c804c2824f90c94a495814cb0b865329e0481",
    ("single-class", "near-zeta"):
        "32b6999d30cb7fc5d3975047ab34cad3d74b2f3526279a55f0fdbf46d7b712fa",
    ("two-class", "x"):
        "79c8a2be19bb559264ae71aa73b323e51c23d16797b870e0a7c77bb80b5e4f25",
    ("two-class", "y"):
        "4ae80bedf522299eaca35cc840fb13f63397273edccb6af3bb734f551e1489da",
    ("two-class", "dirichlet"):
        "8fdf6684f4f049cd99a537bac4c476f52a64c0b12dc8969b743335376d11deeb",
    ("two-class", "near-zeta"):
        "85186e3f32eb7951a1887b71b86a5c9d38c3b51f0ceaa9a8baab2a118a792320",
    ("fig5", "x"):
        "6e8a0004ef9e2821d0d71f6b6662b40f893d8d8ec291414802a588a1d1307d23",
    ("fig5", "y"):
        "3509dd0a9fc3708b52ca9ef14da423fe77f35df8fe87d73a400e9b18f8aa2336",
    ("fig5", "dirichlet"):
        "1fc161e883817cb054fe17e4bc621916d12708b3031807154f888ab34e91bd16",
    ("fig5", "near-zeta"):
        "d12ff46f324aea1ff11914d9cd57a6681e40e9a20d0826877a47ca2a648c0cd4",
    ("identical-classes", "x"):
        "cd9396981fd5961cfa6557394f78f1a36cb8389642686c4a922c71fb92e17c8e",
    ("identical-classes", "y"):
        "80899b19c2d4dc6ed3e8203e55553bd50dc30720147354f6e2f22b0328d1c0a2",
    ("identical-classes", "dirichlet"):
        "c70af85984f21422648a25c7d2245308c6a0b9749e74a893d72d5cf4c5158032",
    ("identical-classes", "near-zeta"):
        "828b9a9175a6c3709997cb2d8d3086562d11616054a52c10d7ebcab31c556836",
}


def trajectory_digest(name, start):
    mix = named_mix(name)
    table = build_index_table(mix)
    solution = solve_relaxed(mix, table)
    model = FluidModel(mix, table)
    zeta = solution.zeta
    rng = np.random.default_rng(2024)
    starts = {"x": corner(model, 0), "y": corner(model, model.tau),
              "dirichlet": random_state(model, rng)}
    w = random_state(model, rng)
    starts["near-zeta"] = zeta + 1e-3 / np.linalg.norm(w - zeta) * (w - zeta)
    traj = fluid_trajectory(starts[start], TRAJECTORY_STEPS, table, zeta=zeta)
    path = [starts[start]]
    for _ in range(TRAJECTORY_STEPS):
        path.append(model.step(path[-1]))
    path = np.array(path)
    rung = model.crossing_rung(solution)
    in_region = np.array([model.in_linear_region(z, rung) for z in path])
    digest = hashlib.sha256()
    for part in (traj.distances, traj.final, path, in_region):
        digest.update(part.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name,start", sorted(TRAJECTORY_DIGESTS))
def test_trajectory_bytes_are_pinned(name, start):
    assert trajectory_digest(name, start) == TRAJECTORY_DIGESTS[name, start]


# ---------------------------------------------------------------------------
# marginal-rung region


def region_by_rung_sums(model, z, rung_idx):
    """in_linear_region as a loop over the rungs, each a numpy sum."""
    above = 0.0
    for j in range(rung_idx):
        above += z[model.rungs[j][1]].sum()
    return above < model.alpha <= above + z[model.rungs[rung_idx][1]].sum()


@pytest.mark.parametrize("name", ["single-class", "two-class", "fig5", "identical-classes"])
def test_region_is_the_rung_the_profile_serves_partially(name):
    model = FluidModel(named_mix(name))
    rng = np.random.default_rng(5)
    states = [*edge_states(model, rng), *(random_state(model, rng) for _ in range(50))]
    for z in states:
        inside = [model.in_linear_region(z, j) for j in range(len(model.rungs))]
        assert inside == [region_by_rung_sums(model, z, j) for j in range(len(model.rungs))]
        assert sum(inside) == (z.sum() >= model.alpha)
        if any(inside) and z.min() >= 0.0:
            k = inside.index(True)
            g = [model.activation_profile(z)[pos[0]] for _, pos in model.rungs]
            assert all(v == 1.0 for v in g[:k]) and all(v == 0.0 for v in g[k + 1:])


@pytest.mark.parametrize("name", ["single-class", "two-class", "fig5", "identical-classes"])
def test_region_boundaries_are_exact(name):
    model = FluidModel(named_mix(name))
    for j in range(len(model.rungs) - 1):
        z = boundary_state(model, j)
        # alpha equals the mass down to the bottom of rung j: rung j's region
        # includes that boundary, rung j + 1's excludes it
        assert model.in_linear_region(z, j) and region_by_rung_sums(model, z, j)
        assert not model.in_linear_region(z, j + 1)
        assert not region_by_rung_sums(model, z, j + 1)


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
    assert np.abs(lin.u_star @ lin.reduce(zeta) + lin.b_star).max() < 1e-15
    n = solution.mix.n_classes
    assert len(lin.eliminated) == n
    dim = len(zeta)
    assert lin.u_star.shape == (dim - n, dim - n)


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


@pytest.mark.parametrize("radius, certified", [(0.05, True), (20.0, False)])
def test_certificate_estimates_stay_finite_at_extreme_radii(radius, certified):
    # A = radius (I + N) with N nilpotent has spectral radius `radius`.  Its
    # 256th power has norm near 1e-325 at 0.05, which underflows to zero, and
    # near 1e341 at 20, which overflows, unless the squarings are rescaled.
    A = radius * (np.eye(5) + np.diag(np.ones(4), 1))
    cert = stability_certificate(A - np.eye(5))
    values = [v for _, v in cert.estimates]
    assert all(np.isfinite(values))
    assert min(values) >= radius - 1e-12
    assert cert.certified is certified


def test_ladder_precision_mix_is_solved_and_certified():
    # The OFF indices of (0.9, 0.85) from age 10 on lie within 2e-13 of the
    # stationary index (3.4e-21 at age 16).  In their exact order every OFF
    # age has its own rung, the fixed point is exact, and rho(A) = 0.050 is
    # certified.
    solution = solve_relaxed(ClassMix((ChannelClass(0.9, 0.85),), (1.0,), 0.5))
    assert len(solution.table.ladder) == 17
    assert not solution.degenerate
    assert [(pol.threshold_age, pol.randomized) for pol in solution.policies] == [(10, True)]
    model = FluidModel(solution.mix, solution.table)
    assert np.linalg.norm(model.step(solution.zeta) - solution.zeta) < FIXED_POINT_TOL
    lin = linearize(solution)
    cert = stability_certificate(lin.u_star)
    radius = max(abs(np.linalg.eigvals(lin.u_star + np.eye(len(lin.u_star)))))
    assert cert.certified
    assert min(v for _, v in cert.estimates) >= radius
