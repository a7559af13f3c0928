"""Finite-population simulator tests: configuration checks, determinism,
engine-law agreement, scheduling budget, and the trajectory experiments."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import whittlesched
from whittlesched import (
    STATIONARY,
    ChannelClass,
    ClassMix,
    FluidModel,
    SimConfig,
    hitting_time,
    lattice_round,
    make_engine,
    occupancy,
    off_age,
    run_many,
    run_throughput,
    trajectory_deviation,
)
from whittlesched.sim import _worker_count

ENGINES = ["pooled", "users"]

SINGLE_RATE = 0.45
SINGLE_ALPHA = 0.75


def _sim(mix, n_users, horizon, seed, **kw):
    return SimConfig(mix=mix, n_users=n_users, horizon=horizon, seed=seed, **kw)


# ---------------------------------------------------------------------------
# configuration and lattice rounding


def test_config_rejects_bad_inputs(single_mix):
    with pytest.raises(ValueError, match="policy"):
        _sim(single_mix, 100, 10, 0, policy="greedy")
    with pytest.raises(ValueError, match="engine"):
        _sim(single_mix, 100, 10, 0, engine="exact")
    with pytest.raises(ValueError, match="positive"):
        _sim(single_mix, 0, 10, 0)
    with pytest.raises(ValueError, match="initial state"):
        _sim(single_mix, 100, 10, 0, initial_state="warm")
    with pytest.raises(ValueError, match="lattice"):
        z = np.zeros(2 * single_mix.tau + 1)
        z[0] = 1.0 - 0.3 / 100
        z[1] = 0.3 / 100
        _sim(single_mix, 30, 10, 0, initial_state=tuple(z))
    with pytest.raises(ValueError, match="alpha"):
        _sim(single_mix, 10, 10, 0)  # alpha * 10 = 7.5


def test_config_rejects_fractional_class_counts(two_mix):
    with pytest.raises(ValueError, match="class fraction"):
        _sim(two_mix, 101, 10, 0)


def test_config_defaults(single_mix):
    cfg = _sim(single_mix, 100, 1000, 0)
    assert cfg.k_slots == 75
    assert cfg.effective_burn_in == 100
    assert _sim(single_mix, 100, 1000, 0, burn_in=7).effective_burn_in == 7


@pytest.mark.parametrize("n_users", [200, 1000])
def test_lattice_round_hits_the_mesh(two_solution, two_mix, n_users):
    snapped = lattice_round(two_solution.zeta, two_mix, n_users)
    counts = snapped * n_users
    assert np.abs(counts - np.round(counts)).max() < 1e-9
    assert snapped.min() >= 0.0
    block = 2 * two_mix.tau + 1
    for k, g in enumerate(two_mix.gamma):
        assert counts[k * block:(k + 1) * block].sum() == pytest.approx(
            g * n_users, abs=1e-9)
    assert np.abs(snapped - two_solution.zeta).max() <= 1.0 / n_users


def test_lattice_round_rejects_excess_class_mass(single_mix):
    z = np.zeros(2 * single_mix.tau + 1)
    z[0] = 1.5
    with pytest.raises(ValueError, match="exceeds"):
        lattice_round(z, single_mix, 100)


# ---------------------------------------------------------------------------
# initial states and determinism


@pytest.mark.parametrize("engine", ENGINES)
def test_initial_state_aliases(single_mix, single_table, engine):
    model = FluidModel(single_mix, single_table)
    for name, pos in [("all_off_observed", model.position(0, off_age(1))),
                      ("all_stationary", model.position(0, STATIONARY))]:
        cfg = _sim(single_mix, 200, 1, 0, initial_state=name, engine=engine)
        z0 = make_engine(cfg, single_table).empirical_state()
        expected = np.zeros(model.dim)
        expected[pos] = 1.0
        assert np.array_equal(z0, expected)


@pytest.mark.parametrize("engine", ENGINES)
def test_explicit_initial_state_is_honored(two_solution, two_table, engine):
    mix = two_solution.mix
    start = lattice_round(two_solution.zeta, mix, 400)
    cfg = _sim(mix, 400, 1, 0, initial_state=tuple(start), engine=engine)
    z0 = make_engine(cfg, two_table).empirical_state()
    assert np.array_equal(z0, start)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("policy", ["whittle", "relaxed"])
def test_runs_are_reproducible_bit_for_bit(single_mix, single_table,
                                           single_solution, engine, policy):
    def once():
        cfg = _sim(single_mix, 120, 200, seed=77, engine=engine,
                   policy=policy, burn_in=0)
        eng = make_engine(cfg, single_table, single_solution)
        for _ in range(200):
            eng.step()
        return eng.rates(), eng.empirical_state()
    r1, z1 = once()
    r2, z2 = once()
    assert r1 == r2
    assert np.array_equal(z1, z2)


# rates() after 200 slots at seed 7, recorded with the array-draw engine that
# preceded the per-state draws: (mix, policy, N, start, engine, belief
# throughput, realized throughput, activation).  Exact equality pins the
# random stream: the tie-break first, then one ON draw per scheduled state in
# ascending layout order.
PINNED_RATES = [
    ("single", "whittle", 1000, "all_off_observed", "pooled",
     0.4499133333333332, 0.4499666666666667, 0.75),
    ("single", "whittle", 100000, "all_off_observed", "pooled",
     0.45004866666666704, 0.45007366666666665, 0.75),
    ("single", "relaxed", 1000, "all_off_observed", "pooled",
     0.4470617777777777, 0.44538333333333335, 0.7480722222222222),
    ("single", "relaxed", 100000, "all_off_observed", "pooled",
     0.4500151555555553, 0.450032, 0.7499809444444444),
    ("two", "whittle", 1000, "all_off_observed", "pooled",
     0.4975506715277778, 0.4983666666666667, 0.6),
    ("two", "whittle", 100000, "all_off_observed", "pooled",
     0.4972045525277776, 0.4971913333333333, 0.6),
    ("two", "relaxed", 1000, "all_off_observed", "pooled",
     0.49838350208333326, 0.49905555555555553, 0.6012777777777778),
    ("two", "relaxed", 100000, "all_off_observed", "pooled",
     0.49725087168055576, 0.49725694444444446, 0.6000374444444444),
    ("two", "whittle", 1000, "all_stationary", "pooled",
     0.49694052083333334, 0.49630555555555556, 0.6),
    # two identical classes: every boundary rung is tied, so each slot draws
    # the hypergeometric split
    ("twin", "whittle", 1000, "all_off_observed", "pooled",
     0.43877194444444445, 0.4393444444444444, 0.6),
    ("two", "whittle", 1000, "all_off_observed", "users",
     0.4975006861111112, 0.4979777777777778, 0.6),
]


@pytest.mark.parametrize("mix_name, policy, n_users, start, engine, belief, realized, "
                         "activation", PINNED_RATES, ids=["-".join(map(str, p[:5]))
                                                          for p in PINNED_RATES])
def test_random_stream_is_pinned(single_mix, two_mix, mix_name, policy, n_users, start,
                                 engine, belief, realized, activation):
    twin = ChannelClass(0.8, 0.3)
    mix = {"single": single_mix, "two": two_mix,
           "twin": ClassMix((twin, twin), (0.5, 0.5), 0.6)}[mix_name]
    cfg = _sim(mix, n_users, 200, seed=7, policy=policy, initial_state=start,
               engine=engine)
    eng = make_engine(cfg)
    for _ in range(200):
        eng.step()
    assert eng.rates() == {"belief_throughput": belief, "realized_throughput": realized,
                           "activation": activation, "slots": 180}


def test_different_seeds_diverge(single_mix, single_table):
    outs = []
    for seed in (1, 2):
        cfg = _sim(single_mix, 120, 200, seed=seed, burn_in=0)
        outs.append(run_throughput(cfg, single_table))
    assert outs[0]["realized_throughput"] != outs[1]["realized_throughput"]


# ---------------------------------------------------------------------------
# scheduling budget and tie-breaks


@pytest.mark.parametrize("engine", ENGINES)
def test_exactly_floor_alpha_n_served_every_slot(single_mix, single_table, engine):
    # N=4, alpha=0.75 -> 3 users per slot, counted exactly via the activation
    # rate with no burn-in
    cfg = _sim(single_mix, 4, 50, seed=5, engine=engine, burn_in=0)
    out = run_throughput(cfg, single_table)
    assert out["activation"] == pytest.approx(0.75, abs=0.0)


@pytest.mark.parametrize("engine", ENGINES)
def test_half_budget_on_four_users(engine):
    mix = ClassMix((ChannelClass(0.8, 0.2),), (1.0,), 0.5)
    cfg = _sim(mix, 4, 40, seed=9, engine=engine, burn_in=0)
    out = run_throughput(cfg)
    assert out["activation"] == pytest.approx(0.5, abs=0.0)


@pytest.mark.parametrize("engine", ENGINES)
def test_boundary_tie_break_depends_on_seed_only(single_mix, single_table, engine):
    # every user starts in the same belief state, so slot one is a pure
    # tie-break among identical candidates
    def first_state(seed):
        cfg = _sim(single_mix, 40, 1, seed=seed, engine=engine, burn_in=0)
        eng = make_engine(cfg, single_table)
        eng.step()
        return eng.empirical_state()
    a, b, c = first_state(101), first_state(101), first_state(202)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# law agreement between the engines


def test_engines_agree_on_the_throughput_law(single_mix, single_table):
    means = {}
    ses = {}
    for engine in ENGINES:
        vals = []
        for seed in (11, 12, 13, 14):
            cfg = _sim(single_mix, 200, 3000, seed=seed, engine=engine,
                       burn_in=300)
            vals.append(run_throughput(cfg, single_table)["belief_throughput"])
        vals = np.asarray(vals)
        means[engine] = vals.mean()
        ses[engine] = vals.std(ddof=1) / np.sqrt(len(vals))
    gap = abs(means["pooled"] - means["users"])
    assert gap <= 3.0 * np.hypot(ses["pooled"], ses["users"])
    for engine in ENGINES:
        assert means[engine] == pytest.approx(SINGLE_RATE, abs=0.01)


def test_realized_throughput_tracks_belief_throughput(single_mix, single_table):
    diffs = []
    for seed in range(6):
        cfg = _sim(single_mix, 500, 3000, seed=seed, burn_in=300)
        out = run_throughput(cfg, single_table)
        diffs.append(out["realized_throughput"] - out["belief_throughput"])
    diffs = np.asarray(diffs)
    se = diffs.std(ddof=1) / np.sqrt(len(diffs))
    assert abs(diffs.mean()) <= 3.0 * se


@pytest.mark.parametrize("engine", ENGINES)
def test_relaxed_policy_rates(single_mix, single_table, single_solution, engine):
    cfg = _sim(single_mix, 400, 4000, seed=3, engine=engine, policy="relaxed",
               burn_in=400)
    out = run_throughput(cfg, single_table, single_solution)
    assert out["activation"] == pytest.approx(SINGLE_ALPHA, abs=2e-3)
    assert out["belief_throughput"] == pytest.approx(SINGLE_RATE, abs=4e-3)


def test_engines_agree_from_stationary_start_on_two_classes(two_mix, two_table,
                                                           two_solution):
    means = {}
    ses = {}
    for engine in ENGINES:
        vals = []
        for seed in (21, 22, 23, 24):
            cfg = _sim(two_mix, 200, 3000, seed=seed, engine=engine,
                       initial_state="all_stationary", burn_in=300)
            vals.append(run_throughput(cfg, two_table)["belief_throughput"])
        vals = np.asarray(vals)
        means[engine] = vals.mean()
        ses[engine] = vals.std(ddof=1) / np.sqrt(len(vals))
    gap = abs(means["pooled"] - means["users"])
    assert gap <= 3.0 * np.hypot(ses["pooled"], ses["users"])
    for engine in ENGINES:
        assert means[engine] == pytest.approx(two_solution.throughput_per_user, abs=0.01)


# ---------------------------------------------------------------------------
# exact one-step law of the pooled engine at a lattice state

ONE_STEP_N = 1000
ONE_STEP_DRAWS = 4000
# |mean - expectation| <= Z_LIMIT standard errors: a two-sided normal tail of
# 7e-6 per coordinate, 5e-4 over the 66 coordinates of the two-class state
Z_LIMIT = 4.5


def _two_class_lattice_point(mix, states, seed):
    """Dirichlet-distributed mass over the given block positions of each
    class, rounded to the 1/N lattice."""
    rng = np.random.default_rng(seed)
    block = 2 * mix.tau + 1
    z = np.zeros(mix.n_classes * block)
    for k, g in enumerate(mix.gamma):
        z[k * block + states] = g * rng.dirichlet(np.ones(states.size))
    return lattice_round(z, mix, ONE_STEP_N)


def _one_step_variance(model, counts, boundary, need):
    """Exact variance of each coordinate of N Z' after one whittle slot from
    the counts.  The scheduled counts m are deterministic off the boundary
    rung and multivariate hypergeometric on it:
    Cov(m_B) = need (R - need) / (R - 1) (diag(pi) - pi pi^T), pi = c_B / R.
    Given m, the ON observations of state i are Binomial(m_i, b_i).  N Z'_j is
    a constant plus w_j . m plus the observation noise of class k on its
    OnAge(1) and OffAge(1) coordinates, so
    Var(N Z'_j) = Var(w_j . m) + sum_{i in k} E[m_i] b_i (1 - b_i)."""
    d = model.dim
    b = model.beliefs
    cls = np.repeat(np.arange(model.mix.n_classes), model.block)
    w = np.zeros((d, d))
    w[model.age_to, np.arange(d)] -= 1.0
    w[model.on1[cls], np.arange(d)] += b
    w[model.off1[cls], np.arange(d)] += 1.0 - b
    var = np.zeros(d)
    if boundary.size > 1:
        r = counts[boundary].sum()
        pi = counts[boundary] / r
        wb = w[:, boundary]
        f = need * (r - need) / (r - 1)
        var += f * ((wb ** 2) @ pi - (wb @ pi) ** 2)
    mean_m = model.activation_profile(counts / ONE_STEP_N) * counts
    obs = np.bincount(cls, weights=mean_m * b * (1.0 - b), minlength=model.mix.n_classes)
    var[model.on1] += obs
    var[model.off1] += obs
    return var


@pytest.mark.parametrize("support, boundary_size", [
    ("all", 17),        # the cut falls on a tied rung: hypergeometric split
    ("off_ages", 1),    # the cut falls on a single position: no tie-break
])
def test_pooled_one_step_mean_is_the_fluid_map(two_mix, two_table, support,
                                               boundary_size):
    model = FluidModel(two_mix, two_table)
    states = (np.arange(model.block) if support == "all"
              else np.arange(two_mix.tau))
    z = _two_class_lattice_point(two_mix, states, seed=2024)
    counts = np.rint(z * ONE_STEP_N).astype(np.int64)
    eng = make_engine(_sim(two_mix, ONE_STEP_N, 1, seed=31), two_table)
    j, need = eng._whittle_cut(counts)
    boundary = model.rungs[j][1]
    assert boundary.size == boundary_size and need > 0
    if boundary_size == 1:
        # no draw: the scheduled counts are the fluid's served mass exactly
        m = eng._schedule_whittle(counts)
        assert np.abs(m - model.activation_profile(z) * counts).max() < 1e-9
        assert m.sum() == eng.k_slots

    class_totals = np.add.reduceat(counts, model._class_starts)
    draws = np.empty((ONE_STEP_DRAWS, model.dim))
    for t in range(ONE_STEP_DRAWS):
        eng.counts = counts.copy()
        eng.step()
        assert np.array_equal(np.add.reduceat(eng.counts, model._class_starts),
                              class_totals)
        draws[t] = eng.counts
    mean = draws.mean(axis=0)
    expected = ONE_STEP_N * model.step(z)
    var = _one_step_variance(model, counts, boundary, need)
    se = np.sqrt(var / ONE_STEP_DRAWS)
    assert np.all(np.abs(mean - expected) <= Z_LIMIT * se + 1e-9)
    # not vacuous: at least each class's OnAge(1) and OffAge(1) are random
    assert np.count_nonzero(se) >= 2 * two_mix.n_classes
    # second moment: the sample variance s2 of n draws has sampling variance
    # (mu4 - sigma^4 (n - 3) / (n - 1)) / n, estimated from the sample fourth
    # central moment and s2 itself
    n = ONE_STEP_DRAWS
    s2 = draws.var(axis=0, ddof=1)
    m4 = ((draws - mean) ** 4).mean(axis=0)
    se_s2 = np.sqrt(np.maximum(m4 - s2 ** 2 * (n - 3) / (n - 1), 0.0) / n)
    assert np.all(np.abs(s2 - var) <= Z_LIMIT * se_s2 + 1e-9)


def test_pooled_relaxed_activation_mean(two_mix, two_table, two_solution):
    model = FluidModel(two_mix, two_table)
    z = _two_class_lattice_point(two_mix, np.arange(model.block), seed=7)
    counts = np.rint(z * ONE_STEP_N).astype(np.int64)
    eng = make_engine(_sim(two_mix, ONE_STEP_N, 1, seed=32, policy="relaxed"),
                      two_table, two_solution)
    a = eng.act_prob
    assert np.any((a > 0.0) & (a < 1.0))
    total = np.zeros(model.dim)
    for _ in range(ONE_STEP_DRAWS):
        m = eng._schedule_relaxed(counts)
        assert np.all((0 <= m) & (m <= counts))
        total += m
    mean = total / ONE_STEP_DRAWS
    # m_i ~ Binomial(c_i, a_i), independent across states
    se = np.sqrt(counts * a * (1.0 - a) / ONE_STEP_DRAWS)
    assert np.all(np.abs(mean - a * counts) <= Z_LIMIT * se + 1e-9)


# ---------------------------------------------------------------------------
# hitting times, occupancy, deviation


def test_hitting_time_zero_inside_the_ball(single_mix, single_table,
                                           single_solution):
    start = lattice_round(single_solution.zeta, single_mix, 2000)
    cfg = _sim(single_mix, 2000, 10, seed=0, initial_state=tuple(start))
    t = hitting_time(cfg, 0.05, single_solution.zeta, table=single_table)
    assert t == 0


def test_hitting_time_none_when_budget_exhausted(single_mix, single_table,
                                                 single_solution):
    cfg = _sim(single_mix, 200, 10, seed=0)
    t = hitting_time(cfg, 1e-6, single_solution.zeta, max_slots=0,
                     table=single_table)
    assert t is None


def test_hitting_time_first_entry_is_positive_from_far_start(
        single_mix, single_table, single_solution):
    cfg = _sim(single_mix, 1000, 500, seed=21)
    t = hitting_time(cfg, 0.1, single_solution.zeta, table=single_table)
    assert isinstance(t, int) and 0 < t <= 500


def test_occupancy_improves_with_population(single_mix, single_table,
                                            single_solution):
    occ = {}
    for n in (200, 2000):
        cfg = _sim(single_mix, n, 2000, seed=8, burn_in=200)
        occ[n] = occupancy(cfg, 0.05, single_solution.zeta, table=single_table)
    assert occ[2000] > occ[200]
    assert occ[2000] > 0.99


def test_relaxed_policy_concentrates_too(single_mix, single_table,
                                         single_solution):
    cfg = _sim(single_mix, 2000, 2000, seed=8, policy="relaxed", burn_in=200)
    occ = occupancy(cfg, 0.05, single_solution.zeta, table=single_table,
                    solution=single_solution)
    assert occ > 0.99


def test_deviation_is_zero_with_no_steps(single_mix, single_table):
    cfg = _sim(single_mix, 200, 10, seed=4)
    assert trajectory_deviation(cfg, 0, table=single_table) == 0.0


def test_deviation_bounded_for_tiny_population(single_mix, single_table):
    cfg = _sim(single_mix, 20, 60, seed=4)
    dev = trajectory_deviation(cfg, 50, table=single_table)
    assert np.isfinite(dev) and 0.0 < dev < 2.0


def test_deviation_shrinks_with_population(single_mix, single_table):
    for seed in (1, 2, 3):
        devs = {}
        for n in (1000, 4000):
            cfg = _sim(single_mix, n, 250, seed=seed)
            devs[n] = trajectory_deviation(cfg, 200, table=single_table)
        assert devs[4000] < devs[1000]


# ---------------------------------------------------------------------------
# orchestration


def test_run_many_keeps_input_order(single_mix, single_table, monkeypatch):
    monkeypatch.setenv("WHITTLESCHED_WORKERS", "1")
    configs = [_sim(single_mix, 40, 20, seed=s, burn_in=0) for s in (5, 3, 9)]
    outs = run_many(run_throughput, configs, single_table)
    assert [o["seed"] for o in outs] == [5, 3, 9]
    assert all(o["n_users"] == 40 for o in outs)
    assert all(o["slots"] == 20 for o in outs)


def test_run_many_pool_matches_serial(single_mix, single_table, monkeypatch):
    configs = [_sim(single_mix, 40, 30, seed=s, burn_in=0) for s in (5, 3, 9)]
    monkeypatch.setenv("WHITTLESCHED_WORKERS", "1")
    serial = run_many(run_throughput, configs, single_table)
    monkeypatch.setenv("WHITTLESCHED_WORKERS", "2")
    assert run_many(run_throughput, configs, single_table) == serial


def test_import_leaves_multiprocessing_unloaded():
    # the process pool is imported only when run_many starts one
    src = str(Path(whittlesched.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, whittlesched; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_worker_count_respects_env(monkeypatch):
    monkeypatch.setenv("WHITTLESCHED_WORKERS", "2")
    assert _worker_count(8) == 2
    monkeypatch.delenv("WHITTLESCHED_WORKERS")
    assert _worker_count(1) == 1


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_worker_count_rejects_a_bad_env_value(monkeypatch, value):
    monkeypatch.setenv("WHITTLESCHED_WORKERS", value)
    with pytest.raises(ValueError, match="WHITTLESCHED_WORKERS must be a positive integer"):
        _worker_count(8)
