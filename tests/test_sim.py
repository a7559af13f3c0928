"""Finite-population simulator tests: configuration checks, determinism,
engine-law agreement, scheduling budget, and the trajectory experiments."""

import math
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
from whittlesched.sim import _Ball, _offset, _worker_count

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
    block = 2 * single_mix.tau + 1
    for z in ([1.0] + [0.0] * (block - 2),          # one entry short
              [1.05, -0.05] + [0.0] * (block - 2),  # negative mass
              [0.9] + [0.0] * (block - 1)):         # class mass below gamma
        with pytest.raises(ValueError, match="explicit initial state"):
            _sim(single_mix, 100, 10, 0, initial_state=tuple(z))
    with pytest.raises(ValueError, match="lattice"):
        z = np.zeros(2 * single_mix.tau + 1)
        z[0] = 1.0 - 0.3 / 100
        z[1] = 0.3 / 100
        _sim(single_mix, 30, 10, 0, initial_state=tuple(z))
    with pytest.raises(ValueError, match="alpha"):
        _sim(single_mix, 10, 10, 0)  # alpha * 10 = 7.5
    for burn_in in (-5, 50, 80):
        with pytest.raises(ValueError, match="burn_in"):
            _sim(single_mix, 100, 50, 0, burn_in=burn_in)


@pytest.mark.parametrize("field, value", [
    ("n_users", 100.5), ("horizon", 20.5), ("seed", 1.5), ("burn_in", 2.5)])
def test_config_rejects_fractional_integers(single_mix, field, value):
    settings = {"n_users": 100, "horizon": 20, "seed": 0, "burn_in": 2}
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value}"):
        SimConfig(mix=single_mix, **{**settings, field: value})
    # an integral float passes as given
    SimConfig(mix=single_mix, **{**settings, field: float(settings[field])})


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


def test_lattice_round_rejects_short_class_mass(single_mix):
    # half the class mass at OffAge(1): rounding adds at most one user to each
    # of the 33 states, so 17 of the 50 missing users would stay missing
    z = np.zeros(2 * single_mix.tau + 1)
    z[0] = 0.5
    with pytest.raises(ValueError, match="class 0 mass 0.5 falls short of gamma_0 = 1.0"):
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


# rates() and the counts after 200 slots at seed 7: (mix, policy, N, start,
# engine, belief throughput, realized throughput, activation, nonzero counts
# by position).  The realized throughputs, activations and counts were
# recorded with the array-draw engine that preceded the per-state draws, and
# exact equality pins the random stream: the tie-break first, then one ON draw
# per scheduled state in ascending layout order.  The belief throughputs are
# fsum(b_i M_i) / (slots N) over the int tally M of users served per state.
PINNED_RATES = [
    ("single", "whittle", 1000, "all_off_observed", "pooled",
     0.4499133333333334, 0.4499666666666667, 0.75, {0: 280, 1: 250, 32: 470}),
    ("single", "whittle", 100000, "all_off_observed", "pooled",
     0.4500486666666667, 0.45007366666666665, 0.75, {0: 29955, 1: 25000, 32: 45045}),
    ("single", "relaxed", 1000, "all_off_observed", "pooled",
     0.44706177777777784, 0.44538333333333335, 0.7480722222222222,
     {0: 294, 1: 244, 32: 462}),
    ("single", "relaxed", 100000, "all_off_observed", "pooled",
     0.45001515555555566, 0.450032, 0.7499809444444444, {0: 29909, 1: 25000, 32: 45091}),
    ("two", "whittle", 1000, "all_off_observed", "pooled",
     0.4975506715277778, 0.4983666666666667, 0.6,
     {0: 48, 1: 44, 2: 36, 32: 322, 33: 51, 34: 55, 35: 47, 36: 42, 37: 46, 38: 60,
      39: 56, 40: 14, 65: 179}),
    ("two", "whittle", 100000, "all_off_observed", "pooled",
     0.49720455252777773, 0.4971913333333333, 0.6,
     {0: 4353, 1: 4332, 2: 4370, 32: 31945, 33: 5905, 34: 5937, 35: 5961, 36: 5997,
      37: 6014, 38: 5852, 39: 1537, 65: 17797}),
    ("two", "relaxed", 1000, "all_off_observed", "pooled",
     0.4983835020833333, 0.49905555555555553, 0.6012777777777778,
     {0: 44, 1: 38, 2: 41, 32: 327, 33: 50, 34: 56, 35: 60, 36: 54, 37: 66, 38: 72,
      39: 19, 65: 173}),
    ("two", "relaxed", 100000, "all_off_observed", "pooled",
     0.49725087168055554, 0.49725694444444446, 0.6000374444444444,
     {0: 4303, 1: 4300, 2: 4328, 32: 32069, 33: 5908, 34: 5901, 35: 5907, 36: 6057,
      37: 5910, 38: 6030, 39: 1492, 65: 17795}),
    ("two", "whittle", 1000, "all_stationary", "pooled",
     0.4969405208333334, 0.49630555555555556, 0.6,
     {0: 39, 1: 47, 2: 44, 32: 320, 33: 59, 34: 67, 35: 71, 36: 65, 37: 69, 38: 37,
      65: 182}),
    # two identical classes: every boundary rung is tied, so each slot draws
    # the hypergeometric split
    ("twin", "whittle", 1000, "all_off_observed", "pooled",
     0.43877194444444445, 0.4393444444444444, 0.6,
     {0: 80, 1: 91, 2: 84, 3: 29, 32: 216, 33: 91, 34: 79, 35: 90, 36: 27, 65: 213}),
    ("two", "whittle", 1000, "all_off_observed", "users",
     0.49750068611111115, 0.4979777777777778, 0.6,
     {0: 48, 1: 46, 2: 45, 32: 311, 33: 63, 34: 65, 35: 65, 36: 58, 37: 55, 38: 59,
      39: 7, 65: 178}),
]


def _pinned_mix(name, single_mix, two_mix):
    twin = ChannelClass(0.8, 0.3)
    return {"single": single_mix, "two": two_mix,
            "twin": ClassMix((twin, twin), (0.5, 0.5), 0.6)}[name]


@pytest.mark.parametrize("mix_name, policy, n_users, start, engine, belief, realized, "
                         "activation, counts", PINNED_RATES,
                         ids=["-".join(map(str, p[:5])) for p in PINNED_RATES])
def test_random_stream_is_pinned(single_mix, two_mix, mix_name, policy, n_users, start,
                                 engine, belief, realized, activation, counts):
    mix = _pinned_mix(mix_name, single_mix, two_mix)
    cfg = _sim(mix, n_users, 200, seed=7, policy=policy, initial_state=start,
               engine=engine)
    eng = make_engine(cfg)
    for _ in range(200):
        eng.step()
    assert eng.rates() == {"belief_throughput": belief, "realized_throughput": realized,
                           "activation": activation, "slots": 180}
    final = np.rint(eng.empirical_state() * n_users).astype(int).tolist()
    assert {i: c for i, c in enumerate(final) if c} == counts


@pytest.mark.parametrize("engine, policy", [("pooled", "whittle"), ("pooled", "relaxed"),
                                            ("users", "whittle"), ("users", "relaxed")])
def test_belief_tally_is_exact(two_mix, two_table, two_solution, engine, policy):
    n_users = 1000
    cfg = _sim(two_mix, n_users, 300, seed=5, policy=policy, engine=engine)
    eng = make_engine(cfg, two_table, two_solution)
    model = eng.model
    observed = 0  # users observed past burn-in, read off the reset states
    for t in range(cfg.horizon):
        eng.step()
        if t >= cfg.effective_burn_in:
            z = np.rint(eng.empirical_state() * n_users)
            observed += int(z[model.on1].sum() + z[model.off1].sum())
    out = eng.rates()
    tally = np.asarray(eng.served).tolist()
    slots = out["slots"]
    assert slots == cfg.horizon - cfg.effective_burn_in
    assert all(isinstance(m, int) and m >= 0 for m in tally)
    assert sum(tally) == observed
    # the quotient of two ints is correctly rounded, so these are exact
    assert out["activation"] == sum(tally) / (slots * n_users)
    belief = math.fsum(b * m for b, m in zip(model.beliefs.tolist(), tally))
    assert out["belief_throughput"] == belief / (slots * n_users)


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


def _scheduled(pairs, dim):
    """Scheduled count per state from the engine's (state, count) pairs."""
    m = np.zeros(dim, dtype=np.int64)
    for i, mi in pairs:
        m[i] = mi
    return m


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
    _, j, need = eng._cut(counts.tolist())
    boundary = model.rungs[j][1]
    assert boundary.size == boundary_size and need > 0
    if boundary_size == 1:
        # no draw: the scheduled counts are the fluid's served mass exactly
        m = _scheduled(eng._schedule_whittle(counts.tolist()), model.dim)
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
        m = _scheduled(eng._schedule_relaxed(counts.tolist()), model.dim)
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


# Two-class mix, horizon 600, seed 1, recorded with np.linalg.norm as the
# distance: (engine, N, policy, start, hitting time at epsilon 0.01 and 0.05,
# occupancy at 0.005 and 0.02, deviation over 200 steps).
PINNED_DISTANCES = [
    ("pooled", 1000, "whittle", "all_off_observed", None, 9, 0.0, 0.12384473197781885, 0.05326326827234012),
    ("pooled", 1000, "whittle", "all_stationary", 28, 8, 0.0, 0.11275415896487985, 0.05375259275076266),
    ("pooled", 1000, "relaxed", "all_off_observed", 476, 19, 0.0, 0.22365988909426987, 0.799968612665522),
    ("pooled", 1000, "relaxed", "all_stationary", 473, 12, 0.0, 0.2365988909426987, 0.4962593463532705),
    ("pooled", 10000, "whittle", "all_off_observed", 13, 8, 0.04436229205175601, 0.9963031423290203, 0.018353992504135025),
    ("pooled", 10000, "whittle", "all_stationary", 10, 7, 0.031423290203327174, 0.9963031423290203, 0.01741297013639966),
    ("pooled", 10000, "relaxed", "all_off_observed", 25, 15, 0.07763401109057301, 1.0, 0.799968612665522),
    ("pooled", 10000, "relaxed", "all_stationary", 29, 11, 0.07763401109057301, 1.0, 0.4941647045334295),
    ("users", 1000, "whittle", "all_off_observed", None, 7, 0.0, 0.15711645101663585, 0.0660619800848135),
    ("users", 1000, "whittle", "all_stationary", 560, 6, 0.0, 0.1534195933456562, 0.05464207440184632),
    ("users", 1000, "relaxed", "all_off_observed", 271, 15, 0.0, 0.22735674676524953, 0.799968612665522),
    ("users", 1000, "relaxed", "all_stationary", 271, 13, 0.0, 0.22735674676524953, 0.49150813618279443),
]


@pytest.mark.parametrize("engine,n_users,policy,start,hit01,hit05,occ005,occ02,dev",
                         PINNED_DISTANCES)
def test_distance_experiments_are_pinned(two_mix, two_table, two_solution, engine,
                                         n_users, policy, start, hit01, hit05, occ005,
                                         occ02, dev):
    cfg = _sim(two_mix, n_users, 600, seed=1, policy=policy, initial_state=start,
               engine=engine)
    zeta = two_solution.zeta
    kw = {"table": two_table, "solution": two_solution}
    assert hitting_time(cfg, 0.01, zeta, **kw) == hit01
    assert hitting_time(cfg, 0.05, zeta, **kw) == hit05
    assert occupancy(cfg, 0.005, zeta, **kw) == occ005
    assert occupancy(cfg, 0.02, zeta, **kw) == occ02
    assert trajectory_deviation(cfg, 200, two_table, two_solution) == dev


@pytest.mark.parametrize("engine", ENGINES)
def test_ball_decides_as_numpy_norm(two_mix, two_table, two_solution, engine):
    # epsilons on both sides of the current distance, down to one ulp, so the
    # early exit is tried where it could flip a decision
    zeta = two_solution.zeta
    cfg = _sim(two_mix, 1000, 200, seed=5, engine=engine)
    eng = make_engine(cfg, two_table, two_solution)
    fixed = [_Ball(zeta, eps) for eps in (1e-3, 1e-2, 3e-2, 1e-1)]
    for _ in range(200):
        x = _offset(eng, zeta)
        norm = np.linalg.norm(eng.empirical_state() - zeta)
        assert math.sqrt(x.dot(x)) == norm
        for j in (int(np.abs(x).argmax()), 0):
            share = eng.share(j)
            assert share == eng.empirical_state()[j]
        near = [_Ball(zeta, eps) for eps in (norm, math.nextafter(norm, 0.0),
                                             norm * (1 - 1e-12), norm * (1 + 1e-12))]
        for ball in near:
            ball._far = int(np.abs(x).argmax())
        for ball in fixed + near:
            assert ball.contains(eng) == (norm <= ball.epsilon)
        eng.step()


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
