"""Acceptance suite: one test per shipped guarantee.

Each test prints a single ``criterion NN [PASS|FAIL]`` line with the measured
quantity and asserts both the guarantee and its runtime budget.  The heavy
Monte Carlo criteria (10 and 11) pin their seed lists, so every verdict here
is deterministic.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from whittlesched import (
    ChannelClass,
    FluidModel,
    SimConfig,
    analytic_blocks,
    belief_value,
    check_state,
    hitting_time,
    lattice_round,
    linearize,
    off_age,
    on_age,
    run_throughput,
    solve_relaxed,
    stability_certificate,
    subsidy_value,
    whittle_index,
    whittle_index_oracle,
)
from whittlesched.cli import main as cli_main

GRID = [(p, round(p * f, 6)) for p in (0.6, 0.6875, 0.775, 0.8625, 0.95)
        for f in (0.125, 0.3125, 0.5, 0.6875, 0.875)]

TWO_CLASS_OMEGA = 360.0 / 491.0
TWO_CLASS_RHO = 151157.0 / 203835.0
TWO_CLASS_THROUGHPUT = 3397089.0 / 6832265.0


def _verdict(num, label, ok, detail, elapsed, budget=None):
    state = "PASS" if ok else "FAIL"
    extra = f" ({elapsed:.1f}s" + (f" / budget {budget:.0f}s)" if budget else ")")
    print(f"criterion {num:02d} [{state}] {label}: {detail}{extra}")
    assert ok, f"criterion {num:02d} {label}: {detail}"
    if budget is not None:
        assert elapsed < budget, \
            f"criterion {num:02d} runtime {elapsed:.1f}s over budget {budget}s"


def _belief_by_iteration(cls, observed_on, age):
    b = 1.0 if observed_on else 0.0
    for _ in range(age):
        b = b * cls.p + (1.0 - b) * cls.r
    return b


def _random_product_simplex(model, rng):
    z = np.empty(model.dim)
    for k in range(model.mix.n_classes):
        sl = model.class_slice(k)
        z[sl] = model.mix.gamma[k] * rng.dirichlet(np.ones(model.block))
    return z


def _region_point(model, zeta, rung_idx, rng, scale=2e-3):
    support = np.flatnonzero(zeta > 1e-6)
    for _ in range(60):
        z = zeta.copy()
        for k in range(model.mix.n_classes):
            sl = model.class_slice(k)
            idx = support[(support >= sl.start) & (support < sl.stop)]
            noise = rng.normal(size=len(idx))
            noise -= noise.mean()
            z[idx] += scale * noise
        if z.min() >= 0.0 and model.in_linear_region(z, rung_idx):
            return z
        scale *= 0.5
    raise AssertionError("could not sample a point inside the linear region")


def test_criterion_01_belief_closed_form_matches_iteration():
    t0 = time.monotonic()
    worst = 0.0
    for p, r in GRID:
        cls = ChannelClass(p, r)
        for age in range(1, cls.tau + 1):
            worst = max(
                worst,
                abs(belief_value(cls, off_age(age)) - _belief_by_iteration(cls, False, age)),
                abs(belief_value(cls, on_age(age)) - _belief_by_iteration(cls, True, age)),
            )
    el = time.monotonic() - t0
    _verdict(1, "closed-form beliefs == iterated beliefs",
             worst < 1e-12, f"max |closed - iterated| = {worst:.2e} <= 1e-12",
             el, budget=1.0)


@pytest.mark.slow
def test_criterion_02_index_matches_value_iteration_oracle():
    t0 = time.monotonic()
    worst = 0.0
    worst_edge = 0.0
    for p, r in GRID:
        cls = ChannelClass(p, r)
        worst_edge = max(worst_edge, abs(whittle_index(cls, off_age(1)) - r))
        for age in range(1, 11):
            w = whittle_index(cls, off_age(age))
            o = whittle_index_oracle(cls, off_age(age), tol=1e-4)
            worst = max(worst, abs(w - o))
    el = time.monotonic() - t0
    ok = worst <= 1e-3 and worst_edge < 1e-12
    _verdict(2, "closed-form index == bisection oracle",
             ok, f"max |W - oracle| = {worst:.2e} over {len(GRID)} pairs x "
                 f"ages 1..10; max |W(OffAge 1) - r| = {worst_edge:.2e}",
             el, budget=60.0)


def test_criterion_03_subsidy_indifference_at_the_index():
    t0 = time.monotonic()
    worst = 0.0
    for p, r in GRID:
        cls = ChannelClass(p, r)
        for age in range(1, cls.tau):
            w = whittle_index(cls, off_age(age))
            gap = abs(subsidy_value(cls, w, age) - subsidy_value(cls, w, age + 1))
            worst = max(worst, gap)
    el = time.monotonic() - t0
    _verdict(3, "threshold indifference at the index value",
             worst < 1e-10, f"max |V(W,l) - V(W,l+1)| = {worst:.2e} <= 1e-10",
             el, budget=1.0)


def test_criterion_04_relaxed_solver_exact_values(single_solution, two_solution):
    t0 = time.monotonic()
    errs = {
        "omega": abs(single_solution.omega_star - 0.2),
        "rho": abs(single_solution.rho_star - 1.0 / 6.0),
        "throughput": abs(single_solution.throughput_per_user - 0.45),
    }
    residual = abs(two_solution.activation - two_solution.mix.alpha)
    two_errs = {
        "omega": abs(two_solution.omega_star - TWO_CLASS_OMEGA),
        "rho": abs(two_solution.rho_star - TWO_CLASS_RHO),
        "throughput": abs(two_solution.throughput_per_user - TWO_CLASS_THROUGHPUT),
    }
    el = time.monotonic() - t0
    ok = (max(errs.values()) <= 1e-9 and residual < 1e-12
          and max(two_errs.values()) <= 1e-9)
    _verdict(4, "relaxed solver hits the closed-form optimum",
             ok, f"single-class errors {max(errs.values()):.2e} <= 1e-9; "
                 f"two-class activation residual {residual:.2e} < 1e-12",
             el, budget=1.0)


def test_criterion_05_fluid_fixed_point_and_conservation(single_solution,
                                                         two_solution):
    t0 = time.monotonic()
    norms = []
    drift = 0.0
    min_entry = np.inf
    for solution in (single_solution, two_solution):
        model = FluidModel(solution.mix, solution.table)
        q = model.transition_matrix(solution.zeta)
        norms.append(float(np.linalg.norm(q @ solution.zeta)))
        rng = np.random.default_rng(2024)
        gamma = np.asarray(solution.mix.gamma)
        slices = [model.class_slice(k) for k in range(solution.mix.n_classes)]
        # the 50 starts step as one batch; each row is the serial trajectory
        z = np.stack([_random_product_simplex(model, rng) for _ in range(50)])
        for t in range(1, 10_001):
            z = model.step(z)
            if t % 100 == 0 or t == 10_000:
                min_entry = min(min_entry, float(z.min()))
                for k, sl in enumerate(slices):
                    drift = max(drift, float(np.abs(z[:, sl].sum(axis=1) - gamma[k]).max()))
    el = time.monotonic() - t0
    ok = max(norms) < 1e-10 and drift <= 1e-14 and min_entry >= 0.0
    _verdict(5, "fixed point solves Q(zeta) zeta = 0 and the map conserves mass",
             ok, f"||Q z|| = {max(norms):.2e} < 1e-10; class-mass drift "
                 f"{drift:.2e} <= 1e-14 over 1e4 steps x 100 starts",
             el, budget=30.0)


def test_criterion_06_affine_region_and_analytic_blocks(two_solution):
    t0 = time.monotonic()
    lin = linearize(two_solution)
    model = FluidModel(two_solution.mix, two_solution.table)
    rung = model.crossing_rung(two_solution)
    rng = np.random.default_rng(31)
    residual = 0.0
    for _ in range(100):
        z = _region_point(model, two_solution.zeta, rung, rng)
        residual = max(residual, float(np.abs(model.step(z) - lin.affine_step(z)).max()))
    blocks = analytic_blocks(two_solution)
    block_err = max(float(np.abs(blocks.u_star - lin.u_star).max()),
                    float(np.abs(blocks.b_star - lin.b_star).max()))
    el = time.monotonic() - t0
    ok = residual < 1e-12 and block_err < 1e-12
    _verdict(6, "map is affine on the marginal-rung region, blocks match",
             ok, f"affine residual {residual:.2e} on 100 points; "
                 f"analytic vs numeric {block_err:.2e} < 1e-12",
             el, budget=10.0)


def test_criterion_07_stability_certificate(single_solution, two_solution):
    t0 = time.monotonic()
    ok = True
    details = []
    for name, solution in (("single", single_solution), ("two", two_solution)):
        cert = stability_certificate(linearize(solution).u_star)
        values = [v for _, v in cert.estimates]
        ok &= cert.certified and all(v < 1.0 for v in values)
        ok &= all(b < a for a, b in zip(values, values[1:]))
        details.append(f"{name}: {', '.join(f'{v:.4f}' for v in values)}")
    el = time.monotonic() - t0
    _verdict(7, "Gelfand estimates below one and decreasing",
             ok, "; ".join(details), el, budget=10.0)


def test_criterion_08_local_fluid_convergence(single_solution, two_solution):
    t0 = time.monotonic()
    worst = 0.0
    for solution in (single_solution, two_solution):
        model = FluidModel(solution.mix, solution.table)
        rung = model.crossing_rung(solution)
        rng = np.random.default_rng(6)
        starts = []
        for _ in range(5):
            probe = _region_point(model, solution.zeta, rung, rng)
            delta = probe - solution.zeta
            delta *= 1e-3 / np.linalg.norm(delta)
            starts.append(solution.zeta + delta)
            check_state(starts[-1], model.mix)
        # the 5 starts step as one batch; each row is the serial trajectory
        z = np.stack(starts)
        for _ in range(10_000):
            z = model.step(z)
        worst = max(worst, *(float(np.linalg.norm(row - solution.zeta)) for row in z))
    el = time.monotonic() - t0
    _verdict(8, "perturbed fluid states return to the fixed point",
             worst < 1e-8, f"max ||z[1e4] - zeta|| = {worst:.2e} < 1e-8 "
                           f"from ||delta|| = 1e-3 starts", el, budget=5.0)


def test_criterion_09_concentration_improves_with_population(two_solution,
                                                             two_mix,
                                                             two_table):
    from whittlesched import trajectory_deviation
    t0 = time.monotonic()
    medians = {}
    for n in (1_000, 100_000):
        start = tuple(lattice_round(two_solution.zeta, two_mix, n))
        sups = []
        for seed in range(1, 31):
            cfg = SimConfig(mix=two_mix, n_users=n, horizon=200, seed=seed,
                            initial_state=start)
            sups.append(trajectory_deviation(cfg, two_table, two_solution))
        medians[n] = float(np.median(sups))
    el = time.monotonic() - t0
    ok = medians[100_000] < medians[1_000] / 3.0
    _verdict(9, "median sup-deviation shrinks at least 3x from N=1e3 to N=1e5",
             ok, f"medians {medians[1_000]:.4f} -> {medians[100_000]:.4f} "
                 f"(ratio {medians[100_000] / medians[1_000]:.3f})",
             el, budget=600.0)


def test_criterion_10_hitting_times_flatten_with_population(two_solution,
                                                            two_mix,
                                                            two_table):
    t0 = time.monotonic()
    eps = 0.005
    sizes = (10_000, 50_000, 100_000)
    ok = True
    details = []
    for label, init in (("x", "all_off_observed"), ("y", "all_stationary")):
        means = {}
        for n in sizes:
            hits = []
            for seed in range(1, 31):
                cfg = SimConfig(mix=two_mix, n_users=n, horizon=100_000,
                                seed=seed, initial_state=init)
                t = hitting_time(cfg, eps, two_solution.zeta, table=two_table,
                                 solution=two_solution)
                ok &= t is not None
                hits.append(t if t is not None else 100_000)
            means[n] = float(np.mean(hits))
        # the mean first drops with N as random fluctuations stop dominating,
        # then flattens: largest N no slower than twice the smallest, and the
        # two largest sizes within a factor two of each other
        ok &= means[sizes[-1]] <= 2.0 * means[sizes[0]]
        ratio = means[sizes[-1]] / means[sizes[1]]
        ok &= 0.5 <= ratio <= 2.0
        details.append(f"{label}: " + " -> ".join(f"{means[n]:.1f}" for n in sizes))
    el = time.monotonic() - t0
    _verdict(10, "epsilon-ball hitting times hit everywhere and flatten",
             ok, "; ".join(details), el, budget=1800.0)


@pytest.mark.slow
def test_criterion_11_whittle_respects_the_relaxed_bound(single_solution,
                                                         two_solution):
    t0 = time.monotonic()
    ok = True
    details = []
    for name, solution in (("single", single_solution), ("two", two_solution)):
        bound = solution.throughput_per_user
        stats = {}
        for n in (1_000, 100_000):
            vals = []
            for seed in range(1, 11):
                cfg = SimConfig(mix=solution.mix, n_users=n, horizon=110_000,
                                seed=seed, burn_in=10_000)
                out = run_throughput(cfg, solution.table, solution)
                vals.append(out["belief_throughput"])
            vals = np.asarray(vals)
            mean = float(vals.mean())
            se = float(vals.std(ddof=1) / np.sqrt(len(vals)))
            ok &= mean <= bound + 3.0 * se
            stats[n] = (mean, se, bound - mean)
        gap_small, gap_large = stats[1_000][2], stats[100_000][2]
        combined_se = float(np.hypot(stats[1_000][1], stats[100_000][1]))
        ok &= gap_large < gap_small + combined_se
        details.append(f"{name}: gap {gap_small:.2e} -> {gap_large:.2e} "
                       f"(se {combined_se:.1e})")
    el = time.monotonic() - t0
    _verdict(11, "index policy stays under the relaxed bound, gap shrinks",
             ok, "; ".join(details), el, budget=3600.0)


@pytest.mark.slow
def test_criterion_12_relaxed_simulation_matches_its_solution(single_mix,
                                                              single_table,
                                                              single_solution):
    t0 = time.monotonic()
    ok = True
    details = []
    for n in (1_000, 10_000):
        acts, thrs = [], []
        for seed in range(1, 9):
            cfg = SimConfig(mix=single_mix, n_users=n, horizon=20_000,
                            seed=seed, policy="relaxed", burn_in=2_000)
            out = run_throughput(cfg, single_table, single_solution)
            acts.append(out["activation"])
            thrs.append(out["belief_throughput"])
        for label, vals, target in (("activation", acts, single_mix.alpha),
                                    ("throughput", thrs,
                                     single_solution.throughput_per_user)):
            vals = np.asarray(vals)
            se = float(vals.std(ddof=1) / np.sqrt(len(vals)))
            dev = abs(float(vals.mean()) - target)
            ok &= dev <= 3.0 * se
            details.append(f"N={n} {label} dev {dev:.1e} (3se {3 * se:.1e})")
    el = time.monotonic() - t0
    _verdict(12, "relaxed policy reproduces alpha and the chain throughput",
             ok, "; ".join(details), el, budget=600.0)


def test_criterion_13_off_belief_growth_inequality():
    t0 = time.monotonic()
    ok = True
    for p, r in GRID:
        fp, fr = Fraction(str(p)), Fraction(str(r))
        tau = 16
        beliefs = []
        b = Fraction(0)
        for _ in range(tau + 1):
            b = b * fp + (1 - b) * fr
            beliefs.append(b)
        for l in range(1, tau + 1):
            lhs = (1 - fp) + beliefs[l - 1]
            rhs = (l - 1) * (beliefs[l] - beliefs[l - 1])
            ok &= lhs > rhs
    el = time.monotonic() - t0
    _verdict(13, "idle-belief growth stays below the service-side slack",
             ok, f"(1-p) + b(l) > (l-1)(b(l+1) - b(l)) exactly, all l <= 16, "
                 f"{len(GRID)} parameter pairs", el, budget=1.0)


def test_criterion_14_csv_outputs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("WHITTLESCHED_WORKERS", "1")
    t0 = time.monotonic()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "schema": 1,
        "mix": {"classes": [{"p": 0.8, "r": 0.2, "tau": 16}],
                "gamma": [1.0], "alpha": 0.75},
        "experiment": {"n_users": 200, "horizon": 300, "seeds": [1, 2, 3]},
    }))
    pairs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli_main(["simulate", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        assert cli_main(["index-table", "--preset", "fig5",
                         "--out", str(out)]) == 0
        pairs.append(((out / "simulate.csv").read_bytes(),
                      (out / "index_table.csv").read_bytes()))
    el = time.monotonic() - t0
    ok = pairs[0] == pairs[1]
    _verdict(14, "repeated runs produce byte-identical CSV artifacts",
             ok, "simulate.csv and index_table.csv identical across reruns", el)
