"""The benchmark's workloads: their inputs, their ops and the checks on what
the ops return.

A workload is built from an imported whittlesched package and a seeded
generator; building it is the set-up the benchmark times.  ``round`` returns
the next whole round of ops.  Each op is a zero-argument call into the
program; ``record`` takes what it returned and says whether it succeeded,
and ``check`` runs the output checks once the timed run is over.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass
class Op:
    kind: str  # groups the ops' results for the checks
    call: Callable[[], object]
    work: int  # units of work the op does when it succeeds


def _mix(ws, d: dict):
    return ws.ClassMix(
        classes=tuple(ws.ChannelClass(c["p"], c["r"], c["tau"]) for c in d["classes"]),
        gamma=tuple(d["gamma"]), alpha=d["alpha"])


def _simplex_point(gamma, block: int, rng) -> np.ndarray:
    return np.concatenate([g * rng.dirichlet(np.ones(block)) for g in gamma])


# ---------------------------------------------------------------------------
# mc-throughput


MC_MIXES = {"1c": "single-class", "2c": "two-class"}
MC_SIZES = {"n1e3": 1_000, "n1e5": 100_000}
MC_POLICIES = ("whittle", "relaxed")
# Every run simulates the same number of slots.  The default burn-in
# (horizon // 10 = 50 slots) leaves a relaxed-policy transient below 1e-7,
# far under the standard error the checks compare against.
MC_HORIZON = 500


def _both_policies(run_throughput, configs, table, solution):
    return [run_throughput(config, table, solution) for config in configs]


class McThroughput:
    """An op is one seed of one (mix, N) cell under both policies, as in a
    throughput-gap experiment.  The index policy costs about 1.4x the relaxed
    one per slot, so ops of one policy alone would form two latency clusters
    with the median between them; paired, every op has about the same cost."""

    name = "mc-throughput"
    unit = "simulated slots"
    tail_pct = 90

    def __init__(self, ws, rng, out_dir: Path):
        self.ws = ws
        self.cells = {}
        for mix_label, preset in MC_MIXES.items():
            mix = _mix(ws, ws.get_preset(preset)["mix"])
            table = ws.build_index_table(mix)
            solution = ws.solve_relaxed(mix, table)
            for n_label, n in MC_SIZES.items():
                for policy in MC_POLICIES:
                    ws.make_engine(ws.SimConfig(mix=mix, n_users=n, horizon=MC_HORIZON,
                                                seed=0, policy=policy), table, solution)
                self.cells[f"{mix_label}.{n_label}"] = (mix, n, table, solution, preset)
        self.results = {(cell, policy): [] for cell in self.cells for policy in MC_POLICIES}

    def round(self, rng) -> list[Op]:
        ops = []
        for cell, (mix, n, table, solution, _) in self.cells.items():
            seed = int(rng.integers(2**63))
            configs = [self.ws.SimConfig(mix=mix, n_users=n, horizon=MC_HORIZON, seed=seed,
                                         policy=policy) for policy in MC_POLICIES]
            ops.append(Op(cell, partial(_both_policies, self.ws.run_throughput, configs,
                                        table, solution), MC_HORIZON * len(configs)))
        rng.shuffle(ops)
        return ops

    def record(self, op: Op, out) -> bool:
        for policy, rates in zip(MC_POLICIES, out):
            self.results[(op.kind, policy)].append(
                (rates["activation"], rates["belief_throughput"], rates["realized_throughput"]))
        return True

    def check(self) -> list[str]:
        notes = []
        worst = 0.0
        for (cell, policy), rows in self.results.items():
            mix, _, _, _, preset = self.cells[cell]
            bound = checks.CLOSED_FORMS[preset][2]
            act, belief, realized = np.array(rows).T
            label = f"{policy}.{cell}"
            if policy == "whittle":
                for a in act:
                    checks.whittle_activation(a, mix.alpha)
            if len(rows) < checks.MIN_SAMPLES:
                notes.append(f"{label}: {len(rows)} seeds, statistical checks skipped")
                continue
            if policy == "whittle":
                z = [checks.mean_at_most(belief, bound, f"{label} belief throughput")]
            else:
                z = [checks.mean_near(act, mix.alpha, f"{label} activation"),
                     checks.mean_near(belief, bound, f"{label} belief throughput")]
            z.append(checks.mean_near(realized - belief, 0.0,
                                      f"{label} realized - belief throughput"))
            worst = max(worst, *z)
        notes.append(f"largest deviation {worst:.2f} se (limit {checks.SE_LIMIT:g})")
        return notes


# ---------------------------------------------------------------------------
# fluid-convergence


FLUID_MIXES = ("single-class", "two-class", "fig5")
# The slowest start (fig5) is within 1e-8 of zeta after about 180 steps, so
# 2000 steps leave a wide margin for any start drawn from the seed.
FLUID_STEPS = 2_000
FLUID_PERTURBATION = 1e-3


class FluidConvergence:
    name = "fluid-convergence"
    unit = "fluid steps"
    tail_pct = 90

    def __init__(self, ws, rng, out_dir: Path):
        self.ws = ws
        self.mixes = {}
        for preset in FLUID_MIXES:
            mix = _mix(ws, ws.get_preset(preset)["mix"])
            table = ws.build_index_table(mix)
            solution = ws.solve_relaxed(mix, table)
            model = ws.FluidModel(mix, table)
            corners = []
            for offset in (0, mix.tau):  # x: all at OffAge(1); y: all stationary
                z = np.zeros(model.dim)
                z[offset + model.block * np.arange(mix.n_classes)] = mix.gamma
                corners.append(z)
            self.mixes[preset] = (table, solution.zeta, model, corners)
        self.finals = []

    def round(self, rng) -> list[Op]:
        ops = []
        for preset, (table, zeta, model, corners) in self.mixes.items():
            gamma = model.mix.gamma
            w = _simplex_point(gamma, model.block, rng)
            # a convex step from zeta towards a simplex point stays on the
            # product simplex
            near = zeta + FLUID_PERTURBATION / np.linalg.norm(w - zeta) * (w - zeta)
            for z0 in (_simplex_point(gamma, model.block, rng), *corners, near):
                ops.append(Op(preset, partial(self.ws.fluid_trajectory, z0, FLUID_STEPS,
                                              table, zeta=zeta), FLUID_STEPS))
        rng.shuffle(ops)
        return ops

    def record(self, op: Op, out) -> bool:
        self.finals.append((op.kind, out.final))
        return True

    def check(self) -> list[str]:
        for preset, final in self.finals:
            _, zeta, model, _ = self.mixes[preset]
            checks.trajectory(final, zeta, model.mix.gamma, model.block)
        return [f"{len(self.finals)} trajectories conserve mass and end at zeta"]


# ---------------------------------------------------------------------------
# pipeline-grid


def _grid_mix(classes, gamma, alpha, tau):
    return {"classes": [{"p": p, "r": r, "tau": tau} for p, r in classes],
            "gamma": list(gamma), "alpha": alpha}


# One- and two-class mixes at both truncation depths, each with a generic
# alpha (the randomization weight rho* between 0.2 and 0.9, away from the
# region boundary where the step search of linearize slows down).  Per round
# the successful ops are 1 transient (about 5 ms), 4 one-class ops at
# tau = 16 (about 10 ms), 5 two-class ops at tau = 16 and 3 one-class ops at
# tau = 32 (both about 25 ms) and 3 two-class ops at tau = 32 (about 75 ms).
# The median falls inside the 25 ms cluster and the p95 tail inside the top
# one, never in the gaps between them.
PIPELINE_GRID = {
    **{f"{label}-t{tau}": _grid_mix(classes, gamma, alpha, tau)
       for tau in (16, 32)
       for label, classes, gamma, alpha in (
           ("1c-a", [(0.9, 0.3)], [1.0], 0.45),
           ("1c-b", [(0.85, 0.3)], [1.0], 0.5),
           ("1c-c", [(0.75, 0.2)], [1.0], 0.5),
           ("2c-a", [(0.9, 0.45), (0.8, 0.3)], [0.45, 0.55], 0.5),
           ("2c-b", [(0.9, 0.2), (0.8, 0.35)], [0.5, 0.5], 0.5),
           ("2c-c", [(0.95, 0.4), (0.7, 0.1)], [0.3, 0.7], 0.4))},
    # the second class never activates: reported as the transient regime
    "2c-transient-t16": _grid_mix([(0.9, 0.3), (0.6, 0.35)], [0.5, 0.5], 0.3, 16),
    # Two mixes fail on every run because of faults in the program.  The OFF
    # ages of (0.9, 0.85) tie with the stationary rung at float resolution, so
    # the solver randomizes on a rung that also holds the ON states and
    # pipeline exits 2 ("crossing rung is tied across classes").
    "ladder-precision": _grid_mix([(0.9, 0.85)], [1.0], 0.5, 16),
    # The second class has threshold age 1, so linearize eliminates its
    # stationary coordinate, where zeta has no mass; the step search divides
    # by h = 0, half of U* is NaN and pipeline exits 1.
    "nan-linearization": _grid_mix([(0.6, 0.075), (0.6, 0.3)], [0.45, 0.55], 0.6, 16),
}
PIPELINE_PRESETS = ("single-class", "two-class", "fig5")
REGION_POINTS = 20


def _region_point(model, zeta, rung_idx, rng, scale=2e-3):
    """A random state near zeta inside the marginal-rung region."""
    support = np.flatnonzero(zeta > 1e-6)
    for _ in range(60):
        z = zeta.copy()
        for k in range(model.mix.n_classes):
            sl = model.class_slice(k)
            idx = support[(support >= sl.start) & (support < sl.stop)]
            noise = rng.normal(size=idx.size)
            z[idx] += scale * (noise - noise.mean())
        if z.min() >= 0.0 and model.in_linear_region(z, rung_idx):
            return z
        scale *= 0.5
    raise checks.CheckError("no point of the marginal-rung region found near zeta")


class PipelineGrid:
    name = "pipeline-grid"
    unit = "mix pipelines"
    tail_pct = 95

    def __init__(self, ws, rng, out_dir: Path):
        from whittlesched import cli
        self.ws = ws
        self.cli = cli
        self.out_dir = out_dir / "pipeline"
        mixes = {name: ws.get_preset(name)["mix"] for name in PIPELINE_PRESETS}
        mixes.update(PIPELINE_GRID)
        self.mixes = mixes
        self.argv = {}
        for name, mix in mixes.items():
            path = self.out_dir / "configs" / f"{name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({"schema": 1, "mix": mix}))
            report_dir = self.out_dir / "reports" / name
            self.argv[name] = ["pipeline", "--config", str(path), "--out", str(report_dir)]
        self.reports: dict[str, bytes] = {}  # the first report of each mix
        self.changed: set[str] = set()  # mixes whose report differed later on
        self.failed: set[str] = set()
        self.check_rng = rng

    def round(self, rng) -> list[Op]:
        names = list(self.mixes)
        rng.shuffle(names)
        return [Op(name, partial(self.cli.main, self.argv[name]), 1) for name in names]

    def record(self, op: Op, out) -> bool:
        if out != 0:
            self.failed.add(op.kind)
            return False
        report = (self.out_dir / "reports" / op.kind / "pipeline_report.json").read_bytes()
        if self.reports.setdefault(op.kind, report) != report:
            self.changed.add(op.kind)
        return True

    def check(self) -> list[str]:
        if self.changed:
            raise checks.CheckError("pipeline reports differ between ops of the same mix: "
                                    + ", ".join(sorted(self.changed)))
        ws = self.ws
        certified = 0
        for name, raw in self.reports.items():
            report = json.loads(raw)
            checks.pipeline_status(report)
            if report["status"] != "pass":
                continue
            relaxed = report["relaxed"]
            if name in checks.CLOSED_FORMS:
                checks.closed_form(name, relaxed["omega_star"], relaxed["rho_star"],
                                   relaxed["throughput_per_user"])
            mix = _mix(ws, self.mixes[name])
            table = ws.build_index_table(mix)
            solution = ws.solve_relaxed(mix, table)
            model = ws.FluidModel(mix, table)
            checks.fixed_point(report["checks"]["fixed_point_residual"]["value"])
            checks.fixed_point(float(np.linalg.norm(model.step(solution.zeta) - solution.zeta)))
            lin = ws.linearize(solution, table)
            rung = model.crossing_rung(solution)
            points = [_region_point(model, solution.zeta, rung, self.check_rng)
                      for _ in range(REGION_POINTS)]
            checks.affine_match([model.step(z) for z in points],
                                [lin.affine_step(z) for z in points])
            checks.gelfand(report["checks"]["stability"]["estimates"], lin.u_star)
            try:
                blocks = ws.analytic_blocks(solution)
            except ValueError:  # not the canonical two-class case
                pass
            else:
                checks.analytic_blocks(blocks.u_star, blocks.b_star, lin.u_star, lin.b_star)
            certified += 1
        return [f"{certified} certified mixes checked; failing every round: "
                + ", ".join(sorted(self.failed))]


WORKLOADS = {w.name: w for w in (McThroughput, FluidConvergence, PipelineGrid)}
