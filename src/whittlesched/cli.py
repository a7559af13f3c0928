"""Experiment driver.

Reads a JSON config (or a shipped preset), dispatches the library operations,
and writes CSV artifacts.  Every CSV starts with a provenance comment line
(artifact version, config hash, seed list) followed by a header row; re-runs
with identical config and seeds are byte-identical.

Exit codes: 0 success, 1 a certified check failed (pipeline), 2 usage or
config error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .belief import ChannelClass, ClassMix, belief_value, lattice_states
from .whittle import build_index_table
from .relaxed import solve_relaxed
from .fluid import FluidModel, linearize, stability_certificate
from .presets import get_preset
from .sim import SimConfig, hitting_time, lattice_round, occupancy, run_many, \
    run_throughput, trajectory_deviation
from . import sim as _sim

FIXED_POINT_TOL = 1e-10
CONSTRAINT_TOL = 1e-12


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config handling

_TOP_KEYS = {"schema", "mix", "experiment", "out_dir"}
_MIX_KEYS = {"classes", "gamma", "alpha"}
_CLASS_KEYS = {"p", "r", "tau"}
# union of experiment keys over all commands; per-command requirements are
# checked at dispatch so one preset can serve several commands
_EXPERIMENT_KEYS = {
    "kind", "n_users", "horizon", "seeds", "policy", "initial_state", "starts",
    "engine", "burn_in", "epsilon", "max_slots", "steps", "with_simulation",
}


def _reject_unknown(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(sorted(unknown))}")


def parse_mix(d: dict) -> ClassMix:
    if not isinstance(d, dict):
        raise ConfigError("mix must be an object")
    _reject_unknown(d, _MIX_KEYS, "mix")
    for key in _MIX_KEYS:
        if key not in d:
            raise ConfigError(f"mix is missing {key!r}")
    if not isinstance(d["classes"], list) or not d["classes"]:
        raise ConfigError("mix.classes must be a non-empty list")
    classes = []
    for c in d["classes"]:
        if not isinstance(c, dict):
            raise ConfigError("each class must be an object with p, r, tau")
        _reject_unknown(c, _CLASS_KEYS, "class")
        try:
            classes.append(ChannelClass(p=float(c["p"]), r=float(c["r"]),
                                        tau=int(c.get("tau", 16))))
        except (KeyError, ValueError) as e:
            raise ConfigError(f"bad class parameters: {e}") from e
    try:
        return ClassMix(classes=tuple(classes),
                        gamma=tuple(float(g) for g in d["gamma"]),
                        alpha=float(d["alpha"]))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad mix: {e}") from e


def load_config(args) -> dict:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("exactly one of --config or --preset is required")
    if args.preset:
        try:
            cfg = get_preset(args.preset)
        except KeyError as e:
            raise ConfigError(str(e.args[0])) from e
    else:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                cfg = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"malformed JSON config: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(cfg, _TOP_KEYS, "config")
    if cfg.get("schema") != 1:
        raise ConfigError("config must declare schema: 1")
    if "mix" not in cfg:
        raise ConfigError("config is missing mix")
    exp = cfg.get("experiment", {})
    if not isinstance(exp, dict):
        raise ConfigError("experiment must be an object")
    _reject_unknown(exp, _EXPERIMENT_KEYS, "experiment")
    if args.seeds:
        try:
            exp["seeds"] = [int(s) for s in args.seeds.split(",") if s]
        except ValueError as e:
            raise ConfigError(f"bad --seeds: {e}") from e
    cfg["experiment"] = exp
    return cfg


def config_hash(cfg: dict, command: str) -> str:
    payload = {"command": command,
               "schema": cfg.get("schema"),
               "mix": cfg.get("mix"),
               "experiment": cfg.get("experiment", {})}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _need(exp: dict, key: str, command: str):
    if key not in exp:
        raise ConfigError(f"experiment key {key!r} is required for {command}")
    return exp[key]


def _as_list(v):
    return v if isinstance(v, list) else [v]


def _resolve_start(name, mix: ClassMix, n_users: int, zeta) -> str | tuple:
    """Map a start spec to a SimConfig initial state.  Aliases: x (all OFF
    observed), y (all stationary), zeta (fixed point on the 1/N lattice)."""
    if isinstance(name, (list, tuple)):
        return tuple(float(v) for v in name)
    if name in ("x", "all_off_observed"):
        return "all_off_observed"
    if name in ("y", "all_stationary"):
        return "all_stationary"
    if name == "zeta":
        if zeta is None:
            raise ConfigError("start 'zeta' needs a non-degenerate mix")
        return tuple(lattice_round(zeta, mix, n_users))
    raise ConfigError(f"unknown start {name!r}")


# ---------------------------------------------------------------------------
# CSV output

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.floating,)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)


def write_csv(path: str, provenance: str, header: list[str], rows: list[list]):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(provenance + "\n")
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _provenance(h: str, seeds) -> str:
    seed_txt = ",".join(str(s) for s in seeds) if seeds else "-"
    return f"# whittlesched={__version__} config_sha256={h} seeds={seed_txt}"


def _mean_se(values: list[float]):
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, None  # s.e. undefined for a single seed: emitted empty
    se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
    return mean, se


# ---------------------------------------------------------------------------
# commands


def cmd_index_table(cfg: dict, out_dir: str, command="index-table") -> int:
    mix = parse_mix(cfg["mix"])
    table = build_index_table(mix)
    h = config_hash(cfg, command)
    rows = []
    for k, cls in enumerate(mix.classes):
        for s in lattice_states(mix.tau):
            rows.append([k, s.kind, s.age, belief_value(cls, s), table.value(k, s)])
    write_csv(os.path.join(out_dir, "index_table.csv"), _provenance(h, []),
              ["class", "state", "age", "belief", "index"], rows)
    return 0


def _sim_configs(mix, exp, command, starts_key=False, zeta=None):
    """Expand an experiment spec into SimConfig lists plus row labels."""
    n_list = [int(n) for n in _as_list(_need(exp, "n_users", command))]
    seeds = [int(s) for s in _need(exp, "seeds", command)]
    engine = exp.get("engine", "pooled")
    if starts_key:
        starts = _as_list(exp.get("starts", ["x"]))
    else:
        starts = [exp.get("initial_state", "x")]
    out = []
    for n in n_list:
        for start in starts:
            init = _resolve_start(start, mix, n, zeta)
            label = start if isinstance(start, str) else "explicit"
            for seed in seeds:
                out.append((n, label, seed, init))
    return out, n_list, starts, seeds, engine


def cmd_simulate(cfg: dict, out_dir: str, command="simulate") -> int:
    mix = parse_mix(cfg["mix"])
    exp = cfg["experiment"]
    table = build_index_table(mix)
    solution = solve_relaxed(mix, table)
    policy = exp.get("policy", "whittle")
    horizon = int(_need(exp, "horizon", command))
    burn_in = exp.get("burn_in")
    zeta = None if solution.degenerate else solution.zeta
    combos, *_ , seeds, engine = _sim_configs(mix, exp, command, zeta=zeta)
    configs = [
        SimConfig(mix=mix, n_users=n, horizon=horizon, seed=seed, policy=policy,
                  initial_state=init, engine=engine, burn_in=burn_in)
        for (n, _, seed, init) in combos
    ]
    results = run_many(run_throughput, configs, table, solution if policy == "relaxed" or not solution.degenerate else None)
    bound = None if solution.degenerate else solution.throughput_per_user
    h = config_hash(cfg, command)
    rows = [
        [c.n_users, c.seed, policy, engine, r["slots"], r["belief_throughput"],
         r["realized_throughput"], r["activation"], bound]
        for c, r in zip(configs, results)
    ]
    write_csv(os.path.join(out_dir, "simulate.csv"), _provenance(h, seeds),
              ["n_users", "seed", "policy", "engine", "slots_averaged",
               "belief_throughput", "realized_throughput", "activation",
               "relaxed_bound"], rows)
    return 0


def _solution_or_config_error(mix, table=None):
    solution = solve_relaxed(mix, table)
    if solution.degenerate:
        raise ConfigError(
            "mix is degenerate for this experiment: " + (solution.degenerate_reason or ""))
    return solution


def cmd_hitting_time(cfg: dict, out_dir: str, command="hitting-time") -> int:
    mix = parse_mix(cfg["mix"])
    exp = cfg["experiment"]
    table = build_index_table(mix)
    solution = _solution_or_config_error(mix, table)
    eps = float(_need(exp, "epsilon", command))
    max_slots = int(exp.get("max_slots", 100000))
    combos, *_rest, seeds, engine = _sim_configs(mix, exp, command, starts_key=True,
                                                 zeta=solution.zeta)
    configs = [
        SimConfig(mix=mix, n_users=n, horizon=max_slots, seed=seed,
                  initial_state=init, engine=engine)
        for (n, _, seed, init) in combos
    ]
    hits = run_many(hitting_time, configs, eps, solution.zeta, max_slots, table, solution)
    h = config_hash(cfg, command)
    rows = [
        [n, label, eps, seed, hit]
        for (n, label, seed, _), hit in zip(combos, hits)
    ]
    write_csv(os.path.join(out_dir, "hitting_times.csv"), _provenance(h, seeds),
              ["n_users", "start", "epsilon", "seed", "hit_slot"], rows)
    # aggregated shape: one row per (N, start)
    agg_rows = []
    for n in sorted({c[0] for c in combos}):
        for label in dict.fromkeys(c[1] for c in combos):
            vals = [hit for (cn, cl, _, _), hit in zip(combos, hits)
                    if cn == n and cl == label and hit is not None]
            total = sum(1 for (cn, cl, _, _) in combos if cn == n and cl == label)
            if not vals:
                continue
            mean, se = _mean_se([float(v) for v in vals])
            agg_rows.append([n, label, mean, se, len(vals), total - len(vals), eps])
    write_csv(os.path.join(out_dir, "hitting_summary.csv"), _provenance(h, seeds),
              ["n_users", "start", "mean", "se", "seeds", "misses", "epsilon"], agg_rows)
    return 0


def cmd_occupancy(cfg: dict, out_dir: str, command="occupancy") -> int:
    mix = parse_mix(cfg["mix"])
    exp = cfg["experiment"]
    table = build_index_table(mix)
    solution = _solution_or_config_error(mix, table)
    eps = float(_need(exp, "epsilon", command))
    horizon = int(_need(exp, "horizon", command))
    burn_in = exp.get("burn_in")
    combos, *_rest, seeds, engine = _sim_configs(mix, exp, command, starts_key=True,
                                                 zeta=solution.zeta)
    configs = [
        SimConfig(mix=mix, n_users=n, horizon=horizon, seed=seed,
                  initial_state=init, engine=engine, burn_in=burn_in)
        for (n, _, seed, init) in combos
    ]
    occs = run_many(occupancy, configs, eps, solution.zeta, table, solution)
    h = config_hash(cfg, command)
    rows = [[n, label, eps, seed, occ]
            for (n, label, seed, _), occ in zip(combos, occs)]
    write_csv(os.path.join(out_dir, "occupancy.csv"), _provenance(h, seeds),
              ["n_users", "start", "epsilon", "seed", "occupancy"], rows)
    return 0


def cmd_deviation(cfg: dict, out_dir: str, command="deviation") -> int:
    mix = parse_mix(cfg["mix"])
    exp = cfg["experiment"]
    table = build_index_table(mix)
    solution = _solution_or_config_error(mix, table)
    steps = int(_need(exp, "steps", command))
    combos, *_rest, seeds, engine = _sim_configs(mix, exp, command, starts_key=True,
                                                 zeta=solution.zeta)
    configs = [
        SimConfig(mix=mix, n_users=n, horizon=steps, seed=seed,
                  initial_state=init, engine=engine)
        for (n, _, seed, init) in combos
    ]
    sups = run_many(trajectory_deviation, configs, steps, table, solution)
    h = config_hash(cfg, command)
    rows = [[n, label, steps, seed, sup]
            for (n, label, seed, _), sup in zip(combos, sups)]
    write_csv(os.path.join(out_dir, "deviation.csv"), _provenance(h, seeds),
              ["n_users", "start", "steps", "seed", "sup_deviation"], rows)
    return 0


def cmd_sweep(cfg: dict, out_dir: str, command="sweep") -> int:
    exp = cfg["experiment"]
    kind = _need(exp, "kind", command)
    if kind == "hitting-time":
        return cmd_hitting_time(cfg, out_dir, command="sweep")
    if kind == "deviation":
        return cmd_deviation(cfg, out_dir, command="sweep")
    if kind != "throughput":
        raise ConfigError(f"unknown sweep kind {kind!r}")
    mix = parse_mix(cfg["mix"])
    table = build_index_table(mix)
    solution = _solution_or_config_error(mix, table)
    policy = exp.get("policy", "whittle")
    horizon = int(_need(exp, "horizon", command))
    combos, n_list, _starts, seeds, engine = _sim_configs(mix, exp, command,
                                                          zeta=solution.zeta)
    configs = [
        SimConfig(mix=mix, n_users=n, horizon=horizon, seed=seed, policy=policy,
                  initial_state=init, engine=engine)
        for (n, _, seed, init) in combos
    ]
    results = run_many(run_throughput, configs, table, solution)
    h = config_hash(cfg, command)
    bound = solution.throughput_per_user
    rows = []
    for n in n_list:
        vals = [r["belief_throughput"] for c, r in zip(configs, results) if c.n_users == n]
        mean, se = _mean_se(vals)
        rows.append([n, len(vals), mean, se, bound, bound - mean])
    write_csv(os.path.join(out_dir, "throughput_sweep.csv"), _provenance(h, seeds),
              ["n_users", "seeds", "belief_throughput_mean", "se",
               "relaxed_bound", "gap"], rows)
    return 0


def cmd_pipeline(cfg: dict, out_dir: str, command="pipeline") -> int:
    mix = parse_mix(cfg["mix"])
    exp = cfg.get("experiment", {})
    table = build_index_table(mix)
    solution = solve_relaxed(mix, table)
    h = config_hash(cfg, command)
    report: dict = {
        "version": __version__,
        "config_sha256": h,
        "mix": cfg["mix"],
        "relaxed": {
            "omega_star": solution.omega_star,
            "rho_star": solution.rho_star,
            "thresholds": [
                {"class": k, "threshold_age": pol.threshold_age,
                 "randomized": pol.randomized, "activation": pol.activation}
                for k, pol in enumerate(solution.policies)
            ],
            "activation": solution.activation,
            "throughput_per_user": solution.throughput_per_user,
            "warnings": list(solution.warnings),
            "degenerate": solution.degenerate,
        },
        "checks": {},
    }
    failed = False
    if solution.degenerate:
        report["status"] = "transient-regime"
        report["relaxed"]["degenerate_reason"] = solution.degenerate_reason
    else:
        model = FluidModel(mix, table)
        resid = float(np.linalg.norm(model.step(solution.zeta) - solution.zeta))
        constr = abs(solution.activation - mix.alpha)
        report["checks"]["constraint_residual"] = {
            "value": constr, "tolerance": CONSTRAINT_TOL, "pass": constr < CONSTRAINT_TOL}
        report["checks"]["fixed_point_residual"] = {
            "value": resid, "tolerance": FIXED_POINT_TOL, "pass": resid < FIXED_POINT_TOL}
        if 0.0 < solution.rho_star < 1.0:
            lin = linearize(solution, table)
            cert = stability_certificate(lin.u_star)
            report["checks"]["stability"] = {
                "estimates": [[k, v] for k, v in cert.estimates],
                "certified": cert.certified,
                "note": cert.note,
                "pass": cert.certified,
            }
        else:
            report["checks"]["stability"] = {
                "skipped": "non-generic alpha (capacity boundary): the fixed point "
                           "sits on the region boundary, linearization unavailable",
            }
        if exp.get("with_simulation"):
            horizon = int(exp.get("horizon", 20000))
            n_users = int(exp.get("n_users", 10000))
            seeds = [int(s) for s in exp.get("seeds", list(range(1, 11)))]
            engine = exp.get("engine", "pooled")
            configs = [SimConfig(mix=mix, n_users=n_users, horizon=horizon,
                                 seed=s, engine=engine) for s in seeds]
            results = run_many(run_throughput, configs, table, solution)
            vals = [r["belief_throughput"] for r in results]
            mean, se = _mean_se(vals)
            bound = solution.throughput_per_user
            ok = mean <= bound + 3 * (se or 0.0)
            report["simulation"] = {
                "n_users": n_users, "horizon": horizon, "seeds": seeds,
                "belief_throughput_mean": mean, "se": se,
                "relaxed_bound": bound, "pass": ok,
            }
            report["checks"]["throughput_bound"] = {
                "value": mean, "bound": bound, "se": se, "pass": ok}
        failed = any(isinstance(c, dict) and c.get("pass") is False
                     for c in report["checks"].values())
        report["status"] = "fail" if failed else "pass"
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "pipeline_report.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"pipeline: {report['status']} (report: {path})")
    return 1 if failed else 0


_COMMANDS = {
    "index-table": cmd_index_table,
    "simulate": cmd_simulate,
    "hitting-time": cmd_hitting_time,
    "occupancy": cmd_occupancy,
    "deviation": cmd_deviation,
    "sweep": cmd_sweep,
    "pipeline": cmd_pipeline,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whittlesched",
        description="Whittle-index downlink scheduling experiments: index tables, "
                    "relaxed-optimal policies, fluid stability, Monte Carlo sweeps.",
        epilog=f"Worker pool size is read from ${_sim.WORKERS_ENV}. "
               "Start aliases: x = all OFF observed, y = all stationary, "
               "zeta = fixed point on the 1/N lattice. With a single seed the "
               "s.e. columns are emitted empty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "index-table": "emit the per-state Whittle index table",
        "simulate": "run the scheduler and report per-user throughput/activation",
        "hitting-time": "first-entry times into an epsilon-ball around the fixed point",
        "occupancy": "fraction of slots spent inside an epsilon-ball around the fixed point",
        "deviation": "sup-norm gap between one run and the fluid trajectory",
        "sweep": "aggregate hitting-time/throughput/deviation over an N grid",
        "pipeline": "solve, certify stability, optionally simulate; JSON report",
    }
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--preset", help="shipped preset name")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--seeds", help="comma-separated seed list overriding the config")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        out_dir = args.out if args.out != "." else cfg.get("out_dir", ".")
        return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
