"""Experiment driver.

Reads a JSON config (or a shipped preset), dispatches the library operations,
and writes CSV artifacts.  Every CSV starts with a provenance comment line
(artifact version, config hash, seed list) followed by a header row; re-runs
with identical config and seeds are byte-identical.

Exit codes: 0 success; 1 a certified check failed (pipeline) or the library
raised an error, reported on stderr as ``error:`` with the exception and the
line that raised it; 2 a usage error, reported by argparse, or a config error,
reported as ``config error:``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import traceback
from functools import cache

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

try:  # CPython's built-in SHA-256: hashlib would load OpenSSL for one digest
    from _sha2 import sha256  # 3.12+
except ImportError:
    from _sha256 import sha256  # 3.10-3.11

FIXED_POINT_TOL = 1e-10
CONSTRAINT_TOL = 1e-12


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config handling

_TOP_KEYS = {"schema", "mix", "experiment", "out_dir"}
_MIX_KEYS = ("classes", "gamma", "alpha")  # a tuple: a missing key is named in this order
_CLASS_KEYS = {"p", "r", "tau"}
# union of experiment keys over all commands; per-command requirements are
# checked at dispatch so one preset can serve several commands
_EXPERIMENT_KEYS = {
    "kind", "n_users", "horizon", "seeds", "policy", "initial_state", "starts",
    "engine", "burn_in", "epsilon", "max_slots", "steps", "with_simulation",
}


def _integer(v) -> int:
    """int(v) for a count, seed or depth, refusing a float it would truncate."""
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _reject_unknown(d: dict, allowed: set | tuple, where: str):
    unknown = set(d).difference(allowed)
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
                                        tau=_integer(c.get("tau", 16))))
        except (KeyError, TypeError, ValueError) as e:
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
    if args.seeds is not None:  # an empty override empties the list, as "," does
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
    return sha256(blob.encode("utf-8")).hexdigest()


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
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
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
    rows = []
    for k, cls in enumerate(mix.classes):
        for s in lattice_states(mix.tau):
            rows.append([k, s.kind, s.age, belief_value(cls, s), table.value(k, s)])
    write_csv(os.path.join(out_dir, "index_table.csv"), _provenance(config_hash(cfg, command), []),
              ["class", "state", "age", "belief", "index"], rows)
    return 0


def _throughput_rows(runs, v):
    return [[c.n_users, c.seed, c.policy, c.engine, r["slots"], r["belief_throughput"],
             r["realized_throughput"], r["activation"], v["bound"]] for c, _, r in runs]


def _throughput_summary(runs, v):
    """One row per N of the grid, over its seeds."""
    rows = []
    for n in v["n_users"]:
        vals = [r["belief_throughput"] for c, _, r in runs if c.n_users == n]
        mean, se = _mean_se(vals)
        gap = None if v["bound"] is None else v["bound"] - mean
        rows.append([n, len(vals), mean, se, v["bound"], gap])
    return rows


def _hitting_summary(runs, v):
    """One row per (N, start) with at least one hit."""
    rows = []
    for n in sorted(set(v["n_users"])):
        for label in dict.fromkeys(cl for _, cl, _ in runs):
            cell = [hit for c, cl, hit in runs if (c.n_users, cl) == (n, label)]
            vals = [float(hit) for hit in cell if hit is not None]
            if vals:
                rows.append([n, label, *_mean_se(vals), len(vals), len(cell) - len(vals),
                             v["epsilon"]])
    return rows


def _distance_csv(name, param, column):
    """The per-seed CSV of a distance experiment: one row per (N, start, seed)."""
    def rows(runs, v):
        return [[c.n_users, label, v[param], c.seed, r] for c, label, r in runs]
    return name, ["n_users", "start", param, "seed", column], rows


# Each Monte Carlo experiment kind: the values it reads, as (key, type, default;
# None: required), the last being each run's horizon; the library call and the
# values it takes after the SimConfig; whether it is a distance experiment (the
# index policy from a list of starts, measured against zeta); (file name, header,
# rows) of its per-seed CSV and its summary, rows(runs, v) taking one
# (SimConfig, start label, result) per run and the values of _run_kind.
_KINDS = {
    "throughput": (
        (("horizon", _integer, None),), run_throughput, (), False,
        (("simulate.csv", ["n_users", "seed", "policy", "engine", "slots_averaged",
                           "belief_throughput", "realized_throughput", "activation",
                           "relaxed_bound"], _throughput_rows),
         ("throughput_sweep.csv", ["n_users", "seeds", "belief_throughput_mean", "se",
                                   "relaxed_bound", "gap"], _throughput_summary))),
    "hitting-time": (
        (("epsilon", float, None), ("max_slots", _integer, 100000)), hitting_time,
        ("epsilon", "zeta"), True,
        (_distance_csv("hitting_times.csv", "epsilon", "hit_slot"),
         ("hitting_summary.csv", ["n_users", "start", "mean", "se", "seeds", "misses",
                                  "epsilon"], _hitting_summary))),
    "occupancy": (
        (("epsilon", float, None), ("horizon", _integer, None)), occupancy, ("epsilon", "zeta"),
        True, (_distance_csv("occupancy.csv", "epsilon", "occupancy"),)),
    "deviation": (
        (("steps", _integer, None),), trajectory_deviation, (), True,
        (_distance_csv("deviation.csv", "steps", "sup_deviation"),)),
}

# the kind each experiment command runs; sweep reads it from the config
_COMMAND_KINDS = {"simulate": "throughput", "hitting-time": "hitting-time",
                  "occupancy": "occupancy", "deviation": "deviation", "sweep": None}


def _run_kind(kind: str, exp: dict, command: str, mix: ClassMix, table, solution,
              min_seeds: int = 1):
    """Run a kind's experiment, one SimConfig per (N, start, seed) in that order;
    return the runs as (SimConfig, start label, result) and the values the kind's
    CSVs read.  A degenerate mix, when the kind needs the fixed point or the
    policy is relaxed, an empty N list and fewer than min_seeds seeds are config
    errors."""
    reads, fn, args, distance, _ = _KINDS[kind]
    fields = {key: exp[key] for key in ("engine", "burn_in", "policy") if key in exp}
    if distance and fields.get("policy", "whittle") != "whittle":
        raise ConfigError(f"{kind} runs the whittle policy, not {fields['policy']!r}")
    if solution.degenerate and (distance or fields.get("policy") == "relaxed"):
        raise ConfigError(f"mix is degenerate for this experiment: {solution.degenerate_reason}")
    v = {"zeta": solution.zeta, "bound": solution.throughput_per_user}  # None if degenerate
    try:  # a value the library rejects while the config is expanded is a config error
        for key, cast, default in reads:
            v[key] = cast(_need(exp, key, command) if default is None else exp.get(key, default))
        v["n_users"] = [_integer(n) for n in _as_list(_need(exp, "n_users", command))]
        v["seeds"] = [_integer(s) for s in _need(exp, "seeds", command)]
        for key, least in (("n_users", 1), ("seeds", min_seeds)):
            if len(v[key]) < least:
                raise ConfigError(f"{command} needs at least {least} {key}; "
                                  f"experiment key {key!r} is {v[key]!r}")
        starts = _as_list(exp.get("starts", ["x"])) if distance else \
            [exp.get("initial_state", "x")]
        configs, labels = [], []
        for n in v["n_users"]:
            for start in starts:
                init = _resolve_start(start, mix, n, v["zeta"])
                for seed in v["seeds"]:
                    configs.append(SimConfig(mix=mix, n_users=n, horizon=v[reads[-1][0]],
                                             seed=seed, initial_state=init, **fields))
                    labels.append(start if isinstance(start, str) else "explicit")
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e
    results = run_many(fn, configs, *(v[a] for a in args), table, solution)
    return list(zip(configs, labels, results)), v


def run_experiment(cfg: dict, out_dir: str, command: str) -> int:
    """Run one Monte Carlo experiment and write its kind's CSVs."""
    exp = cfg["experiment"]
    kind = _COMMAND_KINDS[command] or _need(exp, "kind", command)
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(f"unknown sweep kind {kind!r}")
    mix = parse_mix(cfg["mix"])
    table = build_index_table(mix)
    runs, v = _run_kind(kind, exp, command, mix, table, solve_relaxed(mix, table))
    provenance = _provenance(config_hash(cfg, command), v["seeds"])
    for name, header, rows in _KINDS[kind][-1]:
        write_csv(os.path.join(out_dir, name), provenance, header, rows(runs, v))
    return 0


def cmd_pipeline(cfg: dict, out_dir: str, command="pipeline") -> int:
    mix = parse_mix(cfg["mix"])
    exp = cfg.get("experiment", {})
    table = build_index_table(mix)
    solution = solve_relaxed(mix, table)
    report: dict = {
        "version": __version__,
        "config_sha256": config_hash(cfg, command),
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
        model = FluidModel(mix, table)  # serves the residual and the linearization
        resid = float(np.linalg.norm(model.step(solution.zeta) - solution.zeta))
        constr = abs(solution.activation - mix.alpha)
        report["checks"]["constraint_residual"] = {
            "value": constr, "tolerance": CONSTRAINT_TOL, "pass": constr < CONSTRAINT_TOL}
        report["checks"]["fixed_point_residual"] = {
            "value": resid, "tolerance": FIXED_POINT_TOL, "pass": resid < FIXED_POINT_TOL}
        if 0.0 < solution.rho_star < 1.0:
            lin = linearize(solution, model=model)
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
            sim_exp = {"n_users": 10000, "horizon": 20000, "seeds": list(range(1, 11)), **exp}
            for key, ok in (("policy", sim_exp.get("policy", "whittle") == "whittle"),
                            ("n_users", not isinstance(sim_exp["n_users"], list))):
                if not ok:  # the check below is the index policy's inequality at one N
                    raise ConfigError("pipeline checks the whittle policy at one N; "
                                      f"experiment key {key!r} is {sim_exp[key]!r}")
            # the check below needs an s.e., so at least two seeds
            runs, v = _run_kind("throughput", sim_exp, command, mix, table, solution,
                                min_seeds=2)
            [[n_users, _, mean, se, bound, _]] = _throughput_summary(runs, v)
            ok = mean <= bound + 3 * se
            report["simulation"] = {
                "n_users": n_users, "horizon": v["horizon"], "seeds": v["seeds"],
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
    # encoded whole and written in one call: json.dump writes chunk by chunk
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"pipeline: {report['status']} (report: {path})")
    return 1 if failed else 0


_COMMANDS = {"index-table": cmd_index_table, **dict.fromkeys(_COMMAND_KINDS, run_experiment),
             "pipeline": cmd_pipeline}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one in the process: parse_args keeps no state between calls."""
    helps = {  # a newline continues a help text under the one above
        "index-table": "emit the per-state Whittle index table",
        "simulate": "run the scheduler and report per-user\nthroughput/activation",
        "hitting-time": "first-entry times into an epsilon-ball\naround the fixed point",
        "occupancy": "fraction of slots spent inside an\nepsilon-ball around the fixed point",
        "deviation": "sup-norm gap between one run and the fluid\ntrajectory",
        "sweep": "run experiment.kind (throughput,\nhitting-time, occupancy or deviation) over\n"
                 "an N grid; writes that command's CSVs",
        "pipeline": "solve, certify stability, optionally\nsimulate; JSON report",
    }
    # one flat parser: every command takes the same four options
    parser = argparse.ArgumentParser(
        prog="whittlesched", formatter_class=argparse.RawTextHelpFormatter,
        description="Whittle-index downlink scheduling experiments: index tables,\n"
                    "relaxed-optimal policies, fluid stability, Monte Carlo sweeps.",
        epilog=f"Worker pool size is read from ${_sim.WORKERS_ENV}.\n"
               "Start aliases: x = all OFF observed, y = all stationary,\n"
               "zeta = fixed point on the 1/N lattice.\n"
               "With a single seed the s.e. columns are emitted empty.",
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="\n".join(f"{name:13} " + helps[name].replace("\n", "\n" + " " * 14)
                                       for name in _COMMANDS))
    parser.add_argument("--config", help="JSON config path")
    parser.add_argument("--preset", help="shipped preset name")
    parser.add_argument("--out", help="output directory (default: the config's out_dir, else .)")
    parser.add_argument("--seeds", help="comma-separated seed list overriding the config")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse has printed the usage error or the help
        return e.code
    try:
        cfg = load_config(args)
        source, out_dir = (("out_dir", cfg.get("out_dir", ".")) if args.out is None
                           else ("--out", args.out))
        # "" would write into the working directory or fail in makedirs
        if not isinstance(out_dir, str) or not out_dir:
            raise ConfigError(f"{source} must name an output directory (. for the working "
                              f"directory), got {out_dir!r}")
        return _COMMANDS[args.command](cfg, out_dir, args.command)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a fault of the library, not of the config
        where = traceback.extract_tb(e.__traceback__)[-1]
        print(f"error: {type(e).__name__}: {e} ({os.path.basename(where.filename)}:"
              f"{where.lineno} in {where.name})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
