"""Command-line driver tests: config validation, CSV artifact shapes, byte
reproducibility, exit codes, and the pipeline report."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import whittlesched
from whittlesched.cli import main
from whittlesched.presets import PRESETS, get_preset

SINGLE_MIX = {"classes": [{"p": 0.8, "r": 0.2, "tau": 16}],
              "gamma": [1.0], "alpha": 0.75}
TWO_MIX = {"classes": [{"p": 0.9, "r": 0.45, "tau": 16},
                       {"p": 0.8, "r": 0.3, "tau": 16}],
           "gamma": [0.45, 0.55], "alpha": 0.6}
TRANSIENT_MIX = {"classes": [{"p": 0.9, "r": 0.8, "tau": 16},
                             {"p": 0.6, "r": 0.1, "tau": 16}],
                 "gamma": [0.5, 0.5], "alpha": 0.4}

TWO_CLASS_OMEGA = 360.0 / 491.0


@pytest.fixture(autouse=True)
def _serial_workers(monkeypatch):
    monkeypatch.setenv("WHITTLESCHED_WORKERS", "1")


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def config(mix, experiment=None, **extra):
    cfg = {"schema": 1, "mix": mix}
    if experiment is not None:
        cfg["experiment"] = experiment
    cfg.update(extra)
    return cfg


def read_csv(path):
    lines = path.read_text().splitlines()
    provenance, header = lines[0], lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return provenance, header, rows


# ---------------------------------------------------------------------------
# config and usage errors (exit code 2)


def test_requires_exactly_one_config_source(tmp_path, capsys):
    assert main(["index-table"]) == 2
    cfg = write_config(tmp_path, config(SINGLE_MIX))
    assert main(["index-table", "--config", cfg, "--preset", "fig5"]) == 2
    assert "config error" in capsys.readouterr().err


def test_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["index-table", "--config", str(path)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_rejects_unknown_keys_at_every_level(tmp_path, capsys):
    bad_top = config(SINGLE_MIX)
    bad_top["mystery"] = 1
    bad_mix = config({**SINGLE_MIX, "beta": 2.0})
    bad_class = config({**SINGLE_MIX,
                        "classes": [{"p": 0.8, "r": 0.2, "q": 0.1}]})
    bad_exp = config(SINGLE_MIX, {"n_userz": [10]})
    for i, payload in enumerate([bad_top, bad_mix, bad_class, bad_exp]):
        cfg = write_config(tmp_path, payload, f"bad{i}.json")
        assert main(["index-table", "--config", cfg]) == 2
        assert "unknown" in capsys.readouterr().err


def test_rejects_wrong_schema_and_empty_classes(tmp_path, capsys):
    no_schema = {"mix": SINGLE_MIX}
    wrong_schema = {"schema": 2, "mix": SINGLE_MIX}
    empty = config({"classes": [], "gamma": [], "alpha": 0.5})
    for i, payload in enumerate([no_schema, wrong_schema, empty]):
        cfg = write_config(tmp_path, payload, f"schema{i}.json")
        assert main(["index-table", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "schema" in err and "non-empty" in err


def test_rejects_unknown_preset(capsys):
    assert main(["index-table", "--preset", "figure-eight"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_rejects_bad_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path, config(
        SINGLE_MIX, {"n_users": 40, "horizon": 20, "seeds": [1]}))
    assert main(["simulate", "--config", cfg, "--seeds", "one,two"]) == 2
    assert "bad --seeds" in capsys.readouterr().err


def test_rejects_unknown_start_alias(tmp_path, capsys):
    cfg = write_config(tmp_path, config(
        SINGLE_MIX, {"n_users": 40, "epsilon": 0.1, "seeds": [1],
                     "max_slots": 50, "starts": ["warm"]}))
    assert main(["hitting-time", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "unknown start" in capsys.readouterr().err


def test_transient_mix_is_a_config_error_for_ball_experiments(tmp_path, capsys):
    cfg = write_config(tmp_path, config(
        TRANSIENT_MIX, {"n_users": 40, "epsilon": 0.1, "seeds": [1],
                        "max_slots": 50}))
    assert main(["hitting-time", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "degenerate" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, message", [
    ({"n_users": 10, "horizon": 20, "seeds": [1]}, "alpha*N"),
    ({"n_users": 40, "horizon": 20, "seeds": [1], "burn_in": 20}, "burn_in"),
    ({"n_users": 40, "horizon": "soon", "seeds": [1]}, "invalid literal"),
    ({"n_users": 40, "horizon": 20, "seeds": [1], "policy": "greedy"}, "unknown policy"),
    ({"n_users": 40, "horizon": 20, "seeds": [1], "initial_state": [1.0, 0.0]},
     "explicit initial state"),
    ({"n_users": 40, "horizon": 20, "seeds": [1],
      "initial_state": [1.05, -0.05] + [0.0] * 31}, "explicit initial state"),
    ({"n_users": 1000.5, "horizon": 20, "seeds": [1]}, "expected an integer, got 1000.5"),
    ({"n_users": 40, "horizon": 20.5, "seeds": [1]}, "expected an integer, got 20.5"),
    ({"n_users": 40, "horizon": 20, "seeds": [1.5]}, "expected an integer, got 1.5"),
    ({"n_users": 40, "horizon": 20, "seeds": [1], "burn_in": 2.5},
     "burn_in must be an integer, got 2.5"),
])
def test_rejected_experiment_values_are_config_errors(tmp_path, capsys, experiment,
                                                      message):
    cfg = write_config(tmp_path, config(SINGLE_MIX, experiment))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize("command, mix, experiment, value", [
    ("index-table", {**SINGLE_MIX, "classes": [{"p": 0.8, "r": 0.2, "tau": 16.7}]}, {},
     16.7),
    ("hitting-time", SINGLE_MIX,
     {"n_users": 40, "epsilon": 0.1, "seeds": [1], "max_slots": 50.5}, 50.5),
    ("deviation", SINGLE_MIX, {"n_users": 40, "steps": 20.5, "seeds": [1]}, 20.5),
    ("pipeline", SINGLE_MIX, {"with_simulation": True, "n_users": 1000.5}, 1000.5),
    ("pipeline", SINGLE_MIX, {"with_simulation": True, "horizon": 20.5}, 20.5),
    ("pipeline", SINGLE_MIX, {"with_simulation": True, "seeds": [1.5]}, 1.5),
])
def test_fractional_counts_are_config_errors_not_truncated(tmp_path, capsys, command, mix,
                                                           experiment, value):
    cfg = write_config(tmp_path, config(mix, experiment))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"expected an integer, got {value}" in err
    assert not out.exists()


def test_integral_floats_run_as_the_integers(tmp_path):
    # every line below the provenance, whose hash reads the config's own text
    runs = {}
    for kind, n, horizon, seed, tau, burn_in in (("int", 40, 20, 1, 16, 2),
                                                 ("float", 4e1, 20.0, 1.0, 16.0, 2.0)):
        mix = {**SINGLE_MIX, "classes": [{"p": 0.8, "r": 0.2, "tau": tau}]}
        out = tmp_path / kind
        cfg = write_config(tmp_path, config(mix, {"n_users": n, "horizon": horizon,
                                                  "seeds": [seed], "burn_in": burn_in}),
                           f"{kind}.json")
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        runs[kind] = [(out / name).read_text().splitlines()[1:]
                      for name in ("simulate.csv", "throughput_sweep.csv")]
    assert runs["float"] == runs["int"]


@pytest.mark.parametrize("field", ["tau", "p"])
def test_a_null_class_parameter_is_a_config_error(tmp_path, capsys, field):
    mix = {**SINGLE_MIX, "classes": [{"p": 0.8, "r": 0.2, "tau": 16, field: None}]}
    cfg = write_config(tmp_path, config(mix))
    assert main(["index-table", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: bad class parameters: ")


def test_relaxed_policy_on_a_transient_mix_is_a_config_error(tmp_path, capsys):
    experiment = {"n_users": 40, "horizon": 20, "seeds": [1], "policy": "relaxed"}
    for command, kind in [("simulate", {}), ("sweep", {"kind": "throughput"})]:
        cfg = write_config(tmp_path, config(TRANSIENT_MIX, {**experiment, **kind}))
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "degenerate" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("kind, message", [
    ({}, "experiment key 'kind' is required for sweep"),
    ({"kind": "atlas"}, "unknown sweep kind 'atlas'"),
    ({"kind": ["throughput"]}, "unknown sweep kind ['throughput']"),
])
def test_sweep_rejects_a_missing_or_unknown_kind(tmp_path, capsys, kind, message):
    cfg = write_config(tmp_path, config(
        SINGLE_MIX, {"n_users": 40, "horizon": 20, "seeds": [1], **kind}))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, kind, experiment", [
    ("hitting-time", "hitting-time", {"epsilon": 0.1, "max_slots": 50}),
    ("occupancy", "occupancy", {"epsilon": 0.1, "horizon": 20}),
    ("deviation", "deviation", {"steps": 20}),
    *[("sweep", kind, {"kind": kind, **rest}) for kind, rest in (
        ("hitting-time", {"epsilon": 0.1, "max_slots": 50}),
        ("occupancy", {"epsilon": 0.1, "horizon": 20}),
        ("deviation", {"steps": 20}))],
])
def test_distance_kinds_reject_a_policy_other_than_whittle(tmp_path, capsys, command, kind,
                                                           experiment):
    base = {"n_users": 40, "seeds": [1], **experiment}
    cfg = write_config(tmp_path, config(TWO_MIX, {**base, "policy": "relaxed"}))
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        f"config error: {kind} runs the whittle policy, not 'relaxed'\n"
    assert not list(tmp_path.glob("*.csv"))
    cfg = write_config(tmp_path, config(TWO_MIX, {**base, "policy": "whittle"}))
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0


def test_a_missing_mix_key_is_named_whatever_the_hash_seed(tmp_path):
    cfg = write_config(tmp_path, config({"classes": SINGLE_MIX["classes"]}))
    src = str(Path(whittlesched.__file__).resolve().parents[1])
    errors = set()
    for seed in ("0", "1", "2", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-m", "whittlesched.cli", "index-table",
                              "--config", cfg, "--out", str(tmp_path)],
                             env=env, capture_output=True, text=True)
        assert out.returncode == 2
        errors.add(out.stderr)
    assert errors == {"config error: mix is missing 'gamma'\n"}


def test_library_fault_exits_1_and_is_not_a_config_error(tmp_path, capsys):
    # A valid mix that the library fails on: identical classes share the
    # crossing rung, where the fluid map is not affine, so linearize raises.
    mix = {"classes": [{"p": 0.8, "r": 0.2, "tau": 16}] * 2, "gamma": [0.5, 0.5],
           "alpha": 0.75}
    cfg = write_config(tmp_path, config(mix))
    assert main(["pipeline", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: crossing rung is tied across classes")


def test_pipeline_certifies_a_class_whose_deep_indices_round_together(tmp_path):
    # the OFF indices of (0.9, 0.85) from age 10 on lie within 2e-13 of the
    # stationary index; ordered by age they still form one rung each
    mix = {"classes": [{"p": 0.9, "r": 0.85, "tau": 16}], "gamma": [1.0], "alpha": 0.5}
    cfg = write_config(tmp_path, config(mix))
    assert main(["pipeline", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "pipeline_report.json").read_text())
    assert report["status"] == "pass"
    assert report["checks"]["stability"]["certified"]
    assert report["relaxed"]["thresholds"][0]["threshold_age"] == 10


# ---------------------------------------------------------------------------
# index table


def test_index_table_is_deterministic_and_crosses_for_fig5(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["index-table", "--preset", "fig5", "--out", str(out_a)]) == 0
    assert main(["index-table", "--preset", "fig5", "--out", str(out_b)]) == 0
    assert (out_a / "index_table.csv").read_bytes() == \
        (out_b / "index_table.csv").read_bytes()
    provenance, header, rows = read_csv(out_a / "index_table.csv")
    assert provenance.startswith("# whittlesched=")
    assert "config_sha256=" in provenance and provenance.endswith("seeds=-")
    assert header == ["class", "state", "age", "belief", "index"]
    assert len(rows) == 2 * (2 * 16 + 1)
    # both classes share the stationary belief 1/2 but order their index
    # curves differently at different ages, so the curves cross
    stat_beliefs = [float(r[3]) for r in rows if r[1] == "stationary"]
    assert stat_beliefs == pytest.approx([0.5, 0.5], abs=1e-12)
    off = {(int(r[0]), int(r[2])): float(r[4]) for r in rows if r[1] == "off"}
    signs = {off[(0, age)] - off[(1, age)] > 0 for age in range(1, 17)}
    stat_idx = [float(r[4]) for r in rows if r[1] == "stationary"]
    signs.add(stat_idx[0] - stat_idx[1] > 0)
    assert signs == {True, False}


def test_float_cells_round_trip_exactly(tmp_path):
    assert main(["index-table", "--preset", "fig5", "--out", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "index_table.csv")
    for row in rows:
        for cell in (row[3], row[4]):
            assert repr(float(cell)) == cell


# ---------------------------------------------------------------------------
# simulate and sweep


def test_simulate_writes_rows_per_seed_and_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, config(
        SINGLE_MIX, {"n_users": 40, "horizon": 60, "seeds": [1, 2]}))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "simulate.csv").read_bytes() == \
        (out_b / "simulate.csv").read_bytes()
    provenance, header, rows = read_csv(out_a / "simulate.csv")
    assert provenance.endswith("seeds=1,2")
    assert header == ["n_users", "seed", "policy", "engine", "slots_averaged",
                      "belief_throughput", "realized_throughput", "activation",
                      "relaxed_bound"]
    assert [r[1] for r in rows] == ["1", "2"]
    for r in rows:
        assert r[2] == "whittle" and r[3] == "pooled"
        assert float(r[8]) == pytest.approx(0.45, abs=1e-12)
        assert 0.0 <= float(r[5]) <= 1.0


def test_simulate_leaves_bound_empty_for_transient_mix(tmp_path):
    cfg = write_config(tmp_path, config(
        TRANSIENT_MIX, {"n_users": 40, "horizon": 40, "seeds": [3]}))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "simulate.csv")
    assert len(rows) == 1 and rows[0][8] == ""


def test_throughput_sweep_on_a_transient_mix_leaves_bound_and_gap_empty(tmp_path):
    # the index policy needs no fixed point, so only the bound is missing
    cfg = write_config(tmp_path, config(
        TRANSIENT_MIX, {"kind": "throughput", "n_users": [40, 80], "horizon": 40,
                        "seeds": [3]}))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "simulate.csv")
    assert [r[8] for r in rows] == ["", ""]
    _, _, summary = read_csv(tmp_path / "throughput_sweep.csv")
    assert [r[:2] for r in summary] == [["40", "1"], ["80", "1"]]
    assert all(r[4:] == ["", ""] for r in summary)


def test_seed_override_reaches_provenance_and_rows(tmp_path):
    cfg = write_config(tmp_path, config(
        SINGLE_MIX, {"n_users": 40, "horizon": 40, "seeds": [1, 2, 3]}))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path),
                 "--seeds", "7"]) == 0
    provenance, _, rows = read_csv(tmp_path / "simulate.csv")
    assert provenance.endswith("seeds=7")
    assert [r[1] for r in rows] == ["7"]


def test_throughput_sweep_aggregates_and_blanks_single_seed_se(tmp_path):
    cfg = write_config(tmp_path, config(
        SINGLE_MIX, {"kind": "throughput", "n_users": [20, 40],
                     "horizon": 50, "seeds": [5]}))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "throughput_sweep.csv")
    assert header == ["n_users", "seeds", "belief_throughput_mean", "se",
                      "relaxed_bound", "gap"]
    assert [(r[0], r[1]) for r in rows] == [("20", "1"), ("40", "1")]
    for r in rows:
        assert r[3] == ""  # single seed: no s.e.
        assert float(r[5]) == pytest.approx(float(r[4]) - float(r[2]), abs=1e-15)


@pytest.mark.parametrize("burn_in, slots", [(None, 45), (0, 50), (40, 10)])
def test_sweep_honours_burn_in(tmp_path, burn_in, slots):
    experiment = {"n_users": 40, "horizon": 50, "seeds": [1, 2]}
    if burn_in is not None:
        experiment["burn_in"] = burn_in
    simulate = write_config(tmp_path, config(SINGLE_MIX, experiment), "simulate.json")
    sweep = write_config(tmp_path, config(SINGLE_MIX, {**experiment, "kind": "throughput"}),
                         "sweep.json")
    assert main(["simulate", "--config", simulate, "--out", str(tmp_path / "simulate")]) == 0
    assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "sweep")]) == 0
    _, _, per_seed = read_csv(tmp_path / "simulate" / "simulate.csv")
    assert [int(r[4]) for r in per_seed] == [slots, slots]
    _, _, summary = read_csv(tmp_path / "sweep" / "throughput_sweep.csv")
    assert float(summary[0][2]) == float(np.mean([float(r[5]) for r in per_seed]))


def test_sweep_dispatches_hitting_time_kind(tmp_path):
    cfg = write_config(tmp_path, config(
        SINGLE_MIX, {"kind": "hitting-time", "n_users": [40, 80],
                     "starts": ["x", "y"], "epsilon": 0.25, "seeds": [1, 2],
                     "max_slots": 300}))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, _, raw = read_csv(tmp_path / "hitting_times.csv")
    assert len(raw) == 2 * 2 * 2
    _, header, agg = read_csv(tmp_path / "hitting_summary.csv")
    assert header == ["n_users", "start", "mean", "se", "seeds", "misses",
                      "epsilon"]
    assert [(r[0], r[1]) for r in agg] == [
        ("40", "x"), ("40", "y"), ("80", "x"), ("80", "y")]


# ---------------------------------------------------------------------------
# byte-identical artifacts

# sha256 of every CSV each command wrote before the commands shared one runner;
# the runner must keep them byte for byte
GOLDEN = {
    "simulate": ("simulate", SINGLE_MIX, {
        "n_users": [40, 200], "horizon": 300, "seeds": [1, 2], "initial_state": "y"}, {
        "simulate.csv": "66063a543dc05cad2bcf03407d90e19519ade4f29f10b38887c382a1b9422f15"}),
    "simulate-relaxed": ("simulate", TWO_MIX, {
        "n_users": 100, "horizon": 200, "seeds": [3], "policy": "relaxed", "burn_in": 50,
        "engine": "users"}, {
        "simulate.csv": "754546e680c095bf04dece8bfdedda6dfc41c96bc4347c9c8f6a235df7932755"}),
    "hitting-time": ("hitting-time", TWO_MIX, {
        "n_users": 200, "epsilon": 0.05, "max_slots": 300, "seeds": [1, 2],
        "starts": ["x", "y", "zeta"]}, {
        "hitting_times.csv": "df660d9c01f5f9e811d68bd30b0b0901a337af98f47ff79832512504498b9d65",
        "hitting_summary.csv":
            "6c14e49a586b0dd9a39cf2af2f1513ae89ae935a8c02c85cfb60ced7ca13e7dc"}),
    "occupancy": ("occupancy", SINGLE_MIX, {
        "n_users": 400, "horizon": 300, "epsilon": 0.05, "seeds": [1],
        "starts": ["zeta", "x"], "burn_in": 100}, {
        "occupancy.csv": "b16a4bb15e071a94b9038156c63b493cbb4c2d782f0efc1c7232ac7007ece195"}),
    "deviation": ("deviation", TWO_MIX, {
        "n_users": 100, "steps": 100, "seeds": [1, 2], "starts": ["x", "y"]}, {
        "deviation.csv": "5d8617b660a6ecdf334cfcb990e4dbd2f78994ac3762d5497934816f097cf632"}),
    "sweep-throughput": ("sweep", SINGLE_MIX, {
        "kind": "throughput", "n_users": [40, 80], "horizon": 200, "seeds": [1, 2, 3]}, {
        "throughput_sweep.csv":
            "1976c8ffd970fac37a99ff9a0bdaf16b84e676fcf510dc9762d8c6d942b310eb"}),
    "sweep-hitting-time": ("sweep", SINGLE_MIX, {
        "kind": "hitting-time", "n_users": [40, 80], "starts": ["x", "y"], "epsilon": 0.25,
        "seeds": [1, 2], "max_slots": 300}, {
        "hitting_times.csv": "9a117953296129e9641034134e13d8d48714f4c2a974d32d26c806edd7813e95",
        "hitting_summary.csv":
            "9dae115933f6bae690adca4a96790bbff6e63543b51c6d9ddef764fd384184a7"}),
    "sweep-deviation": ("sweep", SINGLE_MIX, {
        "kind": "deviation", "n_users": [40, 80], "steps": 60, "seeds": [1]}, {
        "deviation.csv": "3444eef82610f28cf888b2cea417854003c66cbe6ef42504c2167152df308137"}),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_csv_bytes_match_the_recorded_digests(tmp_path, case):
    command, mix, experiment, digests = GOLDEN[case]
    cfg = write_config(tmp_path, config(mix, experiment))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest


def test_every_run_writes_its_kinds_csvs(tmp_path):
    headers = {
        "simulate.csv": ["n_users", "seed", "policy", "engine", "slots_averaged",
                         "belief_throughput", "realized_throughput", "activation",
                         "relaxed_bound"],
        "throughput_sweep.csv": ["n_users", "seeds", "belief_throughput_mean", "se",
                                 "relaxed_bound", "gap"],
    }
    throughput = {"n_users": 40, "horizon": 50, "seeds": [1, 2]}
    for command, experiment in [("simulate", throughput),
                                ("sweep", {**throughput, "kind": "throughput"})]:
        cfg = write_config(tmp_path, config(SINGLE_MIX, experiment), f"{command}.json")
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        assert sorted(p.name for p in (tmp_path / command).iterdir()) == sorted(headers)
        for name, header in headers.items():
            assert read_csv(tmp_path / command / name)[1] == header
    # sweep runs the occupancy kind and writes what the occupancy command writes
    occupancy = {"n_users": 40, "horizon": 50, "epsilon": 0.2, "seeds": [1, 2]}
    for command, experiment in [("occupancy", occupancy),
                                ("sweep", {**occupancy, "kind": "occupancy"})]:
        cfg = write_config(tmp_path, config(SINGLE_MIX, experiment), f"{command}-occ.json")
        assert main([command, "--config", cfg, "--out", str(tmp_path / f"{command}-occ")]) == 0
    assert [p.name for p in (tmp_path / "sweep-occ").iterdir()] == ["occupancy.csv"]
    _, header, rows = read_csv(tmp_path / "sweep-occ" / "occupancy.csv")
    assert header == ["n_users", "start", "epsilon", "seed", "occupancy"]
    assert rows == read_csv(tmp_path / "occupancy-occ" / "occupancy.csv")[2] and len(rows) == 2


# ---------------------------------------------------------------------------
# ball experiments


def test_hitting_time_zeta_start_hits_immediately(tmp_path):
    cfg = write_config(tmp_path, config(
        SINGLE_MIX, {"n_users": 500, "epsilon": 0.1, "seeds": [1, 2],
                     "max_slots": 400, "starts": ["zeta", "x"]}))
    assert main(["hitting-time", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "hitting_times.csv")
    assert len(rows) == 4
    by_start = {}
    for r in rows:
        by_start.setdefault(r[1], []).append(r[4])
    assert by_start["zeta"] == ["0", "0"]
    assert all(int(v) > 0 for v in by_start["x"])


def test_occupancy_rows_and_values(tmp_path):
    cfg = write_config(tmp_path, config(
        SINGLE_MIX, {"n_users": 400, "horizon": 300, "epsilon": 0.1,
                     "seeds": [1], "starts": ["zeta"]}))
    assert main(["occupancy", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "occupancy.csv")
    assert header == ["n_users", "start", "epsilon", "seed", "occupancy"]
    assert len(rows) == 1
    assert 0.9 < float(rows[0][4]) <= 1.0


def test_deviation_rows(tmp_path):
    cfg = write_config(tmp_path, config(
        SINGLE_MIX, {"n_users": 100, "steps": 80, "seeds": [1, 2],
                     "starts": ["x"]}))
    assert main(["deviation", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "deviation.csv")
    assert header == ["n_users", "start", "steps", "seed", "sup_deviation"]
    assert len(rows) == 2
    assert all(0.0 < float(r[4]) < 2.0 for r in rows)


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_passes_on_the_two_class_benchmark(tmp_path, capsys):
    cfg = write_config(tmp_path, config(TWO_MIX))
    assert main(["pipeline", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "pipeline: pass" in capsys.readouterr().out
    report = json.loads((tmp_path / "pipeline_report.json").read_text())
    assert report["status"] == "pass"
    assert report["relaxed"]["omega_star"] == pytest.approx(TWO_CLASS_OMEGA,
                                                            abs=1e-12)
    thresholds = report["relaxed"]["thresholds"]
    assert [t["threshold_age"] for t in thresholds] == [3, 6]
    assert [t["randomized"] for t in thresholds] == [False, True]
    checks = report["checks"]
    assert checks["constraint_residual"]["pass"]
    assert checks["constraint_residual"]["value"] < 1e-12
    assert checks["fixed_point_residual"]["pass"]
    assert checks["fixed_point_residual"]["value"] < 1e-10
    assert checks["stability"]["certified"]
    assert len(checks["stability"]["estimates"]) == 3


def test_pipeline_reports_transient_regime(tmp_path):
    cfg = write_config(tmp_path, config(TRANSIENT_MIX))
    assert main(["pipeline", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "pipeline_report.json").read_text())
    assert report["status"] == "transient-regime"
    assert "transient" in report["relaxed"]["degenerate_reason"]
    assert report["checks"] == {}


def test_pipeline_skips_stability_at_the_capacity_boundary(tmp_path):
    cfg = write_config(tmp_path, config(
        {"classes": [{"p": 0.8, "r": 0.2, "tau": 16}],
         "gamma": [1.0], "alpha": 1.0}))
    assert main(["pipeline", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "pipeline_report.json").read_text())
    assert report["status"] == "pass"
    assert "capacity boundary" in report["checks"]["stability"]["skipped"]
    assert any("rho" in w for w in report["relaxed"]["warnings"])


def test_pipeline_with_simulation_checks_the_bound(tmp_path):
    cfg = write_config(tmp_path, config(
        SINGLE_MIX, {"with_simulation": True, "n_users": 200,
                     "horizon": 1000, "seeds": [1, 2, 3, 4]}))
    assert main(["pipeline", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "pipeline_report.json").read_text())
    sim = report["simulation"]
    assert sim["relaxed_bound"] == pytest.approx(0.45, abs=1e-12)
    assert sim["pass"] is True
    assert report["checks"]["throughput_bound"]["pass"] is True
    assert report["status"] == "pass"


PIPELINE_SIMULATION = {"with_simulation": True, "n_users": 200, "horizon": 300,
                       "seeds": [1, 2]}


@pytest.mark.parametrize("setting, message", [
    ({"policy": "relaxed"}, "experiment key 'policy' is 'relaxed'"),
    ({"n_users": [200, 400]}, "experiment key 'n_users' is [200, 400]"),
])
def test_pipeline_simulates_the_index_policy_at_one_n(tmp_path, capsys, setting, message):
    cfg = write_config(tmp_path, config(SINGLE_MIX, {**PIPELINE_SIMULATION, **setting}))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


def test_pipeline_simulation_honours_burn_in_and_start(tmp_path):
    means = {}
    settings = {"default": {}, "set": {"burn_in": 100, "initial_state": "y"}}
    for name, setting in settings.items():
        experiment = {**PIPELINE_SIMULATION, **setting}
        cfg = write_config(tmp_path, config(SINGLE_MIX, experiment), f"{name}.json")
        assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        sim = json.loads((tmp_path / name / "pipeline_report.json").read_text())["simulation"]
        means[name] = sim["belief_throughput_mean"]
        # the same runs through simulate give the same mean and s.e.
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        _, header, rows = read_csv(tmp_path / name / "throughput_sweep.csv")
        summary = dict(zip(header, rows[0]))
        assert sim["belief_throughput_mean"] == float(summary["belief_throughput_mean"])
        assert sim["se"] == float(summary["se"])
    assert means["set"] != means["default"]


# ---------------------------------------------------------------------------
# output routing and hashing


def test_out_dir_falls_back_to_config(tmp_path):
    target = tmp_path / "from_config"
    cfg = write_config(tmp_path, config(SINGLE_MIX, out_dir=str(target)))
    assert main(["index-table", "--config", cfg]) == 0
    assert (target / "index_table.csv").exists()


def test_config_hash_ignores_out_dir(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = write_config(tmp_path, config(SINGLE_MIX, out_dir=str(out_a)), "a.json")
    cfg_b = write_config(tmp_path, config(SINGLE_MIX, out_dir=str(out_b)), "b.json")
    assert main(["index-table", "--config", cfg_a]) == 0
    assert main(["index-table", "--config", cfg_b]) == 0
    assert (out_a / "index_table.csv").read_bytes() == \
        (out_b / "index_table.csv").read_bytes()


# ---------------------------------------------------------------------------
# shipped presets


def test_preset_catalog_is_complete():
    assert set(PRESETS) == {"single-class", "two-class", "fig5",
                            "assumption-psi", "throughput-gap"}
    psi = get_preset("assumption-psi")
    exp = psi["experiment"]
    assert exp["kind"] == "hitting-time"
    assert exp["n_users"] == [10000, 50000, 100000]
    assert exp["starts"] == ["x", "y"]
    assert exp["epsilon"] == 0.005
    # three population sizes times two starts: six aggregated rows
    assert len(exp["n_users"]) * len(exp["starts"]) == 6
    gap = get_preset("throughput-gap")
    assert gap["experiment"]["kind"] == "throughput"
    assert gap["experiment"]["n_users"] == [1000, 10000, 100000]


def test_get_preset_returns_a_copy():
    a = get_preset("fig5")
    a["mix"]["alpha"] = 0.1
    assert get_preset("fig5")["mix"]["alpha"] == 0.6
