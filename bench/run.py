"""Benchmark of whittlesched: one workload per run, timed, checked, reported.

    python3 bench/run.py --workload mc-throughput --seed 1 --seconds 40 --trace 0

Run from the repository root.  The run imports whittlesched from ``src/`` of
the same checkout, times the workload's set-up, runs whole rounds of ops for
``--seconds`` seconds, checks every op's output and prints one JSON object
as its last line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run records spans at every layer boundary and prints the per-layer
metrics instead (see README.md).
"""

from __future__ import annotations

import os

# Run hygiene, before numpy is imported: one process, one BLAS thread.
os.environ["WHITTLESCHED_WORKERS"] = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"  # ignored by git: CLI reports and traces
SETUP_REPEATS = 21
MIN_BEYOND_TAIL = 10


def import_fresh():
    """Import whittlesched from scratch: its module bodies run again (from
    bytecode already compiled), while numpy and the standard library stay
    loaded, as they would in any program that uses the package."""
    for name in [n for n in sys.modules if n == "whittlesched" or n.startswith("whittlesched.")]:
        del sys.modules[name]
    return importlib.import_module("whittlesched")


def set_up(workload_cls, seed_seq):
    """Import and build the workload; returns (seconds, package, workload)."""
    gc.collect()  # garbage of the previous repeat is not this one's cost
    t0 = perf_counter()
    ws = import_fresh()
    workload = workload_cls(ws, np.random.default_rng(seed_seq), OUT_DIR)
    return perf_counter() - t0, ws, workload


def run_op(op, tracer: Tracer | None):
    """Run one op; returns (seconds, result, error)."""
    ctx = tracer.op_span() if tracer else contextlib.nullcontext()
    try:
        with ctx:
            t0 = perf_counter()
            out = op.call()
            dt = perf_counter() - t0
    except Exception:  # an op that raises counts as failed; the run goes on
        return perf_counter() - t0, None, traceback.format_exc()
    return dt, out, None


def timed_rounds(workload, rng, seconds: float, tracer: Tracer | None, errors: dict):
    """Whole rounds of ops until ``seconds`` have passed (at least one round).
    Returns per-op (latency, succeeded, work); the first traceback of each op
    kind that raised goes to ``errors``."""
    records = []
    t_start = perf_counter()
    while True:
        for op in workload.round(rng):
            dt, out, err = run_op(op, tracer)
            ok = err is None and workload.record(op, out)
            if err is not None:
                errors.setdefault(op.kind, err)
            records.append((dt, ok, op.work if ok else 0))
        if perf_counter() - t_start >= seconds:
            return records


def end_to_end(records, setup_times, workload) -> dict:
    lat = np.array([dt for dt, ok, _ in records if ok])
    total = sum(dt for dt, _, _ in records)
    work = sum(w for _, _, w in records)
    pct = workload.tail_pct
    beyond = lat.size * (1 - pct / 100)
    if beyond < MIN_BEYOND_TAIL:
        print(f"warning: only {beyond:.1f} ops beyond p{pct}", file=sys.stderr)
    print(f"{workload.name}: {len(records)} ops in {total:.2f} s of op time, "
          f"{work} {workload.unit}; op_ms_tail is p{pct} of {lat.size} ops")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "work_per_s": (work / total, "1/s"),
        "op_ms_p50": (float(np.median(lat)) * 1e3, "ms"),
        "op_ms_tail": (float(np.percentile(lat, pct)) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "whittlesched" / "__init__.py").is_file():
        print(f"bench: no whittlesched sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(SRC / "whittlesched", quiet=1)
    import_fresh()  # the first import also loads the standard-library modules it needs
    OUT_DIR.mkdir(exist_ok=True)

    setup_seq, round_seq = np.random.SeedSequence(args.seed).spawn(2)
    workload_cls = WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        dt, ws, workload = set_up(workload_cls, setup_seq)
        setup_times.append(dt)

    tracer = None
    if args.trace:
        # the traced run rebuilds the workload with spans on, so set-up calls
        # are traced too, and afterwards runs one round of each other workload
        # so that every layer metric is measured in every traced run
        importlib.import_module("whittlesched.cli")
        tracer = Tracer()
        tracer.install()
        workload = workload_cls(ws, np.random.default_rng(setup_seq), OUT_DIR)

    rng = np.random.default_rng(round_seq)
    sink = io.StringIO()  # the CLI prints one line per op and errors on stderr
    errors: dict[str, str] = {}
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        run_op(workload.round(rng)[0], None)  # warm-up, discarded
        records = timed_rounds(workload, rng, args.seconds, tracer, errors)
        main_ops = len(records)
        if tracer:
            probes = [cls(ws, np.random.default_rng(setup_seq), OUT_DIR)
                      for name, cls in WORKLOADS.items() if name != args.workload]
            for probe in probes:
                timed_rounds(probe, rng, 0.0, tracer, errors)
            tracer.uninstall()
    for kind, err in errors.items():
        print(f"op {kind} raised:\n{err}", file=sys.stderr)

    correct = True
    try:
        for note in workload.check():
            print(f"check: {note}")
        if tracer:
            for probe in probes:
                probe.check()
    except checks.CheckError as e:
        correct = False
        print(f"check failed: {e}", file=sys.stderr)

    if tracer:
        layers, diag = tracer.layer_metrics(main_ops)
        tracer.write(OUT_DIR / f"trace-{args.workload}.npz")
        lat = [dt for dt, ok, _ in records if ok]
        print(f"traced: {diag['spans']} spans; op_ms_p50 {np.median(lat) * 1e3:.4f} "
              f"with spans on; untraced share of op time {diag['untraced_share']:.2e}")
    else:
        layers = end_to_end(records, setup_times, workload)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for _, ok, _ in records if not ok),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
