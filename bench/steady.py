"""Steadiness of the benchmark: run one workload k times and report spread.

    python3 bench/steady.py --workload fluid-convergence --runs 10 --seconds 40

Each run is a separate process of ``bench/run.py`` with its own seed
(``--first-seed``, ``--first-seed`` + 1, ...).  For every metric the command
prints the median, the quartiles and (q3 - q1) / median over the runs, the
figure the bounds in BENCHMARK.json are set from, and the share of failed
ops in each run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"], result["attempted"]))
        line = [f"seed {seed}: correct={result['correct']} "
                f"failed {result['failed']}/{result['attempted']}"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            line.append(f"{name}={m['value']:.6g}")
        print(" ".join(line), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s")
    print(f"{'metric':40s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:40s} {units[name]:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")
    fractions = sorted({f / a for f, a in shares})
    print(f"failed share per run: {', '.join(f'{x:.6f}' for x in fractions)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
