#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the benchmark once per seed on one workload and prints, for each
metric, the median over the runs and the distance between the first and
third quartile as a share of that median (statistics.quantiles, n=4).
Compare each spread with the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload clean_paper --seeds 1-10 [--trace 1]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--raw", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = list(bench["command"]) + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: correctness gate failed\n{run.stdout}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} done", file=sys.stderr)

    print(f"{'metric':34} {'median':>14} {'iqr/median':>11} {'bound':>7}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above bound/3"
        bound_text = f"{bound:7.3f}" if bound is not None else "      -"
        print(f"{name:34} {median:14.6f} {spread:11.4f} {bound_text}{flag}")
        if args.raw:
            print("    " + " ".join(f"{v:.4g}" for v in vals))


if __name__ == "__main__":
    main()
