#!/usr/bin/env python3
"""Steadiness check: runs one workload repeatedly and prints, for each
metric, the median, the quartiles and the spread (Q3 - Q1) / median,
beside the bound BENCHMARK.json fixes for it.

Run from the repository root:

    python3 perfbench/steady.py --workload settle --runs 10
    python3 perfbench/steady.py --workload fleet --runs 5 --first-seed 100 --trace 1

Each run gets its own seed (first-seed, first-seed + 1, ...). Quartiles
are Python's statistics.quantiles(values, n=4). A spread is flagged when
it exceeds a third of its bound, setup_s included.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run with seed {seed} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith(("# host_probe_ms", "# failed")):
            print(f"  seed {seed}: {line[2:]}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    opts = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = opts.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    units = {}
    shares = []
    for i in range(opts.runs):
        seed = opts.first_seed + i
        result = run_once(spec["command"], opts.workload, seed, seconds, opts.trace)
        if not result["correct"]:
            print(f"  seed {seed}: correct=false")
        shares.append(result["failed"] / result["attempted"])
        print(f"  seed {seed}: " + " ".join(
            f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"{opts.workload}: {opts.runs} runs of {seconds} s, trace={opts.trace}")
    print(f"  failed share per run: {sorted(set(shares))}")
    header = f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}"
    print(header)
    worst = True
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <-- above a third of its bound"
            worst = False
        bound_text = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"  {name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {bound_text}"
              f" {units[name]}{flag}")
    return 0 if worst else 1


if __name__ == "__main__":
    sys.exit(main())
