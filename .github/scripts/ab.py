#!/usr/bin/env python3
"""Compare two simbench builds on one workload in alternating pairs.

    ab.py --parent PARENT_SIMBENCH --change CHANGE_SIMBENCH --workload W \
        [--pairs 10] [--seed N] [--seconds S]

Each pair runs `simbench run --workload W` once on each binary; odd pairs
start with the parent, even pairs with the change, so a drift of the
host over time does not favour either side. A run's value of a host
metric is its median rep. Build each binary from its own checkout (see
the verify skill), and run nothing else heavy on the host meanwhile.

Prints each run as it finishes, then, per side, the median and
interquartile range over the runs of setup_s, host_s and peak_rss_mb, and
the number of pairs in which the change read lower. The last line is the
workload's entry in the shape of a TRAJECTORY.jsonl line's "workloads"
map. Exits 1 if any run is not correct, or if any two runs report
different simulated metrics (the SIMULATED list of check_trajectory.py).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from check_trajectory import SIMULATED  # noqa: E402

HOST = ["setup_s", "host_s", "peak_rss_mb"]


def run_once(binary, args):
    """One `simbench run`: its host medians and its simulated metrics."""
    cmd = [binary, "run", "--workload", args.workload]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{binary}: run failed (exit {proc.returncode}): {proc.stderr.strip()}")
    host, result = (json.loads(line) for line in lines[-2:])
    if not result["correct"]:
        sys.exit(f"{binary}: the run failed an in-run check: {proc.stderr.strip()}")
    return {
        "seed": host["seed"],
        "host": {name: host["host"][name]["median"] for name in HOST},
        "simulated": {name: result["metrics"][name]["value"] for name in SIMULATED},
    }


def spread(values):
    """Median and interquartile range, quartiles as simbench computes them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q3 - q1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="simbench binary of the parent")
    p.add_argument("--change", required=True, help="simbench binary of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    args = p.parse_args()

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            r = run_once(getattr(args, side), args)
            runs[side].append(r)
            host = " ".join(f"{k} {v:.4f}" for k, v in r["host"].items())
            print(f"pair {i + 1}/{args.pairs} {side}: {host}", flush=True)

    all_runs = runs["parent"] + runs["change"]
    for r in all_runs[1:]:
        if r["simulated"] != all_runs[0]["simulated"]:
            sys.exit(
                f"simulated metrics differ between runs: {all_runs[0]['simulated']} "
                f"vs {r['simulated']}"
            )

    entry = {"seed": all_runs[0]["seed"], "pairs": args.pairs}
    for side in ("parent", "change"):
        entry[side] = {}
        for name in HOST:
            median, iqr = spread([r["host"][name] for r in runs[side]])
            entry[side][name] = {"median": round(median, 4), "iqr": round(iqr, 4)}
    entry["simulated"] = all_runs[0]["simulated"]

    print(f"{args.workload}, {args.pairs} pairs:")
    for name in HOST:
        wins = sum(
            c["host"][name] < p["host"][name] for p, c in zip(runs["parent"], runs["change"])
        )
        parent, change = entry["parent"][name], entry["change"][name]
        print(
            f"  {name}: parent {parent['median']} (IQR {parent['iqr']}), "
            f"change {change['median']} (IQR {change['iqr']}), "
            f"change lower in {wins} of {args.pairs}"
        )
    print(json.dumps({args.workload: entry}))


if __name__ == "__main__":
    main()
