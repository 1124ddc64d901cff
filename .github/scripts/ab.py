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
the number of pairs in which the change read lower, each followed by the
verdict the comparison rules give that metric (see `verdict`) under its
`better` and `bound` in BENCHMARK.json. The last line is the workload's
entry in the shape of a TRAJECTORY.jsonl line's "workloads" map. Exits 1
if any run is not correct, or if any two runs report different simulated
metrics (the SIMULATED list of check_trajectory.py).

    python3 -m doctest .github/scripts/ab.py

runs the examples of `verdict`.
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
BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


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


def verdict(parent, change, better, bound):
    """The comparison rules' verdict on one metric over paired runs.

    `parent[i]` and `change[i]` are pair i's values, `better` is "lower"
    or "higher", and `bound` is the relative worsening the benchmark
    allows. The first rule that holds gives the verdict:

    - "gain": the change is better in at least nine tenths of the pairs
      (ties count for neither), and its median is better than the
      parent's by more than the parent's interquartile range;
    - "unresolved": the parent's interquartile range, relative to its
      median, is wider than `bound`, and not every change run is better
      than every parent run;
    - "worse": the change's median is worse than the parent's by more
      than `bound` of the parent's median;
    - "no worse".

    >>> verdict([10, 11, 10, 12, 11], [8, 9, 8, 9, 8], "lower", 0.25)
    'gain'
    >>> verdict([10, 11, 10, 12, 11], [8, 12, 8, 9, 8], "lower", 0.25)
    'no worse'
    >>> verdict([100, 101, 100], [100, 101, 100], "higher", 0.01)
    'no worse'
    >>> verdict([10, 20, 10, 20], [18, 18, 18, 18], "lower", 0.25)
    'unresolved'
    >>> verdict([10, 20, 10, 20], [9, 9, 9, 9], "lower", 0.25)
    'no worse'
    >>> verdict([10, 10, 10, 11], [13, 13, 14, 13], "lower", 0.25)
    'worse'
    >>> verdict([100, 100, 101, 100], [80, 81, 80, 80], "higher", 0.1)
    'worse'
    """

    def gain(a, b):
        """How much better `a` reads than `b`: positive when better."""
        return b - a if better == "lower" else a - b

    wins = sum(gain(c, p) > 0 for p, c in zip(parent, change))
    (p_median, p_iqr), (c_median, _) = spread(parent), spread(change)
    if 10 * wins >= 9 * len(parent) and gain(c_median, p_median) > p_iqr:
        return "gain"
    every = all(gain(c, p) > 0 for p in parent for c in change)
    if p_iqr > bound * abs(p_median) and not every:
        return "unresolved"
    if -gain(c_median, p_median) > bound * abs(p_median):
        return "worse"
    return "no worse"


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

    declared = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
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
        values = {side: [r["host"][name] for r in runs[side]] for side in runs}
        rule = declared[name]
        print(f"    verdict: {verdict(values['parent'], values['change'], rule['better'], rule['bound'])}")
    print(json.dumps({args.workload: entry}))


if __name__ == "__main__":
    main()
