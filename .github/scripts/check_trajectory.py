#!/usr/bin/env python3
"""Check a simbench run's simulated metrics against TRAJECTORY.jsonl.

    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
        run --workload fault_storm --seconds 1 > run.out
    python3 .github/scripts/check_trajectory.py run.out TRAJECTORY.jsonl

At a workload's default seed every simulated metric is a pure function of
the code, so it must equal the trajectory's last line exactly. A change
that moves one on purpose appends a new line. Host metrics (setup_s,
host_s, peak_rss_mb) are recorded in the trajectory, not gated here.
Exits 1 naming the workload and every metric that differs.
"""

import json
import sys

SIMULATED = [
    "goodput_tok_s",
    "ttft_p50_ms",
    "ttft_p99_ms",
    "tpot_mean_ms",
    "drop_frac",
    "service_avail",
    "calib_err_pct",
    "paper_err_pct",
]


def check(run_lines, trajectory_lines):
    """Return the mismatches between a run's output and the trajectory."""
    host, result = (json.loads(line) for line in run_lines[-2:])
    workload = host["workload"]
    want = json.loads(trajectory_lines[-1])["workloads"][workload]
    if not result["correct"]:
        return [f"{workload}: the run failed an in-run check"]
    if host["seed"] != want["seed"]:
        return [f"{workload}: ran seed {host['seed']}, the trajectory holds seed {want['seed']}"]
    problems = []
    for metric in SIMULATED:
        got = result["metrics"][metric]["value"]
        expected = want["simulated"][metric]
        if got != expected:
            problems.append(
                f"{workload}: {metric} is {got!r}, the trajectory's last line has {expected!r}"
            )
    return problems


def main():
    run_path, trajectory_path = sys.argv[1:3]
    with open(run_path) as f:
        run_lines = [line for line in f if line.strip()]
    with open(trajectory_path) as f:
        trajectory_lines = [line for line in f if line.strip()]
    problems = check(run_lines, trajectory_lines)
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        sys.exit(1)
    print(f"{json.loads(run_lines[-2])['workload']}: simulated metrics match the trajectory")


if __name__ == "__main__":
    main()
