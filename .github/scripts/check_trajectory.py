#!/usr/bin/env python3
"""Check a simbench run's simulated metrics against TRAJECTORY.jsonl.

    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
        run --workload fault_storm --seconds 1 > run.out
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
        rep --workload fault_storm > rep.out
    python3 .github/scripts/check_trajectory.py run.out TRAJECTORY.jsonl [rep.out]

At a workload's default seed every simulated metric is a pure function of
the code, so it must equal the trajectory's last line exactly. A change
that moves one on purpose appends a new line. Host metrics (setup_s,
host_s, peak_rss_mb) are recorded in the trajectory, not gated here.

The headline metrics cannot see a record placed in the wrong slot, or a
dispatch order that moves requests but leaves the percentiles equal. A
rep's `digest` line hashes every report field and record, so with a
rep's output as the third argument its digest must equal the workload's
`digest` in the trajectory's last line, when that line has one (both at
the workload's default seed). Exits 1 naming the workload and every
metric, or the digest, that differs.
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


def check_digest(workload, rep_lines, trajectory_lines):
    """Return the mismatch between a rep's digest and the trajectory's,
    or None when the trajectory's last line holds no digest to check."""
    want = json.loads(trajectory_lines[-1])["workloads"][workload].get("digest")
    if want is None:
        return None
    got = [line.split()[1] for line in rep_lines if line.startswith("digest ")]
    if got != [want]:
        return [f"{workload}: the rep's digest is {got}, the trajectory's last line has {want!r}"]
    return []


def main():
    run_path, trajectory_path = sys.argv[1:3]
    with open(run_path) as f:
        run_lines = [line for line in f if line.strip()]
    with open(trajectory_path) as f:
        trajectory_lines = [line for line in f if line.strip()]
    problems = check(run_lines, trajectory_lines)
    workload = json.loads(run_lines[-2])["workload"]
    checked = "simulated metrics"
    if len(sys.argv) > 3:
        with open(sys.argv[3]) as f:
            rep_lines = [line for line in f if line.strip()]
        mismatch = check_digest(workload, rep_lines, trajectory_lines)
        if mismatch is not None:
            problems += mismatch
            checked += " and digest"
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        sys.exit(1)
    print(f"{workload}: {checked} match the trajectory")


if __name__ == "__main__":
    main()
