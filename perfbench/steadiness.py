"""Steadiness mode: is each end-to-end metric steady enough for its bound?

Runs the benchmark N times per workload, each in a fresh process with
its own seed, and prints for every end-to-end metric the median and the
quartile distance as a share of the median (the spread the bound must
cover), next to the host diagnostics of those runs: calibration-job
time, steal share and CPU-over-wall ratio.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from perfbench.run import DIAG_PREFIX

RUN_TIMEOUT_S = 300


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def _one_run(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    command = [
        sys.executable, str(root / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(
        command, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    diagnostics = next(
        json.loads(line[len(DIAG_PREFIX):])
        for line in proc.stderr.splitlines()
        if line.startswith(DIAG_PREFIX)
    )
    return result, diagnostics


def steadiness(args, root: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    summary = {}
    steady = True
    for workload in workloads:
        runs = []
        for i in range(args.steadiness):
            result, diagnostics = _one_run(root, workload, args.seed + i, seconds)
            runs.append((result, diagnostics))
            print(
                f"{workload} seed {args.seed + i}: correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']} "
                + " ".join(
                    f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
                )
                + f" passes={[round(x, 2) for x in diagnostics['pass_ref_s']]}",
                flush=True,
            )
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<20} {'median':>12} {'spread':>8} {'bound':>6}")
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [result["metrics"][name]["value"] for result, _ in runs]
            spread = quartile_spread(values) if len(values) > 1 else 0.0
            ok = name == "setup_s" or spread < metric["bound"] / 3
            steady &= ok
            rows[name] = {"median": statistics.median(values), "spread": spread}
            print(
                f"  {name:<20} {statistics.median(values):>12.5g} "
                f"{spread:>8.2%} {metric['bound']:>6.0%}{'' if ok else '  NOISY'}"
            )
        diag = [d for _, d in runs]
        rows["calib_ms"] = statistics.median(d["calib_ms"] for d in diag)
        rows["steal_frac"] = statistics.median(d["steal_frac"] for d in diag)
        rows["max_cpu_over_wall"] = max(d["cpu_s"] / d["wall_s"] for d in diag)
        rows["failed"] = sum(result["failed"] for result, _ in runs)
        print(
            f"  calib_ms {rows['calib_ms']:.2f}  steal_frac {rows['steal_frac']:.3f}  "
            f"max cpu/wall {rows['max_cpu_over_wall']:.3f}  failed {rows['failed']}"
        )
        steady &= rows["failed"] == 0
        summary[workload] = rows
    print(json.dumps({"steady": steady, "workloads": summary}))
    return 0 if steady else 1
