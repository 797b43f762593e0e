"""Run the benchmark repeatedly and append the results to baseline.json.

Usage, from the root of a checkout::

    python3 perfbench/record.py --runs 10 --first-seed 1

For each workload: ``--runs`` untraced runs, each with the next seed,
and two traced runs with the first seed (their work counts must be
identical).  Prints each end-to-end
metric's median and its spread (the distance between the first and
third quartile as a share of the median), and appends one entry per
workload -- git SHA, host fingerprint, quartiles of every end-to-end
metric, the traced per-layer values -- to ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def host() -> Dict[str, Any]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(
            f"{workload} seed {seed}: exit {proc.returncode}\n"
            + proc.stdout[-3000:]
        )
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["run_elapsed_s"] = time.monotonic() - start
    return values


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    entries = []
    for workload in names:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        e2e = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            e2e[name] = summarize([r[name] for r in runs])
            e2e[name]["unit"] = metric["unit"]
            e2e[name]["values"] = [r[name] for r in runs]
            print(f"{workload} {name}: median {e2e[name]['median']:.6g} "
                  f"{metric['unit']}, spread {e2e[name]['spread']:.3f} "
                  f"(bound {metric['bound']})", flush=True)
        entry = {
            "workload": workload,
            "run_elapsed_s": [r["run_elapsed_s"] for r in runs],
            "git_sha": git_sha(),
            "host": host(),
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "seeds": seeds,
            "run_seconds": seconds,
            "end_to_end": e2e,
        }
        traced = [run_once(workload, seeds[0], seconds, 1)
                  for _ in range(2)]
        counts = [m["name"] for m in spec["per_layer"]
                  if m["unit"] == "count"]
        entry["per_layer"] = traced[0]
        entry["counts_repeat"] = all(
            traced[0][n] == traced[1][n] for n in counts
        )
        print(f"{workload} traced counts repeat: "
              f"{entry['counts_repeat']}", flush=True)
        entries.append(entry)
    out = os.path.join(HERE, "baseline.json")
    doc = {"entries": []}
    if os.path.exists(out):
        with open(out) as handle:
            doc = json.load(handle)
    doc["entries"].extend(entries)
    with open(out, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
