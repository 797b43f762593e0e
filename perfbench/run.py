"""Repo benchmark: the Figure-1 DLX loop and corpus-campaign workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 50 --trace 0

Prints one line per correctness check and per metric (name, value,
unit), then, as the last line of standard output, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
from a traced pass run after an untraced one (the difference of their
wall times is reported as ``trace.overhead_s``); a traced run takes no
set-up probes, so it prints every end-to-end metric but ``setup_s``.

This file only orchestrates and uses the standard library: set-up is
timed as whole worker processes (interpreter start, imports, workload
generation), and the flow runs in a worker process (``flow.py``) whose
peak RSS, with that of its own workers, is ``peak_rss_mb``.  Every time
is in seconds at the reference host speed (``refclock.py``): the host
this benchmark was built on changes speed by up to ~1.7x for tens of
seconds at a time, and a calibration loop timed alongside the flow
takes that out.  Exits 0
when every check passed, 1 when a check failed (the JSON line is still
printed) and 2 when the benchmark cannot run at all (no result).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Set-up probes per untraced run; setup_s is their median.
SETUP_PROBES = 9
#: Wall-clock limit of the whole command.  A traced fig1 run takes two
#: ~50 s passes whatever --seconds is; an untraced run takes about
#: --seconds (at least one pass) plus the set-up probes.
DEADLINE_S = 170.0
#: Largest --seconds that leaves room for the set-up probes and the
#: overshoot of the last pass inside DEADLINE_S.
MAX_SECONDS = 120


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_spec() -> Dict[str, Any]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"{path}: missing")
    with open(path) as handle:
        return json.load(handle)


def worker_env(work: str) -> Dict[str, str]:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise BenchError(f"{src}: no repro package to benchmark")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, HERE])
    # Same set iteration order in every run, so runs do the same work.
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = tmp
    return env


def run_worker(args, work: str, env, out: str, deadline: float,
               setup_only: bool = False) -> Dict[str, Any]:
    cmd = [
        sys.executable, os.path.join(HERE, "flow.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", work, "--out", out,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the worker started")
    # Its own process group, so a kill also reaches its pool workers.
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True
    )
    expired = threading.Event()

    def kill() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def expire() -> None:
        expired.set()
        kill()

    # A timer enforces the deadline so that the wait itself blocks:
    # subprocess's own timeout polls in 50 ms steps, which would
    # quantize the set-up probes.
    timer = threading.Timer(remaining, expire)
    timer.start()
    try:
        code = proc.wait()
    except BaseException:
        kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    if expired.is_set():
        raise BenchError(f"worker exceeded {DEADLINE_S:.0f}s")
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    with open(out) as handle:
        return json.load(handle)


def measure_setup(args, work: str, env, deadline: float,
                  probes: range) -> List[float]:
    """Reference seconds of each set-up probe: a whole worker process
    that starts the interpreter, imports and generates the workload,
    then exits.  The probe calibrates the host's speed on its own (see
    flow.py); its calibrating time is not counted."""
    times = []
    for i in probes:
        probe = os.path.join(work, f"setup{i}")
        os.makedirs(probe, exist_ok=True)
        start = time.perf_counter()
        doc = run_worker(args, probe, env,
                         os.path.join(probe, "setup.json"), deadline,
                         setup_only=True)
        host_s = time.perf_counter() - start - doc["calibrating_s"]
        times.append(host_s * doc["speed"])
        shutil.rmtree(probe, ignore_errors=True)
    return times


def end_to_end(doc: Dict[str, Any], setup_s: float) -> Dict[str, float]:
    """Means over the passes of one run (the host's speed holds one
    level for tens of seconds, so the mean over the run averages more
    of its drift than the median of two or three passes would);
    fail_ratio over all of them."""
    passes = doc["passes"]
    attempted, failed = tally(passes)
    wall = sum(p["wall_s"] for p in passes)
    return {
        "setup_s": setup_s,
        "wall_s": wall / len(passes),
        "replay_s": statistics.mean(p["replay_s"] for p in passes),
        "faults_per_s": sum(p["verdicts"] for p in passes) / wall,
        "peak_rss_mb": doc["peak_rss_mb"],
        "fail_ratio": fail_ratio(attempted, failed, len(passes)),
    }


def fail_ratio(attempted: int, failed: int, passes: int) -> float:
    """Add-one failure ratio of the run's mean pass: a clean run reads
    1/(attempted per pass + 1), never 0 and the same whatever the pass
    count, and every failure in any pass raises it."""
    return (failed / passes + 1) / (attempted / passes + 1)


def tally(passes: List[Dict[str, Any]]):
    """(attempted, failed) operations: each check, each verdict."""
    attempted = sum(len(p["checks"]) + p["verdicts"] for p in passes)
    failed = sum(
        sum(1 for _n, ok, _d in p["checks"] if not ok) + p["failures"]
        for p in passes
    )
    return attempted, failed


def main(argv: Optional[List[str]] = None) -> int:
    try:
        spec = load_spec()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument(
        "--workload", required=True,
        choices=[w["name"] for w in spec["workloads"]],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-long workload sizes, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be from 1 to {MAX_SECONDS}")

    # A terminated run raises SystemExit, so run_worker kills and reaps
    # the worker's process group instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(
        HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    try:
        env = worker_env(work)
        # Half the probes before the flow and half after it: the host's
        # speed drifts over seconds, and probes spread over the run
        # sample more of it than probes taken back to back.  A traced
        # run reports no setup_s and takes none.
        half = 0 if args.trace else SETUP_PROBES // 2
        probes = measure_setup(args, work, env, deadline, range(half))
        doc = run_worker(
            args, work, env, os.path.join(work, "flow.json"), deadline
        )
        if not args.trace:
            probes += measure_setup(
                args, work, env, deadline, range(half, SETUP_PROBES)
            )
        setup_s = statistics.median(probes) if probes else 0.0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = end_to_end(doc, setup_s)
    checks = [c for p in doc["passes"] for c in p["checks"]]
    checks += doc.get("traced_checks", [])
    attempted, failed = tally(doc["passes"])
    if args.trace:
        layers = doc["layers"]
        attempted += len(doc["traced_checks"])
        failed += sum(1 for _n, ok, _d in doc["traced_checks"] if not ok)
    correct = failed == 0

    summary: Dict[str, Any] = {}
    for name, ok, detail in checks:
        runs, fails, shown = summary.get(name, (0, 0, detail))
        summary[name] = (runs + 1, fails + (not ok), shown if ok else detail)
    for name, (runs, fails, detail) in summary.items():
        status = "ok" if not fails else f"FAILED {fails}/{runs}"
        print(f"check {name}: {status} ({detail})")
    units = {}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        units[metric["name"]] = metric["unit"]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name == "setup_s" and args.trace:
            continue
        print(f"{name} = {e2e[name]:.6g} {metric['unit']}")
    print(f"passes = {len(doc['passes'])}")
    print(f"host speed = {doc['speed']:.4g} reference s per host s "
          f"({doc['probes']} calibration probes)")
    if args.trace:
        for metric in spec["per_layer"]:
            name = metric["name"]
            print(f"{name} = {layers[name]:.6g} {metric['unit']}")
        for span, seconds in sorted(doc["self_s"].items()):
            print(f"self {span} = {seconds:.6g} s "
                  f"({doc['span_counts'][span]} spans)")
        chosen = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in chosen.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
