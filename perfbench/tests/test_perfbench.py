"""The benchmark's own tests.

Run from the root of a checkout (about a minute; not part of the
repository's tier-1 suite)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import filecmp
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import corpus_gen  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = ("fig1", "corpus")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_same_seed_gives_byte_identical_corpus(tmp_path):
    first = corpus_gen.write_corpus(str(tmp_path / "a"), 7, 3000, (6, 10))
    second = corpus_gen.write_corpus(str(tmp_path / "b"), 7, 3000, (6, 10))
    assert first == second
    _match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "a", tmp_path / "b", first, shallow=False
    )
    assert not mismatch and not errors
    other = corpus_gen.write_corpus(str(tmp_path / "c"), 8, 3000, (6, 10))
    assert any(
        (tmp_path / "a" / n).read_bytes() != (tmp_path / "c" / n).read_bytes()
        for n in set(first) & set(other) if n.startswith("rand")
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_corpus_fills_the_fault_budget(seed):
    budget = 5000
    files, drawn = corpus_gen.random_files(seed, budget, (6, 12))
    smallest = corpus_gen._single_faults(corpus_gen.MIN_STATES, 4, 3)
    assert budget - smallest < drawn <= budget
    assert files


def test_metric_names_and_units_are_well_formed():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def _pass(failed_checks=0, failures=0):
    checks = [("a", True, ""), ("b", failed_checks == 0, "")]
    return {"wall_s": 1.0, "replay_s": 0.5, "verdicts": 10,
            "failures": failures, "checks": checks}


def test_fail_ratio_counts_a_failure_in_any_pass():
    def ratio(passes):
        doc = {"passes": passes, "peak_rss_mb": 1.0}
        return run.end_to_end(doc, 0.1)["fail_ratio"]

    clean = ratio([_pass()] * 3)
    assert clean == 1 / 13
    assert ratio([_pass()] * 5) == clean
    assert ratio([_pass(), _pass(failed_checks=1), _pass()]) > clean
    assert ratio([_pass()] * 4 + [_pass(failures=1)]) > clean


def test_reference_clock_runs_at_the_calibrated_rate(monkeypatch):
    import signal
    import time

    # A host twice as fast as the reference: one host second reads as
    # two reference seconds.
    monkeypatch.setattr(refclock, "calibration_seconds",
                        lambda: refclock.REFERENCE_CAL_S / 2)
    clock = refclock.ReferenceClock()
    clock.probe()
    host0, ref0 = time.perf_counter(), clock()
    time.sleep(0.2)
    ratio = (clock() - ref0) / (time.perf_counter() - host0)
    assert 1.9 < ratio < 2.1

    # Probe time is not counted.
    def slow():
        time.sleep(0.2)
        return refclock.REFERENCE_CAL_S

    monkeypatch.setattr(refclock, "calibration_seconds", slow)
    before = clock()
    clock.probe()
    assert clock() - before < 0.05
    assert clock.probes == 2

    previous = signal.getsignal(signal.SIGVTALRM)
    with clock.running():
        assert refclock.now() == pytest.approx(clock(), abs=0.05)
    assert signal.getsignal(signal.SIGVTALRM) == previous
    assert signal.getitimer(signal.ITIMER_VIRTUAL) == (0.0, 0.0)
    assert abs(refclock.now() - time.perf_counter()) < 0.05


def _run(workload, trace, seed=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload):
    spec = _spec()
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert any(line.startswith(f"{name} = ") and line.endswith(unit)
                       for line in lines), name
        if group == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    spec = _spec()
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    runs = [_run("corpus", 1)[1]["metrics"] for _ in range(2)]
    assert [runs[0][n]["value"] for n in counts] == [
        runs[1][n]["value"] for n in counts
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(
        open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read()
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
