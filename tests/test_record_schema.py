"""The one verdict-record schema, checked across its producers.

A local ``--run-dir`` run journals one record per fault; a service
shard worker returns the same records for its index range.  Both must
be the same bytes, and assembling either set must reproduce the plain
in-memory campaign's report exactly.
"""

import json

import pytest

from repro.cli import main
from repro.faults import run_campaign
from repro.runtime import Journal, run_paths
from repro.runtime.runner import replay_verdicts
from repro.service import DLX_TEST_NAME, resolve_campaign, simulate_shard
from repro.validation import run_bug_campaign

CASES = {
    "counter-wp": (
        {"target": "counter", "suite": "wp"},
        ["campaign", "counter", "--suite", "wp"],
    ),
    "dlx": ({"target": "dlx"}, ["campaign", "dlx"]),
}


def assembled(population, records):
    verdicts, provisional = replay_verdicts(population, records)
    assert provisional == 0 and None not in verdicts
    return population.assemble(verdicts).to_json_dict()


def in_memory(population):
    if population.kind == "fsm":
        result = run_campaign(
            population.spec, population.test, population.items
        )
    else:
        result = run_bug_campaign(
            population.tests, population.items, DLX_TEST_NAME
        )
    return result.to_json_dict()


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_dir_and_shard_records_agree(tmp_path, capsys, case):
    spec, argv = CASES[case]
    run_dir = str(tmp_path / "run")
    assert main(argv + ["--run-dir", run_dir, "--journal-slice", "7"]) in (
        0, 1,
    )
    capsys.readouterr()
    paths = run_paths(run_dir)
    journaled = sorted(
        Journal.replay(paths.journal).records, key=lambda r: r["i"]
    )
    resolved = resolve_campaign(spec)
    population = resolved.population
    sharded = simulate_shard(resolved, 0, resolved.total)
    assert len(sharded) == population.total
    assert journaled == sharded
    report = assembled(population, journaled)
    assert assembled(population, sharded) == report
    assert in_memory(population) == report
    if population.kind == "fsm":
        with open(paths.report) as handle:
            assert json.load(handle) == report
