"""The end-to-end validation driver (Figure 1).

Ties the pieces together: run a test program on the behavioral
specification and on a (possibly buggy) pipelined implementation,
compare their checkpoint streams, and aggregate results over the bug
catalog or over arbitrary test sets.  Also measures the empirical
Requirement 2 bound (worst instruction latency) used by the
Theorem 3 certificate for the DLX model.
"""

from __future__ import annotations

import traceback
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..dlx.behavioral import BehavioralDLX, Checkpoint, ExecutionError
from ..dlx.buggy import BUG_CATALOG, BugEntry
from ..dlx.isa import Instruction
from ..dlx.pipeline import PipelineBugs, PipelinedDLX
from ..obs import STEP_BUCKETS, get_registry, span
from ..parallel import TaskTimeout
from .checkpoints import compare_streams
from .report import BugCampaignResult, Mismatch, ValidationResult
from .testgen import ConcreteTest


class BugCampaignError(RuntimeError):
    """A bug-campaign task failed (after retries) instead of returning
    a verdict; raised rather than silently mislabelling the bug."""


def expected_stream(
    program: Sequence[Instruction],
    data: Optional[Dict[int, int]] = None,
    branch_oracle: Optional[Sequence[bool]] = None,
) -> List[Checkpoint]:
    """The specification's checkpoint stream for one test.

    The spec run depends only on (program, data, oracle) -- never on
    the injected bugs -- so campaigns compute it once per test and
    share it across every catalog entry instead of re-simulating it
    per mutant.
    """
    with span("validate.spec_run", program=len(program)):
        spec = BehavioralDLX(
            program, dict(data) if data else None,
            branch_oracle=branch_oracle,
        )
        return spec.run(max_steps=max(200_000, 2 * len(program)))


def _co_simulate(
    program: Sequence[Instruction],
    data: Optional[Dict[int, int]],
    bugs: Optional[PipelineBugs],
    branch_oracle: Optional[Sequence[bool]],
    max_cycles: Optional[int],
    expected: Sequence[Checkpoint],
) -> ValidationResult:
    """Run the implementation and compare against a precomputed
    specification stream (the Figure 1 checkpoint comparison)."""
    if max_cycles is None:
        max_cycles = max(500_000, 6 * len(program))
    impl = PipelinedDLX(
        program,
        dict(data) if data else None,
        bugs=bugs,
        branch_oracle=branch_oracle,
    )
    try:
        observed = impl.run(max_cycles=max_cycles)
    except ExecutionError as exc:
        return ValidationResult(
            program_length=len(program),
            retired=impl.retired,
            cycles=impl.cycle_count,
            mismatch=Mismatch(impl.retired, "crash", "halt", str(exc)),
            max_latency=impl.max_latency(),
        )
    return ValidationResult(
        program_length=len(program),
        retired=impl.retired,
        cycles=impl.cycle_count,
        mismatch=compare_streams(expected, observed),
        max_latency=impl.max_latency(),
    )


def validate(
    program: Sequence[Instruction],
    data: Optional[Dict[int, int]] = None,
    bugs: Optional[PipelineBugs] = None,
    branch_oracle: Optional[Sequence[bool]] = None,
    max_cycles: Optional[int] = None,
) -> ValidationResult:
    """One checkpointed co-simulation of spec vs implementation.

    A crash or livelock of the implementation (possible under injected
    bugs -- e.g. a squash bug that sends the PC out of the program)
    counts as a mismatch of field "crash".  ``max_cycles`` defaults to
    a generous multiple of the program length.
    """
    with span(
        "validate.cosim", program=len(program), buggy=bugs is not None
    ):
        expected = expected_stream(program, data, branch_oracle)
        result = _co_simulate(
            program, data, bugs, branch_oracle, max_cycles, expected
        )
    reg = get_registry()
    if reg.enabled:
        reg.counter(
            "validate.runs_total",
            outcome="pass" if result.passed else "fail",
        ).inc()
    return result


def validate_concrete_test(
    test: ConcreteTest,
    data: Optional[Dict[int, int]] = None,
    bugs: Optional[PipelineBugs] = None,
) -> ValidationResult:
    """Co-simulate a converted abstract test (program + oracle).

    ``data`` defaults to the test's own distinct-value memory image.
    """
    return validate(
        list(test.program),
        data=data if data is not None else test.data,
        bugs=bugs,
        branch_oracle=list(test.branch_oracle),
    )


def _bug_entry_task(
    shared: Tuple[Tuple, ...], entry: BugEntry
) -> Tuple[bool, Optional[Mismatch]]:
    """Per-catalog-entry campaign task: run the battery until the bug
    produces a mismatch (module-level so workers can unpickle it)."""
    for program, data, oracle, expected in shared:
        result = _co_simulate(
            list(program),
            dict(data) if data else None,
            entry.bugs,
            list(oracle) if oracle is not None else None,
            None,
            expected,
        )
        if not result.passed:
            return (True, result.mismatch)
    return (False, None)


def _bug_entry_batch_task(
    shared: Tuple[Tuple, ...], batch: Sequence[BugEntry]
) -> List[Tuple[str, object]]:
    """Batched campaign task: one ``("ok", (detected, mismatch))`` or
    ``("err", message)`` per catalog entry, so a failing entry reports
    exactly like the per-entry path without poisoning its batchmates.

    Batching amortizes the per-task pickling of the shared battery
    (programs + precomputed spec streams), which for the DLX campaign
    dominates the dispatch cost.
    """
    results: List[Tuple[str, object]] = []
    for entry in batch:
        try:
            results.append(("ok", _bug_entry_task(shared, entry)))
        except TaskTimeout:
            # Timeouts force singleton batches, so this is our whole
            # batch: let the executor record it as timed out.
            raise
        except Exception as exc:  # noqa: BLE001 - reported per entry
            results.append((
                "err",
                "".join(traceback.format_exception(
                    type(exc), exc, exc.__traceback__
                )),
            ))
    return results


def run_bug_campaign(
    tests: Sequence[Tuple[Sequence[Instruction], Optional[Dict[int, int]],
                          Optional[Sequence[bool]]]],
    catalog: Sequence[BugEntry] = BUG_CATALOG,
    test_name: str = "test-set",
    *,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    kernel: str = "compiled",
    lanes: object = None,
) -> BugCampaignResult:
    """Run every catalog bug against a battery of test programs.

    ``tests`` is a sequence of (program, data, branch_oracle) triples;
    a bug counts as detected when *any* of them produces a mismatch.
    This is the DLX-level analogue of the FSM fault campaigns (the
    same core drives both: :func:`repro.runtime.runner.run`): the
    test set validates the implementation iff coverage is 100%.

    ``jobs`` distributes catalog entries over worker processes; rows
    come back in catalog order and are byte-identical to the serial
    sweep at any worker count.  ``timeout`` bounds each entry's
    wall-clock time: a mutant that livelocks (e.g. a bug that traps
    the PC in a loop the squash logic never exits) is recorded as
    detected with a "crash" mismatch instead of stalling the sweep for
    the full ``max_cycles`` bound.

    ``kernel="compiled"`` (default) hands workers small *batches* of
    catalog entries instead of single entries, amortizing the per-task
    shipping of the shared battery; ``"interp"`` keeps the one-entry-
    per-task dispatch.  Rows are byte-identical either way.  Task
    failures quarantine the affected entries and re-run them
    in-process (graceful degradation), flagging the result
    ``degraded``.
    """
    from ..runtime.runner import BugPopulation, run

    return run(
        BugPopulation(tests, catalog, test_name), jobs=jobs,
        timeout=timeout, retries=retries, kernel=kernel, lanes=lanes,
    ).result


def _record_bug_campaign_metrics(result: BugCampaignResult) -> None:
    """Fold a finished bug campaign into the installed (live) registry.

    Computed in the parent from the assembled (order-stable) rows, so
    every aggregate is byte-identical at any ``jobs`` setting.  The
    mismatch-index histogram is the DLX analogue of the FSM detection
    latency: how many retirements a bug incubates before the Figure 1
    comparison catches it.
    """
    reg = get_registry()
    for row in result.rows:
        reg.counter(
            "bugcampaign.bugs",
            mechanism=row.mechanism,
            outcome="detected" if row.detected else "escaped",
        ).inc()
    reg.gauge("bugcampaign.coverage").set(round(result.coverage, 6))
    reg.gauge("bugcampaign.catalog_size").set(len(result.rows))
    latency = reg.histogram(
        "bugcampaign.mismatch_index", buckets=STEP_BUCKETS
    )
    for row in result.rows:
        if row.detected and row.mismatch is not None:
            latency.observe(row.mismatch.index)


def campaign_from_concrete_test(
    test: ConcreteTest,
    catalog: Sequence[BugEntry] = BUG_CATALOG,
    test_name: str = "tour-test",
    data: Optional[Dict[int, int]] = None,
    *,
    jobs: int = 1,
    timeout: Optional[float] = None,
    kernel: str = "compiled",
) -> BugCampaignResult:
    """Bug campaign driven by a single converted tour test."""
    image = data if data is not None else test.data
    return run_bug_campaign(
        [(list(test.program), image, list(test.branch_oracle))],
        catalog=catalog,
        test_name=test_name,
        jobs=jobs,
        timeout=timeout,
        kernel=kernel,
    )


def measure_latencies(
    program: Sequence[Instruction],
    data: Optional[Dict[int, int]] = None,
) -> List[Tuple[Instruction, int]]:
    """Fetch-to-retire latency per instruction on the correct design.

    Feeds :func:`repro.core.requirements.check_bounded_latency` --
    Requirement 2's empirical ``k`` for the DLX pipeline (5 stages +
    stall cycles).
    """
    impl = PipelinedDLX(program, dict(data) if data else None)
    impl.run()
    return list(impl.latencies)
