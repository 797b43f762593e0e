"""The campaign core: one sweep and one driver for every fault kind.

The paper's central experiment is always the same: run one test set
against every member of a fault population and record which members
it exposes.  A :class:`Population` says what differs by kind --
FSM output/transfer faults over ``(spec, test)``
(:class:`FaultPopulation`) or DLX catalog entries over a prepared
battery (:class:`BugPopulation`): its worker tasks, its verdict <->
journal-record encoding, result assembly, metrics fold, event
payloads and identity.  Everything else is written once:

* :func:`sweep` -- batched (compiled) or per-item (interp) dispatch,
  quarantine of failed tasks and one bounded-backoff re-run on the
  interpreter oracle (graceful degradation: the verdict is exactly as
  trustworthy, but the result is flagged ``degraded``, which the CLI
  turns into exit status 3).
* :func:`run` -- the driver.  Without a run dir it makes one sweep
  over the whole population in memory.  With one it adds a manifest
  and a checksummed write-ahead journal:

  - A verdict **counts only once journaled** -- slices of faults are
    swept, appended to the journal, and fsynced before the driver
    moves on.  Killing the process at any instant loses at most one
    in-flight slice.
  - **Resume replays the journal** (dropping torn/corrupt lines by
    checksum), verifies the manifest still matches the run's identity
    (machine/test fingerprints, fault digest, kernel, timeout), and
    re-simulates only the missing or provisional entries.
  - The final ``report.json`` and ``metrics.json`` are
    **byte-identical to an uninterrupted run**: verdicts are order-kept
    by fault index, timed-out verdicts are journaled as *provisional*
    and re-run on resume (wall-clock timeouts are environment facts,
    not properties of the mutant), and the metrics dump is the
    deterministic subset only.
* :func:`finalize` -- result assembly plus the deterministic metrics
  dump, shared by journaled runs and the campaign service.

The journal record is the one verdict schema: a local ``--run-dir``
run, a service shard and a coordinator spool all write it, and
:meth:`Population.decode` is its single validating reader.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..dlx.buggy import BUG_CATALOG, BugEntry
from ..faults.campaign import (
    CampaignExecutionError,
    CampaignResult,
    FaultVerdict,
    _detect_batch_task,
    _detect_task,
    _record_campaign_metrics,
)
from ..faults.inject import Fault, all_single_faults
from ..obs import SECONDS_BUCKETS, get_registry, scoped_registry, span
from ..obs.events import emit_event, get_bus
from ..parallel import (
    MUTANT_BATCH,
    BackoffPolicy,
    batch_unit,
    battery_fingerprint,
    check_kernel,
    inputs_fingerprint,
    machine_fingerprint,
    parallel_map,
    parallel_map_batched,
    run_task_inline,
)
from ..validation import harness
from ..validation.harness import (
    BugCampaignError,
    _record_bug_campaign_metrics,
    expected_stream,
)
from ..validation.report import BugCampaignResult, BugCampaignRow, Mismatch
from .journal import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    METRICS_NAME,
    REPORT_NAME,
    Journal,
    JournalReplay,
    RunDirError,
    atomic_write_json,
    check_manifest,
    journal_digest,
    read_manifest,
    write_manifest,
)

#: Verdicts per journal slice: one sweep + one fsync per slice.  Small
#: enough that a crash re-simulates little, large enough that the
#: fsync cost stays invisible next to the simulations.
DEFAULT_SLICE = 64

#: Bounded exponential backoff for quarantined oracle re-runs: up to
#: DEGRADE_ATTEMPTS attempts, sleeping 0.02 s, 0.04 s, ... between them.
DEGRADE_ATTEMPTS = 3
DEGRADE_BACKOFF = BackoffPolicy(base=0.02, jitter=0)


def fsm_campaign_identity(
    spec: Any,
    test: Sequence[Any],
    population: Sequence[Fault],
    kernel: str,
    timeout: Optional[float],
) -> Dict[str, Any]:
    """The manifest identity of an FSM campaign: everything a verdict
    depends on (and nothing scheduling-dependent -- ``jobs``, ``lanes``
    and slice sizes are settings, not identity).  Shared between the
    run-dir manifest and the service's content-addressed result store,
    so both address the same work by the same digest."""
    return {
        "kind": "fsm",
        "machine": spec.name,
        "machine_fingerprint": machine_fingerprint(spec),
        "test_fingerprint": inputs_fingerprint(tuple(test)),
        "fault_count": len(population),
        "fault_digest": journal_digest(repr(f) for f in population),
        "kernel": kernel,
        "timeout": timeout,
    }


def dlx_campaign_identity(
    tests: Sequence[Tuple],
    catalog: Sequence[BugEntry],
    test_name: str,
    kernel: str,
    timeout: Optional[float],
) -> Dict[str, Any]:
    """The manifest identity of a DLX bug-catalog campaign (see
    :func:`fsm_campaign_identity`)."""
    return {
        "kind": "dlx",
        "test_name": test_name,
        "battery_fingerprint": battery_fingerprint(
            [(p, dict(d) if d else None, o) for p, d, o in tests]
        ),
        "catalog_count": len(catalog),
        "catalog_digest": journal_digest(
            f"{entry.name}:{entry.bugs!r}" for entry in catalog
        ),
        "kernel": kernel,
        "timeout": timeout,
    }


# --------------------------------------------------------------------
# Populations: what differs by fault kind
# --------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayedMismatch:
    """A mismatch reconstructed from a journal record.

    The report renders mismatches via ``str()`` and the metrics need
    only ``.index``, so persisting (index, rendered text) is enough to
    reproduce both byte-for-byte without pickling spec/impl values.
    """

    index: int
    text: str

    def __str__(self) -> str:
        return self.text


class Population:
    """A fault population run against one test set.

    ``items`` are the work items in fault-index order.  Subclasses
    supply the kind-specific parts: ``task`` / ``batch_task`` (the
    per-item and compiled-batch worker functions, both called as
    ``task(shared, item)``), ``shared``, :meth:`batch_width`,
    :meth:`verdict` / :meth:`timed_out` / :meth:`failure`,
    :meth:`subject`, :meth:`_encode` / :meth:`_decode` (record fields
    beyond the common four), :meth:`assemble`, :meth:`record_metrics`, :meth:`started`,
    :meth:`label` and :meth:`identity`.
    """

    #: Identity ``kind``; also the service's campaign label.
    kind = ""
    #: Span family: ``<span>.run`` in memory, ``runtime.<span>``
    #: journaled.
    span = ""
    items: Sequence[Any] = ()

    @property
    def total(self) -> int:
        return len(self.items)

    def sweep(self, items: Sequence[Any], **settings: Any) -> List[Any]:
        """Verdicts for ``items`` (a subsequence of :attr:`items`)."""
        return sweep(self, items, **settings)

    def batch_width(self, lanes: object) -> int:
        """Items per compiled batch: one lane word's worth of mutants."""
        from ..kernel import resolve_lanes

        return resolve_lanes(lanes) - 1

    def encode(self, index: int, verdict: Any) -> Dict[str, Any]:
        """The journal record of one verdict."""
        record = {
            "i": index,
            "detected": verdict.detected,
            "timed_out": verdict.timed_out,
            "degraded": verdict.degraded,
        }
        record.update(self._encode(index, verdict))
        return record

    def _encode(self, index: int, verdict: Any) -> Dict[str, Any]:
        """Record fields beyond the common four (none by default)."""
        return {}

    def decode(self, record: Any) -> Optional[Tuple[int, Any]]:
        """``(index, verdict)`` for a journal or worker record, or None
        when it is malformed (not an object, a non-integer or out-of-
        range index, a field of the wrong type or naming the wrong
        item).  Total: a lying worker or a damaged journal corrupts
        nothing, its records are simply dropped."""
        if not isinstance(record, dict):
            return None
        index = record.get("i")
        if type(index) is not int or not 0 <= index < self.total:
            return None
        extra = self._decode(index, record)
        if extra is None:
            return None
        return index, FaultVerdict(
            detected=bool(record.get("detected")),
            timed_out=bool(record.get("timed_out")),
            degraded=bool(record.get("degraded")),
            **extra,
        )

    def _decode(
        self, index: int, record: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """Verdict fields beyond the common flags, or None to reject
        the record (none by default)."""
        return {}

    def finished(self, result: Any) -> Dict[str, Any]:
        """The ``campaign.finished`` payload."""
        return {
            **self.label(),
            "detected": len(result.detected),
            "escaped": len(result.escaped),
            "coverage": round(result.coverage, 6),
        }


class FaultPopulation(Population):
    """FSM output/transfer faults (default: every single fault of
    ``spec``) run against the input sequence ``test``."""

    kind = "fsm"
    span = "campaign"
    task = staticmethod(_detect_task)
    batch_task = staticmethod(_detect_batch_task)

    def __init__(
        self,
        spec: Any,
        test: Sequence[Any],
        faults: Optional[Sequence[Fault]] = None,
    ) -> None:
        self.spec = spec
        self.test = tuple(test)
        self.items = (
            all_single_faults(spec) if faults is None else list(faults)
        )
        self.shared = (spec, self.test)

    @classmethod
    def for_suite(
        cls,
        machine: Any,
        suite: str = "tour",
        method: str = "cpp",
        extra_states: int = 0,
    ) -> "FaultPopulation":
        """The population a ``suite`` test set exercises: every single
        fault of ``machine`` under its ``method`` transition tour, or
        the reset-harness lowering of a W/Wp/HSI suite (raises
        :class:`~repro.tour.SuiteError` where the construction does
        not apply)."""
        from ..tour import FaultDomain, generate_suite, transition_tour

        if suite == "tour":
            return cls(machine, transition_tour(machine, method=method).inputs)
        ex = generate_suite(
            machine, suite, FaultDomain(extra_states=extra_states)
        ).executable(machine)
        return cls(ex.machine, ex.inputs, ex.faults)

    def sweep(self, items: Sequence[Any], **settings: Any) -> List[Any]:
        # Through the public entry point, so anything wrapping
        # ``sweep_verdicts`` observes every FSM sweep.
        from ..faults import campaign

        return campaign.sweep_verdicts(
            self.spec, self.test, items, **settings
        )

    def verdict(self, value: Any) -> FaultVerdict:
        return FaultVerdict(detected=bool(value))

    def timed_out(self, timeout: Optional[float]) -> FaultVerdict:
        return FaultVerdict(detected=True, timed_out=True)

    def failure(self, item: Fault, error: Optional[str]) -> Exception:
        return CampaignExecutionError(
            f"fault {item} failed to simulate: {error}"
        )

    def subject(self, item: Fault) -> Dict[str, Any]:
        return {"fault": repr(item)}

    def assemble(self, verdicts: Sequence[FaultVerdict]) -> CampaignResult:
        return CampaignResult(
            machine_name=self.spec.name,
            test_length=len(self.test),
            detected=tuple(
                f for f, v in zip(self.items, verdicts) if v.detected
            ),
            escaped=tuple(
                f for f, v in zip(self.items, verdicts) if not v.detected
            ),
            degraded=any(v.degraded for v in verdicts),
        )

    def record_metrics(
        self, verdicts: Sequence[FaultVerdict], result: CampaignResult
    ) -> None:
        _record_campaign_metrics(
            self.spec, self.test, self.items, verdicts, result
        )

    def label(self) -> Dict[str, Any]:
        return {"machine": self.spec.name}

    def started(self) -> Dict[str, Any]:
        return {
            "machine": self.spec.name,
            "faults": self.total,
            "test_length": len(self.test),
        }

    def identity(self, kernel: str, timeout: Optional[float]) -> Dict:
        return fsm_campaign_identity(
            self.spec, self.test, self.items, kernel, timeout
        )


class BugPopulation(Population):
    """DLX bug-catalog entries run against a battery of
    ``(program, data, branch_oracle)`` tests.

    The prepared battery -- each test with its specification
    checkpoint stream, computed once and shared by every entry -- is
    built on first use, so a population that only decodes and
    assembles (the service coordinator) never simulates the spec.
    """

    kind = "dlx"
    span = "bugcampaign"

    def __init__(
        self,
        tests: Sequence[Tuple],
        catalog: Sequence[BugEntry] = BUG_CATALOG,
        test_name: str = "test-set",
    ) -> None:
        self.tests = tests
        self.items = list(catalog)
        self.test_name = test_name
        self._prepared: Optional[Tuple] = None

    # Looked up at call time, so a patched harness task is honoured.
    @property
    def task(self) -> Any:
        return harness._bug_entry_task

    @property
    def batch_task(self) -> Any:
        return harness._bug_entry_batch_task

    @property
    def shared(self) -> Tuple:
        if self._prepared is None:
            self._prepared = tuple(
                (
                    tuple(program),
                    tuple(sorted(data.items())) if data else None,
                    tuple(oracle) if oracle is not None else None,
                    tuple(expected_stream(list(program), data, oracle)),
                )
                for program, data, oracle in self.tests
            )
        return self._prepared

    def batch_width(self, lanes: object) -> int:
        if lanes is None or lanes == "auto":
            return MUTANT_BATCH
        return super().batch_width(lanes)

    def verdict(self, value: Any) -> FaultVerdict:
        detected, mismatch = value
        return FaultVerdict(detected=bool(detected), mismatch=mismatch)

    def timed_out(self, timeout: Optional[float]) -> FaultVerdict:
        # The correct design always halts well inside the budget, so a
        # timed-out mutant has visibly diverged: detected by crash,
        # same as a livelock that exhausts max_cycles -- just without
        # the wait.
        return FaultVerdict(
            detected=True,
            mismatch=Mismatch(
                0, "crash", "halt",
                f"per-fault timeout: exceeded {timeout:g}s wall clock",
            ),
            timed_out=True,
        )

    def failure(self, item: BugEntry, error: Optional[str]) -> Exception:
        return BugCampaignError(
            f"catalog bug {item.name!r} failed to simulate: {error}"
        )

    def subject(self, item: BugEntry) -> Dict[str, Any]:
        return {"bug": item.name}

    def _encode(self, index: int, verdict: FaultVerdict) -> Dict[str, Any]:
        mismatch = verdict.mismatch
        return {
            "bug": self.items[index].name,
            "mismatch": str(mismatch) if mismatch is not None else None,
            "mismatch_index": (
                mismatch.index if mismatch is not None else None
            ),
        }

    def _decode(
        self, index: int, record: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        if record.get("bug") != self.items[index].name:
            return None
        text = record.get("mismatch")
        if not isinstance(text, str):
            return {}
        at = record.get("mismatch_index")
        if type(at) is not int:
            return None
        return {"mismatch": ReplayedMismatch(index=at, text=text)}

    def assemble(self, verdicts: Sequence[FaultVerdict]) -> BugCampaignResult:
        return BugCampaignResult(
            test_name=self.test_name,
            rows=tuple(
                BugCampaignRow(
                    bug_name=entry.name,
                    mechanism=entry.mechanism,
                    detected=v.detected,
                    mismatch=v.mismatch,
                )
                for entry, v in zip(self.items, verdicts)
            ),
            degraded=any(v.degraded for v in verdicts),
        )

    def record_metrics(
        self, verdicts: Sequence[FaultVerdict], result: BugCampaignResult
    ) -> None:
        _record_bug_campaign_metrics(result)

    def label(self) -> Dict[str, Any]:
        return {"test_name": self.test_name}

    def started(self) -> Dict[str, Any]:
        return {
            "test_name": self.test_name,
            "catalog": self.total,
            "tests": len(self.tests),
        }

    def identity(self, kernel: str, timeout: Optional[float]) -> Dict:
        return dlx_campaign_identity(
            self.tests, self.items, self.test_name, kernel, timeout
        )


# --------------------------------------------------------------------
# The sweep
# --------------------------------------------------------------------


def emit_verdicts(
    population: Population, items: Sequence[Any], verdicts: Sequence[Any]
) -> None:
    """The ``fault.verdict`` stream, in submission order.

    Emitted from a fully assembled list, so the payload sequence is
    byte-identical at any jobs/kernel setting (the bus determinism
    contract).  The environment-dependent ``degraded`` flag stays out
    of the payload; degradation travels via ``worker.degraded``.
    """
    bus = get_bus()
    if bus.enabled:
        for item, verdict in zip(items, verdicts):
            bus.emit(
                "fault.verdict",
                **population.subject(item),
                detected=verdict.detected,
                timed_out=verdict.timed_out,
            )


def _rerun_on_oracle(population: Population, item: Any) -> Any:
    """Replay one quarantined item on the in-process interpreter.

    Bounded exponential backoff absorbs transient failures (a chaos-
    killed worker, an OOM blip); a deterministic failure -- an invalid
    fault, an undefined step -- exhausts the attempts and raises with
    the same message the direct interpreter path produces, because
    the re-run goes through :func:`run_task_inline` and therefore the
    identical executor frames.
    """
    error: Optional[str] = None
    for attempt in range(DEGRADE_ATTEMPTS):
        if attempt:
            time.sleep(DEGRADE_BACKOFF.delay(attempt))
            get_registry().counter("runtime.degrade_retries_total").inc()
        outcome = run_task_inline(population.task, population.shared, item)
        if outcome.ok:
            return population.verdict(outcome.value)
        error = outcome.error
    raise population.failure(item, error)


def sweep(
    population: Population,
    items: Sequence[Any],
    *,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    kernel: str = "compiled",
    lanes: object = None,
) -> List[Any]:
    """One verdict per item of ``items``, in submission order.

    ``kernel="compiled"`` hands workers word-sized batches (sized by
    ``lanes``; verdicts are width-independent), ``"interp"`` one item
    per task.  A task that fails does not abort the sweep: the
    affected items are quarantined and re-run on the interpreter
    oracle, their verdicts are marked ``degraded``, and the event
    lands in the ``runtime.*`` metrics namespace.  Only an item the
    oracle itself cannot simulate raises (the population's
    :meth:`~Population.failure`).
    """
    check_kernel(kernel)
    items = list(items)
    if not items:
        return []
    if kernel == "compiled":
        outcomes = parallel_map_batched(
            population.batch_task, items, shared=population.shared,
            jobs=jobs, timeout=timeout, retries=retries,
            batch_size=batch_unit(
                len(items), jobs, population.batch_width(lanes)
            ),
        )
    else:
        outcomes = parallel_map(
            population.task, items, shared=population.shared, jobs=jobs,
            timeout=timeout, retries=retries,
        )
    wall = get_registry().histogram(
        "campaign.fault_wall_seconds", buckets=SECONDS_BUCKETS
    )
    verdicts: List[Any] = [None] * len(items)
    quarantined: List[int] = []
    for i, outcome in enumerate(outcomes):
        error, value = outcome.error, outcome.value
        if error is None and not outcome.timed_out and kernel == "compiled":
            tag, payload = value
            if tag == "err":
                error = payload
            else:
                value = payload
        if error is not None:
            quarantined.append(i)
            continue
        wall.observe(outcome.elapsed)
        verdicts[i] = (
            population.timed_out(timeout) if outcome.timed_out
            else population.verdict(value)
        )
    if quarantined:
        reg = get_registry()
        reg.counter("runtime.degradations_total").inc()
        reg.counter("runtime.quarantined_tasks_total").inc(len(quarantined))
        for i in quarantined:
            emit_event(
                "worker.degraded",
                **population.subject(items[i]),
                action="oracle-rerun",
            )
            verdicts[i] = replace(
                _rerun_on_oracle(population, items[i]), degraded=True
            )
    emit_verdicts(population, items, verdicts)
    return verdicts


# --------------------------------------------------------------------
# The driver
# --------------------------------------------------------------------


@dataclass(frozen=True)
class ResumeStats:
    """What a (possibly resumed) run did and did not re-simulate."""

    #: Verdicts accepted straight from the journal.
    replayed: int = 0
    #: Journaled-but-provisional entries (timeouts) re-simulated.
    provisional: int = 0
    #: Torn/corrupt journal lines dropped during replay.
    dropped: int = 0
    #: Verdicts simulated (fresh or re-run) by this invocation.
    executed: int = 0


@dataclass(frozen=True)
class RunPaths:
    """The files of one run directory."""

    run_dir: str
    manifest: str
    journal: str
    report: str
    metrics: str


def run_paths(run_dir: str) -> RunPaths:
    run_dir = os.fspath(run_dir)
    return RunPaths(
        run_dir=run_dir,
        manifest=os.path.join(run_dir, MANIFEST_NAME),
        journal=os.path.join(run_dir, JOURNAL_NAME),
        report=os.path.join(run_dir, REPORT_NAME),
        metrics=os.path.join(run_dir, METRICS_NAME),
    )


@dataclass(frozen=True)
class CampaignRun:
    """A finished campaign: its result (a
    :class:`~repro.faults.CampaignResult` or
    :class:`~repro.validation.BugCampaignResult`), what was replayed
    versus simulated, and the run directory (None in memory)."""

    result: Any
    stats: ResumeStats
    paths: Optional[RunPaths]


def prepare_run_dir(
    paths: RunPaths,
    identity: Dict[str, Any],
    settings: Dict[str, Any],
    resume: bool,
) -> JournalReplay:
    """Initialize (fresh) or verify (resume) a run directory; returns
    the journal replay (empty for a fresh run)."""
    if resume:
        manifest = read_manifest(paths.manifest)
        check_manifest(manifest, identity)
        return Journal.replay(paths.journal)
    if os.path.exists(paths.manifest):
        raise RunDirError(
            f"run directory {paths.run_dir!r} already holds a campaign "
            f"(manifest present); pass resume=True to continue it or "
            f"choose a fresh directory"
        )
    os.makedirs(paths.run_dir, exist_ok=True)
    write_manifest(paths.manifest, identity, settings)
    return JournalReplay(records=(), dropped=0)


def replay_verdicts(
    population: Population, records: Sequence[Any]
) -> Tuple[List[Any], int]:
    """Verdict slots from journal records, plus the number of
    provisional (timed-out) records.

    Malformed records are dropped; a later record for an index
    replaces an earlier one; a timed-out verdict leaves its slot empty
    -- a wall-clock timeout says more about the host the run died on
    than about the mutant, so it is re-simulated.
    """
    verdicts: List[Any] = [None] * population.total
    provisional = 0
    for record in records:
        decoded = population.decode(record)
        if decoded is None:
            continue
        index, verdict = decoded
        if verdict.timed_out:
            provisional += 1
            verdict = None
        verdicts[index] = verdict
    return verdicts, provisional


def finalize(
    population: Population, verdicts: Sequence[Any]
) -> Tuple[Any, Dict[str, Any], Dict[str, Any]]:
    """``(result, report, metrics)`` from a complete verdict list.

    Metrics are recorded into a *fresh scoped registry* and reduced to
    the deterministic subset, so they depend only on the verdicts --
    not on worker count, not on how many times the run was killed and
    resumed or sharded across workers, and not on any registry the
    caller installed.
    """
    result = population.assemble(verdicts)
    with scoped_registry() as registry:
        population.record_metrics(verdicts, result)
        metrics = registry.deterministic_dump()
    return result, result.to_json_dict(), metrics


def _slices(indices: Sequence[int], size: int) -> List[List[int]]:
    size = max(1, int(size))
    return [
        list(indices[i:i + size]) for i in range(0, len(indices), size)
    ]


def run(
    population: Population,
    *,
    run_dir: Optional[str] = None,
    resume: bool = False,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    kernel: str = "compiled",
    lanes: object = None,
    slice_size: int = DEFAULT_SLICE,
) -> CampaignRun:
    """Run ``population``'s campaign, in memory or in a run directory.

    Without ``run_dir``: one sweep over the whole population, then the
    result is folded into the installed metrics registry when one is
    live.  With ``run_dir``: the journaled, resumable run described in
    the module docstring, finishing with ``metrics.json`` and
    ``report.json`` written atomically.  Identity (manifest-pinned,
    resume-enforced) is the population's identity plus kernel and
    timeout; ``jobs``/``retries``/``lanes``/``slice_size`` are
    recorded settings that may change across resumes -- verdicts are
    independent of them (a run interrupted at one lane width resumes
    byte-identically at any other).
    """
    check_kernel(kernel)
    settings = {
        "jobs": jobs, "timeout": timeout, "retries": retries,
        "kernel": kernel, "lanes": lanes,
    }
    started = population.started()
    paths = None if run_dir is None else run_paths(run_dir)
    name = (
        f"{population.span}.run" if paths is None
        else f"runtime.{population.span}"
    )
    with span(name, jobs=jobs, resume=resume, **started):
        replay = JournalReplay(records=(), dropped=0)
        if paths is not None:
            replay = prepare_run_dir(
                paths,
                population.identity(kernel, timeout),
                {
                    "jobs": jobs, "retries": retries,
                    "slice_size": slice_size, "lanes": lanes,
                },
                resume,
            )
        emit_event("campaign.started", **started)
        verdicts, provisional = replay_verdicts(population, replay.records)
        pending = [i for i, v in enumerate(verdicts) if v is None]
        replayed = len(verdicts) - len(pending)
        if resume:
            emit_event(
                "run.resumed",
                replayed=replayed,
                provisional=provisional,
                dropped=replay.dropped,
                pending=len(pending),
            )
        if paths is None:
            if pending:
                verdicts = population.sweep(population.items, **settings)
            result = population.assemble(verdicts)
            if get_registry().enabled:
                population.record_metrics(verdicts, result)
        else:
            journaled = replayed
            with Journal(paths.journal) as journal:
                for chunk in _slices(pending, slice_size):
                    swept = population.sweep(
                        [population.items[i] for i in chunk], **settings
                    )
                    for index, verdict in zip(chunk, swept):
                        journal.append(population.encode(index, verdict))
                        verdicts[index] = verdict
                    journal.sync()
                    journaled += len(chunk)
                    emit_event(
                        "journal.flushed",
                        entries=len(chunk),
                        journaled=journaled,
                        total=population.total,
                    )
            result, report, metrics = finalize(population, verdicts)
            # Metrics first, report last: the report's appearance is
            # the commit marker ``watch_snapshot`` (and anything
            # tailing the run dir) keys on.
            atomic_write_json(paths.metrics, metrics)
            atomic_write_json(paths.report, report)
        emit_event("campaign.finished", **population.finished(result))
    return CampaignRun(
        result=result,
        stats=ResumeStats(
            replayed=replayed,
            provisional=provisional,
            dropped=replay.dropped,
            executed=len(pending),
        ),
        paths=paths,
    )


def run_campaign_resumable(
    spec: Any,
    inputs: Sequence[Any],
    faults: Optional[Sequence[Fault]] = None,
    *,
    run_dir: str,
    resume: bool = False,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    kernel: str = "compiled",
    lanes: object = None,
    slice_size: int = DEFAULT_SLICE,
) -> CampaignRun:
    """:func:`repro.faults.run_campaign` with a journaled run dir (see
    :func:`run`)."""
    return run(
        FaultPopulation(spec, inputs, faults), run_dir=run_dir,
        resume=resume, jobs=jobs, timeout=timeout, retries=retries,
        kernel=kernel, lanes=lanes, slice_size=slice_size,
    )


def run_bug_campaign_resumable(
    tests: Sequence[Tuple],
    catalog: Sequence[BugEntry] = BUG_CATALOG,
    test_name: str = "test-set",
    *,
    run_dir: str,
    resume: bool = False,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    kernel: str = "compiled",
    lanes: object = None,
    slice_size: int = DEFAULT_SLICE,
) -> CampaignRun:
    """:func:`repro.validation.run_bug_campaign` with a journaled run
    dir (see :func:`run`)."""
    return run(
        BugPopulation(tests, catalog, test_name), run_dir=run_dir,
        resume=resume, jobs=jobs, timeout=timeout, retries=retries,
        kernel=kernel, lanes=lanes, slice_size=slice_size,
    )


# --------------------------------------------------------------------
# Run-directory inspection (``repro watch``)
# --------------------------------------------------------------------


def watch_snapshot(run_dir: str) -> Dict[str, Any]:
    """One point-in-time view of a (possibly still running) run dir.

    Safe to take while a runner is writing: the manifest is immutable
    after creation, the journal replay drops torn trailing lines by
    checksum, and ``report.json`` only appears (atomically) once the
    run finished.  Raises :class:`RunDirError` if there is no manifest
    -- everything else about the directory may legitimately be missing
    mid-run.
    """
    paths = run_paths(run_dir)
    manifest = read_manifest(paths.manifest)
    identity = manifest.get("identity") or {}
    total = identity.get("fault_count", identity.get("catalog_count"))
    try:
        replay = Journal.replay(paths.journal)
    except OSError:
        replay = JournalReplay(records=(), dropped=0)
    seen: Dict[int, Dict[str, Any]] = {}
    for record in replay.records:
        index = record.get("i")
        if isinstance(index, int):
            seen[index] = record
    # A timed-out verdict is journaled detected=True, timed_out=True:
    # it counts once, as detected (the progress view's tally).
    detected = sum(1 for r in seen.values() if r.get("detected"))
    timed_out = sum(1 for r in seen.values() if r.get("timed_out"))
    degraded = sum(1 for r in seen.values() if r.get("degraded"))
    snapshot: Dict[str, Any] = {
        "run_dir": paths.run_dir,
        "identity": identity,
        "settings": manifest.get("settings") or {},
        "total": total,
        "journaled": len(seen),
        "detected": detected,
        "escaped": len(seen) - detected,
        "timed_out": timed_out,
        "degraded": degraded,
        "dropped": replay.dropped,
        "phase": "running",
        "coverage": None,
    }
    if isinstance(total, int) and total:
        snapshot["progress"] = len(seen) / total
    try:
        with open(paths.report, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError):
        report = None
    if isinstance(report, dict):
        snapshot["phase"] = "done"
        snapshot["coverage"] = report.get("coverage")
    return snapshot
