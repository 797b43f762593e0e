"""The two benchmark workloads: set-up, timed flow, correctness checks.

Each workload's ``run`` is one pass of a user flow from its inputs to
checked verdicts.  It returns an :class:`Iteration` whose ``wall_s``
covers the flow only; re-answers and checks run off the pass clock, and
the checks compare against references outside the code under test (an
independent tour replay, values pinned once from the ``kernel="interp"``
oracle in ``pins.json``, the Wp completeness theorem, byte-identity
with the cold run).

A workload is two flows run back to back in one pass (README.md has
the full table and why the flows are paired):

* ``fig1`` -- the Figure-1 loop up to co-simulation on the ADD/SW/NOP
  class model (``fig1-model``: extraction and the greedy tour
  dominate), then the same loop on the LW/BEQZ/NOP model with the
  bug-catalog campaign and an activity-dense stuck-at campaign under
  the tour vectors (``fig1-bugs``: validation dominates).
* ``corpus`` -- a seeded corpus through ``run_bench_suite`` with a
  result store at ``jobs=2``, store-served reruns and an
  activity-sparse stuck-at protocol farm (``corpus-wp``), and a second
  seeded corpus through the journaled ``run_root`` path and a
  ``resume=True`` rerun (``corpus-durable``).
"""

from __future__ import annotations

import json
import os
import shutil
import time
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from refclock import now

HERE = os.path.dirname(os.path.abspath(__file__))

#: Flow sizes, keyed by flow.  ``full`` is what the benchmark measures;
#: ``smoke`` is a seconds-long size for the benchmark's own tests.
#:
#: * fig1 opcodes: the instruction classes of the DLX tour model;
#: * corpus: (fault budget, random-machine state range, protocol
#:   circuits).  corpus-durable uses small machines, a smaller budget
#:   and no BLIF circuits: its journaled path re-simulates every
#:   detected fault in the metrics fold.  6,000 rather than 3,000
#:   faults: the work per fault of a 3,000-fault corpus differed ~1.4x
#:   between seeds, and more machines average it;
#: * farm_copies: copies of each protocol block in the corpus-wp
#:   stuck-at farm.  The farm's cost grows with the square of the copy
#:   count (vectors and faults both scale with it); 4 keeps the run
#:   inside its time budget while each phase leaves 15 of 16 blocks
#:   idle.
SCALES: Dict[str, Dict[str, Any]] = {
    "full": {
        "fig1-model": ("ADD", "SW", "NOP"),
        "fig1-bugs": ("LW", "BEQZ", "NOP"),
        "corpus-wp": (40_000, (18, 26), "kiss+blif"),
        "corpus-durable": (6_000, (6, 12), "kiss"),
        "farm_copies": 4,
    },
    "smoke": {
        "fig1-model": ("J", "NOP"),
        "fig1-bugs": ("BEQZ", "NOP"),
        "corpus-wp": (400, (4, 6), "none"),
        "corpus-durable": (300, (4, 6), "none"),
        "farm_copies": 1,
    },
}
#: Re-answers per pass behind replay_s, per flow.  corpus-wp:
#: store-served reruns, 2 after the cold sweep and 2 after the farm.
#: fig1: co-simulations of each stored concrete test, the step a
#: Figure-1 user reruns when only the design changed, pooled with the
#: loop's own co-simulation of the same test: both tests are
#: re-validated once after the LW/BEQZ/NOP loop and once at the end of
#: the pass.  Spreading the samples over the pass averages the host's
#: speed drift, which holds one level for tens of seconds.  Fixed
#: counts keep the traced work counts identical run to run.
CORPUS_REPLAYS = (2, 2)


class PassClock:
    """Wall time of one pass, excluding the re-answers (replay samples)
    and checks taken during it."""

    def __init__(self) -> None:
        #: Kind of re-answer -> seconds of each sample.
        self.samples: Dict[str, List[float]] = {}
        self._excluded = 0.0
        self._start = now()

    @contextmanager
    def off(self):
        """Keep the enclosed work off the pass clock."""
        start = now()
        try:
            yield
        finally:
            self._excluded += now() - start

    def add(self, kind: str, seconds: float) -> None:
        self.samples.setdefault(kind, []).append(seconds)

    def sample(self, kind: str, fn: Callable[[], Any],
               times: int) -> List[Any]:
        """Time ``times`` calls of ``fn`` off the pass clock; returns
        their results."""
        results = []
        with self.off():
            for _ in range(times):
                t0 = now()
                results.append(fn())
                self.add(kind, now() - t0)
        return results

    def wall(self) -> float:
        return now() - self._start - self._excluded

    def replay(self) -> float:
        """Seconds to re-answer the workload once: per kind, the mean
        of its samples, summed over the kinds."""
        return sum(statistics.mean(v) for v in self.samples.values())


@dataclass
class Iteration:
    """One pass of a workload flow."""

    wall_s: float
    replay_s: float
    #: Adjudicated verdicts: one per injected fault (FSM, stuck-at,
    #: catalog bug) plus one per correct-design co-simulation.
    verdicts: int
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: Operations that failed inside the program: circuits with verdict
    #: ``error`` and circuits whose campaign degraded.
    failures: int = 0
    #: Layer facts only the workload can compute (traced runs report
    #: them next to the span-derived counts).
    extra: Dict[str, float] = field(default_factory=dict)


def load_pins(scale: str) -> Dict[str, Any]:
    """The reference values of ``scale`` (written by ``pin.py``)."""
    with open(os.path.join(HERE, "pins.json")) as handle:
        return json.load(handle)[scale]


def untraced(ctx: Dict[str, Any]):
    """Context in which hooked calls are not recorded: reference runs
    and fig1 re-validations are not part of the traced flow."""
    tracer = ctx["tracer"]
    return tracer.suspended() if tracer is not None else nullcontext()


def _check(checks, name: str, ok: bool, detail: str = "") -> None:
    checks.append((name, bool(ok), detail))


def replay_tour(machine, inputs) -> Tuple[bool, str]:
    """Independent tour oracle: walk ``inputs`` from the initial state
    over a table built from the machine's transition list, and require
    every step to be defined and every transition to be traversed."""
    table = {(t.src, t.inp): t for t in machine.transitions}
    state = machine.initial
    seen = set()
    for step, inp in enumerate(inputs):
        t = table.get((state, inp))
        if t is None:
            return False, f"step {step}: no transition on {inp!r}"
        seen.add((t.src, t.inp))
        state = t.dst
    missing = len(table) - len(seen)
    if missing:
        return False, f"{missing} of {len(table)} transitions untoured"
    return True, f"{len(inputs)} steps cover all {len(table)} transitions"


# ----------------------------------------------------------------------
# Figure-1 workload
# ----------------------------------------------------------------------
def fig1_opcodes(scale: str, flow: str):
    from repro.dlx.isa import Op

    return tuple(Op[name] for name in SCALES[scale][flow])


def _fig1_loop(opcodes):
    """extract -> minimize -> greedy tour -> concretize -> co-simulate;
    also returns the co-simulation's seconds."""
    from repro.dlx.testmodel import build_tour_model, minimize_tour_model
    from repro.tour import transition_tour
    from repro.validation import fill_inputs, validate_concrete_test

    raw = build_tour_model(registers=2, opcodes=opcodes)
    model = minimize_tour_model(raw)
    tour = transition_tour(model.machine, method="greedy")
    vectors = model.concrete_vectors(tour.inputs)
    test = fill_inputs(vectors, registers=2)
    start = now()
    result = validate_concrete_test(test)
    cosim_s = now() - start
    return raw, model, tour, vectors, test, result, cosim_s


def _fig1_part(ctx, clock: PassClock, checks, flow: str):
    """The Figure-1 loop on ``flow``'s model, checked off the clock;
    returns the tour's concrete vectors, the concrete test and its
    co-simulation result.  The model itself is released on return."""
    raw, model, tour, vectors, test, result, cosim_s = _fig1_loop(
        fig1_opcodes(ctx["scale"], flow)
    )
    clock.add(flow, cosim_s)
    with clock.off():
        sizes = [
            len(raw.machine.states),
            len(model.machine.states),
            len(model.machine.transitions),
        ]
        _check(checks, f"{flow}/model-sizes",
               sizes == ctx["pins"][flow]["model_sizes"],
               f"raw/min states, min transitions {sizes}")
        ok, detail = replay_tour(model.machine, tour.inputs)
        _check(checks, f"{flow}/tour-covers-every-transition", ok, detail)
        _check(checks, f"{flow}/correct-design-passes", result.passed,
               str(result))
    return vectors, test, result


def _revalidate(ctx, clock: PassClock, checks, stored) -> None:
    """Co-simulate each stored ``(flow, test, result)`` once more (a
    replay sample each; not traced, and skipped in traced runs, whose
    metrics describe the flow) and check that it matches the loop's."""
    from repro.validation import validate_concrete_test

    if not ctx["revalidate"]:
        return
    for flow, test, result in stored:
        with untraced(ctx):
            again = clock.sample(
                flow, lambda: validate_concrete_test(test), 1
            )[0]
        with clock.off():
            _check(checks, f"{flow}/revalidation-identical",
                   again == result, "re-validation of the stored test")


def fig1(ctx: Dict[str, Any]) -> Iteration:
    from repro.dlx.testmodel import tour_netlist
    from repro.rtl.faults import run_stuck_at_campaign
    from repro.validation import run_bug_campaign

    clock = PassClock()
    checks: List[Tuple[str, bool, str]] = []
    _v, model_test, model_result = _fig1_part(ctx, clock, checks,
                                              "fig1-model")
    net = tour_netlist(2)
    vectors, test, result = _fig1_part(ctx, clock, checks, "fig1-bugs")
    stored = [("fig1-model", model_test, model_result),
              ("fig1-bugs", test, result)]
    _revalidate(ctx, clock, checks, stored)
    campaign = run_bug_campaign(
        [(list(test.program), test.data, list(test.branch_oracle))],
        test_name="tour test",
    )
    stuck = run_stuck_at_campaign(net, vectors)
    _revalidate(ctx, clock, checks, stored)
    wall = clock.wall()

    pins = ctx["pins"]["fig1-bugs"]
    vector = [row.detected for row in campaign.rows]
    _check(checks, "fig1-bugs/bug-detection-vector",
           vector == pins["bug_vector"],
           f"{sum(vector)}/{len(vector)} catalog bugs detected")
    _check(checks, "fig1-bugs/stuckat-detected",
           [len(stuck.detected), stuck.total] == pins["stuckat"],
           f"{len(stuck.detected)}/{stuck.total} stuck-at faults detected")
    # Checkpoints up to (and including) the first mismatch over the
    # checkpoints each mutant co-simulation ran: every mutant runs to
    # program end before the comparison.
    checkpoints = result.retired
    useful = sum(
        row.mismatch.index + 1
        if row.detected and row.mismatch is not None else checkpoints
        for row in campaign.rows
    )
    extra = {
        "validation.bug_useful_ratio":
            useful / (checkpoints * len(campaign.rows)),
    }
    if ctx["tracer"] is not None:
        extra["kernel.stuckat_dense_s"] = dense_probe(net, vectors)
    return Iteration(
        wall_s=wall,
        replay_s=clock.replay(),
        # The two correct-design co-simulations, the catalog bugs and
        # the stuck-at faults.
        verdicts=2 + len(campaign.rows) + stuck.total,
        checks=checks,
        extra=extra,
    )


def dense_probe(netlist, vectors) -> float:
    """Seconds of the same stuck-at population in the kernel's dense
    every-cycle mode (the flow runs the default dirty-set mode).  Run
    after the flow, only in traced runs, for the dense-vs-dirty note."""
    from repro.kernel import stuck_at_first_divergences
    from repro.rtl.faults import all_stuck_at_faults

    population = all_stuck_at_faults(netlist)
    start = now()
    stuck_at_first_divergences(netlist, vectors, population, dirty=False)
    return now() - start


# ----------------------------------------------------------------------
# Corpus workload
# ----------------------------------------------------------------------
#: The corpus workload's flows, each with a corpus of its own.
CORPUS_FLOWS = ("corpus-wp", "corpus-durable")


def prepare_corpus(name: str, work: str, seed: int,
                   scale: str) -> Dict[str, str]:
    """Set-up of the corpus workload: write each flow's seeded corpus;
    returns flow -> corpus directory."""
    from corpus_gen import write_corpus

    directories = {}
    for flow in CORPUS_FLOWS:
        budget, states, protocols = SCALES[scale][flow]
        directory = os.path.join(work, "corpus", flow)
        shutil.rmtree(directory, ignore_errors=True)
        write_corpus(directory, seed, budget, states, protocols)
        directories[flow] = directory
    return directories


def _corpus_checks(checks, flow: str, report) -> int:
    """Row-level checks shared by both corpus flows; returns the count
    of failed operations (error or degraded circuits)."""
    incomplete = [r.name for r in report.rows if r.verdict != "complete"]
    _check(checks, f"{flow}/wp-coverage-complete", not incomplete,
           f"{len(report.rows) - len(incomplete)}/{len(report.rows)} "
           f"circuits at Wp coverage 1.0"
           + (f"; not complete: {incomplete}" if incomplete else ""))
    return len(report.errors) + sum(1 for r in report.rows if r.degraded)


def _farm(copies: int):
    """The protocol farm: every protocol block ``copies`` times, merged
    into one netlist, and the phase-by-phase vectors that drive one
    block's Wp suite while the others idle."""
    from repro.corpus.protocols import PROTOCOL_MODELS
    from repro.corpus.synth import (
        machine_to_netlist,
        merge_netlists,
        suite_vectors,
    )
    from repro.tour import FaultDomain, generate_suite

    blocks = []
    for name, build in sorted(PROTOCOL_MODELS.items()):
        machine = build()
        synth = machine_to_netlist(machine, reset_input="rst")
        suite = generate_suite(machine, "wp", FaultDomain(extra_states=1))
        for copy in range(copies):
            prefix = f"{name.replace('-', '_')}_{copy}_"
            blocks.append((prefix, synth, suite.sequences))
    farm = merge_netlists(
        [(prefix, synth.netlist) for prefix, synth, _ in blocks],
        name="protocol-farm",
    )
    idle = {bit: False for bit in farm.inputs}
    vectors = []
    for prefix, synth, sequences in blocks:
        for vec in suite_vectors(synth, sequences):
            merged = dict(idle)
            for bit, value in vec.items():
                merged[prefix + bit] = value
            vectors.append(merged)
    return farm, vectors


def corpus(ctx: Dict[str, Any]) -> Iteration:
    """corpus-wp's cold sweep and first store-served reruns, then the
    whole corpus-durable flow, then corpus-wp's farm and last reruns,
    so each kind of re-answer samples the whole pass."""
    from repro.corpus import load_corpus
    from repro.corpus.suite import run_bench_suite
    from repro.rtl.faults import run_stuck_at_campaign
    from repro.service.store import ResultStore

    store_dir = os.path.join(ctx["work"], "store")
    run_root = os.path.join(ctx["work"], "runs")
    shutil.rmtree(store_dir, ignore_errors=True)
    shutil.rmtree(run_root, ignore_errors=True)
    clock = PassClock()
    checks: List[Tuple[str, bool, str]] = []

    # corpus-wp: result store, jobs=2.
    entries = load_corpus(ctx["corpus"]["corpus-wp"])
    store = ResultStore(store_dir)
    cold = run_bench_suite(
        entries, "corpus", suite="wp", extra_states=1, jobs=2, store=store
    )

    def rerun():
        return run_bench_suite(
            entries, "corpus", suite="wp", extra_states=1, jobs=2,
            store=store,
        )

    reruns = clock.sample("corpus-wp", rerun, CORPUS_REPLAYS[0])

    # corpus-durable: journaled run root, jobs=1.
    durable_entries = load_corpus(ctx["corpus"]["corpus-durable"])
    journaled = run_bench_suite(
        durable_entries, "corpus", suite="wp", extra_states=1, jobs=1,
        run_root=run_root,
    )
    resumed = clock.sample(
        "corpus-durable",
        lambda: run_bench_suite(
            durable_entries, "corpus", suite="wp", extra_states=1, jobs=1,
            run_root=run_root, resume=True,
        ),
        1,
    )[0]
    with clock.off(), untraced(ctx):
        plain = run_bench_suite(
            durable_entries, "corpus", suite="wp", extra_states=1, jobs=1
        )

    # corpus-wp again: the sparse stuck-at farm and the last reruns.
    farm, vectors = _farm(SCALES[ctx["scale"]]["farm_copies"])
    stuck = run_stuck_at_campaign(farm, vectors)
    reruns += clock.sample("corpus-wp", rerun, CORPUS_REPLAYS[1])
    wall = clock.wall()

    failures = _corpus_checks(checks, "corpus-wp", cold)
    table = cold.render_table()
    _check(checks, "corpus-wp/replay-table-identical",
           all(r.render_table() == table for r in reruns),
           "store-served tables byte-identical to the cold table")
    _check(checks, "corpus-wp/replay-executes-nothing",
           all(r.executed == 0 for r in reruns),
           f"replay executed {[r.executed for r in reruns]}")
    pinned = ctx["pins"]["corpus-wp"]["farm_stuckat"]
    _check(checks, "corpus-wp/farm-stuckat-detected",
           [len(stuck.detected), stuck.total] == pinned,
           f"{len(stuck.detected)}/{stuck.total} farm stuck-at faults")
    failures += _corpus_checks(checks, "corpus-durable", journaled)
    table = journaled.render_table()
    _check(checks, "corpus-durable/resume-table-identical",
           resumed.render_table() == table,
           "resumed table byte-identical to the cold table")
    _check(checks, "corpus-durable/resume-executes-nothing",
           resumed.executed == 0, f"resume executed {resumed.executed}")
    _check(checks, "corpus-durable/journaled-equals-plain",
           plain.render_table() == table,
           "journaled table byte-identical to the in-memory path's")
    extra = {}
    if ctx["tracer"] is not None:
        extra["kernel.stuckat_dense_s"] = dense_probe(farm, vectors)
    return Iteration(
        wall_s=wall,
        replay_s=clock.replay(),
        verdicts=cold.total_faults + stuck.total + journaled.total_faults,
        checks=checks,
        failures=failures,
        extra=extra,
    )


def no_inputs(name: str, work: str, seed: int, scale: str) -> None:
    """Set-up of the fig1 workload: its inputs are fixed models, so the
    seed selects nothing."""
    return None


#: name -> (flow, set-up).  Set-up returns the corpus directories or
#: None.
WORKLOADS: Dict[str, Tuple[Callable[[Dict[str, Any]], Iteration],
                           Callable[[str, str, int, str], Any]]] = {
    "fig1": (fig1, no_inputs),
    "corpus": (corpus, prepare_corpus),
}
