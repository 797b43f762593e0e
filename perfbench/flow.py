"""Worker process of the benchmark: set-up, timed passes, traced pass.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  The passes run on a reference clock (:mod:`refclock`), so
every time they report is in seconds at the reference host speed.
Writes one JSON document to ``--out``:

* ``--setup-only``: a reading of the host's speed, imports and workload
  generation, then exit (the orchestrator times whole processes of this
  kind for ``setup_s``);
* ``--trace 0``: timed passes of the workload until ``--seconds`` would
  be exceeded (at least one), with per-pass wall, replay, verdicts and
  checks, and the peak RSS of this process and its workers up to the
  end of the first pass;
* ``--trace 1``: one untraced pass, then one pass with the layer entry
  points rebound (:mod:`tracer`), and the per-layer metrics.  Neither
  pass re-validates the fig1 tests (those are replay samples, reported
  only by untraced runs).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Any, Dict, List

#: Every program module a workload flow touches, imported during set-up
#: so no pass pays a lazy import the others do not.
FLOW_MODULES = (
    "repro.corpus",
    "repro.corpus.suite",
    "repro.dlx.testmodel",
    "repro.kernel",
    "repro.rtl.faults",
    "repro.runtime",
    "repro.service.store",
    "repro.tour",
    "repro.validation",
)

#: Span name -> per-layer busy-time metric.
SPAN_METRICS = {
    "dlx.derive": "dlx.derive_s",
    "rtl.extract": "rtl.extract_s",
    "core.minimize": "core.minimize_s",
    "tour.greedy": "tour.greedy_s",
    "validation.concretize": "validation.concretize_s",
    "validation.cosim": "validation.cosim_s",
    "validation.spec": "validation.spec_s",
    "validation.bugcampaign": "validation.bugcampaign_s",
    "kernel.stuckat": "kernel.stuckat_s",
    "corpus.load": "corpus.load_s",
    "tour.suite": "tour.suite_s",
    "faults.campaign": "faults.campaign_s",
    "parallel.map": "parallel.map_s",
    "service.store_put": "service.store_put_s",
    "service.store_get": "service.store_get_s",
    "runtime.campaign": "runtime.campaign_s",
    "runtime.resume": "runtime.resume_s",
    "runtime.sync": "runtime.sync_s",
    "faults.sweep": "faults.sweep_s",
    "obs.latency": "obs.latency_s",
}

#: Work counts read at the span boundaries (see tracer._hooks).
COUNT_METRICS = (
    "rtl.extract_states",
    "core.min_states",
    "core.min_transitions",
    "tour.steps",
    "validation.program_len",
    "validation.cosim_cycles",
    "validation.bugs_detected",
    "kernel.stuckat_faults",
    "kernel.stuckat_detected",
    "corpus.circuits",
    "tour.suite_steps",
    "faults.count",
    "parallel.tasks",
    "service.store_hits",
    "runtime.journal_syncs",
    "faults.sweeps",
    "obs.latency_resims",
)


def setup(workload: str, work: str, seed: int, scale: str) -> Any:
    """Imports and workload generation; returns the corpus directories
    (None for the fig1 workload, whose inputs are fixed models)."""
    import importlib

    for name in FLOW_MODULES:
        importlib.import_module(name)
    from workloads import WORKLOADS

    return WORKLOADS[workload][1](workload, work, seed, scale)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def layer_metrics(tracer, iteration, untraced_wall: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    busy = tracer.busy()
    counts = tracer.counts
    out: Dict[str, float] = {
        metric: busy.get(span, 0.0) for span, metric in SPAN_METRICS.items()
    }
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0)
    transitions = counts.get("core.min_transitions", 0)
    out["tour.overhead"] = (
        counts.get("tour.steps", 0) / transitions if transitions else 0.0
    )
    cosim_s = busy.get("validation.cosim", 0.0)
    out["validation.cosim_instr_per_s"] = (
        counts.get("validation.cosim_retired", 0) / cosim_s
        if cosim_s else 0.0
    )
    out["validation.bug_useful_ratio"] = iteration.extra.get(
        "validation.bug_useful_ratio", 0.0
    )
    out["kernel.stuckat_dense_s"] = iteration.extra.get(
        "kernel.stuckat_dense_s", 0.0
    )
    out["trace.spans"] = len(tracer.spans)
    out["trace.overhead_s"] = iteration.wall_s - untraced_wall
    return out


def probe_speed() -> Dict[str, float]:
    """A set-up probe's own reading of the host's speed (reference
    seconds per host second, from a few calibration loops) and the host
    seconds it took, which run.py leaves out of the probe's time."""
    from refclock import REFERENCE_CAL_S, calibration_seconds

    start = time.perf_counter()
    loops = sorted(calibration_seconds() for _ in range(3))
    return {
        "speed": REFERENCE_CAL_S / loops[1],
        "calibrating_s": time.perf_counter() - start,
    }


def measure(args, flow, ctx: Dict[str, Any], doc: Dict[str, Any]) -> None:
    """The timed passes and, with --trace 1, the traced pass."""
    passes = []
    flow_start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(flow(ctx))
        now = time.perf_counter()
        if len(passes) == 1:
            # Later passes may grow the heap further, and how many fit
            # in --seconds depends on the host's speed.
            doc["peak_rss_mb"] = peak_rss_mb()
        # Stop before a pass that would end after --seconds (host
        # time: it bounds how long the run takes).
        if args.trace or (now - flow_start) + (now - pass_start) > (
            args.seconds
        ):
            break
    doc["passes"] = [
        {
            "wall_s": p.wall_s, "replay_s": p.replay_s,
            "verdicts": p.verdicts, "failures": p.failures,
            "checks": p.checks,
        }
        for p in passes
    ]
    if args.trace:
        from tracer import Tracer

        with Tracer() as tracer:
            ctx["tracer"] = tracer
            traced = flow(ctx)
        doc["traced_checks"] = traced.checks
        doc["layers"] = layer_metrics(tracer, traced, passes[0].wall_s)
        doc["self_s"] = tracer.self_times()
        doc["span_counts"] = tracer.span_counts()


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    scale = "smoke" if args.smoke else "full"
    doc: Dict[str, Any] = {}
    if args.setup_only:
        doc.update(probe_speed())
    corpus = setup(args.workload, args.work, args.seed, scale)
    if not args.setup_only:
        from refclock import ReferenceClock
        from workloads import WORKLOADS, load_pins

        flow = WORKLOADS[args.workload][0]
        ctx = {
            "work": args.work, "corpus": corpus, "scale": scale,
            "pins": load_pins(scale), "tracer": None,
            "revalidate": not args.trace,
        }
        host_start = time.perf_counter()
        with ReferenceClock().running() as clock:
            measure(args, flow, ctx, doc)
        # Reference seconds per host second over the flow.
        doc["speed"] = clock() / (time.perf_counter() - host_start)
        doc["probes"] = clock.probes
    with open(args.out, "w") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
