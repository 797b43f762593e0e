"""Per-layer spans recorded from the benchmark's own files.

The traced run rebinds the public entry point of each layer -- every
name in a ``repro`` module that refers to the entry point, so callers
that imported it by name see the wrapper too -- for the duration of the
run, and restores the originals afterwards.  No program file changes.

A span is ``(name, start, end, parent)`` with ``parent`` the index of
the enclosing span (``-1`` at top level).  Spans stay in memory until
the run ends.  Busy time of a layer sums the spans of that name that
have no enclosing span of the same name (nested entries, such as
``parallel_map_batched`` calling ``parallel_map``, are counted once);
self time is span time minus the time of direct child spans.  Work
counts are read from the entry points' return values at the same
boundaries and follow the same outermost-only rule.

Work inside worker processes is covered by the parent's span around
the executor call; the workers themselves are not traced.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from refclock import now

Counts = Callable[[Any, tuple, dict], Dict[str, float]]


def _hooks() -> List[Tuple[Any, str, Any, Optional[Counts]]]:
    """(owner, attribute, span name or namer, counts) per layer entry
    point.  ``owner`` is a module name (a function, rebound wherever a
    ``repro`` module holds it) or a class (a method, patched on the
    class)."""
    from repro.runtime.journal import Journal
    from repro.service.store import ResultStore

    return [
        ("repro.dlx.testmodel", "tour_netlist", "dlx.derive", None),
        ("repro.rtl.extract", "extract_mealy", "rtl.extract",
         lambda r, a, k: {"rtl.extract_states": len(r.states)}),
        ("repro.dlx.testmodel", "minimize_tour_model", "core.minimize",
         lambda r, a, k: {
             "core.min_states": len(r.machine.states),
             "core.min_transitions": len(r.machine.transitions),
         }),
        ("repro.tour.greedy", "greedy_transition_transitions",
         "tour.greedy", lambda r, a, k: {"tour.steps": len(r)}),
        ("repro.validation.testgen", "fill_inputs",
         "validation.concretize",
         lambda r, a, k: {"validation.program_len": len(r.program)}),
        ("repro.validation.harness", "validate", "validation.cosim",
         lambda r, a, k: {
             "validation.cosim_cycles": r.cycles,
             "validation.cosim_retired": r.retired,
         }),
        ("repro.validation.harness", "expected_stream",
         "validation.spec", None),
        ("repro.validation.harness", "run_bug_campaign",
         "validation.bugcampaign",
         lambda r, a, k: {"validation.bugs_detected": len(r.detected)}),
        ("repro.rtl.faults", "run_stuck_at_campaign", "kernel.stuckat",
         lambda r, a, k: {
             "kernel.stuckat_faults": r.total,
             "kernel.stuckat_detected": len(r.detected),
         }),
        ("repro.corpus.loader", "load_corpus", "corpus.load",
         lambda r, a, k: {"corpus.circuits": len(r)}),
        ("repro.tour.methods", "generate_suite", "tour.suite",
         lambda r, a, k: {"tour.suite_steps": r.total_steps}),
        ("repro.faults.campaign", "run_campaign", "faults.campaign",
         lambda r, a, k: {"faults.count": r.total}),
        ("repro.parallel.executor", "parallel_map", "parallel.map",
         lambda r, a, k: {"parallel.tasks": len(r)}),
        ("repro.parallel.executor", "parallel_map_batched",
         "parallel.map", lambda r, a, k: {"parallel.tasks": len(r)}),
        (ResultStore, "put", "service.store_put", None),
        (ResultStore, "get", "service.store_get",
         lambda r, a, k: {"service.store_hits": int(r is not None)}),
        ("repro.runtime.runner", "run_campaign_resumable",
         lambda a, k: (
             "runtime.resume" if k.get("resume") else "runtime.campaign"
         ), None),
        (Journal, "sync", "runtime.sync",
         lambda r, a, k: {"runtime.journal_syncs": 1}),
        ("repro.faults.campaign", "sweep_verdicts", "faults.sweep",
         lambda r, a, k: {"faults.sweeps": 1}),
        ("repro.faults.campaign", "detection_latency", "obs.latency",
         lambda r, a, k: {"obs.latency_resims": 1}),
    ]


class Tracer:
    """In-memory span recorder plus the rebinding of layer entry
    points.  Use as a context manager: entering installs the wrappers,
    leaving restores every original binding."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[Tuple[int, str]] = []  # (span index, name)
        self._restore: List[Tuple[Any, str, Any]] = []
        self.active = True

    # -- recording ----------------------------------------------------
    def _wrap(self, fn: Callable, name: Any, counts: Optional[Counts]):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            outermost = all(n != span_name for _i, n in tracer._stack)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append((span_name, now(), 0.0, parent))
            tracer._stack.append((index, span_name))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                _n, start, _e, _p = tracer.spans[index]
                tracer.spans[index] = (
                    span_name, start, now(), parent
                )
            if counts is not None and outermost:
                for key, value in counts(result, args, kwargs).items():
                    tracer.counts[key] += value
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, name, counts in _hooks():
            if isinstance(owner, str):
                target = getattr(importlib.import_module(owner), attr)
                wrapper = self._wrap(target, name, counts)
                for mod_name, module in list(sys.modules.items()):
                    if not mod_name.startswith("repro") or module is None:
                        continue
                    for key, value in list(vars(module).items()):
                        if value is target:
                            self._restore.append((module, key, value))
                            setattr(module, key, wrapper)
            else:
                target = owner.__dict__[attr]
                self._restore.append((owner, attr, target))
                setattr(owner, attr, self._wrap(target, name, counts))
        return self

    @contextlib.contextmanager
    def suspended(self) -> Iterator[None]:
        """Pass calls through unrecorded (for the benchmark's own
        reference runs, which are not part of the traced flow)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def __exit__(self, *_exc: Any) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- folding ------------------------------------------------------
    def busy(self) -> Dict[str, float]:
        """Span name -> seconds, outermost spans of each name only."""
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent) in enumerate(self.spans):
            if not self._has_ancestor(parent, name):
                totals[name] += end - start
        return dict(totals)

    def self_times(self) -> Dict[str, float]:
        """Span name -> seconds of span time not covered by children."""
        child_time: Dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def span_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for name, *_rest in self.spans:
            counts[name] += 1
        return dict(counts)

    def _has_ancestor(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
