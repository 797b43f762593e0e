"""The Chrome trace: a fold of the event stream.

:class:`TraceSink` is one more sink on the event bus.  It folds each
``span.begin``/``span.end`` pair (see :func:`repro.obs.events.span`)
into a complete ("ph": "X") record with microsecond ``ts``/``dur``,
and every other event into an instant ("ph": "i") record whose args
are the event payload -- coverage snapshots, fault verdicts and
scheduling events land on the same timeline as the spans around them.

Finished traces export two ways; :meth:`TraceSink.write` picks the
format from the file extension:

* ``.jsonl`` -- one JSON object per record, in completion order
  (spans record on exit, so an inner span precedes its parent), with
  the span nesting ``depth``;
* anything else -- a Chrome ``trace_event`` JSON object
  (``{"traceEvents": [...]}``) loadable in ``chrome://tracing`` or
  Perfetto.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, List

from .events import Event


class TraceSink:
    """Collects trace records from the bus in memory until written.

    Sinks run on the emitting thread, so the thread id of each record
    is the thread that emitted it, and span pairs are matched per
    thread.
    """

    def __init__(self) -> None:
        self._origin = time.time()
        self._records: List[Dict[str, Any]] = []
        self._open: Dict[int, List[float]] = {}
        self._lock = threading.Lock()

    def __call__(self, event: Event) -> None:
        tid = threading.get_ident()
        p = event.payload
        with self._lock:
            stack = self._open.setdefault(tid, [])
            if event.name == "span.begin":
                stack.append(event.ts)
                return
            record: Dict[str, Any]
            if event.name == "span.end":
                t0 = stack.pop() if stack else event.ts - p["dur"]
                record = {
                    "name": p["span"],
                    "ph": "X",
                    "ts": self._us(t0),
                    "dur": max(0, int(p["dur"] * 1_000_000)),
                    "depth": len(stack),
                    "args": p["args"],
                }
            else:
                record = {
                    "name": event.name,
                    "ph": "i",
                    "ts": self._us(event.ts),
                    "s": "t",
                    "args": dict(p),
                }
            record.update(cat="repro", pid=event.pid, tid=tid)
            self._records.append(record)

    def _us(self, t: float) -> int:
        return max(0, int((t - self._origin) * 1_000_000))

    @property
    def records(self) -> List[Dict[str, Any]]:
        """A snapshot of the collected records (completion order)."""
        with self._lock:
            return list(self._records)

    def write(self, path: str) -> None:
        """Save the trace; ``.jsonl`` extension selects JSONL."""
        records = self.records
        with open(path, "w") as handle:
            if path.endswith(".jsonl"):
                for record in records:
                    handle.write(json.dumps(record, sort_keys=True))
                    handle.write("\n")
                return
            events = [
                {k: v for k, v in r.items() if k != "depth"}
                for r in records
            ]
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms"},
                handle,
                indent=1,
            )
            handle.write("\n")
