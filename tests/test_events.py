"""Unit tests for the event bus, its sinks and the progress model.

The differential (jobs/kernel/chaos) guarantees over event payloads
live in ``tests/test_events_differential.py``; this file covers the
mechanics: envelope/payload separation, determinism classification,
sink fan-out and failure isolation, the zero-cost disabled path, and
the event-folding progress model behind the TTY view and ``/status``.
"""

import io
import json
import os

import pytest

from repro.obs.events import (
    NULL_BUS,
    Event,
    EventBus,
    JsonlSink,
    NullBus,
    RingBufferSink,
    deterministic_payloads,
    emit_event,
    get_bus,
    install_bus,
    is_deterministic_event,
    muted,
    scoped_bus,
    span,
)
from repro.obs.progress import (
    ProgressModel,
    ProgressRenderer,
    format_eta,
    progress_enabled,
)


class TestEventEnvelope:
    def test_payload_and_meta_segregated(self):
        e = Event(seq=3, name="fault.verdict",
                  payload={"fault": "f1", "detected": True},
                  ts=123.5, pid=42)
        d = e.to_json_dict()
        assert d["payload"] == {"fault": "f1", "detected": True}
        assert d["meta"] == {"ts": 123.5, "pid": 42}
        assert d["seq"] == 3 and d["name"] == "fault.verdict"
        # Wall-clock data never leaks into the payload.
        assert "ts" not in d["payload"] and "pid" not in d["payload"]

    def test_deterministic_classification(self):
        for name in ("campaign.started", "campaign.finished",
                     "suite.generated", "fault.verdict",
                     "coverage.snapshot"):
            assert is_deterministic_event(name), name
        for name in ("chunk.dispatched", "chunk.completed",
                     "worker.degraded", "journal.flushed",
                     "run.resumed"):
            assert not is_deterministic_event(name), name

    def test_deterministic_payloads_projection(self):
        events = [
            Event(1, "campaign.started", {"machine": "m"}),
            Event(2, "chunk.dispatched", {"items": 4}),
            Event(3, "fault.verdict", {"fault": "f", "detected": True}),
            Event(4, "journal.flushed", {"entries": 64}),
        ]
        proj = deterministic_payloads(events)
        assert proj == [
            ("campaign.started", {"machine": "m"}),
            ("fault.verdict", {"fault": "f", "detected": True}),
        ]


class TestEventBus:
    def test_sequence_numbers_and_fanout(self):
        bus = EventBus()
        seen = []
        bus.add_sink(seen.append)
        bus.emit("a.one", x=1)
        bus.emit("a.two", y=2)
        assert [e.seq for e in seen] == [1, 2]
        assert seen[0].payload == {"x": 1}
        assert seen[1].name == "a.two"

    def test_failing_sink_dropped_others_survive(self):
        bus = EventBus()
        good = []

        def bad(_event):
            raise RuntimeError("sink exploded")

        bus.add_sink(bad)
        bus.add_sink(good.append)
        bus.emit("a.one")
        bus.emit("a.two")
        # The bad sink saw one event, was dropped, and never stopped
        # the good sink from seeing both.
        assert [e.name for e in good] == ["a.one", "a.two"]

    def test_remove_sink(self):
        bus = EventBus()
        seen = []
        sink = bus.add_sink(seen.append)
        bus.emit("a.one")
        bus.remove_sink(sink)
        bus.emit("a.two")
        assert [e.name for e in seen] == ["a.one"]


class TestGlobalBus:
    def test_default_is_disabled(self):
        assert get_bus() is NULL_BUS
        assert not get_bus().enabled

    def test_null_bus_emit_allocates_nothing(self):
        assert NULL_BUS.emit("x.y", a=1) is None

    def test_null_bus_rejects_sinks(self):
        with pytest.raises(RuntimeError):
            NULL_BUS.add_sink(lambda e: None)

    def test_emit_event_noop_when_disabled(self):
        # Must not raise and must not install anything.
        emit_event("campaign.started", machine="m")
        assert get_bus() is NULL_BUS

    def test_scoped_bus_installs_and_restores(self):
        seen = []
        with scoped_bus() as bus:
            bus.add_sink(seen.append)
            assert get_bus() is bus
            emit_event("a.one", k=1)
        assert get_bus() is NULL_BUS
        assert [e.payload for e in seen] == [{"k": 1}]

    def test_install_bus_returns_previous(self):
        bus = EventBus()
        previous = install_bus(bus)
        try:
            assert get_bus() is bus
        finally:
            assert install_bus(previous) is bus
        assert get_bus() is previous

    def test_isinstance_hierarchy(self):
        assert isinstance(NULL_BUS, NullBus)
        assert isinstance(NULL_BUS, EventBus)


def _noisy_task(item):
    with span("task", item=item):
        emit_event("task.ran", item=item)
    return os.getpid()


class TestSilentProcesses:
    def test_muted_silences_spans_and_events(self):
        with scoped_bus() as bus:
            ring = bus.add_sink(RingBufferSink())
            with muted():
                assert get_bus() is NULL_BUS
                _noisy_task(0)
            assert get_bus() is bus
            _noisy_task(1)
        assert [e.name for e in ring.events()] == [
            "span.begin", "task.ran", "span.end",
        ]

    def test_forked_workers_never_emit(self, tmp_path):
        from repro.parallel import parallel_map

        path = tmp_path / "events.jsonl"
        with scoped_bus() as bus:
            sink = bus.add_sink(JsonlSink(str(path)))
            outcomes = parallel_map(_noisy_task, [1, 2, 3, 4], jobs=2)
            sink.close()
        workers = {o.value for o in outcomes}
        assert os.getpid() not in workers  # the tasks ran in the pool
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        # The inherited sink saw only the parent's scheduling events.
        assert {r["meta"]["pid"] for r in records} == {os.getpid()}
        names = {r["name"] for r in records}
        assert "chunk.dispatched" in names
        assert "task.ran" not in names


class TestJsonlSink:
    def test_writes_one_object_per_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path))
        sink(Event(1, "a.one", {"x": 1}, ts=1.0, pid=7))
        sink(Event(2, "a.two", {}, ts=2.0, pid=7))
        # Line-flushed: readable before close.
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["name"] == "a.one"
        assert first["payload"] == {"x": 1}
        assert first["meta"]["pid"] == 7
        sink.close()
        sink.close()  # idempotent

    def test_attached_to_bus(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with scoped_bus() as bus:
            sink = bus.add_sink(JsonlSink(str(path)))
            emit_event("fault.verdict", fault="f", detected=True)
            sink.close()
        record = json.loads(path.read_text())
        assert record["payload"] == {"fault": "f", "detected": True}


class TestRingBufferSink:
    def test_capacity_evicts_oldest(self):
        ring = RingBufferSink(capacity=3)
        for i in range(1, 6):
            ring(Event(i, f"e.{i}"))
        assert len(ring) == 3
        assert [e.seq for e in ring.events()] == [3, 4, 5]

    def test_since_filters_by_seq(self):
        ring = RingBufferSink()
        for i in range(1, 5):
            ring(Event(i, f"e.{i}"))
        assert [e.seq for e in ring.since(2)] == [3, 4]
        assert ring.since(99) == []


def _feed(model, name, **payload):
    model.handle(Event(0, name, payload))


class TestProgressModel:
    def test_campaign_lifecycle(self):
        clock = iter(float(t) for t in range(100))
        model = ProgressModel(clock=lambda: next(clock))
        _feed(model, "campaign.started",
              machine="counter3", faults=10, test_length=16)
        for i in range(4):
            _feed(model, "fault.verdict",
                  fault=f"f{i}", detected=i % 2 == 0, timed_out=False)
        s = model.status()
        assert s["phase"] == "sweeping"
        assert s["campaign"] == "counter3"
        assert s["total"] == 10 and s["done"] == 4
        assert s["detected"] == 2 and s["escaped"] == 2
        assert s["faults_per_second"] is not None
        assert s["eta_seconds"] is not None
        _feed(model, "campaign.finished",
              machine="counter3", detected=5, escaped=5, coverage=0.5)
        s = model.status()
        assert s["phase"] == "done"
        assert s["coverage"] == 0.5
        assert s["eta_seconds"] == 0.0

    def test_alternate_identity_keys(self):
        model = ProgressModel()
        _feed(model, "campaign.started",
              netlist="net1", faults=4, vectors=9)
        s = model.status()
        assert s["campaign"] == "net1"
        assert s["test_length"] == 9
        model = ProgressModel()
        _feed(model, "campaign.started", test_name="dlx", catalog=10)
        assert model.status()["campaign"] == "dlx"
        assert model.status()["total"] == 10

    def test_coverage_snapshot_moves_to_finalizing(self):
        model = ProgressModel()
        _feed(model, "campaign.started", machine="m", faults=2)
        model.handle(Event(0, "coverage.snapshot",
                           {"model": "m", "step": 8, "covered": 3,
                            "total": 4, "fraction": 0.75}))
        s = model.status()
        assert s["phase"] == "finalizing"
        assert s["coverage"] == 0.75

    def test_scheduling_events_fold_into_gauges(self):
        model = ProgressModel()
        _feed(model, "chunk.dispatched", items=8, jobs=2, mode="pool")
        _feed(model, "chunk.dispatched", items=8, jobs=2, mode="pool")
        _feed(model, "chunk.completed", items=8, mode="pool")
        _feed(model, "journal.flushed", entries=64, journaled=64,
              total=128)
        _feed(model, "worker.degraded", fault="f", action="oracle-rerun")
        _feed(model, "run.resumed", replayed=5, provisional=1,
              dropped=0, pending=3)
        s = model.status()
        assert s["queue_depth"] == 1
        assert s["chunks"] == {"dispatched": 2, "completed": 1}
        assert s["journal_slices"] == 1
        assert s["degraded"] == 1
        assert s["resumed"]["replayed"] == 5

    def test_suite_generated(self):
        model = ProgressModel()
        _feed(model, "suite.generated", machine="m", method="wp",
              m=4, sequences=12, steps=40)
        s = model.status()
        assert s["phase"] == "generating"
        assert s["suite"]["method"] == "wp"

    def test_status_is_json_serializable(self):
        model = ProgressModel()
        _feed(model, "campaign.started", machine="m", faults=1)
        json.dumps(model.status())


class TestProgressRenderer:
    def test_render_line_contents(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(stream=stream, interval=0.0)
        renderer(Event(1, "campaign.started",
                       {"machine": "counter3", "faults": 4,
                        "test_length": 16}))
        for i in range(2):
            renderer(Event(2 + i, "fault.verdict",
                           {"fault": f"f{i}", "detected": True}))
        line = renderer.render_line()
        assert "counter3" in line
        assert "2/4" in line
        assert "det 2" in line
        # Drawing overwrites in place.
        assert "\r" in stream.getvalue()
        renderer.close()
        assert stream.getvalue().endswith("\n")

    def test_no_total_shows_verdict_count(self):
        renderer = ProgressRenderer(stream=io.StringIO())
        renderer.model.handle(
            Event(1, "fault.verdict", {"fault": "f", "detected": False})
        )
        assert "1 verdicts" in renderer.render_line()


class TestProgressEnabled:
    def test_always_and_never(self):
        assert progress_enabled("always", io.StringIO()) is True
        assert progress_enabled("never", io.StringIO()) is False

    def test_auto_follows_isatty(self):
        class Tty(io.StringIO):
            def isatty(self):
                return True

        assert progress_enabled("auto", io.StringIO()) is False
        assert progress_enabled("auto", Tty()) is True

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            progress_enabled("sometimes")


class TestFormatEta:
    def test_rendering(self):
        assert format_eta(None) == "-"
        assert format_eta(-1) == "-"
        assert format_eta(float("nan")) == "-"
        assert format_eta(0) == "0:00"
        assert format_eta(65) == "1:05"
        assert format_eta(3723) == "1:02:03"
