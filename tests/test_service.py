"""Campaign-service units: protocol, store, coordinator, backoff.

Everything here drives the :class:`~repro.service.coordinator.
Coordinator` directly with a fake clock -- no sockets, no sleeps --
so the lease lifecycle's edge cases (heartbeat landing exactly at
expiry, double expiry, zombie late reports) are tested to the exact
tick.  The wire/HTTP/chaos layer is covered by
``test_service_differential.py``.
"""

import json

import pytest

from repro.faults import run_campaign
from repro.models import build_model
from repro.obs.events import (
    RingBufferSink,
    deterministic_payloads,
    scoped_bus,
)
from repro.parallel import BackoffPolicy
from repro.service import (
    BackPressure,
    Coordinator,
    ResultStore,
    SpecError,
    normalize_spec,
    resolve_campaign,
    simulate_shard,
    store_key,
)
from repro.service.coordinator import _carve
from repro.tour import transition_tour


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds
        return self.now


def make_coordinator(tmp_path, **overrides):
    options = dict(
        shard_size=8,
        lease_seconds=10.0,
        queue_limit=4,
        quarantine_after=3,
        max_attempts=12,
        clock=FakeClock(),
    )
    options.update(overrides)
    return Coordinator(str(tmp_path / "svc"), **options)


def drain(coordinator, worker="w", clock=None, patience=100):
    """Play one honest worker until no work is left.

    With a ``clock``, idle replies advance the fake time by their
    ``retry_after`` (so backed-off shards become leasable); without
    one, the first idle reply ends the drain.
    """
    idle = 0
    while idle < patience:
        lease = coordinator.lease(worker)
        if lease["lease"] is None:
            if clock is None:
                return
            idle += 1
            clock.advance(max(0.01, lease["retry_after"]))
            continue
        idle = 0
        resolved = resolve_campaign(lease["spec"])
        records = simulate_shard(
            resolved, lease["lo"], lease["hi"],
            kernel=lease["kernel"],
            mark_degraded=lease["fallback"],
        )
        coordinator.report_shard({
            "lease": lease["lease"],
            "campaign": lease["campaign"],
            "shard": lease["shard"],
            "worker": worker,
            "records": records,
        })


class TestSpecProtocol:
    def test_normalize_fills_defaults(self):
        spec = normalize_spec({"target": "vending"})
        assert spec == {
            "target": "vending",
            "method": "cpp",
            "suite": "tour",
            "extra_states": 0,
            "kernel": "compiled",
            "lanes": None,
            "timeout": None,
        }

    def test_normalize_is_idempotent(self):
        once = normalize_spec({"target": "dlx", "lanes": 64})
        assert normalize_spec(once) == once

    @pytest.mark.parametrize("bad", [
        None,
        [],
        {},
        {"target": ""},
        {"target": "vending", "suite": "nope"},
        {"target": "vending", "kernel": "fpga"},
        {"target": "vending", "lanes": 1},
        {"target": "vending", "timeout": 0},
        {"target": "vending", "extra_states": -1},
        {"target": "vending", "mystery": 1},
        {"target": "dlx", "suite": "w"},
    ])
    def test_normalize_rejects(self, bad):
        with pytest.raises(SpecError):
            normalize_spec(bad)

    def test_resolve_unknown_target_is_spec_error(self):
        with pytest.raises(SpecError):
            resolve_campaign({"target": "warp-core"})

    def test_identity_excludes_settings(self):
        base = resolve_campaign({"target": "vending"}).identity
        wide = resolve_campaign(
            {"target": "vending", "lanes": 16}
        ).identity
        other = resolve_campaign(
            {"target": "vending", "kernel": "interp"}
        ).identity
        assert base == wide  # lanes are a setting, not an identity
        assert base != other  # the kernel is part of the identity
        assert store_key(base) == store_key(wide)

    def test_simulate_shard_range_checked(self):
        resolved = resolve_campaign({"target": "counter"})
        with pytest.raises(ValueError):
            simulate_shard(resolved, 0, resolved.total + 1)


class TestResultStore:
    def test_roundtrip_and_dedup(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        identity = {"kind": "fsm", "machine": "m"}
        key = store.key(identity)
        assert store.get(key) is None
        assert store.put(key, identity, {"coverage": 1.0}, {"m": 1})
        hit = store.get(key, identity=identity)
        assert hit["report"] == {"coverage": 1.0}
        assert hit["metrics"] == {"m": 1}
        # Second publish loses benignly.
        assert not store.put(key, identity, {"coverage": 1.0}, {})
        assert store.keys() == [key]

    def test_identity_mismatch_reads_as_miss(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        identity = {"kind": "fsm", "machine": "m"}
        key = store.key(identity)
        store.put(key, identity, {"coverage": 1.0}, {})
        assert store.get(key, identity={"kind": "fsm"}) is None
        assert store.get(key, identity=identity) is not None

    def test_staging_debris_swept_on_construction(self, tmp_path):
        root = tmp_path / "store"
        (root / "tmp" / "half-written").mkdir(parents=True)
        store = ResultStore(str(root))
        assert list((root / "tmp").iterdir()) == []
        assert store.keys() == []

    def test_report_bytes_are_canonical(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        identity = {"kind": "fsm"}
        key = store.key(identity)
        report = {"coverage": 0.5, "total": 2}
        store.put(key, identity, report, {})
        with open(store.report_path(key)) as handle:
            assert handle.read() == (
                json.dumps(report, indent=2, sort_keys=True) + "\n"
            )


class TestCoordinatorHappyPath:
    def test_drained_campaign_matches_serial(self, tmp_path):
        with scoped_bus() as bus:
            ring = RingBufferSink()
            bus.add_sink(ring)
            coordinator = make_coordinator(tmp_path, shard_size=5)
            view = coordinator.submit({"target": "vending"})
            assert view["state"] == "running"
            drain(coordinator)
            final = coordinator.campaign_view(view["campaign"])
            service_events = deterministic_payloads(ring.events())
        with scoped_bus() as bus:
            ring = RingBufferSink()
            bus.add_sink(ring)
            machine = build_model("vending")
            serial = run_campaign(
                machine,
                transition_tour(machine, method="cpp").inputs,
                jobs=1,
            )
            serial_events = deterministic_payloads(ring.events())
        assert final["state"] == "done"
        assert final["report"] == serial.to_json_dict()
        # The deterministic projection -- started, every verdict in
        # fault-index order, finished -- is byte-identical to serial.
        assert json.dumps(service_events, sort_keys=True) == (
            json.dumps(serial_events, sort_keys=True)
        )

    def test_submission_is_idempotent_while_running(self, tmp_path):
        coordinator = make_coordinator(tmp_path)
        first = coordinator.submit({"target": "counter"})
        again = coordinator.submit({"target": "counter"})
        assert again["campaign"] == first["campaign"]
        assert coordinator.stats["admitted"] == 1

    def test_resubmission_served_from_store(self, tmp_path):
        coordinator = make_coordinator(tmp_path)
        view = coordinator.submit({"target": "counter"})
        drain(coordinator)
        done = coordinator.campaign_view(view["campaign"])
        # A *fresh* coordinator over the same root: zero simulations.
        reborn = make_coordinator(tmp_path)
        cached = reborn.submit({"target": "counter"})
        assert cached["state"] == "done"
        assert cached["cached"] is True
        assert cached["executed"] == 0
        assert reborn.stats["leases"] == 0
        assert (
            reborn.campaign_view(cached["campaign"])["report"]
            == done["report"]
        )

    def test_status_document(self, tmp_path):
        coordinator = make_coordinator(tmp_path)
        coordinator.submit({"target": "counter"})
        coordinator.lease("alice")
        status = coordinator.status()
        assert status["service"]["queue_limit"] == 4
        assert status["workers"] == {"alice": 1}
        assert status["stats"]["leases"] == 1
        assert len(status["campaigns"]) == 1


class TestLeaseLifecycle:
    """The satellite: lease expiry edge cases, to the exact tick."""

    def setup_coordinator(self, tmp_path):
        clock = FakeClock()
        # shard_size over the counter population: exactly one shard,
        # so every lease in these tests is *the* contested shard.
        coordinator = make_coordinator(
            tmp_path, clock=clock, shard_size=512, lease_seconds=10.0
        )
        view = coordinator.submit({"target": "counter"})
        assert view["shards"] == 1
        return coordinator, clock, view

    def test_heartbeat_extends_lease(self, tmp_path):
        coordinator, clock, _ = self.setup_coordinator(tmp_path)
        lease = coordinator.lease("w1")
        for _ in range(5):
            clock.advance(9.0)
            assert coordinator.heartbeat(lease["lease"])["ok"]
        # 45 simulated seconds in and the lease is still the worker's.
        assert coordinator.stats["expired"] == 0

    def test_heartbeat_exactly_at_expiry_is_rejected(self, tmp_path):
        coordinator, clock, _ = self.setup_coordinator(tmp_path)
        lease = coordinator.lease("w1")
        clock.advance(10.0)  # now == deadline: expiry wins the tie
        reply = coordinator.heartbeat(lease["lease"])
        assert reply["ok"] is False
        assert coordinator.stats["expired"] == 1

    def test_expired_shard_reassigned_with_backoff(self, tmp_path):
        coordinator, clock, _ = self.setup_coordinator(tmp_path)
        first = coordinator.lease("w1")
        clock.advance(11.0)
        # Immediately after expiry the shard is backing off.
        retry = coordinator.lease("w2")
        assert retry["lease"] is None
        assert retry["retry_after"] > 0
        clock.advance(retry["retry_after"])
        second = coordinator.lease("w2")
        assert second["lease"] is not None
        assert second["lease"] != first["lease"]
        assert second["shard"] == first["shard"]
        assert second["attempt"] == 1

    def test_double_expiry_reassigns_twice(self, tmp_path):
        coordinator, clock, _ = self.setup_coordinator(tmp_path)
        seen = set()
        for attempt in range(2):
            lease = None
            while lease is None:
                reply = coordinator.lease(f"w{attempt}")
                if reply["lease"] is None:
                    clock.advance(reply["retry_after"])
                else:
                    lease = reply
            assert lease["attempt"] == attempt
            assert lease["lease"] not in seen
            seen.add(lease["lease"])
            clock.advance(10.5)
        # Both dead leases are really dead.
        for lease_id in seen:
            assert not coordinator.heartbeat(lease_id)["ok"]
        assert coordinator.stats["expired"] == 2

    def test_zombie_late_report_fills_slots_once(self, tmp_path):
        """A worker whose lease expired reports anyway -- records
        land because nobody else produced them yet, but the lease
        stays dead."""
        coordinator, clock, view = self.setup_coordinator(tmp_path)
        lease = coordinator.lease("zombie")
        resolved = resolve_campaign(lease["spec"])
        records = simulate_shard(resolved, lease["lo"], lease["hi"])
        clock.advance(30.0)  # lease long expired
        reply = coordinator.report_shard({
            "lease": lease["lease"],
            "campaign": lease["campaign"],
            "shard": lease["shard"],
            "worker": "zombie",
            "records": records,
        })
        assert reply["accepted"] is True
        final = coordinator.campaign_view(view["campaign"])
        assert final["state"] == "done"
        assert final["executed"] == final["total"]

    def test_zombie_after_reassignment_is_deduplicated(self, tmp_path):
        """The at-least-once dedup pin: a reassigned shard completes
        under its new lease, then the zombie's late report arrives --
        nothing double-counts, the report is unchanged."""
        coordinator, clock, view = self.setup_coordinator(tmp_path)
        zombie = coordinator.lease("zombie")
        resolved = resolve_campaign(zombie["spec"])
        records = simulate_shard(resolved, zombie["lo"], zombie["hi"])
        clock.advance(11.0)  # zombie's lease expires
        fresh = coordinator.lease("healthy")
        if fresh["lease"] is None:  # ride out the retry backoff
            clock.advance(fresh["retry_after"])
            fresh = coordinator.lease("healthy")
        assert fresh["lease"] is not None
        coordinator.report_shard({
            "lease": fresh["lease"],
            "campaign": fresh["campaign"],
            "shard": fresh["shard"],
            "worker": "healthy",
            "records": simulate_shard(
                resolved, fresh["lo"], fresh["hi"]
            ),
        })
        done = coordinator.campaign_view(view["campaign"])
        assert done["state"] == "done"
        late = coordinator.report_shard({
            "lease": zombie["lease"],
            "campaign": zombie["campaign"],
            "shard": zombie["shard"],
            "worker": "zombie",
            "records": records,
        })
        assert late["accepted"] is False
        after = coordinator.campaign_view(view["campaign"])
        assert after["executed"] == after["total"]
        assert after["report"] == done["report"]
        assert coordinator.stats["deduplicated"] >= 1

    def test_worker_error_report_requeues_shard(self, tmp_path):
        coordinator, clock, _ = self.setup_coordinator(tmp_path)
        lease = coordinator.lease("w1")
        reply = coordinator.report_shard({
            "lease": lease["lease"],
            "campaign": lease["campaign"],
            "shard": lease["shard"],
            "worker": "w1",
            "error": "RuntimeError: boom",
        })
        assert reply["accepted"] is False
        assert coordinator.stats["worker_errors"] == 1
        clock.advance(10.0)  # past the backoff
        again = coordinator.lease("w2")
        assert again["shard"] == lease["shard"]
        assert again["attempt"] == 1

    def test_malformed_records_are_dropped(self, tmp_path):
        coordinator, _clock, view = self.setup_coordinator(tmp_path)
        lease = coordinator.lease("liar")
        reply = coordinator.report_shard({
            "lease": lease["lease"],
            "campaign": lease["campaign"],
            "shard": lease["shard"],
            "worker": "liar",
            "records": [
                {"i": -1, "detected": True},
                {"i": 10 ** 6, "detected": True},
                "not even a dict",
                {"detected": True},
            ],
        })
        assert reply["accepted"] is False
        assert (
            coordinator.campaign_view(view["campaign"])["filled"] == 0
        )


class TestHostileRecords:
    """Record validation is total: one hostile record in a report is
    dropped while its valid siblings are absorbed, journaled and
    synced, and the reply stays a normal one."""

    def report(self, coordinator, lease, records):
        return coordinator.report_shard({
            "lease": lease["lease"],
            "campaign": lease["campaign"],
            "shard": lease["shard"],
            "worker": "w",
            "records": records,
        })

    def spooled(self, coordinator, key):
        from repro.runtime import Journal, run_paths

        journal = run_paths(coordinator._spool_dir(key)).journal
        return sorted(r["i"] for r in Journal.replay(journal).records)

    @pytest.fixture(scope="class")
    def dlx_records(self):
        resolved = resolve_campaign({"target": "dlx"})
        return simulate_shard(resolved, 0, resolved.total)

    @pytest.mark.parametrize("bad", ["abc", [1], {}, None, True])
    def test_bad_mismatch_index(self, tmp_path, dlx_records, bad):
        coordinator = make_coordinator(tmp_path, shard_size=64)
        view = coordinator.submit({"target": "dlx"})
        lease = coordinator.lease("w")
        victim = next(
            i for i, r in enumerate(dlx_records)
            if r["mismatch"] is not None
        )
        records = [dict(r) for r in dlx_records]
        records[victim]["mismatch_index"] = bad
        reply = self.report(coordinator, lease, records)
        assert reply == {
            "accepted": True,
            "absorbed": len(records) - 1,
            "state": "running",
        }
        assert self.spooled(coordinator, view["campaign"]) == [
            i for i in range(len(records)) if i != victim
        ]
        reply = self.report(coordinator, lease, [dlx_records[victim]])
        assert reply["absorbed"] == 1 and reply["state"] == "done"

    def test_bool_index_is_not_an_index(self, tmp_path):
        coordinator = make_coordinator(tmp_path, shard_size=512)
        view = coordinator.submit({"target": "counter"})
        lease = coordinator.lease("w")
        resolved = resolve_campaign(lease["spec"])
        records = simulate_shard(resolved, lease["lo"], lease["hi"])
        hostile = dict(records[1], i=True)
        reply = self.report(
            coordinator, lease, [hostile] + records[2:] + [records[0]]
        )
        assert reply["absorbed"] == len(records) - 1
        assert 1 not in self.spooled(coordinator, view["campaign"])
        assert coordinator.campaign_view(view["campaign"])["filled"] == (
            len(records) - 1
        )


class TestQuarantineAndBisect:
    def fail_until(self, coordinator, clock, predicate, limit=500):
        """Keep leasing and expiring until ``predicate()``; the
        worker-that-always-dies loop."""
        for _ in range(limit):
            if predicate():
                return
            reply = coordinator.lease("crashy")
            if reply["lease"] is None:
                clock.advance(max(0.01, reply["retry_after"]))
                continue
            clock.advance(coordinator.lease_seconds + 1.0)
        raise AssertionError("predicate never became true")

    def test_poisoned_shard_bisects_to_singleton_fallback(
        self, tmp_path
    ):
        clock = FakeClock()
        coordinator = make_coordinator(
            tmp_path,
            clock=clock,
            shard_size=4,
            quarantine_after=2,
            max_attempts=100,
        )
        view = coordinator.submit({"target": "counter"})
        self.fail_until(
            coordinator,
            clock,
            lambda: coordinator.stats["shards_bisected"] >= 1,
        )
        # Bisection halves the range; keep failing and some singleton
        # eventually falls back to the interpreter oracle.
        self.fail_until(
            coordinator,
            clock,
            lambda: coordinator.stats["shards_quarantined"] >= 1,
        )
        shards = coordinator._campaigns[view["campaign"]].shards
        poisoned = [s for s in shards.values() if s.fallback]
        assert poisoned
        assert all(s.size == 1 for s in poisoned)
        # A fallback shard leases with the interpreter oracle forced.
        clock.advance(60.0)
        chosen = None
        for _ in range(200):
            reply = coordinator.lease("probe")
            if reply["lease"] is None:
                clock.advance(max(0.01, reply["retry_after"]))
                continue
            if reply["fallback"]:
                chosen = reply
                break
        assert chosen is not None, "no fallback lease granted"
        assert chosen["kernel"] == "interp"
        assert chosen["hi"] - chosen["lo"] == 1

    def test_degraded_fallback_propagates_to_campaign(self, tmp_path):
        clock = FakeClock()
        coordinator = make_coordinator(
            tmp_path,
            clock=clock,
            shard_size=512,
            quarantine_after=1,
            max_attempts=100,
        )
        view = coordinator.submit({"target": "counter"})
        # One shard covers the whole population.  Expire it until a
        # singleton goes fallback, then serve everything honestly.
        self.fail_until(
            coordinator,
            clock,
            lambda: coordinator.stats["shards_quarantined"] >= 1,
        )
        clock.advance(60.0)
        drain(coordinator, clock=clock)
        final = coordinator.campaign_view(view["campaign"])
        assert final["state"] == "done"
        # At least one verdict rode the interp fallback: the campaign
        # is done but flagged degraded (the exit-code-3 signal).
        assert final["degraded"] is True

    def test_max_attempts_fails_campaign(self, tmp_path):
        clock = FakeClock()
        coordinator = make_coordinator(
            tmp_path,
            clock=clock,
            shard_size=512,
            quarantine_after=2,
            max_attempts=3,
        )
        view = coordinator.submit({"target": "counter"})
        self.fail_until(
            coordinator,
            clock,
            lambda: (
                coordinator.campaign_view(view["campaign"])["state"]
                == "failed"
            ),
        )
        final = coordinator.campaign_view(view["campaign"])
        assert final["state"] == "failed"
        assert "failed" in final["error"]
        # A failed campaign takes no further leases or reports.
        assert coordinator.lease("w")["lease"] is None
        reply = coordinator.report_shard({
            "campaign": view["campaign"],
            "shard": 1,
            "records": [],
        })
        assert reply["accepted"] is False


class TestBackPressure:
    def test_queue_limit_raises_with_retry_after(self, tmp_path):
        coordinator = make_coordinator(tmp_path, queue_limit=1)
        coordinator.submit({"target": "counter"})
        with pytest.raises(BackPressure) as caught:
            coordinator.submit({"target": "traffic"})
        assert caught.value.retry_after > 0
        assert coordinator.stats["rejected"] == 1
        # Resubmitting the *running* campaign is not back-pressured.
        assert coordinator.submit({"target": "counter"})["state"] == (
            "running"
        )

    def test_queue_drains_then_admits(self, tmp_path):
        coordinator = make_coordinator(tmp_path, queue_limit=1)
        coordinator.submit({"target": "counter"})
        drain(coordinator)
        admitted = coordinator.submit({"target": "traffic"})
        assert admitted["state"] == "running"


class TestSpoolResume:
    def test_crashed_coordinator_resumes_from_spool(self, tmp_path):
        clock = FakeClock()
        first = make_coordinator(tmp_path, clock=clock, shard_size=8)
        view = first.submit({"target": "vending"})
        # Absorb exactly one shard, then "crash" the coordinator.
        lease = first.lease("w1")
        resolved = resolve_campaign(lease["spec"])
        first.report_shard({
            "lease": lease["lease"],
            "campaign": lease["campaign"],
            "shard": lease["shard"],
            "worker": "w1",
            "records": simulate_shard(
                resolved, lease["lo"], lease["hi"]
            ),
        })
        absorbed = lease["hi"] - lease["lo"]
        first.close()
        # A reborn coordinator replays the spool journal: the absorbed
        # shard is never re-simulated.
        reborn = make_coordinator(tmp_path, shard_size=8)
        resumed = reborn.submit({"target": "vending"})
        assert resumed["campaign"] == view["campaign"]
        assert resumed["replayed"] == absorbed
        drain(reborn)
        final = reborn.campaign_view(view["campaign"])
        assert final["state"] == "done"
        assert final["executed"] == final["total"] - absorbed
        # And the report equals the fully-serial reference.
        machine = build_model("vending")
        serial = run_campaign(
            machine,
            transition_tour(machine, method="cpp").inputs,
            jobs=1,
        )
        assert final["report"] == serial.to_json_dict()


class TestCarve:
    def test_contiguous_chunking(self):
        assert _carve(list(range(10)), 4) == [
            (0, 4), (4, 8), (8, 10),
        ]

    def test_sparse_runs_stay_contiguous(self):
        assert _carve([0, 1, 2, 5, 6, 9], 2) == [
            (0, 2), (2, 3), (5, 7), (9, 10),
        ]

    def test_empty(self):
        assert _carve([], 4) == []


class TestBackoffPolicy:
    def test_deterministic_under_seed(self):
        a = BackoffPolicy(seed=7)
        b = BackoffPolicy(seed=7)
        c = BackoffPolicy(seed=8)
        delays_a = [a.delay(n, key="k") for n in range(1, 6)]
        assert delays_a == [b.delay(n, key="k") for n in range(1, 6)]
        assert delays_a != [c.delay(n, key="k") for n in range(1, 6)]

    def test_exponential_envelope_with_jitter(self):
        policy = BackoffPolicy(
            base=0.1, factor=2.0, max_delay=1.0, jitter=0.5, seed=1
        )
        for attempt in range(1, 8):
            delay = policy.delay(attempt, key="x")
            ceiling = min(1.0, 0.1 * 2.0 ** (attempt - 1))
            assert 0.5 * ceiling <= delay <= ceiling

    def test_zero_jitter_is_pure_exponential(self):
        policy = BackoffPolicy(
            base=0.5, factor=3.0, max_delay=100.0, jitter=0.0
        )
        assert [policy.delay(n) for n in (1, 2, 3)] == [0.5, 1.5, 4.5]

    def test_keys_decorrelate(self):
        policy = BackoffPolicy(jitter=1.0, seed=3)
        assert policy.delay(4, key="a") != policy.delay(4, key="b")

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=-1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)

    def test_parallel_map_retries_sleep_via_policy(self, monkeypatch):
        import repro.parallel.executor as executor_mod
        from repro.parallel import parallel_map

        naps = []
        monkeypatch.setattr(
            executor_mod.time,
            "sleep",
            lambda seconds: naps.append(seconds),
        )
        calls = {}

        def flaky(task):
            calls[task] = calls.get(task, 0) + 1
            if task == 2 and calls[task] < 3:
                raise RuntimeError("transient")
            return task * 10

        policy = BackoffPolicy(base=0.25, jitter=0.0, seed=0)
        outcomes = parallel_map(
            flaky, [1, 2, 3], jobs=1, retries=3, backoff=policy
        )
        assert [o.value for o in outcomes] == [10, 20, 30]
        # Two retries of task 2: base, then base*factor.
        assert naps == [0.25, 0.5]
