"""Tests for the telemetry bus, its views, and the IOStats/Trace fixes."""

import pytest

from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.cluster.trace import Trace
from repro.core.external_psrs import PSRSConfig, distribute_array, sort_array
from repro.core.perf import PerfVector
from repro.obs.bus import LEVELS, TelemetryBus
from repro.obs.events import (
    BlockRead,
    BlockWrite,
    FaultInjected,
    MemReserve,
    NetTransfer,
    StepBegin,
    StepEnd,
    event_from_dict,
)
from repro.pdm.stats import IOStats
from repro.workloads.generators import make_benchmark


def _run(n=16_000, level="io", **cfg):
    perf = PerfVector([1, 1, 4, 4])
    n = perf.nearest_exact(n)
    data = make_benchmark(0, n, seed=0)
    cluster = Cluster(heterogeneous_cluster([1.0, 1.0, 4.0, 4.0], memory_items=2048))
    cluster.bus.set_level(level)
    res = sort_array(
        cluster, perf, data, PSRSConfig(block_items=256, message_items=2048, **cfg)
    )
    return cluster, res


class TestBusBasics:
    def test_levels_are_ordered_and_gate_io(self):
        bus = TelemetryBus()
        assert bus.level == "steps"
        assert not bus.captures_io and not bus.captures_memory
        bus.set_level("io")
        assert bus.captures_io and not bus.captures_memory
        bus.set_level("full")
        assert bus.captures_io and bus.captures_memory
        assert LEVELS == ("steps", "io", "full")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown capture level"):
            TelemetryBus(level="everything")

    def test_step_scope_nests_and_unwinds_on_error(self):
        bus = TelemetryBus()
        assert bus.current_step == ""
        with bus.step_scope("outer"):
            assert bus.current_step == "outer"
            with bus.step_scope("inner"):
                assert bus.current_step == "inner"
            assert bus.current_step == "outer"
        with pytest.raises(RuntimeError):
            with bus.step_scope("raising"):
                raise RuntimeError("boom")
        assert bus.current_step == ""

    def test_io_events_suppressed_below_io_level(self):
        bus = TelemetryBus(level="steps")
        bus.record_block_io(
            "read", disk="d", node=0, t=0.0, n_items=4, itemsize=4, cost=0.1
        )
        bus.record_net_transfer(src=0, dst=1, t_end=0.0, nbytes=8, duration=0.1)
        assert bus.events == []
        bus.record_fault("disk", node=0, t=0.0)  # faults always recorded
        assert len(bus.events) == 1 and isinstance(bus.events[0], FaultInjected)

    def test_subscribers_see_events_live(self):
        bus = TelemetryBus(level="io")
        seen = []
        bus.subscribe(seen.append)
        bus.record_step_begin("s", 0, 0.0)
        bus.record_block_io(
            "write", disk="d", node=0, t=1.0, n_items=4, itemsize=4, cost=0.1
        )
        assert [type(e) for e in seen] == [StepBegin, BlockWrite]
        bus.unsubscribe(seen.append)
        bus.record_step_begin("s2", 0, 2.0)
        assert len(seen) == 2

    def test_clear_keeps_level_drops_events_and_trace(self):
        bus = TelemetryBus(level="full")
        bus.record_step_begin("s", 0, 0.0)
        bus.record_step_end("s", 0, 0.0, 1.0)
        old_trace = bus.trace
        bus.clear()
        assert bus.level == "full"
        assert bus.events == []
        assert bus.trace is not old_trace and bus.trace.events == []

    def test_event_roundtrip_through_dict(self):
        e = BlockRead(
            t=1.5, node=2, step="1:local-sort", disk="d0", n_items=256,
            itemsize=4, cost=0.01,
        )
        assert event_from_dict(e.to_dict()) == e
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_dict({"kind": "bogus"})
        with pytest.raises(ValueError, match="missing field"):
            event_from_dict({"kind": "block_read", "t": 0.0})


class TestClusterWiring:
    def test_steps_level_records_only_step_events(self):
        cluster, _ = _run(level="steps")
        kinds = {type(e) for e in cluster.bus.events}
        assert StepEnd in kinds
        assert BlockRead not in kinds and NetTransfer not in kinds

    def test_io_level_records_block_and_net_events(self):
        cluster, res = _run(level="io")
        reads = [e for e in cluster.bus.events if isinstance(e, BlockRead)]
        writes = [e for e in cluster.bus.events if isinstance(e, BlockWrite)]
        xfers = [e for e in cluster.bus.events if isinstance(e, NetTransfer)]
        # Event stream and IOStats counters agree exactly.
        assert len(reads) == res.io.blocks_read
        assert len(writes) == res.io.blocks_written
        assert sum(e.n_items for e in reads) == res.io.items_read
        assert sum(e.n_items for e in writes) == res.io.items_written
        assert len(xfers) == res.network_messages
        assert sum(e.nbytes for e in xfers) == res.network_bytes

    def test_full_level_adds_memory_events(self):
        cluster, _ = _run(n=4_000, level="full")
        assert any(isinstance(e, MemReserve) for e in cluster.bus.events)

    def test_every_io_event_attributed_to_a_step(self):
        cluster, _ = _run(level="io")
        for e in cluster.bus.events:
            if isinstance(e, (BlockRead, BlockWrite)):
                assert e.step != ""

    def test_trace_property_is_bus_view(self):
        cluster, _ = _run(level="steps")
        assert cluster.trace is cluster.bus.trace
        assert set(cluster.trace.steps()) >= {
            "1:local-sort", "2:pivots", "3:partition",
            "4:redistribute", "5:final-merge",
        }

    def test_labels_view_matches_step_io(self):
        cluster, res = _run(level="steps")  # labels work at every level
        merged = IOStats.merge([node.disk.stats for node in cluster.nodes])
        assert merged.labels
        for step, io in res.step_io.items():
            assert merged.labels.get(step, 0) == io.block_ios

    def test_subscriber_sees_exactly_the_retained_events(self):
        """The untimed distribution records nothing the reset would drop."""
        perf = PerfVector([1, 1, 4, 4])
        data = make_benchmark(0, perf.nearest_exact(4_000), seed=0)
        cluster = Cluster(heterogeneous_cluster([1.0, 1.0, 4.0, 4.0], memory_items=2048))
        cluster.bus.set_level("full")
        seen = []
        cluster.bus.subscribe(seen.append)
        sort_array(cluster, perf, data, PSRSConfig(block_items=256, message_items=2048))
        assert cluster.bus.level == "full"
        assert len(seen) == len(cluster.bus.events) > 0

    def test_timed_distribution_is_still_recorded(self):
        perf = PerfVector([1, 1])
        cluster = Cluster(heterogeneous_cluster([1.0, 1.0], memory_items=2048))
        cluster.bus.set_level("full")
        data = make_benchmark(0, 4_000, seed=0)
        distribute_array(cluster, perf, data, 256, timed=True)
        kinds = {type(e) for e in cluster.bus.events}
        assert {BlockWrite, MemReserve} <= kinds
        assert cluster.bus.level == "full"

    def test_reset_clears_bus(self):
        cluster, _ = _run(n=4_000, level="io")
        assert cluster.bus.events
        cluster.reset()
        assert cluster.bus.events == []
        assert cluster.trace.events == []
        assert cluster.bus.level == "io"


class TestIOStatsFixes:
    def test_merge_accumulates_without_snapshots(self, monkeypatch):
        """merge(N stats) must do O(N) work: no per-element snapshot/add."""
        calls = {"snapshot": 0, "add": 0}
        orig_snapshot = IOStats.snapshot
        orig_add = IOStats.__add__

        def counting_snapshot(self):
            calls["snapshot"] += 1
            return orig_snapshot(self)

        def counting_add(self, other):
            calls["add"] += 1
            return orig_add(self, other)

        monkeypatch.setattr(IOStats, "snapshot", counting_snapshot)
        monkeypatch.setattr(IOStats, "__add__", counting_add)
        stats = []
        for i in range(50):
            s = IOStats()
            s.record_read(256, 0.01)
            s.bump(f"step{i % 3}")
            stats.append(s)
        out = IOStats.merge(stats)
        assert calls == {"snapshot": 0, "add": 0}
        assert out.blocks_read == 50 and out.items_read == 50 * 256
        assert sum(out.labels.values()) == 50

    def test_merge_equals_repeated_add(self):
        a, b, c = IOStats(), IOStats(), IOStats()
        a.record_read(10, 0.1)
        b.record_write(20, 0.2)
        b.bump("x", 3)
        c.record_read(5, 0.05)
        c.bump("x")
        c.bump("y")
        assert IOStats.merge([a, b, c]) == a + b + c

    def test_str_includes_labels(self):
        s = IOStats()
        s.record_read(256, 0.01)
        s.bump("2:pivots")
        s.bump("1:local-sort", 2)
        text = str(s)
        assert "labels{1:local-sort: 2, 2:pivots: 1}" in text
        assert "labels" not in str(IOStats())


class TestTraceIndex:
    def _trace(self):
        t = Trace()
        t.record("a", 0, 0.0, 1.0)
        t.record("a", 1, 0.0, 2.0)
        t.record("b", 0, 2.0, 5.0)
        return t

    def test_for_step_and_steps(self):
        t = self._trace()
        assert t.steps() == ["a", "b"]
        assert [e.node for e in t.for_step("a")] == [0, 1]
        assert t.for_step("missing") == []

    def test_indexed_queries_match_events(self):
        t = self._trace()
        assert t.step_duration("a") == pytest.approx(2.0)
        assert t.node_busy("a", 0) == pytest.approx(1.0)
        assert t.node_busy("a", 1) == pytest.approx(2.0)
        assert t.node_busy("b", 0) == pytest.approx(3.0)
        assert t.imbalance("a") == pytest.approx(2.0 / 1.5)
        assert t.summary() == {"a": pytest.approx(2.0), "b": pytest.approx(3.0)}

    def test_post_init_indexes_preexisting_events(self):
        t = self._trace()
        t2 = Trace(events=list(t.events))
        assert t2.steps() == t.steps()
        assert t2.step_duration("b") == t.step_duration("b")

    def test_extend_maintains_index(self):
        t = self._trace()
        t2 = Trace()
        t2.extend(t.events)
        t2.record("c", 0, 5.0, 6.0)
        assert t2.steps() == ["a", "b", "c"]
        assert t2.node_busy("c", 0) == pytest.approx(1.0)
        assert t2.step_duration("a") == pytest.approx(2.0)
