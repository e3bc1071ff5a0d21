"""Tests for the JSONL, Chrome-trace, and Prometheus exporters."""

import dataclasses
import itertools
import json
import pathlib
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.obs import exporters
from repro.obs.events import (
    EVENT_TYPES,
    BarrierWait,
    BlockRead,
    BlockWrite,
    FaultInjected,
    MemRelease,
    MemReserve,
    NetTransfer,
    Retry,
    StepBegin,
    StepEnd,
    encode_event,
    event_from_dict,
)
from repro.obs.exporters import (
    read_jsonl,
    to_chrome_trace,
    to_prometheus,
    write_chrome_trace,
    write_jsonl,
)
from repro.workloads.generators import make_benchmark

DATA_DIR = pathlib.Path(__file__).parent / "data"


def hand_built_events():
    """A tiny, fixed event stream exercising every exporter branch."""
    return [
        StepBegin(t=0.0, node=0, step="1:local-sort"),
        StepBegin(t=0.0, node=1, step="1:local-sort"),
        BlockRead(t=0.2, node=0, step="1:local-sort", disk="node0.disk",
                  n_items=256, itemsize=4, cost=0.2),
        MemReserve(t=0.2, node=0, step="1:local-sort", n_items=256, in_use=256),
        BlockWrite(t=0.5, node=0, step="1:local-sort", disk="node0.disk",
                   n_items=256, itemsize=4, cost=0.3),
        MemRelease(t=0.5, node=0, step="1:local-sort", n_items=256, in_use=0),
        StepEnd(t=0.6, node=0, step="1:local-sort", duration=0.6),
        StepEnd(t=1.0, node=1, step="1:local-sort", duration=1.0),
        BarrierWait(t=1.0, node=0, step="1:local-sort", wait=0.4),
        BarrierWait(t=1.0, node=1, step="1:local-sort", wait=0.0),
        NetTransfer(t=1.3, node=0, step="4:redistribute", src=0, dst=1,
                    nbytes=1024, duration=0.3),
        FaultInjected(t=1.4, node=1, step="4:redistribute", category="disk",
                      detail="node1.disk read io#7"),
        Retry(t=1.5, node=-1, step="4:redistribute", attempt=1, backoff=0.05),
    ]


class TestChromeTraceGolden:
    def test_matches_golden_file(self):
        """Byte-stable export: key order, µs conversion, track layout."""
        got = to_chrome_trace(hand_built_events(), node_names={0: "n0", 1: "n1"})
        golden = json.loads((DATA_DIR / "chrome_trace_golden.json").read_text())
        assert got == golden

    def test_span_ts_monotonic_and_start_adjusted(self):
        trace = to_chrome_trace(hand_built_events())
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        ts = [e["ts"] for e in spans]
        assert ts == sorted(ts)
        # StepEnd(t=0.6, duration=0.6) -> span starts at t=0.
        step0 = next(e for e in spans if e["name"] == "1:local-sort" and e["pid"] == 0)
        assert step0["ts"] == 0.0 and step0["dur"] == 0.6 * 1e6

    def test_cluster_events_get_cluster_pid(self):
        trace = to_chrome_trace(hand_built_events())
        retry = next(
            e for e in trace["traceEvents"] if e["name"] == "retry:4:redistribute"
        )
        assert retry["pid"] == 10_000
        proc_names = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("name") == "process_name"
        }
        assert proc_names[10_000] == "cluster"

    def test_write_is_valid_json(self, tmp_path):
        path = tmp_path / "t.trace.json"
        write_chrome_trace(str(path), hand_built_events())
        loaded = json.loads(path.read_text())
        assert loaded == to_chrome_trace(hand_built_events())


class TestJSONL:
    def test_roundtrip_with_meta(self, tmp_path):
        path = tmp_path / "e.jsonl"
        events = hand_built_events()
        write_jsonl(str(path), events, meta={"n_items": 512, "perf": [1, 1]})
        meta, back = read_jsonl(str(path))
        assert meta == {"n_items": 512, "perf": [1, 1]}
        assert back == events

    def test_roundtrip_without_meta(self, tmp_path):
        path = tmp_path / "e.jsonl"
        write_jsonl(str(path), hand_built_events())
        meta, back = read_jsonl(str(path))
        assert meta is None
        assert back == hand_built_events()


def reference_jsonl(events, meta=None) -> str:
    """The list-then-join rendering the streaming writer must reproduce.

    Every record is ``json.dumps`` of a dict built from
    ``dataclasses.fields``; the lines are joined with newlines plus one
    final newline (so an empty log is a single newline).
    """
    lines = []
    if meta is not None:
        record = {"kind": "run_meta"}
        record.update(meta)
        lines.append(json.dumps(record))
    for e in events:
        record = {"kind": type(e).kind}
        for f in dataclasses.fields(e):
            record[f.name] = getattr(e, f.name)
        lines.append(json.dumps(record))
    return "\n".join(lines) + "\n"


#: Strings json must escape: quotes, backslashes, control characters,
#: non-ASCII (BMP and astral) and a lone surrogate.
AWKWARD_TEXT = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "a\"b\\c", "\x00\x1f\n\t\x7f", "é€😀", "\ud800", "100%s%%"]),
)


def _value(annotation: str) -> st.SearchStrategy:
    """Values for a field: its annotated type, or one the template can't render.

    Ints in float fields and bools in int fields render differently
    from the annotated type; ``floats()`` includes NaN and infinities.
    """
    return {
        "float": st.one_of(st.floats(), st.integers()),
        "int": st.one_of(st.integers(), st.booleans()),
        "str": AWKWARD_TEXT,
    }[annotation]


@st.composite
def any_event(draw):
    cls = draw(st.sampled_from(sorted(EVENT_TYPES.values(), key=lambda c: c.kind)))
    required, optional = {}, {}
    for f in dataclasses.fields(cls):
        has_default = f.default is not dataclasses.MISSING
        (optional if has_default else required)[f.name] = _value(f.type)
    return cls(**draw(st.fixed_dictionaries(required, optional=optional)))


class TestEventCodec:
    @given(any_event())
    @example(BlockRead(t=float("nan"), node=0, step="s", disk="d", n_items=1,
                       itemsize=4, cost=float("inf"), queued=float("-inf")))
    @example(StepEnd(t=-0.0, node=True, step="\ud800\"\\", duration=1e300))
    @example(FaultInjected(t=1e-7, node=-1, step="é", category="%d",
                           detail="%(x)s"))
    def test_encoded_line_is_json_dumps_of_to_dict(self, event):
        assert encode_event(event) == json.dumps(event.to_dict())

    @given(any_event())
    def test_to_dict_lists_every_field_in_order(self, event):
        expected = {"kind": type(event).kind}
        expected.update(
            (f.name, getattr(event, f.name)) for f in dataclasses.fields(event)
        )
        got = event.to_dict()
        # Same value objects on both sides, so even NaN compares equal.
        assert got == expected and list(got) == list(expected)

    def test_defaulted_fields_are_optional_on_decode(self):
        e = event_from_dict(
            {"kind": "block_read", "t": 1.0, "node": 0, "step": "s",
             "disk": "d", "n_items": 4, "itemsize": 4, "cost": 0.5}
        )
        assert (e.queued, e.stream, e.offset) == (-1.0, "", -1)

    def test_decode_errors_are_unchanged(self):
        with pytest.raises(ValueError, match="unknown event kind 'bogus'"):
            event_from_dict({"kind": "bogus"})
        with pytest.raises(ValueError, match="unknown event kind None"):
            event_from_dict({"t": 0.0})
        # The first missing required field, in declaration order, is named.
        with pytest.raises(
            ValueError, match="event 'block_read' is missing field 'node'"
        ):
            event_from_dict({"kind": "block_read", "t": 0.0})


class TestStreamingWriter:
    def test_real_run_matches_reference_rendering(self, tmp_path):
        perf = PerfVector([1, 1, 4, 4])
        data = make_benchmark(0, perf.nearest_exact(8_000), seed=0)
        cluster = Cluster(heterogeneous_cluster([1.0, 1.0, 4.0, 4.0], memory_items=1024))
        cluster.bus.set_level("full")
        sort_array(cluster, perf, data, PSRSConfig(block_items=64, message_items=512))
        events = cluster.bus.events
        assert len(events) > exporters.JSONL_CHUNK_LINES  # several chunks
        meta = {"n_items": int(data.size), "perf": [1, 1, 4, 4], "note": "é\"x"}
        path = tmp_path / "run.jsonl"
        write_jsonl(str(path), events, meta)
        assert path.read_bytes() == reference_jsonl(events, meta).encode()

    @pytest.mark.parametrize("chunk", [1, 2, 3, 13, 14])
    @pytest.mark.parametrize("with_meta", [False, True])
    def test_chunk_boundaries_do_not_change_bytes(
        self, tmp_path, monkeypatch, chunk, with_meta
    ):
        monkeypatch.setattr(exporters, "JSONL_CHUNK_LINES", chunk)
        meta = {"n_items": 8} if with_meta else None
        events = hand_built_events()  # 13 events
        path = tmp_path / "e.jsonl"
        write_jsonl(str(path), iter(events), meta)
        assert path.read_bytes() == reference_jsonl(events, meta).encode()

    @pytest.mark.parametrize("meta", [None, {"n_items": 0}])
    def test_empty_log(self, tmp_path, meta):
        path = tmp_path / "e.jsonl"
        write_jsonl(str(path), [], meta)
        assert path.read_text() == reference_jsonl([], meta)

    def test_memory_is_bounded_by_the_chunk_not_the_log(self, tmp_path):
        """Writing 100k events from a generator never holds the whole log."""
        n = 100_000
        events = (e for _, e in zip(range(n), itertools.cycle(hand_built_events())))
        path = tmp_path / "big.jsonl"
        tracemalloc.start()
        try:
            write_jsonl(str(path), events, {"n_items": n})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 10 * 2**20  # the log itself is larger
        assert peak < 5 * 2**20, f"writer peaked at {peak / 2**20:.1f} MiB"
        with open(path) as fh:
            assert sum(1 for _ in fh) == n + 1


class TestPrometheus:
    def test_counters_and_format(self):
        text = to_prometheus(hand_built_events())
        lines = text.splitlines()
        assert '# TYPE repro_blocks_read_total counter' in lines
        assert 'repro_blocks_read_total{disk="node0.disk",node="0"} 1' in lines
        assert 'repro_items_write_total{disk="node0.disk",node="0"} 256' in lines
        assert 'repro_net_bytes_total{dst="1",src="0"} 1024' in lines
        assert 'repro_mem_in_use_peak_items{node="0"} 256' in lines
        assert 'repro_faults_total{category="disk"} 1' in lines
        assert 'repro_retries_total{step="4:redistribute"} 1' in lines
        # Metric families are emitted sorted and only once.
        names = [ln.split("{")[0] for ln in lines if ln and not ln.startswith("#")]
        assert names == sorted(names)


class TestRealRunTrace:
    @pytest.mark.parametrize("kernel", ["event", "lockstep"])
    def test_sorted_run_has_five_step_spans_per_node(self, kernel):
        perf = PerfVector([1, 1, 4, 4])
        n = perf.nearest_exact(16_000)
        data = make_benchmark(0, n, seed=0)
        cluster = Cluster(
            heterogeneous_cluster([1.0, 1.0, 4.0, 4.0], memory_items=2048),
            kernel=kernel,
        )
        cluster.bus.set_level("io")
        sort_array(
            cluster, perf, data, PSRSConfig(block_items=256, message_items=2048)
        )
        trace = to_chrome_trace(cluster.bus.events)
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        ts = [e["ts"] for e in spans]
        assert ts == sorted(ts)
        for rank in range(4):
            steps = [
                e for e in spans if e["pid"] == rank and e.get("cat") == "step"
            ]
            assert len(steps) >= 5
        assert all(e["dur"] >= 0 for e in spans)
