"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest -q perfbench

The command-level tests run the benchmark for one operation per workload
and take about a minute and a half.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer as tracer_mod
from tracer import Tracer, step_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- tracer ----------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch: pytest.MonkeyPatch) -> FakeClock:
    fake = FakeClock()
    monkeypatch.setattr(tracer_mod.time, "perf_counter", fake.perf_counter)
    return fake


def test_self_time_of_nested_calls(clock: FakeClock) -> None:
    tr = Tracer()

    def leaf() -> None:
        clock.now += 3.0

    def middle() -> None:
        clock.now += 1.0
        leaf()
        clock.now += 0.5

    def outer() -> None:
        clock.now += 2.0
        middle()
        leaf()
        clock.now += 4.0

    leaf, middle, outer = (
        tr.wrap(leaf, "leaf"),
        tr.wrap(middle, "middle"),
        tr.wrap(outer, "outer"),
    )
    outer()
    with tr.span("bench"):
        clock.now += 1.25
        leaf()

    s = tr.summary()
    assert s["outer"] == {"calls": 1, "total_s": 13.5, "self_s": 6.0}
    assert s["middle"] == {"calls": 1, "total_s": 4.5, "self_s": 1.5}
    assert s["leaf"] == {"calls": 3, "total_s": 9.0, "self_s": 9.0}
    assert s["bench"] == {"calls": 1, "total_s": 4.25, "self_s": 1.25}
    # self times tile the traced interval exactly
    assert sum(v["self_s"] for v in s.values()) == clock.now


def test_summary_from_a_mark_counts_later_spans_only(clock: FakeClock) -> None:
    tr = Tracer()
    f = tr.wrap(lambda: setattr(clock, "now", clock.now + 1.0), "f")
    f()
    mark = len(tr.name_id)
    f()
    f()
    assert tr.summary(mark)["f"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_span_closes_when_the_call_raises(clock: FakeClock) -> None:
    tr = Tracer()

    def boom() -> None:
        clock.now += 2.0
        raise ValueError("x")

    wrapped = tr.wrap(boom, "boom")
    with pytest.raises(ValueError):
        wrapped()
    with tr.span("after"):
        pass
    assert tr.summary()["boom"]["total_s"] == 2.0
    assert list(tr.parent) == [-1, -1]  # "after" did not nest in "boom"


def test_step_names_become_layer_names() -> None:
    assert step_layer(None, None, "1:local-sort", None) == "core.step1"
    assert step_layer(None, None, "5:final-merge", None) == "core.step5"
    assert step_layer(None, None, "recover:salvage", None) == "core.recover"


def test_patch_function_wraps_from_import_bindings_and_restores() -> None:
    run.load_program()
    from repro.core import external_psrs
    from repro.extsort import multiway

    original = multiway.merge_runs
    tr = Tracer()
    tr.patch_function(multiway, "merge_runs", "extsort.merge_runs")
    try:
        assert multiway.merge_runs is not original
        assert external_psrs.merge_runs is multiway.merge_runs
    finally:
        tr.unpatch()
    assert multiway.merge_runs is original
    assert external_psrs.merge_runs is original


# -- output checks -----------------------------------------------------------------


@pytest.fixture(scope="module")
def ref() -> np.ndarray:
    return np.sort(np.random.default_rng(7).integers(0, 2**32, size=5000, dtype=np.uint32))


def test_sorted_output_check_accepts_the_reference(ref) -> None:
    assert checks.check_sorted_output(ref.copy(), ref) == []


def test_sorted_output_check_rejects_a_swapped_adjacent_pair(ref) -> None:
    out = ref.copy()
    i = int(np.flatnonzero(np.diff(out) > 0)[100])
    out[i], out[i + 1] = out[i + 1], out[i]
    assert checks.check_sorted_output(out, ref)


def test_checks_reject_a_dropped_item(ref) -> None:
    assert checks.check_sorted_output(np.delete(ref, 1234), ref)
    perf = [1, 1, 4, 4]
    received = [500, 500, 2000, 1999]  # one item short of n = 5000
    assert checks.check_partition(received, perf, 5000, d=1)
    assert checks.check_partition([500, 500, 2000, 2000], perf, 5000, d=1) == []


def test_partition_check_rejects_an_overloaded_node() -> None:
    # node 0's share is 500; 2*500 + d + p = 1005
    assert checks.check_partition([1006, 494, 1750, 1750], [1, 1, 4, 4], 5000, d=1)
    assert checks.check_partition([1005, 495, 1750, 1750], [1, 1, 4, 4], 5000, d=1) == []


def test_memory_check_rejects_overrun_and_leak() -> None:
    assert checks.check_memory([2048, 2048], [0, 0], 2048) == []
    assert checks.check_memory([2049, 100], [0, 0], 2048)
    assert checks.check_memory([2048, 100], [0, 256], 2048)


def test_repeats_check_rejects_an_operation_that_differs() -> None:
    rows = [{"sim_s": 1.5, "block_ios": 40}, {"sim_s": 1.5, "block_ios": 40}]
    assert checks.check_repeats(rows) == []
    assert checks.check_repeats(rows + [{"sim_s": 1.5, "block_ios": 41}])
    assert checks.check_repeats(rows + [{"sim_s": 1.5000001, "block_ios": 40}])


def test_critical_path_check() -> None:
    assert checks.check_critical_path(1.7709064152581997, 1.7709064152581997) == []
    assert checks.check_critical_path(1.76, 1.7709064152581997)


@pytest.fixture(scope="module")
def small_log(tmp_path_factory: pytest.TempPathFactory):
    """A real audited run at small scale, its log written as the benchmark does."""
    run.load_program()
    from repro.cluster.machine import Cluster, heterogeneous_cluster
    from repro.core.external_psrs import PSRSConfig, sort_array
    from repro.core.perf import PerfVector
    from repro.obs.audit import RunMeta, audit_run
    from repro.obs.exporters import write_jsonl

    perf = PerfVector([1, 1, 2, 2])
    data = np.random.default_rng(3).integers(0, 2**32, size=perf.nearest_exact(16384), dtype=np.uint32)
    cluster = Cluster(heterogeneous_cluster([1.0, 1.0, 2.0, 2.0], memory_items=1024))
    cluster.bus.set_level("full")
    res = sort_array(cluster, perf, data, PSRSConfig(block_items=64))
    _, counts = np.unique(data, return_counts=True)
    meta = RunMeta(res.n_items, (1, 1, 2, 2), 1024, 64, 4, int(counts.max()))
    report = audit_run(cluster.bus.events, meta)
    path = tmp_path_factory.mktemp("log") / "run.jsonl"
    write_jsonl(str(path), cluster.bus.events, meta.to_dict())
    return path, len(cluster.bus.events), report.ok


def _read_back(path: Path) -> tuple[int, bool]:
    from repro.obs.audit import RunMeta, audit_run
    from repro.obs.exporters import read_jsonl

    meta, events = read_jsonl(str(path))
    return len(events), audit_run(events, RunMeta.from_dict(meta)).ok


def test_log_readback_check_accepts_the_written_log(small_log) -> None:
    path, n_events, ok = small_log
    assert ok
    assert checks.check_log_readback(*_read_back(path), n_events, ok) == []


def test_log_readback_check_rejects_a_log_with_one_event_removed(small_log, tmp_path) -> None:
    path, n_events, ok = small_log
    lines = path.read_text().splitlines(keepends=True)
    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join(lines[:10] + lines[11:]))  # line 0 is run_meta
    assert checks.check_log_readback(*_read_back(cut), n_events, ok)


def test_lint_checks() -> None:
    clean = {"findings": [], "summary": {"files": 97}}
    assert checks.check_lint(0, clean, 97) == []
    assert checks.check_lint(0, clean, 98)
    dirty = {"findings": [{"rule": "REP002"}], "summary": {"files": 97}}
    assert checks.check_lint(1, dirty, 97)
    assert checks.check_fixture_flagged(1, dirty, "REP002") == []
    assert checks.check_fixture_flagged(0, clean, "REP002")


# -- the command ---------------------------------------------------------------------


def test_metric_tables_match_benchmark_json() -> None:
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert declared == run.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


def _last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_printed_metric_is_declared_with_its_unit(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 1 + trace
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCH[kind]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-1m",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
