"""Host-time, memory and model-cost benchmark for ``repro`` sort and lint.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-1m --seed 1 --seconds 40 --trace 0

The command generates its inputs from ``--seed``, drives the program
through its public library calls for ``--seconds`` seconds of whole
operations, checks every operation's output against references it
computes itself, and prints one JSON object as its last line::

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of untraced operations.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of the traced ones (see ``tracer.py``), plus
``trace.overhead_s``, the traced minus the untraced median wall time.
Each metric is the median over the operations of the run.  The spans of
a traced run are written to ``.perfbench/<workload>.spans.npz`` in the
checkout, and the event log of ``audited-p16-zipf`` beside them.

The benchmark imports the program from ``src/`` beside this directory;
it changes no source file.  See README.md for the workloads, the metrics
and the layer each per-layer metric belongs to.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import checks
from tracer import Tracer, step_layer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "repro" / "core" / "in_core_sort.py"
FIXTURE_RULE = "REP002"

#: The sort workloads' PDM and message geometry (the paper's, at 1/128 scale).
N_TARGET = 2**20
M = 2048
B = 256
MESSAGE_ITEMS = 8192

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "sim_s": "s",
    "block_ios": "count",
    "extsort.merge_runs.self_s": "s",
    "extsort.form_runs.self_s": "s",
    "extsort.merge_kernel.calls": "count",
    "extsort.merge_kernel.self_s": "s",
    "pdm.blockfile.calls": "count",
    "pdm.blockfile.self_s": "s",
    "pdm.disk.calls": "count",
    "pdm.disk.self_s": "s",
    "pdm.memory.calls": "count",
    "pdm.memory.self_s": "s",
    "pdm.blocks_read": "count",
    "pdm.blocks_written": "count",
    "cluster.kernel.calls": "count",
    "cluster.kernel.self_s": "s",
    "cluster.network.calls": "count",
    "cluster.network.self_s": "s",
    "cluster.net_bytes": "B",
    "cluster.messages": "count",
    **{f"core.step{i}.host_s": "s" for i in range(1, 6)},
    **{f"core.step{i}.sim_s": "s" for i in range(1, 6)},
    "core.distribute_s": "s",
    "cluster.build_s": "s",
    "setup.import_s": "s",
    "obs.events": "count",
    "obs.bus.self_s": "s",
    "obs.retained_events": "count",
    "obs.export_mb": "MB",
    "obs.audit_s": "s",
    "obs.profile_s": "s",
    "obs.export_s": "s",
    "analysis.files": "count",
    "analysis.shallow_s": "s",
    "analysis.project_s": "s",
    "analysis.deep_s": "s",
    "analysis.protocol_s": "s",
    "analysis.cost_s": "s",
    "trace.overhead_s": "s",
}

#: Per-layer metrics that must repeat exactly from one operation to the next.
EXACT = tuple(
    name
    for name, unit in PER_LAYER.items()
    if unit in ("count", "B") or name == "sim_s" or name.endswith(".sim_s")
)

SORT_MODULES = ("numpy", "repro.cluster.machine", "repro.core.external_psrs")
AUDIT_MODULES = ("repro.obs.audit", "repro.obs.exporters", "repro.obs.profiler")
LINT_MODULES = ("repro.cli", "repro.analysis.cli")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sort" or "lint"
    perf: tuple[int, ...] = ()
    keys: str = ""  # "uniform" or "zipf"
    level: str = "steps"  # telemetry capture level
    audited: bool = False  # audit + profile + JSONL export, as --audit --profile --events

    @property
    def modules(self) -> tuple[str, ...]:
        if self.kind == "lint":
            return LINT_MODULES
        return SORT_MODULES + (AUDIT_MODULES if self.audited else ())


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-1m", "sort", perf=(1, 1, 4, 4), keys="uniform"),
        Workload(
            "audited-p16-zipf",
            "sort",
            perf=(1,) * 4 + (2,) * 4 + (3,) * 4 + (4,) * 4,
            keys="zipf",
            level="full",
            audited=True,
        ),
        Workload("lint-all-cold", "lint"),
    )
}


# -- the program ---------------------------------------------------------------


def load_program() -> None:
    """Put the checkout's ``src/`` first on the path and import the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program at {SRC / 'repro'}; "
            "run from the root of a checkout of the repository"
        )
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def probe_import(modules: tuple[str, ...]) -> float:
    """Seconds to import ``modules`` in a fresh interpreter."""
    code = (
        "import importlib, sys, time\n"
        "t = time.perf_counter()\n"
        "for m in sys.argv[1:]:\n"
        "    importlib.import_module(m)\n"
        "print(time.perf_counter() - t)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *modules],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def install_layers(tracer: Tracer, kind: str) -> None:
    """Wrap each layer's public functions and methods for one traced op."""
    if kind == "lint":
        import repro.analysis.cli as acli

        tracer.patch_function(acli, "analyze_source", "analysis.shallow")
        tracer.patch_function(acli, "load_project", "analysis.project")
        tracer.patch_function(acli, "analyze_deep", "analysis.deep")
        tracer.patch_function(acli, "analyze_protocol", "analysis.protocol")
        tracer.patch_function(acli, "analyze_cost", "analysis.cost")
        return
    from repro.cluster.kernel import EventKernel
    from repro.cluster.network import Network
    from repro.extsort import losertree, multiway, runs
    from repro.faults.recovery import StepRunner
    from repro.obs.bus import TelemetryBus
    from repro.pdm.blockfile import BlockFile, BlockReader, BlockWriter
    from repro.pdm.disk import SimDisk
    from repro.pdm.memory import MemoryManager

    tracer.patch_function(multiway, "merge_runs", "extsort.merge_runs")
    tracer.patch_function(runs, "form_runs", "extsort.form_runs")
    tracer.patch_function(losertree, "merge_two_sorted", "extsort.merge_kernel")
    tracer.patch_function(losertree, "kway_merge_sorted", "extsort.merge_kernel")
    for cls, attrs in (
        (BlockFile, ("append_block", "read_block")),
        (BlockWriter, ("write", "write_one", "close")),
        (BlockReader, ("read_all",)),
    ):
        for attr in attrs:
            tracer.patch_method(cls, attr, "pdm.blockfile")
    tracer.patch_method(SimDisk, "charge_read", "pdm.disk")
    tracer.patch_method(SimDisk, "charge_write", "pdm.disk")
    tracer.patch_method(MemoryManager, "acquire", "pdm.memory")
    tracer.patch_method(MemoryManager, "release", "pdm.memory")
    tracer.patch_method(EventKernel, "on_io", "cluster.kernel")
    tracer.patch_method(Network, "transfer", "cluster.network")
    tracer.patch_method(TelemetryBus, "emit", "obs.emit")
    for attr in vars(TelemetryBus):
        if attr.startswith("record_"):
            tracer.patch_method(TelemetryBus, attr, "obs.bus")
    tracer.patch_method(StepRunner, "run", step_layer)


# -- inputs --------------------------------------------------------------------


@dataclass
class SortInput:
    perf: Any  # repro.core.perf.PerfVector
    data: np.ndarray
    reference: np.ndarray
    d: int  # largest key multiplicity, counted here


def make_sort_input(w: Workload, seed: int) -> SortInput:
    """The workload's keys from ``seed``; the same seed gives the same keys.

    ``uniform``: n uint32 keys drawn uniformly.  ``zipf``: the recipe of
    the program's benchmark 2 -- about sqrt(n) distinct uint32 values,
    picked with Zipf(1.3)-distributed ranks.
    """
    from repro.core.perf import PerfVector

    perf = PerfVector(list(w.perf))
    n = perf.nearest_exact(N_TARGET)
    rng = np.random.default_rng(seed)
    if w.keys == "uniform":
        data = rng.integers(0, 2**32, size=n, dtype=np.uint32)
    else:
        n_distinct = int(np.sqrt(n))
        ranks = rng.zipf(1.3, size=n) % n_distinct
        values = rng.integers(0, 2**32, size=n_distinct, dtype=np.uint32)
        data = values[ranks]
    reference = np.sort(data)
    _, counts = np.unique(reference, return_counts=True)
    return SortInput(perf, data, reference, int(counts.max()))


# -- operations ----------------------------------------------------------------


@dataclass
class OpResult:
    wall_s: float
    setup_s: float
    fails: list[str]
    layer: dict[str, float]  # per-op per-layer values (counts, model figures)
    log: Optional[tuple[Path, int, bool]] = None  # (path, events, audit ok)


def sort_op(w: Workload, inp: SortInput, tracer: Optional[Tracer]) -> OpResult:
    from repro.cluster.machine import Cluster, heterogeneous_cluster
    from repro.cluster.network import FAST_ETHERNET
    from repro.core import external_psrs as ext

    if w.audited:
        from repro.obs import audit, exporters, profiler

    span: Callable[[str], Any] = tracer.span if tracer else (lambda _n: nullcontext())
    cfg = ext.PSRSConfig(block_items=B, message_items=MESSAGE_ITEMS)
    t0 = time.perf_counter()
    with span("cluster.build"):
        cluster = Cluster(
            heterogeneous_cluster(
                [float(v) for v in w.perf],
                memory_items=M,
                link=FAST_ETHERNET,
            ),
            kernel="event",
        )
        cluster.bus.set_level(w.level)
    with span("core.distribute"):
        inputs = ext.distribute_array(cluster, inp.perf, inp.data, B)
    t1 = time.perf_counter()
    res = ext.sort_distributed(cluster, inp.perf, inputs, cfg)
    if w.audited:
        meta = audit.RunMeta(
            n_items=res.n_items,
            perf=w.perf,
            memory_items=M,
            block_items=B,
            oversample=cfg.oversample,
            d_duplicates=inp.d,
        )
        log_path = OUT / f"{w.name}.events.jsonl"
        with span("obs.profile"):
            prof = profiler.RunProfile.from_cluster(cluster, block_items=B)
        with span("obs.audit"):
            report = audit.audit_run(cluster.bus.events, meta)
        with span("obs.export"):
            exporters.write_jsonl(
                str(log_path),
                cluster.bus.events,
                {**meta.to_dict(), "hw": prof.hw.to_dict()},
            )
    t2 = time.perf_counter()

    fails = checks.check_sorted_output(res.to_array(), inp.reference)
    fails += checks.check_partition(res.received_sizes, w.perf, inp.data.size, inp.d)
    fails += checks.check_memory(
        [nd.mem.high_water for nd in cluster.nodes],
        [nd.mem.in_use for nd in cluster.nodes],
        M,
    )
    layer = {
        "sim_s": res.elapsed,
        "block_ios": res.io.blocks_read + res.io.blocks_written,
        "pdm.blocks_read": res.io.blocks_read,
        "pdm.blocks_written": res.io.blocks_written,
        "cluster.net_bytes": res.network_bytes,
        "cluster.messages": res.network_messages,
        "obs.retained_events": len(cluster.bus.events),
        "obs.export_mb": 0.0,
    }
    for step, seconds in res.step_times.items():
        head = step.split(":", 1)[0]
        if head.isdigit():
            layer[f"core.step{head}.sim_s"] = seconds
    log = None
    if w.audited:
        if not report.ok:
            fails.append(f"audit failed: {len(report.violations)} violation(s)")
        fails += checks.check_critical_path(prof.critical.total, res.elapsed)
        layer["obs.export_mb"] = log_path.stat().st_size / 2**20
        log = (log_path, len(cluster.bus.events), report.ok)
    return OpResult(t2 - t1, t1 - t0, fails, layer, log)


@dataclass
class LintInput:
    target: str
    n_py_files: int


def make_lint_input() -> LintInput:
    package = SRC / "repro"
    return LintInput(os.path.relpath(package), sum(1 for _ in package.rglob("*.py")))


def lint_args(argv: list[str]) -> argparse.Namespace:
    """The parsed arguments of ``repro lint --format json <argv>``."""
    from repro.cli import build_parser

    return build_parser().parse_args(["lint", "--format", "json", *argv])


def run_lint(args: argparse.Namespace) -> tuple[int, dict, str]:
    """One lint pass in process: (exit code, JSON report, stderr text)."""
    from repro.analysis.cli import run_lint as program_run_lint

    out, err = io.StringIO(), io.StringIO()
    code = program_run_lint(args, out=out, err=err)
    text = out.getvalue()
    return code, json.loads(text) if text.strip() else {}, err.getvalue()


def lint_op(w: Workload, inp: LintInput, tracer: Optional[Tracer]) -> OpResult:
    t0 = time.perf_counter()
    args = lint_args(["--all", "--no-cache", inp.target])
    t1 = time.perf_counter()
    code, report, err = run_lint(args)
    t2 = time.perf_counter()
    fails = checks.check_lint(code, report, inp.n_py_files)
    if err.strip():
        fails.append(f"lint wrote to stderr: {err.strip()[:200]}")
    return OpResult(t2 - t1, t1 - t0, fails, {})


# -- metrics -------------------------------------------------------------------


def layer_metrics(op: OpResult, summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one traced op from its span summary."""

    def s(name: str, field: str) -> float:
        return summary.get(name, {}).get(field, 0)

    m: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    m.update(op.layer)
    for layer in ("extsort.merge_runs", "extsort.form_runs"):
        m[f"{layer}.self_s"] = s(layer, "self_s")
    for layer in ("extsort.merge_kernel", "pdm.blockfile", "pdm.disk", "pdm.memory", "cluster.kernel", "cluster.network"):
        m[f"{layer}.calls"] = s(layer, "calls")
        m[f"{layer}.self_s"] = s(layer, "self_s")
    for i in range(1, 6):
        m[f"core.step{i}.host_s"] = s(f"core.step{i}", "total_s")
    m["core.distribute_s"] = s("core.distribute", "total_s")
    m["cluster.build_s"] = s("cluster.build", "total_s")
    m["obs.events"] = s("obs.emit", "calls")
    m["obs.bus.self_s"] = s("obs.bus", "self_s") + s("obs.emit", "self_s")
    for part in ("audit", "profile", "export"):
        m[f"obs.{part}_s"] = s(f"obs.{part}", "total_s")
    m["analysis.files"] = s("analysis.shallow", "calls")
    for part in ("shallow", "project", "deep", "protocol", "cost"):
        m[f"analysis.{part}_s"] = s(f"analysis.{part}", "total_s")
    return m


# -- the run -------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[workload]
    load_program()
    OUT.mkdir(exist_ok=True)
    fails: list[str] = []
    if w.kind == "sort":
        inp: Any = make_sort_input(w, seed)
        op_fn: Callable[..., OpResult] = sort_op
    else:
        inp = make_lint_input()
        op_fn = lint_op
        code, report, _ = run_lint(
            lint_args(["--no-cache", "--no-baseline", os.path.relpath(FIXTURE)])
        )
        fails += checks.check_fixture_flagged(code, report, FIXTURE_RULE)

    attempted = failed = 0
    untraced: list[OpResult] = []
    traced: list[dict[str, float]] = []
    traced_walls: list[float] = []
    model_rows: list[dict[str, float]] = []  # every op's model figures
    import_s: list[float] = []
    last_log = None
    tracer = Tracer() if trace else None

    def attempt(t: Optional[Tracer]) -> None:
        nonlocal attempted, failed, last_log
        attempted += 1
        mark = len(t.name_id) if t is not None else 0
        try:
            # an operation's set-up starts with the imports of a fresh process
            imports = probe_import(w.modules)
            gc.collect()
            if t is not None:
                with t.installed(lambda tr: install_layers(tr, w.kind)):
                    op = op_fn(w, inp, t)
            else:
                op = op_fn(w, inp, None)
        except Exception:
            failed += 1
            traceback.print_exc()
            return
        import_s.append(imports)
        fails.extend(op.fails)
        model_rows.append({k: v for k, v in op.layer.items() if k in EXACT})
        if op.log is not None:
            last_log = op.log
        if t is not None:
            traced.append(layer_metrics(op, t.summary(mark)))
            traced_walls.append(op.wall_s)
        else:
            op.setup_s += imports
            untraced.append(op)

    deadline = time.perf_counter() + seconds
    while True:
        attempt(None)
        if tracer is not None:
            attempt(tracer)  # a round is one untraced and one traced op
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    fails += checks.check_repeats(model_rows)
    fails += checks.check_repeats([{k: r[k] for k in EXACT} for r in traced])
    if last_log is not None:  # after the RSS reading: reading back is not the op
        from repro.obs.audit import RunMeta, audit_run
        from repro.obs.exporters import read_jsonl

        path, n_events, ok = last_log
        meta, events = read_jsonl(str(path))
        ok_read = audit_run(events, RunMeta.from_dict(meta or {})).ok
        fails += checks.check_log_readback(len(events), ok_read, n_events, ok)

    if not untraced or (trace and not traced):
        raise SystemExit(f"perfbench: {failed} of {attempted} operations failed")
    wall_untraced = statistics.median(op.wall_s for op in untraced)
    if trace:
        metrics = {name: statistics.median(r[name] for r in traced) for name in PER_LAYER}
        metrics["setup.import_s"] = statistics.median(import_s)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - wall_untraced
        tracer.write(OUT / f"{w.name}.spans.npz")
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": wall_untraced,
            "setup_s": statistics.median(op.setup_s for op in untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    for msg in dict.fromkeys(fails):  # each distinct failure once
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    return {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name:<28} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
