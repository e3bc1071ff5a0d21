"""Output checks that do not rely on the program's own verdicts.

Every check compares against a reference the benchmark computes itself,
or against a property the method must have.  Each returns a list of
failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def check_sorted_output(output: np.ndarray, reference: np.ndarray) -> list[str]:
    """The concatenated node outputs equal ``np.sort`` of the input."""
    if output.shape != reference.shape:
        return [f"output has {output.size} items, input has {reference.size}"]
    if not np.array_equal(output, reference):
        first = int(np.flatnonzero(output != reference)[0])
        return [f"output differs from np.sort(input) first at index {first}"]
    return []


def check_partition(
    received: Sequence[int],
    perf: Sequence[int],
    n: int,
    d: int,
) -> list[str]:
    """Received sizes sum to n; node i gets at most 2*share_i + d + p.

    ``share_i = n * perf_i / sum(perf)`` is node i's perf-proportional
    share and ``d`` the largest key multiplicity, both counted by the
    benchmark.
    """
    fails = []
    if sum(received) != n:
        fails.append(f"received sizes sum to {sum(received)}, expected {n}")
    p, total = len(perf), sum(perf)
    for i, (got, v) in enumerate(zip(received, perf)):
        bound = 2.0 * n * v / total + d + p
        if got > bound:
            fails.append(f"node {i} received {got} > 2*share+d+p = {bound:.0f}")
    return fails


def check_memory(high_water: Sequence[int], in_use: Sequence[int], M: int) -> list[str]:
    """Every node stayed within M items and ends with nothing in use."""
    fails = []
    for i, (hw, now) in enumerate(zip(high_water, in_use)):
        if hw > M:
            fails.append(f"node {i} memory high-water {hw} > M={M}")
        if now != 0:
            fails.append(f"node {i} ends with {now} items in use")
    return fails


def check_repeats(rows: Sequence[dict[str, float]]) -> list[str]:
    """Every operation gives the first one's model and count figures.

    All operations of a run sort the same input (or lint the same files),
    so simulated seconds, block and message counts and call counts must
    be identical; a difference means the program is not deterministic.
    """
    fails = []
    for i, row in enumerate(rows[1:], 1):
        for name, first in rows[0].items():
            if row.get(name) != first:
                fails.append(
                    f"operation {i} gives {name} = {row.get(name)!r}, "
                    f"operation 0 gave {first!r}"
                )
    return fails


def check_critical_path(critical_total: float, sim_s: float) -> list[str]:
    """The profiler's critical path spans the whole simulated run."""
    if not math.isclose(critical_total, sim_s, rel_tol=1e-9, abs_tol=1e-12):
        return [f"critical path total {critical_total!r} != sim_s {sim_s!r}"]
    return []


def check_log_readback(
    n_events_read: int,
    ok_read: bool,
    n_events_run: int,
    ok_run: bool,
) -> list[str]:
    """A written event log reads back whole, with the same audit verdict."""
    fails = []
    if n_events_read != n_events_run:
        fails.append(f"log reads back {n_events_read} events, run had {n_events_run}")
    if ok_read != ok_run:
        fails.append(f"audit of the log says ok={ok_read}, of the run ok={ok_run}")
    return fails


def check_lint(
    exit_code: int,
    report: dict,
    n_py_files: int,
) -> list[str]:
    """A lint pass over the package is clean and saw every module."""
    fails = []
    if exit_code != 0:
        fails.append(f"lint exited {exit_code}")
    if report.get("findings"):
        codes = sorted({f["rule"] for f in report["findings"]})
        fails.append(f"lint reported {len(report['findings'])} finding(s): {codes}")
    files = report.get("summary", {}).get("files")
    if files != n_py_files:
        fails.append(f"lint analysed {files} files, the package has {n_py_files}")
    return fails


def check_fixture_flagged(exit_code: int, report: dict, rule: str) -> list[str]:
    """A known-violating fixture is flagged with its expected rule."""
    codes = {f["rule"] for f in report.get("findings", [])}
    if exit_code != 1 or rule not in codes:
        return [f"fixture not flagged {rule}: exit {exit_code}, rules {sorted(codes)}"]
    return []
