"""Seeded one-axis-at-a-time scenario mutations.

Every mutator takes ``(rng, scenario)`` and perturbs exactly one axis —
the workload, the input size, one perf entry, one PDM knob, the fault
plan — leaving the rest of the scenario untouched, so a corpus walk
explores the space in small, attributable moves (and the shrinker can
undo them axis by axis).

The mutator set is *closed* over :meth:`Scenario.validate`:
:func:`mutate` only ever returns validated scenarios, retrying with
fresh random draws when a candidate lands outside the envelope (e.g.
shrinking the perf vector under a fault plan that targets the dropped
node).  All randomness flows through the caller's
``numpy.random.Generator``, so a fuzz run is a pure function of its
seed.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from repro.extsort.polyphase import MIN_MEMORY_BLOCKS
from repro.faults.plan import DiskFault, FaultPlan, MessageFault, NodeKill
from repro.fuzz.scenario import (
    DTYPES,
    MAX_MEMORY,
    MAX_MESSAGE,
    MAX_N,
    MAX_OVERSAMPLE,
    MAX_P,
    MAX_PERF,
    MAX_RETRIES,
    MIN_BLOCK,
    MAX_BLOCK,
    MIN_MESSAGE,
    MIN_N,
    PIVOT_METHODS,
    WORKLOADS,
    Scenario,
    ScenarioError,
)

T = TypeVar("T")

Mutator = Callable[[np.random.Generator, Scenario], Scenario]


def _choice(rng: np.random.Generator, seq: Sequence[T]) -> T:
    return seq[int(rng.integers(len(seq)))]


def _other(rng: np.random.Generator, seq: Sequence[T], current: T) -> T:
    options = [v for v in seq if v != current]
    return _choice(rng, options) if options else current


def _scale_int(
    rng: np.random.Generator, value: int, lo: int, hi: int
) -> int:
    """One multiplicative step on a size-like axis, clamped to [lo, hi]."""
    factor = _choice(rng, (0.5, 0.75, 1.5, 2.0))
    return max(lo, min(hi, int(round(value * factor))))


# -- workload axes ----------------------------------------------------------


def mut_benchmark(rng: np.random.Generator, s: Scenario) -> Scenario:
    return s.with_(benchmark=_other(rng, WORKLOADS, s.benchmark))


def mut_dtype(rng: np.random.Generator, s: Scenario) -> Scenario:
    return s.with_(dtype=_other(rng, DTYPES, s.dtype))


def mut_n_items(rng: np.random.Generator, s: Scenario) -> Scenario:
    return s.with_(n_items=_scale_int(rng, s.n_items, MIN_N, MAX_N))


def mut_seed(rng: np.random.Generator, s: Scenario) -> Scenario:
    return s.with_(seed=int(rng.integers(1 << 16)))


# -- cluster axes -----------------------------------------------------------


def mut_perf_value(rng: np.random.Generator, s: Scenario) -> Scenario:
    i = int(rng.integers(s.p))
    perf = list(s.perf)
    perf[i] = int(_other(rng, range(1, MAX_PERF + 1), perf[i]))
    return s.with_(perf=tuple(perf))


def mut_perf_grow(rng: np.random.Generator, s: Scenario) -> Scenario:
    if s.p >= MAX_P:
        return mut_perf_value(rng, s)
    return s.with_(perf=s.perf + (int(rng.integers(1, MAX_PERF + 1)),))


def mut_perf_shrink(rng: np.random.Generator, s: Scenario) -> Scenario:
    if s.p <= 1:
        return mut_perf_value(rng, s)
    i = int(rng.integers(s.p))
    return s.with_(perf=s.perf[:i] + s.perf[i + 1:])


# -- PDM / algorithm axes ---------------------------------------------------


def mut_block(rng: np.random.Generator, s: Scenario) -> Scenario:
    block = _scale_int(rng, s.block_items, MIN_BLOCK, MAX_BLOCK)
    memory = max(s.memory_items, MIN_MEMORY_BLOCKS * block)
    return s.with_(block_items=block, memory_items=min(memory, MAX_MEMORY))


def mut_memory(rng: np.random.Generator, s: Scenario) -> Scenario:
    floor = MIN_MEMORY_BLOCKS * s.block_items
    return s.with_(memory_items=_scale_int(rng, s.memory_items, floor, MAX_MEMORY))


def mut_message(rng: np.random.Generator, s: Scenario) -> Scenario:
    return s.with_(
        message_items=_scale_int(rng, s.message_items, MIN_MESSAGE, MAX_MESSAGE)
    )


def mut_pivot(rng: np.random.Generator, s: Scenario) -> Scenario:
    return s.with_(pivot_method=_other(rng, PIVOT_METHODS, s.pivot_method))


def mut_oversample(rng: np.random.Generator, s: Scenario) -> Scenario:
    return s.with_(
        oversample=int(_other(rng, range(1, MAX_OVERSAMPLE + 1), s.oversample))
    )


def mut_retries(rng: np.random.Generator, s: Scenario) -> Scenario:
    options: list[Optional[int]] = [None, 1, 2, 3, MAX_RETRIES]
    return s.with_(retries=_other(rng, options, s.retries))


# -- fault-plan axes --------------------------------------------------------


def _plan(s: Scenario) -> FaultPlan:
    return s.fault_plan if s.fault_plan is not None else FaultPlan(seed=s.seed)


def mut_fault_disk(rng: np.random.Generator, s: Scenario) -> Scenario:
    plan = _plan(s)
    fault = DiskFault(
        node=int(rng.integers(s.p)),
        after_ios=int(rng.integers(0, 64)),
        count=int(rng.integers(1, 3)),
    )
    return s.with_(
        fault_plan=FaultPlan(
            disk_faults=plan.disk_faults + (fault,),
            message_faults=plan.message_faults,
            node_kills=plan.node_kills,
            seed=plan.seed,
        ),
        # a transient fault needs a retry budget to be recoverable
        retries=s.retries if s.retries is not None else 3,
    )


def mut_fault_message(rng: np.random.Generator, s: Scenario) -> Scenario:
    plan = _plan(s)
    fault = MessageFault(
        fail_after=int(rng.integers(0, 16)),
        count=int(rng.integers(1, 3)),
    )
    return s.with_(
        fault_plan=FaultPlan(
            disk_faults=plan.disk_faults,
            message_faults=plan.message_faults + (fault,),
            node_kills=plan.node_kills,
            seed=plan.seed,
        ),
        retries=s.retries if s.retries is not None else 3,
    )


def mut_fault_kill(rng: np.random.Generator, s: Scenario) -> Scenario:
    plan = _plan(s)
    killed = {k.node for k in plan.node_kills}
    survivors = [r for r in range(s.p) if r not in killed]
    if len(survivors) <= 1:
        return mut_fault_clear(rng, s)
    kill = NodeKill(node=_choice(rng, survivors), step=int(rng.integers(2, 6)))
    return s.with_(
        fault_plan=FaultPlan(
            disk_faults=plan.disk_faults,
            message_faults=plan.message_faults,
            node_kills=plan.node_kills + (kill,),
            seed=plan.seed,
        )
    )


def mut_fault_kill_gap(rng: np.random.Generator, s: Scenario) -> Scenario:
    """Kill an *interior* surviving rank, leaving a non-contiguous
    survivor set ({0, 2, 3}-shaped).

    After such a kill every survivor past the gap has a view position
    different from its global rank — the exact surface the REP206
    protocol rule (and the PR 4/PR 5 dynamic bugs) covers, which a
    random kill only sometimes produces.
    """
    plan = _plan(s)
    killed = {k.node for k in plan.node_kills}
    survivors = [r for r in range(s.p) if r not in killed]
    interior = survivors[1:-1]  # keep both endpoint ranks alive
    if not interior:
        return mut_fault_kill(rng, s)
    kill = NodeKill(node=_choice(rng, interior), step=int(rng.integers(2, 6)))
    return s.with_(
        fault_plan=FaultPlan(
            disk_faults=plan.disk_faults,
            message_faults=plan.message_faults,
            node_kills=plan.node_kills + (kill,),
            seed=plan.seed,
        )
    )


def mut_fault_clear(rng: np.random.Generator, s: Scenario) -> Scenario:
    return s.with_(fault_plan=None)


#: The full mutator set, by stable name (names are recorded in case files
#: so a shrunk violation remembers the path that found it).
MUTATORS: tuple[tuple[str, Mutator], ...] = (
    ("benchmark", mut_benchmark),
    ("dtype", mut_dtype),
    ("n-items", mut_n_items),
    ("seed", mut_seed),
    ("perf-value", mut_perf_value),
    ("perf-grow", mut_perf_grow),
    ("perf-shrink", mut_perf_shrink),
    ("block", mut_block),
    ("memory", mut_memory),
    ("message", mut_message),
    ("pivot", mut_pivot),
    ("oversample", mut_oversample),
    ("retries", mut_retries),
    ("fault-disk", mut_fault_disk),
    ("fault-message", mut_fault_message),
    ("fault-kill", mut_fault_kill),
    ("fault-kill-gap", mut_fault_kill_gap),
    ("fault-clear", mut_fault_clear),
)


def mutate(
    rng: np.random.Generator,
    scenario: Scenario,
    *,
    max_tries: int = 32,
) -> tuple[str, Scenario]:
    """One validated single-axis mutation of ``scenario``.

    Draws a mutator (and fresh axis values) until the candidate both
    passes :meth:`Scenario.validate` and actually differs from the
    input.  Falls back to a seed bump — always valid, always different —
    if ``max_tries`` draws all miss, so the fuzz loop can never stall.
    """
    for _ in range(max_tries):
        name, fn = _choice(rng, MUTATORS)
        try:
            candidate = fn(rng, scenario).validate()
        except ScenarioError:
            continue
        if candidate != scenario:
            return name, candidate
    return "seed", scenario.with_(seed=scenario.seed + 1).validate()
