"""Typed telemetry events.

Every event is a frozen, keyword-only dataclass carrying the three
attribution fields the whole observability layer is built on:

``t``
    Simulated time (seconds) at which the event *completed*, read from
    the owning node's :class:`~repro.cluster.simclock.VirtualClock`.
``node``
    Rank of the node the event belongs to; ``-1`` for cluster-wide
    events with no single owner (e.g. a retry backoff charged to every
    participant).
``step``
    The algorithm step active when the event fired (the bus's
    context-scoped attribution stack), ``""`` outside any step.

Events serialise losslessly to flat JSON objects (``to_dict`` /
:func:`event_from_dict`), which is what the JSONL exporter writes and
the ``repro audit`` replay reads back.  :func:`encode_event` renders
one event as its JSON line directly, byte for byte what
``json.dumps(event.to_dict())`` gives, without building the dict.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Callable, ClassVar, Mapping


@dataclass(frozen=True, kw_only=True)
class Event:
    """Base of every telemetry event (time + node + step attribution)."""

    kind: ClassVar[str] = "event"

    t: float
    node: int
    step: str

    def to_dict(self) -> dict[str, object]:
        """Flat JSON-ready mapping; ``kind`` discriminates the type."""
        codec = _codec(type(self))
        out: dict[str, object] = {"kind": type(self).kind}
        out.update(zip(codec.names, codec.values(self)))
        return out


@dataclass(frozen=True, kw_only=True)
class StepBegin(Event):
    """A node entered a barrier-delimited algorithm step."""

    kind: ClassVar[str] = "step_begin"


@dataclass(frozen=True, kw_only=True)
class StepEnd(Event):
    """A node finished its work inside a step (before the exit barrier)."""

    kind: ClassVar[str] = "step_end"

    duration: float


@dataclass(frozen=True, kw_only=True)
class BarrierWait(Event):
    """Idle time a node spent at a step's exit barrier."""

    kind: ClassVar[str] = "barrier_wait"

    wait: float


@dataclass(frozen=True, kw_only=True)
class BlockRead(Event):
    """One charged block read on a simulated disk.

    ``queued`` is the drive-timeline *service start* of the access (the
    drive is busy over ``[queued, queued + cost]``); ``-1.0`` in logs
    predating the profiler means "unknown, assume ``t - cost``".
    ``stream`` / ``offset`` identify the access as block ``offset`` of
    file ``stream`` (how the event kernel detects sequential
    continuation), ``""`` / ``-1`` when not stream-addressed.
    """

    kind: ClassVar[str] = "block_read"

    disk: str
    n_items: int
    itemsize: int
    cost: float
    queued: float = -1.0
    stream: str = ""
    offset: int = -1


@dataclass(frozen=True, kw_only=True)
class BlockWrite(Event):
    """One charged block write on a simulated disk.

    Same drive-timeline fields as :class:`BlockRead`.  Under the event
    kernel ``t`` is the *issue* time (write-behind does not block the
    node) while ``[queued, queued + cost]`` is when the drive is busy.
    """

    kind: ClassVar[str] = "block_write"

    disk: str
    n_items: int
    itemsize: int
    cost: float
    queued: float = -1.0
    stream: str = ""
    offset: int = -1


@dataclass(frozen=True, kw_only=True)
class NetTransfer(Event):
    """One point-to-point message (``node`` is the sending rank)."""

    kind: ClassVar[str] = "net_transfer"

    src: int
    dst: int
    nbytes: int
    duration: float


@dataclass(frozen=True, kw_only=True)
class Compute(Event):
    """Charged CPU work on a node's clock (capture level ``"full"``).

    ``seconds`` is the simulated clock advance (already scaled by the
    node's speed); ``ops`` is the abstract operation count it was
    charged for, so a replay can re-scale the same work under a
    different perf vector.  Consecutive charges on one node inside one
    step are coalesced by the bus into a single event ending at the
    last charge.
    """

    kind: ClassVar[str] = "compute"

    seconds: float
    ops: float


@dataclass(frozen=True, kw_only=True)
class MemReserve(Event):
    """Items pinned in a node's internal-memory budget."""

    kind: ClassVar[str] = "mem_reserve"

    n_items: int
    in_use: int


@dataclass(frozen=True, kw_only=True)
class MemRelease(Event):
    """Items unpinned from a node's internal-memory budget."""

    kind: ClassVar[str] = "mem_release"

    n_items: int
    in_use: int


@dataclass(frozen=True, kw_only=True)
class FaultInjected(Event):
    """An injected fault fired (disk, network, drop, delay, node kill)."""

    kind: ClassVar[str] = "fault_injected"

    category: str
    detail: str


@dataclass(frozen=True, kw_only=True)
class Retry(Event):
    """A step attempt failed on a transient fault and will be re-run."""

    kind: ClassVar[str] = "retry"

    attempt: int
    backoff: float


#: Registry mapping the JSON ``kind`` discriminator back to its class.
EVENT_TYPES: dict[str, type[Event]] = {
    cls.kind: cls
    for cls in (
        StepBegin,
        StepEnd,
        BarrierWait,
        BlockRead,
        BlockWrite,
        NetTransfer,
        Compute,
        MemReserve,
        MemRelease,
        FaultInjected,
        Retry,
    )
}


# -- codec -------------------------------------------------------------------

#: Field annotation -> (exact value type, ``%`` conversion that renders it
#: as json does): ``%r`` of a finite float is ``float.__repr__`` and ``%d``
#: of an int is ``int.__repr__``, json's own renderings; strings are
#: escaped before formatting, so theirs is ``%s``.  Any other annotation
#: maps to type ``object``, which no value has exactly, so such a field
#: always takes the ``json.dumps`` fallback.
_SLOTS: dict[object, tuple[type, str]] = {
    "float": (float, "%r"),
    "int": (int, "%d"),
    "str": (str, "%s"),
}


@dataclass(frozen=True, slots=True)
class _Codec:
    """One kind's field table and JSON line template."""

    names: tuple[str, ...]
    required: frozenset[str]
    values: Callable[[Event], tuple[object, ...]]
    types: tuple[type, ...]
    template: str
    str_at: tuple[int, ...]
    float_at: tuple[int, ...]


_CODECS: dict[type[Event], _Codec] = {}


def _codec(cls: type[Event]) -> _Codec:
    """The cached codec of ``cls``, built from its fields on first use."""
    codec = _CODECS.get(cls)
    if codec is None:
        fs = fields(cls)
        names = tuple(f.name for f in fs)
        slots = [_SLOTS.get(f.type, (object, "%s")) for f in fs]
        items = [f"{_json_str('kind')}: {_json_str(cls.kind)}"]
        items += [f"{_json_str(n)}: {conv}" for n, (_, conv) in zip(names, slots)]
        codec = _CODECS[cls] = _Codec(
            names=names,
            required=frozenset(
                f.name for f in fs
                if f.default is MISSING and f.default_factory is MISSING
            ),
            # Every event has t/node/step, so this always yields a tuple.
            values=attrgetter(*names),
            types=tuple(tp for tp, _ in slots),
            template="{" + ", ".join(items) + "}",
            str_at=tuple(i for i, (tp, _) in enumerate(slots) if tp is str),
            float_at=tuple(i for i, (tp, _) in enumerate(slots) if tp is float),
        )
    return codec


def _json_str(text: str) -> str:
    """``text`` as a JSON string literal, ``%``-escaped for a template."""
    return encode_basestring_ascii(text).replace("%", "%%")


def encode_event(event: Event) -> str:
    """One event as its JSONL line: exactly ``json.dumps(event.to_dict())``.

    Values of the annotated type fill the kind's cached template; any
    other value (a non-finite float, which json writes as ``NaN`` /
    ``Infinity``, a bool, a numpy scalar, ...) falls back to
    ``json.dumps`` for the whole line.
    """
    codec = _codec(type(event))
    values = codec.values(event)
    if tuple(map(type, values)) != codec.types:
        return json.dumps(event.to_dict())
    for i in codec.float_at:
        if not math.isfinite(values[i]):  # type: ignore[arg-type]
            return json.dumps(event.to_dict())
    slots = list(values)
    for i in codec.str_at:
        slots[i] = encode_basestring_ascii(slots[i])
    return codec.template % tuple(slots)


def event_from_dict(data: Mapping[str, object]) -> Event:
    """Inverse of :meth:`Event.to_dict` (used by the JSONL replay)."""
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in EVENT_TYPES:
        raise ValueError(f"unknown event kind {kind!r}")
    cls = EVENT_TYPES[kind]
    codec = _codec(cls)
    kwargs: dict[str, object] = {}
    for name in codec.names:
        if name in data:
            kwargs[name] = data[name]
        elif name in codec.required:
            # Defaulted fields may be absent (logs written before the
            # field existed deserialise with the default).
            raise ValueError(f"event {kind!r} is missing field {name!r}")
    return cls(**kwargs)  # type: ignore[arg-type]
