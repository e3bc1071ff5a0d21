"""In-memory span tracer that attributes host time to the program's layers.

The tracer works entirely from outside the program: it replaces public
functions and methods with thin wrappers for the duration of a traced
operation and restores the originals afterwards.  A function bound into
another module by ``from ... import`` is replaced under every name that
refers to it, since that is where the program looks it up.

Each call becomes one span (layer name, parent span, start, end).  Spans
stay in memory in flat arrays; :meth:`Tracer.summary` folds them into
per-layer call counts, inclusive seconds and self seconds, where a span's
self time is its duration minus the time its direct child spans cover.
Calls on one thread nest strictly, so the children of a span never
overlap and their durations can simply be summed.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

#: The program's top-level package; only its modules are patched.
PACKAGE = "repro"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(
        self, fn: Callable[..., Any], layer: str | Callable[..., str]
    ) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span.

        ``layer`` is the span name, or a function of the call's arguments
        that returns it (used where one method serves several layers).
        """
        tracer = self
        if callable(layer):
            name_of = layer

            @functools.wraps(fn)
            def traced_named(*args: Any, **kwargs: Any) -> Any:
                idx = tracer._open(tracer._id(name_of(*args, **kwargs)))
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)

            return traced_named
        nid = self._id(layer)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    # -- installing wrappers -------------------------------------------------

    def patch_method(
        self, cls: type, attr: str, layer: str | Callable[..., str]
    ) -> None:
        """Wrap ``cls.attr``, a plain method defined on ``cls``."""
        raw = cls.__dict__[attr]
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, self.wrap(raw, layer))

    def patch_function(self, module: Any, attr: str, layer: str) -> None:
        """Wrap ``module.attr`` under every name the program binds it to."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".", 1)[0] != PACKAGE:
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapped)

    def unpatch(self) -> None:
        """Restore every wrapped function and method."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self, install: Callable[["Tracer"], None]) -> Iterator["Tracer"]:
        install(self)
        try:
            yield self
        finally:
            self.unpatch()

    # -- results -------------------------------------------------------------

    def summary(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per layer: ``calls``, inclusive ``total_s`` and ``self_s``.

        Only spans from index ``first`` on are counted, so one traced
        operation can be summarised while earlier ones stay recorded.
        """
        n = len(self.name_id)
        if n <= first:
            return {}
        ids = _copy(self.name_id, np.int32)
        parent = _copy(self.parent, np.int32)
        dur = _copy(self.end, np.float64) - _copy(self.start, np.float64)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=n
        )
        own = dur - child
        ids, dur, own = ids[first:], dur[first:], own[first:]
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def write(self, path: Path) -> None:
        """Write the recorded spans as flat arrays (``numpy.load``-able)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=_copy(self.name_id, np.int32),
            parent=_copy(self.parent, np.int32),
            start=_copy(self.start, np.float64),
            end=_copy(self.end, np.float64),
        )


def _copy(arr: array, dtype: type) -> np.ndarray:
    # a copy, so no exported buffer keeps the array from growing later
    return np.array(arr, dtype=dtype)


def step_layer(_runner: Any, _view: Any, name: str, *_a: Any, **_k: Any) -> str:
    """Layer name of a ``StepRunner.run(view, name, fn)`` call.

    ``"1:local-sort"`` becomes ``core.step1``; steps outside the five
    numbered ones (recovery) become ``core.recover``.
    """
    head = name.split(":", 1)[0]
    return f"core.step{head}" if head.isdigit() else "core.recover"
