"""Spans and per-call records for one benchmark process, kept in memory."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable


class Tracer:
    """Records one span per `span()` block: name, start, end, parent, key."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, key: str = ""):
        rec = {"id": len(self.spans), "name": name, "key": key,
               "parent": self._open[-1] if self._open else None,
               "start": self.clock(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = self.clock()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    def span(self, name: str, key: str = ""):
        return contextlib.nullcontext()


@dataclass
class Op:
    name: str
    key: str
    value: Any
    error: str | None
    seconds: float


class Recorder:
    """Makes library calls, each under a span, and keeps their results.

    A call that raises is recorded with its error and returns None, so a
    pass always runs to the end and every failure is counted.
    """

    def __init__(self, tracer: Tracer | NullTracer,
                 clock: Callable[[], float] = perf_counter) -> None:
        self.tracer = tracer
        self.clock = clock
        self.ops: list[Op] = []

    def call(self, name: str, key: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        with self.tracer.span(name, key):
            t0 = self.clock()
            try:
                value, error = fn(*args, **kwargs), None
            except Exception as exc:  # counted as a failed operation
                value, error = None, f"{type(exc).__name__}: {exc}"
            dt = self.clock() - t0
        self.ops.append(Op(name, key, value, error, dt))
        return value


def signature(value):
    """A comparable form of a call's result; programs compare by structure."""
    if hasattr(value, "out_edges"):
        return (value.num_nodes, value.edges, value.root, value.leaf, value.num_vars)
    return value


def fingerprint(ops) -> list[tuple]:
    """What a later pass must repeat exactly: each call's name, key, error and result."""
    return [(op.name, op.key, op.error, signature(op.value)) for op in ops]


def repeat_failures(ops, reference: list[tuple]) -> list[tuple[int | None, str]]:
    """Calls whose results differ from the reference fingerprint, by position."""
    bad: list[tuple[int | None, str]] = []
    if len(ops) != len(reference):
        bad.append((None, f"pass made {len(ops)} calls, reference {len(reference)}"))
    for i, (fp, ref) in enumerate(zip(fingerprint(ops), reference)):
        if fp != ref:
            bad.append((i, f"{fp[0]} {fp[1]}: result differs from the first pass"))
    return bad
