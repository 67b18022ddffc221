"""Structured execution traces.

A :class:`Trace` records only while a
:class:`~repro.sim.observers.TraceObserver` holding it is attached to
an engine (``engine.add_observer(TraceObserver(trace))``); an engine
without one pays nothing for tracing.  Records are lightweight tuples;
filters keep long runs affordable and the convenience accessors are
what tests and the figure harnesses consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = ["TraceEvent", "Trace"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One traced occurrence.

    ``kind`` is one of ``send``, ``recv``, ``enter_cs``, ``exit_cs``,
    ``request``, ``reset``, ``timeout``, ``new_circulation`` or a
    protocol-specific tag; ``detail`` carries kind-specific payload.
    """

    now: int
    pid: int
    kind: str
    detail: Any = None


class Trace:
    """Append-only event log with simple querying."""

    def __init__(self, keep: Callable[[TraceEvent], bool] | None = None) -> None:
        self.events: list[TraceEvent] = []
        self._keep = keep

    # -- recording ------------------------------------------------------
    def record(self, now: int, pid: int, kind: str, detail: Any = None) -> None:
        """Append an event (subject to the filter)."""
        ev = TraceEvent(now, pid, kind, detail)
        if self._keep is None or self._keep(ev):
            self.events.append(ev)

    # -- querying -------------------------------------------------------
    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All events with the given kind, in time order."""
        return [e for e in self.events if e.kind == kind]

    def by_pid(self, pid: int) -> list[TraceEvent]:
        """All events of one process."""
        return [e for e in self.events if e.pid == pid]

    def count(self, kind: str, pid: int | None = None) -> int:
        """Number of events of ``kind`` (optionally restricted to ``pid``)."""
        return sum(
            1
            for e in self.events
            if e.kind == kind and (pid is None or e.pid == pid)
        )

    def cs_entries(self) -> list[TraceEvent]:
        """Critical-section entry events."""
        return self.of_kind("enter_cs")

    def last(self, kind: str) -> TraceEvent | None:
        """Most recent event of ``kind`` or ``None``."""
        for e in reversed(self.events):
            if e.kind == kind:
                return e
        return None

    def between(self, t0: int, t1: int) -> Iterable[TraceEvent]:
        """Events with ``t0 <= now < t1``."""
        return (e for e in self.events if t0 <= e.now < t1)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
