"""The application-side interface of the paper (§2, "Interface").

A process's protocol variables ``State ∈ {Req, In, Out}`` and
``Need ∈ [0..k]`` live in the protocol; the *application* decides when to
switch ``Out → Req`` (with how many units) and when ``ReleaseCS()``
becomes true.  The protocol performs ``Req → In`` (calling ``EnterCS()``)
and ``In → Out`` (releasing the units).

:class:`Application` is the abstract driver.  It also owns the
waiting-time bookkeeping: the paper's *waiting time* of a request is the
number of critical-section entries by *all* processes between the
request and its satisfaction, and the engine's global CS counter is
sampled at both ends to measure it.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Engine

__all__ = ["Application", "RequestRecord", "IdleApplication"]


class RequestRecord(NamedTuple):
    """Lifecycle of one request, for metrics.

    An immutable value: the lifecycle hooks of :class:`Application`
    replace the ledger's last record instead of mutating it, so an
    application snapshot shares the records of the live ledger (see
    :meth:`Application.snapshot_state`).
    """

    need: int
    requested_at: int
    cs_total_at_request: int
    entered_at: int | None = None
    cs_total_at_enter: int | None = None
    exited_at: int | None = None

    @property
    def satisfied(self) -> bool:
        """True once the request entered its critical section."""
        return self.entered_at is not None

    @property
    def waiting_time(self) -> int | None:
        """Paper waiting time: others' CS entries while this request waited."""
        if self.cs_total_at_enter is None:
            return None
        return self.cs_total_at_enter - self.cs_total_at_request

    @property
    def waiting_steps(self) -> int | None:
        """Wall-clock (engine steps) from request to entry."""
        if self.entered_at is None:
            return None
        return self.entered_at - self.requested_at


#: positional record construction: the hooks run once per request
#: lifecycle event, where the keyword ``NamedTuple`` constructor and
#: ``_replace`` cost two to five times as much
_record = tuple.__new__


def upgrade_snapshot(snap: tuple | None) -> tuple | None:
    """``snap``, an :meth:`Application.snapshot_state` value, with a
    ledger of :class:`RequestRecord` values.

    Builds before records were values encoded each record as a plain
    6-tuple, and explore checkpoints pickle snapshots inside their
    frontier states; such a snapshot comes back re-encoded, any other
    (or ``None``, a process without an application) as the same object.
    """
    if snap is None or all(type(r) is RequestRecord for r in snap[0]):
        return snap
    recs, cs_since, extra = snap
    return (tuple(RequestRecord._make(r) for r in recs), cs_since, extra)


class Application(abc.ABC):
    """Abstract request driver for one process."""

    def __init__(self) -> None:
        self.engine: "Engine | None" = None
        self.requests: list[RequestRecord] = []
        self._cs_since: int | None = None

    # -- engine plumbing -------------------------------------------------
    def attach(self, engine: "Engine") -> None:
        """Called once by the engine before the run starts."""
        self.engine = engine

    def _global_cs(self) -> int:
        return self.engine.total_cs_entries if self.engine is not None else 0

    # -- protocol-facing hooks --------------------------------------------
    @abc.abstractmethod
    def maybe_request(self, now: int) -> int | None:
        """When ``State = Out``: return ``Need ≥ 0`` to request, else ``None``."""

    def notify_request(self, now: int, need: int) -> None:
        """Protocol accepted the request (``State`` became ``Req``)."""
        self.requests.append(
            _record(
                RequestRecord, (need, now, self._global_cs(), None, None, None)
            )
        )

    def on_enter_cs(self, now: int) -> None:
        """The paper's ``EnterCS()`` — the CS begins now."""
        self._cs_since = now
        reqs = self.requests
        if reqs:
            rec = reqs[-1]
            if rec.entered_at is None:
                # Exclude this very entry from the count of *other*
                # entries: the global counter is bumped by the protocol
                # before EnterCS.
                reqs[-1] = _record(
                    RequestRecord,
                    (rec[0], rec[1], rec[2], now, self._global_cs() - 1, rec[5]),
                )

    @abc.abstractmethod
    def release_cs(self, now: int) -> bool:
        """The paper's ``ReleaseCS()`` predicate — true when the CS is done."""

    def on_exit_cs(self, now: int) -> None:
        """Units were just released (``State`` became ``Out``)."""
        self._cs_since = None
        reqs = self.requests
        if reqs:
            rec = reqs[-1]
            if rec.exited_at is None:
                reqs[-1] = _record(
                    RequestRecord, (rec[0], rec[1], rec[2], rec[3], rec[4], now)
                )

    # -- state codec -------------------------------------------------------
    def snapshot_state(self) -> tuple:
        """Compact immutable encoding of the application's mutable state.

        Captures the request ledger and CS bookkeeping; subclasses add
        their own variables via :meth:`_extra_state` /
        :meth:`_set_extra_state` rather than overriding this pair, so the
        record encoding stays in one place.  Records are immutable
        values, so the snapshot's ledger is a tuple of the live ledger's
        own records, and :meth:`restore_state` copies it back into a
        list: one C-level copy each way, sharing every record.  The
        engine reference is deliberately not part of the snapshot
        (restore never re-attaches).
        """
        return (tuple(self.requests), self._cs_since, self._extra_state())

    def restore_state(self, snap: tuple) -> None:
        """Reinstate the state captured by :meth:`snapshot_state`."""
        recs, self._cs_since, extra = snap
        self.requests = list(recs)
        self._set_extra_state(extra)

    def _extra_state(self) -> tuple:
        """Subclass-specific mutable variables (immutable encoding)."""
        return ()

    def _set_extra_state(self, extra: tuple) -> None:
        """Reinstate what :meth:`_extra_state` captured."""

    def _done_after(self, duration: int) -> bool:
        """``ReleaseCS()`` helper: true once ``duration`` steps passed in CS.

        When the protocol is in state ``In`` but this application never
        called :meth:`on_enter_cs` (possible only after a transient fault
        corrupted the protocol state), the application is *not* executing
        its critical section, so ``ReleaseCS()`` must hold — the paper
        defines it as "the application is not executing its CS".
        """
        el = self.cs_elapsed
        return el is None or el >= duration

    # -- metrics -----------------------------------------------------------
    @property
    def cs_elapsed(self) -> int | None:
        """Steps spent in the current CS, or ``None`` if not in CS."""
        if self._cs_since is None or self.engine is None:
            return None
        return self.engine.now - self._cs_since

    def satisfied_count(self) -> int:
        """Number of requests that reached their critical section."""
        return sum(1 for r in self.requests if r.satisfied)

    def waiting_times(self) -> list[int]:
        """Waiting times (paper metric) of all satisfied requests."""
        return [r.waiting_time for r in self.requests if r.waiting_time is not None]

    def max_waiting_time(self) -> int | None:
        """Worst waiting time observed, or ``None`` if nothing satisfied."""
        w = self.waiting_times()
        return max(w) if w else None


class IdleApplication(Application):
    """Never requests anything (the non-participant)."""

    def maybe_request(self, now: int) -> int | None:
        return None

    def release_cs(self, now: int) -> bool:
        return True
