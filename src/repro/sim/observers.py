"""Pluggable engine instrumentation (the observer layer).

The engine's stepping core — :meth:`repro.sim.engine.Engine.run` /
:meth:`~repro.sim.engine.Engine.step_pid` — is a *kernel*: it executes
the paper's step semantics and maintains only the state the codec
captures (process variables, channel queues and traffic counters, the
per-kind event counters, timers, scan positions).  Everything else —
trace recording, invariant probes, derived statistics — is an
:class:`Observer`, and :meth:`~repro.sim.engine.Engine.add_observer` is
the one way to attach it (a spec's ``observers`` field goes through it
too).

Hook dispatch is pay-for-what-you-use: at registration time the engine
collects only the hook methods an observer actually *overrides* into
per-hook lists, and the hot paths guard each emission with a plain
truthiness check on those lists.  :class:`NullObserver` overrides
nothing, so attaching it contributes zero hooks — the kernel runs its
observer-free batched loop exactly as if nothing were attached.  An
engine with a recv- or step-level hook falls back to the per-step
general loop (still correct, modestly slower); send- and event-level
hooks are compatible with the batched loop because they are emitted
from :meth:`Engine._send` / :meth:`Context.record` themselves.

Observers are deliberately **not** part of the state codec:
:meth:`Engine.save_state` is byte-identical whatever stack is attached
(``tests/test_determinism.py`` holds this across all variants and both
baselines), so snapshots taken on an instrumented engine load into an
observer-free one and vice versa.

Observer *providers* — factories registered under a short key with
:func:`repro.spec.registry.register_observer` — make observer stacks
serializable: a :class:`~repro.spec.ScenarioSpec` names them in its
``observers`` field just like workloads and faults, and ``repro list``
enumerates them.  Provider signature: ``fn(params, **args) -> Observer``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from ..spec.registry import register_observer
from .channel import ChannelStats
from .trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from ..core.messages import Message
    from .engine import Engine

__all__ = [
    "Observer",
    "NullObserver",
    "TraceObserver",
    "InvariantObserver",
    "ChannelStatsObserver",
    "HOOK_NAMES",
]

#: Hook methods the engine dispatches on; anything an observer overrides
#: from this set is registered, anything it inherits costs nothing.
HOOK_NAMES = ("on_send", "on_receive", "on_step", "on_event")


class Observer:
    """Base class: every hook is a documented no-op.

    Subclasses override only the hooks they need.  ``on_receive`` and
    ``on_step`` are *step-level* hooks: their presence moves the engine
    off the batched kernel loop, so prefer ``on_send``/``on_event``
    (emitted from inside the step) when either suffices.
    """

    def on_attach(self, engine: "Engine") -> None:
        """Called once when the observer is registered on ``engine``."""

    def on_detach(self, engine: "Engine") -> None:
        """Called when the observer is removed from ``engine``."""

    def on_send(self, now: int, pid: int, label: int, msg: "Message") -> None:
        """``pid`` enqueued ``msg`` on its outgoing channel ``label``."""

    def on_receive(self, now: int, pid: int, label: int, msg: "Message") -> None:
        """``pid`` dequeued ``msg`` from its incoming channel ``label``."""

    def on_step(self, now: int, pid: int) -> None:
        """A step of ``pid`` completed (``now`` is the pre-step time)."""

    def on_event(self, now: int, pid: int, kind: str, detail: Any) -> None:
        """A protocol event emitted through :meth:`Context.record`."""


class NullObserver(Observer):
    """The explicit do-nothing stack: attaching it registers zero hooks.

    Exists so "no instrumentation" can be *named* — in specs
    (``observers: [{"kind": "null"}]``), in A/B tests, and in the
    neutrality suite that holds ``save_state()`` byte-identical between
    this and any real stack.
    """


class TraceObserver(Observer):
    """Structured execution tracing as an observer.

    Owns (or wraps) a :class:`~repro.sim.trace.Trace` and records one
    ``send`` per :meth:`Engine._send`, one ``recv`` per message receive,
    plus every protocol event emitted through :meth:`Context.record`.
    It is the one way to trace a run: pass the trace in and attach it,
    ``engine.add_observer(TraceObserver(trace))``, or name ``trace`` in
    a spec's ``observers`` field and read ``built.observers[i].trace``.
    """

    def __init__(self, trace: Trace | None = None) -> None:
        self.trace = trace if trace is not None else Trace()

    def on_send(self, now: int, pid: int, label: int, msg: "Message") -> None:
        self.trace.record(now, pid, "send", (label, msg))

    def on_receive(self, now: int, pid: int, label: int, msg: "Message") -> None:
        self.trace.record(now, pid, "recv", (label, msg))

    def on_event(self, now: int, pid: int, kind: str, detail: Any) -> None:
        self.trace.record(now, pid, kind, detail)


class InvariantObserver(Observer):
    """Evaluate a predicate on the live configuration as the run unfolds.

    ``invariant(engine)`` follows the explore/fuzz verdict convention
    (``False`` or a string = violation, anything else = holds) and is
    evaluated every ``every`` steps.  The first violation is kept as
    ``(step, message)`` in :attr:`violation` and counted in
    :attr:`violations`; the run is *not* interrupted (stopping is the
    harness's decision, e.g. via :meth:`Engine.run_until` on
    :attr:`ok`).
    """

    def __init__(
        self,
        invariant: Callable[["Engine"], bool | str | None],
        *,
        every: int = 1,
    ) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.invariant = invariant
        self.every = every
        self.checks = 0
        self.violations = 0
        self.violation: tuple[int, str] | None = None
        self._engine: "Engine | None" = None

    def on_attach(self, engine: "Engine") -> None:
        self._engine = engine

    def on_detach(self, engine: "Engine") -> None:
        self._engine = None

    @property
    def ok(self) -> bool:
        """No violation observed so far."""
        return self.violation is None

    def on_step(self, now: int, pid: int) -> None:
        if (now + 1) % self.every:
            return
        self.checks += 1
        verdict = self.invariant(self._engine)
        msg: str | None
        if verdict is False:
            msg = "invariant returned False"
        elif isinstance(verdict, str):
            msg = verdict
        else:
            msg = None
        if msg is not None:
            self.violations += 1
            if self.violation is None:
                self.violation = (now + 1, msg)


class ChannelStatsObserver(Observer):
    """Aggregated traffic statistics over every directed channel.

    A pull-style view: the kernel keeps per-channel counters up to date
    (they are part of the snapshot codec), and this observer aggregates
    them on demand — attaching it therefore costs nothing on the hot
    path.  Encodings share :meth:`ChannelStats.encode` with the codec,
    so a row here matches the stats section of a channel snapshot
    byte-for-byte.
    """

    def __init__(self) -> None:
        self._engine: "Engine | None" = None

    def on_attach(self, engine: "Engine") -> None:
        self._engine = engine

    def on_detach(self, engine: "Engine") -> None:
        self._engine = None

    def _channels(self):
        if self._engine is None:
            raise RuntimeError("ChannelStatsObserver is not attached")
        return self._engine.network.channels

    def totals(self) -> ChannelStats:
        """Summed counters (peak = max) across all channels."""
        out = ChannelStats()
        for ch in self._channels().values():
            st = ch.stats
            out.sent += st.sent
            out.delivered += st.delivered
            out.peak_occupancy = max(out.peak_occupancy, st.peak_occupancy)
        return out

    def in_flight(self) -> int:
        """Messages currently queued across all channels."""
        return sum(len(ch) for ch in self._channels().values())

    def per_channel(self) -> dict[tuple[int, int], tuple[int, int, int]]:
        """``(src, dst) -> ChannelStats.encode()`` for every channel."""
        return {
            key: ch.stats.encode() for key, ch in sorted(self._channels().items())
        }

    def busiest(self, top: int = 5) -> list[tuple[tuple[int, int], int]]:
        """The ``top`` channels by cumulative sends."""
        rows = sorted(
            ((key, ch.stats.sent) for key, ch in self._channels().items()),
            key=lambda kv: (-kv[1], kv[0]),
        )
        return rows[:top]


# ----------------------------------------------------------------------
# Registered observer providers (signature: fn(params, **args) -> Observer)
# ----------------------------------------------------------------------
@register_observer("null", doc="no instrumentation (the explicit kernel-only stack)")
def _null_observer(params) -> NullObserver:
    return NullObserver()


@register_observer("trace", doc="record send/recv/protocol events into a Trace")
def _trace_observer(params) -> TraceObserver:
    return TraceObserver()


@register_observer(
    "channel_stats", doc="aggregate per-channel traffic counters (pull-style)"
)
def _channel_stats_observer(params) -> ChannelStatsObserver:
    return ChannelStatsObserver()
