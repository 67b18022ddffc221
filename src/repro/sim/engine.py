"""The simulation engine: a stepping kernel plus pluggable observers.

One engine *step* = one process step in the paper's sense: the scheduled
process receives at most one pending message (its incoming channels are
scanned round-robin so no channel starves), handles it, then executes
the tail of its ``repeat forever`` loop (:meth:`Process.on_local`).

Time is the step counter.  The root's timeout facility
(``RestartTimer()`` / ``TimeOut()``) is expressed in steps; the default
interval is auto-sized to comfortably exceed one full controller
circulation so timeouts do not cause congestion (paper footnote 4).

Kernel vs. observers
--------------------
The hot path is a *kernel*: it executes the step semantics and maintains
exactly the state the snapshot codec captures — process variables,
channel queues and their traffic counters, the per-``(kind, pid)`` event
counters, ``sent_by_type``, timers and scan positions.  That state is
*semantic* (applications read the global CS counter for the paper's
waiting-time metric; the codec round-trips all of it), so it is always
maintained, with or without instrumentation — which is what makes
:meth:`save_state` byte-identical across observer stacks.

Everything else is an :class:`~repro.sim.observers.Observer` registered
with :meth:`Engine.add_observer`.  Hook dispatch is pay-for-what-you-use
(see :mod:`repro.sim.observers`): with no step-level hooks attached,
:meth:`run` executes a batched loop over bind-time-precomputed flat
tables — per-pid degrees, incoming-channel and queue tuples, and
precomputed round-robin scan orders — with no per-step allocation, dict
lookup or flag probing.  Schedulers that declare
``deterministic_batch`` (round-robin, seeded random, weighted,
scripted) supply whole pid batches via
:meth:`~repro.sim.scheduler.Scheduler.next_pids`; state-reactive ones
(:class:`~repro.sim.scheduler.FunctionScheduler`,
:class:`~repro.sim.crashes.CrashController`) keep the per-step general
loop.  Both paths execute identical step semantics — the differential
tests hold ``run`` and a ``step()`` loop to byte-identical outcomes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from ..core.messages import Message
from .network import Network
from .process import Process
from .scheduler import RoundRobinScheduler, Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from .channel import Channel
    from .observers import Observer

__all__ = ["Context", "CounterMap", "Engine", "EngineState"]

#: Largest pid batch requested from a deterministic scheduler at once —
#: bounds latency of ``run_until`` chunking and keeps batches cache-warm.
_RUN_BATCH = 4096


class CounterMap(dict):
    """Per-kind counter rows with non-mutating missing-key reads.

    ``engine.counters[kind]`` returns a fresh zero row for a kind that
    was never bumped — the read-compatibility the historical defaultdict
    provided — but, unlike a defaultdict, does **not** store it: a pure
    read can never change :meth:`Engine.save_state` output.  Rows are
    materialized exclusively by :meth:`Context.bump`.
    """

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n

    def __missing__(self, kind: str) -> list[int]:
        return [0] * self.n

    def __deepcopy__(self, memo) -> "CounterMap":
        import copy

        out = memo[id(self)] = CounterMap(self.n)
        for kind, row in self.items():
            out[kind] = copy.deepcopy(row, memo)
        return out


class EngineState:
    """Opaque compact snapshot of one :class:`Engine` configuration.

    Produced by :meth:`Engine.save_state` and consumed by
    :meth:`Engine.load_state`.  Every field is an immutable tuple (frozen
    messages are shared, not copied), so saved states can be stored by
    the hundred-thousand — this is what lets the exhaustive explorer
    keep whole frontiers in memory where ``fork()`` engines would not
    fit.
    """

    __slots__ = (
        "now",
        "total_cs_entries",
        "scan",
        "timer_start",
        "counters",
        "sent_by_type",
        "procs",
        "apps",
        "chans",
    )


class Context:
    """Per-process view of the engine handed to :class:`Process.bind`."""

    __slots__ = ("engine", "pid")

    def __init__(self, engine: "Engine", pid: int) -> None:
        self.engine = engine
        self.pid = pid

    # -- communication --------------------------------------------------
    def send(self, pid: int, label: int, msg: Message) -> None:
        """Enqueue ``msg`` on ``pid``'s outgoing channel ``label``."""
        self.engine._send(pid, label, msg)

    # -- time & timer ----------------------------------------------------
    @property
    def now(self) -> int:
        """Current step count."""
        return self.engine.now

    def restart_timer(self) -> None:
        """The paper's ``RestartTimer()``."""
        self.engine._timer_start[self.pid] = self.engine.now

    def timeout(self) -> bool:
        """The paper's ``TimeOut()`` predicate."""
        eng = self.engine
        return eng.now - eng._timer_start[self.pid] >= eng.timeout_interval

    # -- instrumentation --------------------------------------------------
    def bump(self, kind: str) -> int:
        """Increment a cheap per-(kind, pid) counter; returns the new value.

        Counter rows materialize on first *bump*, never on read (see
        :meth:`Engine.counter`) — reading metrics must not perturb the
        snapshot codec.
        """
        eng = self.engine
        eng.counters_version += 1
        c = eng.counters.get(kind)
        if c is None:
            c = eng.counters[kind] = [0] * eng.network.n
        c[self.pid] += 1
        if kind == "enter_cs":
            eng.total_cs_entries += 1
        return c[self.pid]

    def record(self, kind: str, detail=None) -> None:
        """Emit a protocol event to the attached observers (if any)."""
        eng = self.engine
        if eng._event_hooks:
            now = eng.now
            for hook in eng._event_hooks:
                hook(now, self.pid, kind, detail)


class Engine:
    """Drives a :class:`Network` of :class:`Process` instances."""

    def __init__(
        self,
        network: Network,
        processes: Sequence[Process],
        scheduler: Scheduler | None = None,
        *,
        timeout_interval: int | None = None,
    ) -> None:
        if len(processes) != network.n:
            raise ValueError("one process per network node required")
        self.network = network
        self.processes = list(processes)
        self.scheduler = scheduler or RoundRobinScheduler(network.n)
        self.now = 0
        self.total_cs_entries = 0
        #: counters[kind][pid]; rows materialize on first bump only
        #: (missing kinds read as zero rows without being stored)
        self.counters: CounterMap = CounterMap(network.n)
        #: monotonic stamp, advanced by every :meth:`Context.bump` — an
        #: unchanged stamp across a step proves the step bumped nothing,
        #: which is how the explorer skips the counter-restore entirely
        self.counters_version = 0
        #: sends by message type name
        self.sent_by_type: dict[str, int] = {}
        self._scan = [0] * network.n
        self._timer_start = [0] * network.n
        #: the state the engine was last saved to or loaded from, which
        #: :meth:`seek` diffs against (None: no state held)
        self._held: EngineState | None = None
        #: fixed channel order for the state codec (dict insertion order
        #: is deterministic for a given topology, so snapshots taken on
        #: one engine load into any engine built from the same builder)
        self._chan_list = list(network.channels.values())
        #: _pid_chans[pid] = ((codec slot, channel), ...) for every
        #: channel incident to ``pid`` — the only channels a step of
        #: ``pid`` can mutate (sends go out of ``pid``, receives come
        #: in); this is the delta codec's dirty set.
        incident: list[list[tuple[int, Channel]]] = [
            [] for _ in range(network.n)
        ]
        for slot, c in enumerate(self._chan_list):
            incident[c.src].append((slot, c))
            if c.dst != c.src:
                incident[c.dst].append((slot, c))
        self._pid_chans = tuple(tuple(entries) for entries in incident)
        # -- kernel tables: flat per-pid tuples precomputed at bind time
        # so the hot loop indexes lists instead of calling accessors.
        n = network.n
        self._degrees = tuple(network.degree(p) for p in range(n))
        self._in_chans = tuple(tuple(network.in_channels(p)) for p in range(n))
        self._in_queues = tuple(
            tuple(c.queue for c in network.in_channels(p)) for p in range(n)
        )
        self._out_chans = tuple(
            tuple(network.out_channel(p, lbl) for lbl in range(self._degrees[p]))
            for p in range(n)
        )
        #: _scan_orders[pid][start] = channel labels in round-robin scan
        #: order beginning at ``start`` — replaces the per-step label list
        self._scan_orders = tuple(
            tuple(
                tuple((start + off) % deg for off in range(deg))
                for start in range(deg)
            )
            if deg
            else ()
            for deg in self._degrees
        )
        # -- observer hook lists (see repro.sim.observers)
        self._observers: "list[Observer]" = []
        self._send_hooks: list[Callable] = []
        self._recv_hooks: list[Callable] = []
        self._step_hooks: list[Callable] = []
        self._event_hooks: list[Callable] = []
        if timeout_interval is None:
            ring_len = max(2 * (network.n - 1), 1)
            # > one circulation even under round-robin latency (n steps/hop),
            # with slack for processing at each stop.
            timeout_interval = 4 * ring_len * network.n + 64
        self.timeout_interval = timeout_interval
        for pid, proc in enumerate(self.processes):
            if proc.pid != pid:
                raise ValueError(f"process at index {pid} reports pid {proc.pid}")
            proc.bind(Context(self, pid))
            app = getattr(proc, "app", None)
            if app is not None and hasattr(app, "attach"):
                app.attach(self)

    # ------------------------------------------------------------------
    # Observer registration
    # ------------------------------------------------------------------
    def add_observer(self, observer: "Observer") -> "Observer":
        """Attach ``observer``; only hooks it overrides are dispatched.

        Returns the observer for chaining/assignment.  Attaching a
        :class:`~repro.sim.observers.NullObserver` (or any observer that
        overrides no hook) registers nothing on the hot path.
        """
        self._observers.append(observer)
        self._collect_hooks()
        observer.on_attach(self)
        return observer

    def remove_observer(self, observer: "Observer") -> None:
        """Detach ``observer`` (no error if it is not attached)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            return
        self._collect_hooks()
        observer.on_detach(self)

    def clear_observers(self) -> None:
        """Detach every observer (the campaign runners' kernel reset)."""
        for obs in self._observers[:]:
            self.remove_observer(obs)

    @property
    def observers(self) -> "tuple[Observer, ...]":
        """The currently attached observers, in attachment order."""
        return tuple(self._observers)

    def _collect_hooks(self) -> None:
        from .observers import HOOK_NAMES, Observer

        hook_lists: dict[str, list[Callable]] = {n: [] for n in HOOK_NAMES}
        for obs in self._observers:
            for name, hooks in hook_lists.items():
                if getattr(type(obs), name) is not getattr(Observer, name):
                    hooks.append(getattr(obs, name))
        self._send_hooks = hook_lists["on_send"]
        self._recv_hooks = hook_lists["on_receive"]
        self._step_hooks = hook_lists["on_step"]
        self._event_hooks = hook_lists["on_event"]

    # ------------------------------------------------------------------
    # Core stepping
    # ------------------------------------------------------------------
    def _send(self, pid: int, label: int, msg: Message) -> None:
        self._out_chans[pid][label].push(msg)
        name = type(msg).__name__
        counts = self.sent_by_type
        counts[name] = counts.get(name, 0) + 1
        if self._send_hooks:
            now = self.now
            for hook in self._send_hooks:
                hook(now, pid, label, msg)

    def _receive(self, pid: int, label: int) -> None:
        """Dequeue from incoming ``label`` and dispatch (general path)."""
        msg = self._in_chans[pid][label].pop()
        nxt = label + 1
        self._scan[pid] = nxt if nxt < self._degrees[pid] else 0
        if self._recv_hooks:
            now = self.now
            for hook in self._recv_hooks:
                hook(now, pid, label, msg)
        self.processes[pid].on_message(label, msg)

    def step(self) -> None:
        """Execute one step of the move chosen by the scheduler.

        Goes through :meth:`Scheduler.next_move` so channel-scripted
        schedulers (livelock-lasso replays) can steer the receive
        choice; pid-only schedulers yield ``(pid, None)`` and behave
        exactly as before.
        """
        pid, channel = self.scheduler.next_move(self.now)
        self.step_pid(pid, channel)

    def step_pid(self, pid: int, channel: int | None = None) -> None:
        """Execute one step of process ``pid``.

        ``channel`` refines the receive action for adversarial harnesses
        (the daemon of the paper's figure executions):

        * ``None`` (default) — scan incoming channels round-robin and
          receive the first pending message, if any;
        * an ``int`` label — receive only from that channel (no-op
          receive if it is empty);
        * ``-1`` — take a step without receiving (the paper's "does
          nothing" receive option), running only the loop tail.
        """
        if channel != -1 and self._degrees[pid]:
            queues = self._in_queues[pid]
            if channel is None:
                for label in self._scan_orders[pid][self._scan[pid]]:
                    if queues[label]:
                        self._receive(pid, label)
                        break
            else:
                label = channel % self._degrees[pid]
                if queues[label]:
                    self._receive(pid, label)
        self.processes[pid].on_local()
        if self._step_hooks:
            now = self.now
            for hook in self._step_hooks:
                hook(now, pid)
        self.now += 1

    # ------------------------------------------------------------------
    # Run helpers
    # ------------------------------------------------------------------
    def run(self, steps: int) -> "Engine":
        """Run exactly ``steps`` steps; returns self for chaining.

        With no step-level observer hooks and a scheduler that declares
        ``deterministic_batch``, this executes the batched kernel loop;
        otherwise it falls back to per-step :meth:`step`.  Both paths
        produce byte-identical executions.
        """
        scheduler = self.scheduler
        if (
            self._recv_hooks
            or self._step_hooks
            or not getattr(scheduler, "deterministic_batch", False)
        ):
            for _ in range(steps):
                self.step()
            return self
        # ---- observer-free batched kernel ----------------------------
        # Locals for everything the loop touches: in CPython the wins
        # come from killing per-step attribute chases and allocations.
        processes = self.processes
        on_message = [p.on_message for p in processes]
        on_local = [p.on_local for p in processes]
        degrees = self._degrees
        in_queues = self._in_queues
        in_chans = self._in_chans
        scan_orders = self._scan_orders
        scan = self._scan
        now = self.now
        done = 0
        while done < steps:
            batch = scheduler.next_pids(now, min(_RUN_BATCH, steps - done))
            for pid in batch:
                deg = degrees[pid]
                if deg:
                    queues = in_queues[pid]
                    for label in scan_orders[pid][scan[pid]]:
                        if queues[label]:
                            ch = in_chans[pid][label]
                            msg = ch.queue.popleft()
                            ch.stats.delivered += 1
                            nxt = label + 1
                            scan[pid] = nxt if nxt < deg else 0
                            on_message[pid](label, msg)
                            break
                on_local[pid]()
                now += 1
                self.now = now
            done += len(batch)
        return self

    def run_until(
        self,
        predicate: Callable[["Engine"], bool],
        max_steps: int,
        check_every: int = 1,
    ) -> bool:
        """Run until ``predicate(engine)`` holds or ``max_steps`` elapse.

        Returns ``True`` iff the predicate became true.  The predicate is
        evaluated every ``check_every`` steps (and once before stepping);
        between evaluations the steps run through :meth:`run`, so the
        batched kernel applies here too.
        """
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        if predicate(self):
            return True
        remaining = max_steps
        while remaining > 0:
            chunk = check_every if check_every < remaining else remaining
            self.run(chunk)
            remaining -= chunk
            if predicate(self):
                return True
        return False

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def fork(self) -> "Engine":
        """An independent deep copy of the entire simulation state.

        Forks share nothing mutable with the original: processes,
        channels, apps, timers and counters are all copied — including
        the observers, which :meth:`save_state` deliberately leaves out.
        This is the full-fidelity *reference* copy; the exploration hot
        paths use the much cheaper
        :meth:`save_state`/:meth:`load_state` codec instead, and the
        differential tests hold the two equivalent.  The clone holds no
        state, so its first :meth:`seek` is a full load.
        """
        import copy

        clone = copy.deepcopy(self)
        clone._held = None
        return clone

    # ------------------------------------------------------------------
    # State codec (cheap fork/restore for exploration and fuzzing)
    # ------------------------------------------------------------------
    def save_state(self) -> EngineState:
        """Snapshot the full simulation state as compact tuples.

        Captures time, timers, scan positions, counters, every process's
        :meth:`Process.snapshot`, every application's
        ``snapshot_state()`` and every channel queue.  NOT captured:
        the scheduler (exploration drives :meth:`step_pid` directly) and
        the observers (instrumentation is not simulation state — the
        encoding is byte-identical whatever stack is attached); use
        :meth:`fork` when those matter.
        """
        st = EngineState()
        st.now = self.now
        st.total_cs_entries = self.total_cs_entries
        st.scan = tuple(self._scan)
        st.timer_start = tuple(self._timer_start)
        st.counters = tuple((k, tuple(v)) for k, v in self.counters.items())
        st.sent_by_type = tuple(self.sent_by_type.items())
        st.procs = tuple(p.snapshot() for p in self.processes)
        st.apps = tuple(
            None if getattr(p, "app", None) is None else p.app.snapshot_state()
            for p in self.processes
        )
        st.chans = tuple(c.snapshot() for c in self._chan_list)
        self._held = st
        return st

    def load_state(self, state: EngineState) -> "Engine":
        """Reinstate a configuration captured by :meth:`save_state`.

        The engine must have the same topology and process classes as
        the one that saved the state (loading across engines built by
        the same builder is supported and used by the replay helpers);
        a size mismatch raises rather than half-restoring.
        Returns self for chaining.
        """
        if len(state.procs) != len(self.processes) or len(state.chans) != len(
            self._chan_list
        ):
            raise ValueError(
                "state was saved on an engine with a different topology"
            )
        self._held = state
        self.now = state.now
        self.total_cs_entries = state.total_cs_entries
        self._scan[:] = state.scan
        self._timer_start[:] = state.timer_start
        self.counters.clear()
        for kind, vals in state.counters:
            self.counters[kind] = list(vals)
        self.sent_by_type.clear()
        for name, count in state.sent_by_type:
            self.sent_by_type[name] = count
        for proc, snap in zip(self.processes, state.procs, strict=True):
            proc.restore(snap)
        for proc, snap in zip(self.processes, state.apps, strict=True):
            if snap is not None:
                proc.app.restore_state(snap)
        for chan, snap in zip(self._chan_list, state.chans, strict=True):
            chan.restore(snap)
        return self

    def load_state_diff(
        self, current: EngineState, target: EngineState
    ) -> "Engine":
        """:meth:`load_state` for an engine known to hold ``current``.

        Slots whose encodings are the *same object* in both states are
        skipped — snapshots produced by :meth:`save_state_from` share
        every untouched slot with their parent, so sibling and cousin
        configurations in an exploration frontier differ in O(degree)
        slots, and switching between them costs O(diff) instead of O(n).
        Object identity is only ever an optimization: distinct-but-equal
        encodings are restored redundantly, never skipped wrongly.
        """
        self._held = target
        self.now = target.now
        self.total_cs_entries = target.total_cs_entries
        if current.scan is not target.scan:
            self._scan[:] = target.scan
        if current.timer_start is not target.timer_start:
            self._timer_start[:] = target.timer_start
        if current.counters is not target.counters:
            self.counters.clear()
            for kind, vals in target.counters:
                self.counters[kind] = list(vals)
        if current.sent_by_type is not target.sent_by_type:
            self.sent_by_type.clear()
            for name, count in target.sent_by_type:
                self.sent_by_type[name] = count
        if current.procs is not target.procs:
            processes = self.processes
            cur_p = current.procs
            for i, snap in enumerate(target.procs):
                if cur_p[i] is not snap:
                    processes[i].restore(snap)
        if current.apps is not target.apps:
            processes = self.processes
            cur_a = current.apps
            for i, snap in enumerate(target.apps):
                if cur_a[i] is not snap and snap is not None:
                    processes[i].app.restore_state(snap)
        if current.chans is not target.chans:
            chan_list = self._chan_list
            cur_c = current.chans
            for i, snap in enumerate(target.chans):
                if cur_c[i] is not snap:
                    chan_list[i].restore(snap)
        return self

    def seek(self, state: EngineState) -> None:
        """Make the engine hold ``state``, diffing from whatever it
        holds now (tracked in ``_held`` by every loader)."""
        held = self._held
        if held is None:
            self.load_state(state)
        elif held is not state:
            self.load_state_diff(held, state)

    # ------------------------------------------------------------------
    # Delta codec (O(degree) undo/snapshot around one step_pid)
    # ------------------------------------------------------------------
    def restore_pid(
        self,
        state: EngineState,
        pid: int,
        proc_clean: bool = False,
        app_clean: bool = False,
        dirty: list[int] | None = None,
    ) -> "Engine":
        """Undo one :meth:`step_pid` of ``pid`` against its parent snapshot.

        The explorer's O(degree) restore: the engine must hold ``state``
        advanced by exactly one step of ``pid``; this reinstates ``pid``'s
        footprint (and the engine-global scalars) from the full parent
        :class:`EngineState`, which the explorer retains anyway — so no
        per-move capture is needed.  Incident channels
        whose queue length matches the snapshot are skipped: within one
        step a directed channel is either popped from (``pid``'s in-
        channels) or pushed to (``pid``'s out-channels), never both, so
        an unchanged length proves the channel untouched.

        The keyword flags let a caller that already compared the stepped
        process's (or its application's) snapshot against ``state`` skip
        the corresponding restore; ``dirty`` short-circuits the channel
        length scan with a precomputed :meth:`dirty_channels` result.
        The defaults perform the full footprint restore.
        """
        self.now = state.now
        self.total_cs_entries = state.total_cs_entries
        self._scan[pid] = state.scan[pid]
        self._timer_start[pid] = state.timer_start[pid]
        counters = self.counters
        if len(counters) != len(state.counters):
            keep = {k for k, _ in state.counters}
            for k in [k for k in counters if k not in keep]:
                del counters[k]
        for k, vals in state.counters:
            row = counters[k]
            if row[pid] != vals[pid]:
                row[pid] = vals[pid]
        proc = self.processes[pid]
        if not proc_clean:
            proc.restore(state.procs[pid])
        if not app_clean:
            snap = state.apps[pid]
            if snap is not None:
                proc.app.restore_state(snap)
        if dirty is None:
            dirty = [
                slot
                for slot, c in self._pid_chans[pid]
                if len(c.queue) != len(state.chans[slot][0])
            ]
        if dirty:
            # a send happened only if an outgoing channel is dirty, and
            # sends are the sole mutation of sent_by_type; restoring it
            # on any dirty channel is a cheap safe superset
            sent = self.sent_by_type
            sent.clear()
            sent.update(state.sent_by_type)
            chan_list = self._chan_list
            for slot in dirty:
                chan_list[slot].restore(state.chans[slot])
        return self

    def dirty_channels(self, state: EngineState, pid: int) -> list[int]:
        """Codec slots of ``pid``-incident channels that differ from
        ``state``, for an engine holding ``state`` plus one step of
        ``pid`` (length comparison is exact — see :meth:`restore_pid`)."""
        return [
            slot
            for slot, c in self._pid_chans[pid]
            if len(c.queue) != len(state.chans[slot][0])
        ]

    def save_state_from(
        self,
        base: EngineState,
        pid: int,
        proc_snap: tuple | None = None,
        app_snap: tuple | None = None,
    ) -> EngineState:
        """Full snapshot after a single step of ``pid`` taken from ``base``.

        The engine must currently hold ``base`` advanced by exactly one
        :meth:`step_pid` of ``pid``.  Every slot outside ``pid``'s
        footprint is *shared* with ``base`` (immutable tuples), so the
        cost is O(degree) re-encoding plus pointer-level tuple copies —
        this is what makes the explorer's per-child snapshot cheap.  The
        result is byte-identical to :meth:`save_state`.  ``proc_snap`` /
        ``app_snap`` let a caller that already took the stepped
        process's (or its application's) snapshot pass it in instead of
        re-encoding.
        """
        st = EngineState()
        st.now = self.now
        st.total_cs_entries = self.total_cs_entries
        v = self._scan[pid]
        st.scan = (
            base.scan
            if base.scan[pid] == v
            else base.scan[:pid] + (v,) + base.scan[pid + 1 :]
        )
        v = self._timer_start[pid]
        st.timer_start = (
            base.timer_start
            if base.timer_start[pid] == v
            else base.timer_start[:pid] + (v,) + base.timer_start[pid + 1 :]
        )
        base_counters = base.counters
        nb = len(base_counters)
        rows = []
        changed = len(self.counters) != nb
        for i, (kind, row) in enumerate(self.counters.items()):
            if i < nb and base_counters[i][0] == kind:
                entry = base_counters[i]
                v = row[pid]
                if entry[1][pid] == v:
                    rows.append(entry)
                else:
                    brow = entry[1]
                    rows.append((kind, brow[:pid] + (v,) + brow[pid + 1 :]))
                    changed = True
            else:  # a kind the step materialized — encode it in full
                rows.append((kind, tuple(row)))
                changed = True
        st.counters = tuple(rows) if changed else base_counters
        sent = tuple(self.sent_by_type.items())
        st.sent_by_type = (
            base.sent_by_type if sent == base.sent_by_type else sent
        )
        proc = self.processes[pid]
        if proc_snap is None:
            proc_snap = proc.snapshot()
        st.procs = (
            base.procs
            if base.procs[pid] == proc_snap
            else base.procs[:pid] + (proc_snap,) + base.procs[pid + 1 :]
        )
        app = getattr(proc, "app", None)
        if app is None:
            st.apps = base.apps
        else:
            if app_snap is None:
                app_snap = app.snapshot_state()
            st.apps = (
                base.apps
                if base.apps[pid] == app_snap
                else base.apps[:pid] + (app_snap,) + base.apps[pid + 1 :]
            )
        chans = list(base.chans)
        dirty = False
        for slot, c in self._pid_chans[pid]:
            if len(c.queue) != len(base.chans[slot][0]):
                chans[slot] = c.snapshot()
                dirty = True
        st.chans = tuple(chans) if dirty else base.chans
        return st

    def counter(self, kind: str, pid: int | None = None) -> int:
        """Non-mutating read of one event counter.

        Returns the count for ``(kind, pid)``, or the total over all
        pids when ``pid`` is ``None``; unseen kinds read as 0 without
        materializing a row (a pure read must never change
        :meth:`save_state` output).
        """
        row = self.counters.get(kind)
        if row is None:
            return 0
        return sum(row) if pid is None else row[pid]

    def counter_row(self, kind: str) -> tuple[int, ...]:
        """Non-mutating per-pid counts for ``kind`` (zeros if unseen)."""
        row = self.counters.get(kind)
        return tuple(row) if row is not None else (0,) * self.network.n

    def message_counts(self) -> dict[str, int]:
        """Copy of cumulative sends keyed by message type (non-mutating)."""
        return dict(self.sent_by_type)

    def cs_entries(self, pid: int | None = None) -> int:
        """CS entries of one process, or total if ``pid`` is ``None``."""
        if pid is None:
            return self.total_cs_entries
        return self.counter("enter_cs", pid)

    def process(self, pid: int) -> Process:
        """The process instance with identifier ``pid``."""
        return self.processes[pid]

    @property
    def n(self) -> int:
        """Number of processes."""
        return self.network.n
