"""Struct-of-arrays kernel backend.

:class:`ArrayEngine` executes the same protocol step semantics as
:class:`~repro.sim.engine.Engine`, but holds the entire configuration in
flat arrays — per-pid integer columns for protocol state, CSR adjacency
for the topology, and a growable ring buffer per channel — with **no
per-process Python objects on the hot path**.

Lowering contract
-----------------
An array engine is *lowered* from a fully built object engine
(:meth:`ArrayEngine.from_engine`), after faults have been applied, so
every fault schedule is supported for free.  Lowering is a bijection on
the observable configuration: :meth:`config_snapshot` reproduces the
object engine's :meth:`~repro.sim.engine.Engine.save_state` tuple field
for field (minus the ``apps`` ledger, which the array backend replaces
with O(1) streaming aggregates).  The object engine remains the
differential reference — ``tests/sim/test_array_engine_diff.py`` proves
step-for-step agreement across every variant × topology × scheduler.

What the SoA layout can represent:

* all five protocol variants (naive / pusher / priority / selfstab
  tree + root / ring baseline), classified by exact process type;
* the deterministic schedulers (``deterministic_batch`` is required so
  whole batches can be drawn via ``next_pids``);
* the deterministic workloads (idle / saturated / oneshot / scripted /
  hog) as per-pid integer columns;
* any initial configuration, including fault-injected garbage.

What it cannot represent (lowering raises :class:`LoweringError`):

* observers (the hook lists must stay empty — use the object engine);
* :class:`~repro.apps.workloads.StochasticWorkload` (draws RNG state
  even on steps that request nothing);
* non-batchable schedulers (``FunctionScheduler``, channel-scripted
  ``ScriptedScheduler``) and crash controllers;
* the explorer's object delta codec (``restore_pid``/``save_state_from``)
  and its ``snapshot``/``fork`` reference expanders — array exploration
  uses the native word journal described below instead.

Channels: every channel is a ring of ``_cap`` slots in two shared word
buffers (slot ``s`` owns ``[s * _cap, (s + 1) * _cap)``).  A push into
a full ring doubles ``_cap`` for all channels and re-lays every ring
from its head (``_grow_channels``), so queues are as unbounded as the
object engine's deques at amortized O(1) per push.  Only positions
move; every reader — state tuples, digests, snapshots — walks queues
in logical order, so a growth is invisible to them.

Message packing: each message is two int64 words.  ``w0`` packs the
type tag (bits 0–1: 0=ResT 1=PushT 2=PrioT 3=Ctrl) and, for Ctrl, the
``r`` flag (bit 2), ``ppr`` (bits 3–4) and ``pt`` (bits 5+); ``w1``
holds the token uid, or ``c`` (the root's circulation stamp) for Ctrl.

Batched stepping: ``run(steps)`` draws scheduler batches of up to 4096
pids and executes a draw only if its pid is *ready*: a message is
pending (``_pending[p]``), or the wake stamp ``_wake_at[p]`` — the
earliest time the local guard tail could fire (request intake, CS
entry/exit, priority release, root timeout) — has come.  Any other
draw would step as a no-op, so skipping it is exact.  That rests on
three facts: ``_recompute_wake`` is exact after every step; a pid's
stamp reads only that pid's own columns, which only its own steps
change; and ``_send`` marks the destination pending.  Both conditions
are folded into one column, ``_ready_at`` (0 while a message is
pending, else the wake stamp; ``_send`` and ``_enqueue_raw`` zero
it).  Below ``filter_threshold`` processes (the *dense* path) the
engine is built with plain-list ring words and ``_ready_at``, and the
loop reads ``_ready_at[p] <= t`` per draw: numpy scalar loads and
stores would dominate an executed step.  At or above it (the
*filtered* path) both are numpy arrays: one vectorized pass selects the
ready positions of a whole batch, and steps activated mid-batch by a
send are merged into the execution order through a position heap.

Relay steps skip the guard tail: ``_dispatch`` reports whether the
receive wrote a column that ``_on_local`` or ``_recompute_wake`` reads.
A forwarded ResT or PrioT, a forwarded PushT that releases nothing, a
token dropped by a resetting root, and a non-root Ctrl that clears
neither RSet nor Prio write none (``succ``, ``myc``, ``scan`` and the
root's seam counters are read by neither); every root Ctrl counts as a
write (it restarts the timer and may mint tokens).  After such a
relay the stamp is still exact — its columns are as the pid's last
step left them — so if it lies in the future the tail would be a
no-op, and ``_exec_step`` only refreshes ``_ready_at[p]``.  Both paths
are step-for-step identical to the object engine.

Exploration support: :meth:`ArrayEngine.explore_prepare` converts
numpy rings (engines at or above ``filter_threshold``) to the plain
lists a dense engine is built with, and arms a word-level journal —
``_send`` records ``(slot, old_peak)`` push events, ``_exec_move``
records ``(slot, w0, w1)`` pop events (the popped words must be saved
because a wrap-around push may overwrite the cell), ``_bump`` records
counter cells — so ``_undo_move`` rewinds
one explicit move in O(dirty words), taking the moved pid's own column
section from the parent state tuple.  The journal holds no positions:
undoing a pop puts its words back one slot before the *current* head,
which stays right when a growth re-lays the rings inside the move (a
send) or between the move and its undo.  Digests hash packed
little-endian int64 words (count-prefixed per part, one part per pid
and one per channel slot): per-kind protocol summary
words for processes, ``(w0, w1 if Ctrl else 0)`` pairs for queued
messages.  This is the same *partition* as the object explorer's
packed-string digest — token uids and the root's circulation/reset
totals are excluded on both sides — but the bytes themselves differ,
so array and object digest namespaces must never be mixed in one seen
set.  Activity bookkeeping (``_pending``/``_wake_at``/``_ready_at``)
and the streaming request metrics are allowed to drift while
exploring, so ``_exec_move`` always runs the guard tail;
``load_state`` recomputes the bookkeeping in full.
"""

from __future__ import annotations

import copy
import heapq
import struct
from collections.abc import Sequence
from typing import Any, Iterator

import numpy as np

from ..apps.workloads import (
    HogWorkload,
    IdleApplication,
    OneShotWorkload,
    SaturatedWorkload,
    ScriptedWorkload,
)
from ..baselines.ring import RingProcess, RingRoot
from ..core.messages import Ctrl, PrioT, PushT, ResT, fresh_uid
from ..core.naive import NaiveProcess
from ..core.priority import PriorityProcess
from ..core.pusher import PusherProcess
from ..core.selfstab import SelfStabProcess, SelfStabRoot
from .engine import CounterMap, Engine
from .scheduler import RandomScheduler, RoundRobinScheduler, Scheduler

__all__ = ["ArrayEngine", "LoweringError"]

#: time stamp meaning "this process cannot act until a message arrives"
_NEVER = 1 << 62
#: scheduler batch size (mirrors Engine._RUN_BATCH)
_RUN_BATCH = 4096
#: default n from which ``run`` uses the numpy-filtered loop instead of
#: the dense one.  On the bench selfstab scenario (random tree, k=2,
#: l=4, saturated with cs_duration 1 and 2, three tree seeds, best of
#: 3-5 windows of 100k steps, 2-CPU x86_64 host) the filtered/dense
#: steps/s ratio was 0.67-1.03 at n=160, 0.76-1.36 at n=192 and
#: 1.05-1.44 from n=224 on
FILTER_THRESHOLD = 192

# protocol phases (decoded back to the object engine's strings in views)
_OUT, _REQ, _IN = 0, 1, 2
_STATE_NAMES = ("Out", "Req", "In")

# message type tags
_MT_REST, _MT_PUSHT, _MT_PRIOT, _MT_CTRL = 0, 1, 2, 3
_MT_NAMES = ("ResT", "PushT", "PrioT", "Ctrl")

# process kinds
_K_NAIVE = 0
_K_PUSHER = 1
_K_PRIORITY = 2
_K_SELFSTAB = 3
_K_SELFSTAB_ROOT = 4
_K_RING = 5
_K_RING_ROOT = 6

# workload kinds
_A_NONE = 0
_A_IDLE = 1
_A_SATURATED = 2
_A_ONESHOT = 3
_A_SCRIPTED = 4
_A_HOG = 5


class LoweringError(ValueError):
    """The object configuration cannot be represented in flat arrays."""


#: cached struct packers for count-framed digest parts, by word count
_PART_STRUCTS: dict[int, struct.Struct] = {}
#: digest part of an empty channel (count prefix 0, no words)
_EMPTY_PART = struct.pack("<q", 0)
#: one packed ``(w0, w1)`` digest message, no count prefix
_PK2 = struct.Struct("<2q").pack


def _pack_part(words: list[int]) -> bytes:
    """Pack digest words as little-endian int64, count-prefixed.

    The count prefix keeps variable-length parts (reserved-token label
    runs, channel queues) injective when parts are concatenated.
    """
    k = len(words)
    s = _PART_STRUCTS.get(k)
    if s is None:
        s = _PART_STRUCTS[k] = struct.Struct(f"<{k + 1}q")
    return s.pack(k, *words)


def _pack_ctrl(c: int, r: bool, pt: int, ppr: int) -> tuple[int, int]:
    return _MT_CTRL | (4 if r else 0) | (ppr << 3) | (pt << 5), c


def _decode(w0: int, w1: int):
    """Packed words back to the frozen message dataclass (codec only)."""
    mt = w0 & 3
    if mt == _MT_REST:
        return ResT(uid=w1)
    if mt == _MT_PUSHT:
        return PushT(uid=w1)
    if mt == _MT_PRIOT:
        return PrioT(uid=w1)
    return Ctrl(c=w1, r=bool(w0 & 4), pt=w0 >> 5, ppr=(w0 >> 3) & 3)


class _ProcView:
    """Live, read-only view of one lowered process.

    Attribute presence mirrors the object process classes exactly —
    a naive view has no ``prio``, a ring view no ``succ`` — so
    :func:`~repro.analysis.invariants.domains_ok`-style ``getattr``
    probing sees the same shape on both backends.
    """

    __slots__ = ("_e", "pid")

    #: attributes available per kind, beyond the base set
    _EXTRA = {
        _K_NAIVE: frozenset(),
        _K_PUSHER: frozenset(),
        _K_PRIORITY: frozenset({"prio", "_prio_uid"}),
        _K_SELFSTAB: frozenset({"prio", "_prio_uid", "myc", "succ"}),
        _K_SELFSTAB_ROOT: frozenset(
            {
                "prio",
                "_prio_uid",
                "myc",
                "succ",
                "reset",
                "stoken",
                "sprio",
                "spush",
                "circulations",
                "resets",
                "seam",
            }
        ),
        _K_RING: frozenset({"prio", "_prio_uid", "myc"}),
        _K_RING_ROOT: frozenset(
            {
                "prio",
                "_prio_uid",
                "myc",
                "reset",
                "stoken",
                "sprio",
                "spush",
                "circulations",
                "resets",
            }
        ),
    }

    def __init__(self, engine: "ArrayEngine", pid: int) -> None:
        object.__setattr__(self, "_e", engine)
        object.__setattr__(self, "pid", pid)

    def __getattr__(self, name: str):
        if name in ("_e", "pid") or name.startswith("__"):
            # unset slots during copy/pickle reconstruction, and dunder
            # protocol probes, must not recurse through the facade
            raise AttributeError(name)
        e: ArrayEngine = self._e
        p: int = self.pid
        if name == "degree":
            return e._deg[p]
        if name == "state":
            return _STATE_NAMES[e._state[p]]
        if name == "need":
            return e._need[p]
        if name == "rset":
            return list(e._rset.get(p, ()))
        if name == "is_root":
            return bool(e._is_root[p])
        if name == "params":
            return e._params
        kind = e._kind[p]
        if name not in self._EXTRA[kind]:
            raise AttributeError(name)
        if name == "prio":
            v = e._prio[p]
            return None if v < 0 else v
        if name == "_prio_uid":
            return e._prio_uid[p]
        if name == "myc":
            return e._myc[p]
        if name == "succ":
            return e._succ[p]
        # root-only scalars
        return getattr(e, "_root_" + name.lstrip("_"))

    def reserved_tokens(self) -> list[tuple[int, int]]:
        """``(label, uid)`` pairs currently reserved (mirror of base)."""
        return list(self._e._rset.get(self.pid, ()))

    def holds_priority(self) -> bool:
        """Whether this process currently holds the priority token."""
        return self._e._prio[self.pid] >= 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<array proc {self.pid} {self.state}>"


class _ProcSeq(Sequence):
    """Lazy sequence of :class:`_ProcView` (built on first access)."""

    __slots__ = ("_e", "_cache")

    def __init__(self, engine: "ArrayEngine") -> None:
        self._e = engine
        self._cache: dict[int, _ProcView] = {}

    def __len__(self) -> int:
        return self._e.n

    def __getitem__(self, pid):
        if isinstance(pid, slice):
            return [self[i] for i in range(*pid.indices(len(self)))]
        if pid < 0:
            pid += len(self)
        if not 0 <= pid < len(self):
            raise IndexError(pid)
        view = self._cache.get(pid)
        if view is None:
            view = self._cache[pid] = _ProcView(self._e, pid)
        return view

    def __iter__(self) -> Iterator[_ProcView]:
        for pid in range(len(self)):
            yield self[pid]


class _NetView:
    """Topology/traffic facade matching the :class:`Network` accessors
    the analysis layer uses (census + pending-message probes)."""

    __slots__ = ("_e",)

    def __init__(self, engine: "ArrayEngine") -> None:
        self._e = engine

    @property
    def n(self) -> int:
        return self._e.n

    def degree(self, pid: int) -> int:
        return self._e._deg[pid]

    def free_token_counts(self) -> dict[str, int]:
        """In-flight token census by type (mirror of Network)."""
        tags = self._e._queued_tags()
        return {
            "ResT": tags[_MT_REST],
            "PushT": tags[_MT_PUSHT],
            "PrioT": tags[_MT_PRIOT],
        }

    def pending_messages(self) -> int:
        """Total queued messages across all channels."""
        return sum(self._e._ch_len)


class ArrayEngine:
    """Flat-array kernel, step-for-step equivalent to :class:`Engine`.

    Construct via :meth:`from_engine` (lower a built object engine) or
    :meth:`from_scratch` (build the arrays directly — used for scales
    where even instantiating the object network is too expensive).
    """

    def __init__(
        self,
        *,
        n: int,
        params,
        scheduler: Scheduler,
        timeout_interval: int,
        filter_threshold: int = FILTER_THRESHOLD,
    ) -> None:
        if not getattr(scheduler, "deterministic_batch", False):
            raise LoweringError(
                "array backend requires a deterministic_batch scheduler "
                f"(got {type(scheduler).__name__}); use backend='object'"
            )
        self.n = n
        self.now = 0
        self.total_cs_entries = 0
        self.scheduler = scheduler
        self.timeout_interval = timeout_interval
        self.counters: CounterMap = CounterMap(n)
        self.counters_version = 0
        self.sent_by_type: dict[str, int] = {}
        self.filter_threshold = filter_threshold
        self._params = params
        self._k = params.k
        self._l = params.l
        self._pt_cap = params.pt_cap
        self._small_cap = params.small_cap
        self._myc_mod = 2  # set per root kind during construction
        # topology (CSR): neighbor edge e = _nbr_off[p] + label
        self._deg = [0] * n
        self._nbr_off = [0] * (n + 1)
        self._in_slot: list[int] = []
        self._out_slot: list[int] = []
        # channels: ring buffers, slot order = Network.channels order.
        # The dense loop steps through plain lists (scalar numpy access
        # would dominate an executed step); the filtered loop selects
        # ready draws with vector ops over numpy columns.  The
        # representation is fixed here and kept by every reallocation.
        dense = n < filter_threshold
        self._cap = 0  # ring size shared by every channel; only grows
        self._nchan = 0
        self._buf0 = [] if dense else np.empty(0, dtype=np.int64)
        self._buf1 = [] if dense else np.empty(0, dtype=np.int64)
        self._ch_head: list[int] = []
        self._ch_len: list[int] = []
        self._ch_sent: list[int] = []
        self._ch_delivered: list[int] = []
        self._ch_peak: list[int] = []
        self._ch_src: list[int] = []
        self._ch_dst: list[int] = []
        # per-pid protocol state
        self._kind = [0] * n
        self._is_root = [False] * n
        self._state = [0] * n
        self._need = [0] * n
        self._rset: dict[int, list[tuple[int, int]]] = {}
        self._prio = [-1] * n
        self._prio_uid = [0] * n
        self._myc = [0] * n
        self._succ = [0] * n
        self._scan = [0] * n
        self._timer_start = [0] * n
        # root scalars (at most one stabilizing root per configuration)
        self._root_pid = -1
        self._root_reset = False
        self._root_stoken = 0
        self._root_sprio = 0
        self._root_spush = 0
        self._root_circulations = 0
        self._root_resets = 0
        self._root_seam = "consistent"
        # workloads
        self._app_kind = [0] * n
        self._app_need = [0] * n
        self._app_at = [0] * n
        self._app_dur = [1] * n
        self._app_think = [0] * n
        self._app_last_exit = [-1] * n
        self._app_done = [False] * n
        self._cs_since = [-1] * n
        self._cs_len = [1] * n
        self._scr_off = [0] * (n + 1)
        self._scr_at: list[int] = []
        self._scr_need: list[int] = []
        self._scr_dur: list[int] = []
        self._scr_i = [0] * n  # absolute index into the flat script arrays
        # streaming request metrics (O(1) memory, replaces the app ledger)
        self._epoch = 0
        self._m_requests = 0
        self._m_satisfied = 0
        self._m_wait_sum = 0
        self._m_wait_n = 0
        self._m_wait_max = -1
        self._m_wait_steps_max = -1
        self._open_req = [False] * n
        self._req_at = [0] * n
        self._cs_at_req = [0] * n
        # activity filter
        self._pending = [0] * n
        self._wake_at = [0] * n
        self._ready_at = [0] * n if dense else np.zeros(n, dtype=np.int64)
        self._dsts: list[int] = []  # send destinations of the current step
        self._track_dsts = False
        # exploration word journal (None = off; armed by explore_prepare)
        self._jrnl_chans: list[tuple] | None = None
        self._jrnl_sent: list[tuple] | None = None
        self._jrnl_cnt: list[tuple] | None = None
        # exploration bookkeeping: the state tuple the engine currently
        # holds (for lazy seeks), the engine-lifetime move memo and the
        # parent-level expansion memo (the latter tags the invariant its
        # cached verdicts belong to under its "__inv__" key)
        self._held: tuple | None = None
        self._explore_memo: dict = {}
        self._explore_xmemo: dict = {}
        # facades
        self.processes = _ProcSeq(self)
        self.network = _NetView(self)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_engine(
        cls,
        engine: Engine,
        *,
        filter_threshold: int = FILTER_THRESHOLD,
    ) -> "ArrayEngine":
        """Lower a built (and possibly fault-injected) object engine."""
        if engine._observers:
            raise LoweringError(
                "array backend cannot attach observers; use backend='object'"
            )
        procs = engine.processes
        if not procs:
            raise LoweringError("cannot lower an empty engine")
        params = procs[0].params
        self = cls(
            n=engine.network.n,
            params=params,
            scheduler=engine.scheduler,
            timeout_interval=engine.timeout_interval,
            filter_threshold=filter_threshold,
        )
        self.now = engine.now
        self.total_cs_entries = engine.total_cs_entries
        for kind, row in engine.counters.items():
            self.counters[kind] = list(row)
        self.counters_version = engine.counters_version
        self.sent_by_type = dict(engine.sent_by_type)
        self._scan = list(engine._scan)
        self._timer_start = list(engine._timer_start)
        # -- channels: slot order is the object codec's slot order
        network = engine.network
        chan_list = engine._chan_list
        slot_of = {id(c): i for i, c in enumerate(chan_list)}
        # Initial ring size: room for the legitimate token population
        # (l + push + prio), the root's full reset generation minted on
        # top of stale in-flight garbage, and the lowered queues.  Rings
        # grow past it on demand.
        max_qlen = max((len(c.queue) for c in chan_list), default=0)
        self._alloc_channels(
            len(chan_list),
            max(8, 2 * params.l + params.cmax + 8, max_qlen + params.l + 4),
        )
        for slot, chan in enumerate(chan_list):
            self._ch_src[slot] = chan.src
            self._ch_dst[slot] = chan.dst
            self._ch_sent[slot] = chan.stats.sent
            self._ch_delivered[slot] = chan.stats.delivered
            for msg in chan.queue:
                self._enqueue_raw(slot, *self._pack_message(msg))
            # After the replay (which tracks occupancy): the object stat
            # is authoritative — faults may splice messages into the
            # deque without ever touching the channel's send-path stats.
            self._ch_peak[slot] = chan.stats.peak_occupancy
        # -- CSR adjacency
        off = 0
        for p in range(self.n):
            deg = network.degree(p)
            self._deg[p] = deg
            self._nbr_off[p] = off
            for lbl in range(deg):
                self._out_slot.append(slot_of[id(network.out_channel(p, lbl))])
                self._in_slot.append(slot_of[id(network.in_channel(p, lbl))])
            off += deg
        self._nbr_off[self.n] = off
        # -- processes (ascending pid keeps the script CSR offsets sorted)
        for p, proc in enumerate(procs):
            self._lower_process(p, proc)
            self._lower_app(p, getattr(proc, "app", None))
            self._scr_off[p + 1] = len(self._scr_at)
        self._recompute_all_wakes()
        return self

    def _pack_message(self, msg) -> tuple[int, int]:
        t = type(msg)
        if t is Ctrl:
            if not (0 <= msg.ppr <= 3 and 0 <= msg.pt and 0 <= msg.c < 1 << 62):
                raise LoweringError(
                    f"Ctrl fields out of packable range: {msg!r}"
                )
            return _pack_ctrl(msg.c, msg.r, msg.pt, msg.ppr)
        if t is ResT:
            mt = _MT_REST
        elif t is PushT:
            mt = _MT_PUSHT
        elif t is PrioT:
            mt = _MT_PRIOT
        else:
            raise LoweringError(f"cannot pack message type {t.__name__}")
        if not 0 <= msg.uid < 1 << 62:
            raise LoweringError(f"token uid out of packable range: {msg!r}")
        return mt, msg.uid

    def _alloc_channels(self, nchan: int, cap: int) -> None:
        self._nchan = nchan
        self._cap = cap
        self._buf0, self._buf1 = self._new_rings(nchan * cap)
        self._ch_head = [0] * nchan
        self._ch_len = [0] * nchan
        self._ch_sent = [0] * nchan
        self._ch_delivered = [0] * nchan
        self._ch_peak = [0] * nchan
        self._ch_src = [0] * nchan
        self._ch_dst = [0] * nchan

    def _enqueue_raw(self, slot: int, w0: int, w1: int) -> None:
        """Enqueue without traffic accounting (initial queue contents)."""
        ln = self._ch_len[slot]
        if ln >= self._cap:
            self._grow_channels()
        cap = self._cap
        pos = slot * cap + (self._ch_head[slot] + ln) % cap
        self._buf0[pos] = w0
        self._buf1[pos] = w1
        self._ch_len[slot] = ln + 1
        if ln + 1 > self._ch_peak[slot]:
            self._ch_peak[slot] = ln + 1
        dst = self._ch_dst[slot]
        self._pending[dst] += 1
        self._ready_at[dst] = 0

    def _lower_process(self, p: int, proc) -> None:
        t = type(proc)
        if t is NaiveProcess:
            kind = _K_NAIVE
        elif t is PusherProcess:
            kind = _K_PUSHER
        elif t is PriorityProcess:
            kind = _K_PRIORITY
        elif t is SelfStabProcess:
            kind = _K_SELFSTAB
        elif t is SelfStabRoot:
            kind = _K_SELFSTAB_ROOT
        elif t is RingProcess:
            kind = _K_RING
        elif t is RingRoot:
            kind = _K_RING_ROOT
        else:
            raise LoweringError(
                f"array backend cannot represent process type {t.__name__}; "
                "use backend='object'"
            )
        if kind >= _K_PUSHER and getattr(proc, "pusher_guard", "prose") != "prose":
            raise LoweringError(
                "array backend implements only the prose pusher guard "
                f"(got {proc.pusher_guard!r}); use backend='object'"
            )
        self._kind[p] = kind
        self._is_root[p] = bool(getattr(proc, "is_root", False))
        self._state[p] = _STATE_NAMES.index(proc.state)
        self._need[p] = proc.need
        if proc.rset:
            self._rset[p] = [tuple(e) for e in proc.rset]
        if kind >= _K_PRIORITY:
            self._prio[p] = -1 if proc.prio is None else proc.prio
            self._prio_uid[p] = proc._prio_uid
        if kind in (_K_SELFSTAB, _K_SELFSTAB_ROOT):
            self._myc[p] = proc.myc
            self._succ[p] = proc.succ
        elif kind in (_K_RING, _K_RING_ROOT):
            self._myc[p] = proc.myc
        if kind in (_K_SELFSTAB_ROOT, _K_RING_ROOT):
            if self._root_pid >= 0:
                raise LoweringError("more than one stabilizing root")
            self._root_pid = p
            self._root_reset = bool(proc.reset)
            self._root_stoken = proc.stoken
            self._root_sprio = proc.sprio
            self._root_spush = proc.spush
            self._root_circulations = proc.circulations
            self._root_resets = proc.resets
            if kind == _K_SELFSTAB_ROOT:
                self._root_seam = proc.seam
                self._myc_mod = self._params.myc_modulus
            else:
                from ..baselines.ring import ring_myc_modulus

                self._myc_mod = ring_myc_modulus(self._params)

    def _lower_app(self, p: int, app) -> None:
        if app is None:
            self._app_kind[p] = _A_NONE
            return
        t = type(app)
        if t is IdleApplication:
            self._app_kind[p] = _A_IDLE
        elif t is SaturatedWorkload:
            self._app_kind[p] = _A_SATURATED
            self._app_need[p] = app.need
            self._app_dur[p] = app.cs_duration
            self._app_think[p] = app.think_time
            le = app._last_exit
            self._app_last_exit[p] = -1 if le is None else le
        elif t is OneShotWorkload:
            self._app_kind[p] = _A_ONESHOT
            self._app_need[p] = app.need
            self._app_at[p] = app.at
            self._app_dur[p] = app.cs_duration
            self._app_done[p] = app._done
        elif t is ScriptedWorkload:
            self._app_kind[p] = _A_SCRIPTED
            base = len(self._scr_at)
            for at, need, dur in app.script:
                self._scr_at.append(at)
                self._scr_need.append(need)
                self._scr_dur.append(dur)
            self._scr_off[p] = base
            self._scr_i[p] = base + app._i
            self._cs_len[p] = app._cs_len
        elif t is HogWorkload:
            self._app_kind[p] = _A_HOG
            self._app_need[p] = app.need
            self._app_at[p] = app.at
            self._app_done[p] = app._done
        else:
            raise LoweringError(
                f"array backend cannot represent workload {t.__name__} "
                "(non-deterministic or unknown); use backend='object'"
            )
        cs = app._cs_since
        self._cs_since[p] = -1 if cs is None else cs
        # replay the request ledger into the streaming aggregates
        for rec in app.requests:
            self._m_requests += 1
            if rec.entered_at is not None:
                self._m_satisfied += 1
                wt = rec.cs_total_at_enter - rec.cs_total_at_request
                ws = rec.entered_at - rec.requested_at
                self._m_wait_sum += wt
                self._m_wait_n += 1
                if wt > self._m_wait_max:
                    self._m_wait_max = wt
                if ws > self._m_wait_steps_max:
                    self._m_wait_steps_max = ws
        if app.requests and app.requests[-1].entered_at is None:
            rec = app.requests[-1]
            self._open_req[p] = True
            self._req_at[p] = rec.requested_at
            self._cs_at_req[p] = rec.cs_total_at_request

    @classmethod
    def from_scratch(
        cls,
        tree,
        params,
        *,
        variant: str = "selfstab",
        scheduler: Scheduler | None = None,
        workload: str = "saturated",
        cs_duration: int = 1,
        think_time: int = 0,
        init: str = "tokens",
        seam: str = "consistent",
        timeout_interval: int | None = None,
        filter_threshold: int = FILTER_THRESHOLD,
    ) -> "ArrayEngine":
        """Build the arrays directly from an :class:`OrientedTree`.

        Skips the object network entirely, so n=10^6 scenarios fit in
        memory.  Supports the bench scenario shape: ``selfstab`` on a
        tree with the ``saturated`` (need = 1 + pid mod k) or ``idle``
        workload.  Equality with the lowered construction is proven by
        the differential suite at small n.
        """
        if variant != "selfstab":
            raise LoweringError(
                "from_scratch supports the selfstab variant only; lower "
                "an object engine for other variants"
            )
        if workload not in ("saturated", "idle"):
            raise LoweringError("from_scratch workload must be saturated|idle")
        n = tree.n
        if timeout_interval is None:
            ring_len = max(2 * (n - 1), 1)
            timeout_interval = 4 * ring_len * n + 64
        self = cls(
            n=n,
            params=params,
            scheduler=scheduler or RoundRobinScheduler(n),
            timeout_interval=timeout_interval,
            filter_threshold=filter_threshold,
        )
        # channel slot order replicates Network.__init__ insertion order:
        # for p ascending, for q in labels order: (p, q) then (q, p).
        slot_of: dict[tuple[int, int], int] = {}
        order: list[tuple[int, int]] = []
        for p in range(n):
            for q in tree.neighbors(p):
                for edge in ((p, q), (q, p)):
                    if edge not in slot_of:
                        slot_of[edge] = len(order)
                        order.append(edge)
        self._alloc_channels(
            len(order), max(8, 2 * params.l + params.cmax + 8)
        )
        for slot, (src, dst) in enumerate(order):
            self._ch_src[slot] = src
            self._ch_dst[slot] = dst
        off = 0
        for p in range(n):
            nbrs = tree.neighbors(p)
            self._deg[p] = len(nbrs)
            self._nbr_off[p] = off
            for q in nbrs:
                self._out_slot.append(slot_of[(p, q)])
                self._in_slot.append(slot_of[(q, p)])
            off += len(nbrs)
        self._nbr_off[n] = off
        root = tree.root
        for p in range(n):
            self._kind[p] = _K_SELFSTAB_ROOT if p == root else _K_SELFSTAB
            self._is_root[p] = p == root
        self._root_pid = root
        self._root_seam = seam
        self._myc_mod = params.myc_modulus
        if workload == "saturated":
            for p in range(n):
                self._app_kind[p] = _A_SATURATED
                self._app_need[p] = 1 + p % params.k
                self._app_dur[p] = cs_duration
                self._app_think[p] = think_time
        else:
            for p in range(n):
                self._app_kind[p] = _A_IDLE
        if init == "tokens" and n > 1:
            slot = self._out_slot[self._nbr_off[root]]
            for _ in range(params.l):
                self._enqueue_raw(slot, _MT_REST, fresh_uid())
            self._enqueue_raw(slot, _MT_PUSHT, fresh_uid())
            self._enqueue_raw(slot, _MT_PRIOT, fresh_uid())
        elif init not in ("tokens", "empty"):
            raise LoweringError(f"unknown init {init!r}")
        self._recompute_all_wakes()
        return self

    # ------------------------------------------------------------------
    # Channel primitives
    # ------------------------------------------------------------------
    def _send(self, p: int, label: int, w0: int, w1: int) -> None:
        slot = self._out_slot[self._nbr_off[p] + label]
        ln = self._ch_len[slot]
        if ln >= self._cap:
            self._grow_channels()
        cap = self._cap
        pos = slot * cap + (self._ch_head[slot] + ln) % cap
        self._buf0[pos] = w0
        self._buf1[pos] = w1
        self._ch_len[slot] = ln + 1
        self._ch_sent[slot] += 1
        name = _MT_NAMES[w0 & 3]
        counts = self.sent_by_type
        jc = self._jrnl_chans
        if jc is not None:
            jc.append((slot, self._ch_peak[slot]))
            self._jrnl_sent.append((name, counts.get(name)))
        if ln + 1 > self._ch_peak[slot]:
            self._ch_peak[slot] = ln + 1
        counts[name] = counts.get(name, 0) + 1
        dst = self._ch_dst[slot]
        self._pending[dst] += 1
        self._ready_at[dst] = 0
        if self._track_dsts:
            self._dsts.append(dst)

    def _grow_channels(self) -> None:
        """Double the ring size of every channel, re-laying each queue
        from position 0 in its new ring (queue order is unchanged)."""
        secs = [self._chan_section(s) for s in range(self._nchan)]
        self._cap *= 2
        self._buf0, self._buf1 = self._new_rings(self._nchan * self._cap)
        for s, sec in enumerate(secs):
            self._load_chan_section(s, sec)

    def _new_rings(self, size: int) -> tuple:
        """Two zeroed word buffers of ``size`` cells, in the current
        representation (plain lists on dense or exploring engines)."""
        if isinstance(self._buf0, list):
            return [0] * size, [0] * size
        return np.zeros(size, dtype=np.int64), np.zeros(size, dtype=np.int64)

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def _bump(self, p: int, kind: str) -> None:
        self.counters_version += 1
        row = self.counters.get(kind)
        jn = self._jrnl_cnt
        if row is None:
            if jn is not None:
                jn.append((kind, None, 0))
            row = self.counters[kind] = [0] * self.n
        elif jn is not None:
            jn.append((kind, p, row[p]))
        row[p] += 1
        if kind == "enter_cs":
            self.total_cs_entries += 1

    # ------------------------------------------------------------------
    # Step executor (exact transcription of the object semantics)
    # ------------------------------------------------------------------
    def _exec_step(self, p: int, t: int) -> None:
        pending = self._pending
        if pending[p]:  # a pending message implies deg > 0
            deg = self._deg[p]
            label = self._scan[p]
            nbr = self._nbr_off[p]
            in_slot = self._in_slot
            ch_len = self._ch_len
            for _ in range(deg):
                slot = in_slot[nbr + label]
                if ch_len[slot]:
                    cap = self._cap
                    ch_head = self._ch_head
                    head = ch_head[slot]
                    pos = slot * cap + head
                    buf0 = self._buf0
                    w0 = buf0[pos]
                    w1 = self._buf1[pos]
                    if buf0.__class__ is not list:  # numpy int64 scalars
                        w0 = int(w0)
                        w1 = int(w1)
                    ch_head[slot] = (head + 1) % cap
                    ch_len[slot] -= 1
                    self._ch_delivered[slot] += 1
                    pending[p] -= 1
                    nxt = label + 1
                    self._scan[p] = nxt if nxt < deg else 0
                    if not self._dispatch(p, label, w0, w1, t):
                        # a relay: the guard columns are as the pid's
                        # last step left them, so its stamp is still
                        # exact, and a future one means the tail would
                        # be a no-op (module docstring, relay steps)
                        w = self._wake_at[p]
                        if w > t:
                            self._ready_at[p] = 0 if pending[p] else w
                            return
                    break
                label += 1
                if label == deg:
                    label = 0
        self._on_local(p, t)
        self._recompute_wake(p)

    def _dispatch(self, p: int, q: int, w0: int, w1: int, t: int) -> bool:
        """Deliver one message; returns whether it wrote a column the
        guard tail or the wake stamp reads (False: a relay or a drop)."""
        mt = w0 & 3
        kind = self._kind[p]
        if mt == _MT_CTRL:
            if kind == _K_SELFSTAB:
                return self._ctrl_selfstab(p, q, w0, w1)
            if kind == _K_SELFSTAB_ROOT:
                self._ctrl_selfstab_root(p, q, w0, w1, t)
                return True
            if kind == _K_RING:
                return self._ctrl_ring(p, q, w0, w1)
            if kind == _K_RING_ROOT:
                self._ctrl_ring_root(p, q, w0, w1, t)
                return True
            return False  # naive/pusher/priority drop Ctrl
        # token messages
        if kind >= _K_RING:
            if self._root_pid == p and self._root_reset:
                return False  # ring root drops tokens while resetting
            q = 0  # ring mixin canonicalizes token arrivals to PRED
        elif kind == _K_SELFSTAB_ROOT and self._root_reset:
            return False  # tree root drops tokens while resetting
        if mt == _MT_REST:
            return self._handle_rest(p, q, w1, kind)
        if mt == _MT_PUSHT:
            if kind == _K_NAIVE:
                return False
            return self._handle_pusht(p, q, w1, kind)
        # PrioT
        if kind <= _K_PUSHER:
            return False
        return self._handle_priot(p, q, w1, kind)

    # -- seam bookkeeping (root octopus/ring seam counters) -------------
    def _at_seam(self, p: int, kind: int, lbl: int) -> bool:
        if kind == _K_SELFSTAB_ROOT:
            return lbl == self._deg[p] - 1
        return kind == _K_RING_ROOT  # ring tokens always arrive at PRED

    def _handle_rest(self, p: int, q: int, uid: int, kind: int) -> bool:
        if self._state[p] == _REQ and len(self._rset.get(p, ())) < self._need[p]:
            if self._at_seam(p, kind, q) and (
                kind == _K_RING_ROOT or self._root_seam == "consistent"
            ):
                s = self._root_stoken + 1
                self._root_stoken = s if s < self._pt_cap else self._pt_cap
            self._rset.setdefault(p, []).append((q, uid))
            return True
        if self._at_seam(p, kind, q):  # forward hook fires in both modes
            s = self._root_stoken + 1
            self._root_stoken = s if s < self._pt_cap else self._pt_cap
        nxt = q + 1
        self._send(p, nxt if nxt < self._deg[p] else 0, _MT_REST, uid)
        return False

    def _release_rset(self, p: int, kind: int) -> bool:
        """Forward every reserved token; returns whether any was sent."""
        rset = self._rset.get(p)
        if not rset:
            return False
        deg = self._deg[p]
        literal_root = (
            kind == _K_SELFSTAB_ROOT and self._root_seam == "literal"
        )
        for lbl, uid in rset:
            if literal_root and lbl == deg - 1:
                s = self._root_stoken + 1
                self._root_stoken = s if s < self._pt_cap else self._pt_cap
            nxt = lbl + 1
            self._send(p, nxt if nxt < deg else 0, _MT_REST, uid)
        rset.clear()
        return True

    def _handle_pusht(self, p: int, q: int, uid: int, kind: int) -> bool:
        enabled = (
            self._state[p] == _REQ
            and len(self._rset.get(p, ())) >= self._need[p]
        )
        prio_clause = self._prio[p] < 0  # holds for pusher (no prio attr)
        released = (
            prio_clause
            and not enabled
            and self._state[p] != _IN
            and self._release_rset(p, kind)
        )
        if self._at_seam(p, kind, q):  # push-forward seam hook (both modes)
            s = self._root_spush + 1
            self._root_spush = s if s < self._small_cap else self._small_cap
        nxt = q + 1
        self._send(p, nxt if nxt < self._deg[p] else 0, _MT_PUSHT, uid)
        return released

    def _handle_priot(self, p: int, q: int, uid: int, kind: int) -> bool:
        if self._at_seam(p, kind, q) and (
            kind == _K_RING_ROOT or self._root_seam == "consistent"
        ):
            s = self._root_sprio + 1
            self._root_sprio = s if s < self._small_cap else self._small_cap
        if self._prio[p] < 0:
            self._prio[p] = q
            self._prio_uid[p] = uid
            return True
        nxt = q + 1
        self._send(p, nxt if nxt < self._deg[p] else 0, _MT_PRIOT, uid)
        return False

    def _rset_count(self, p: int, q: int) -> int:
        rset = self._rset.get(p)
        if not rset:
            return 0
        return sum(1 for lbl, _ in rset if lbl == q)

    # -- controller handlers -------------------------------------------
    def _reset_clear(self, p: int) -> bool:
        """A reset wave's clear of RSet and Prio; returns whether it
        dropped anything (a write to the guard columns)."""
        held = bool(self._rset.pop(p, None)) or self._prio[p] >= 0
        self._prio[p] = -1
        return held

    def _ctrl_selfstab(self, p: int, q: int, w0: int, w1: int) -> bool:
        c = w1
        r = bool(w0 & 4)
        ppr = (w0 >> 3) & 3
        pt = w0 >> 5
        ok = False
        wrote = False
        if q == self._succ[p] and self._myc[p] == c and self._succ[p] != 0:
            self._succ[p] = (self._succ[p] + 1) % self._deg[p]
            ok = True
            if r:
                wrote = self._reset_clear(p)
        if q == 0:
            ok = True
            if self._myc[p] != c:
                self._succ[p] = min(1, self._deg[p] - 1)
                if r:
                    wrote = self._reset_clear(p)
            self._myc[p] = c
        if ok:
            pt2 = pt + self._rset_count(p, q)
            if pt2 > self._pt_cap:
                pt2 = self._pt_cap
            ppr2 = ppr
            if self._prio[p] == q:
                ppr2 = ppr + 1
                if ppr2 > self._small_cap:
                    ppr2 = self._small_cap
            self._send(p, self._succ[p], *_pack_ctrl(self._myc[p], r, pt2, ppr2))
        return wrote

    def _ctrl_selfstab_root(
        self, p: int, q: int, w0: int, w1: int, t: int
    ) -> None:
        c = w1
        ppr = (w0 >> 3) & 3
        pt = w0 >> 5
        if q != self._succ[p] or self._myc[p] != c:
            return
        deg = self._deg[p]
        self._succ[p] = (self._succ[p] + 1) % deg
        if self._succ[p] == 0:
            self._myc[p] = (self._myc[p] + 1) % self._myc_mod
            self._root_circulations += 1
            reset = (
                pt + self._root_stoken > self._l
                or ppr + self._root_sprio > 1
                or self._root_spush > 1
            )
            self._root_reset = reset
            if reset:
                self._root_resets += 1
                self._reset_clear(p)
                self._bump(p, "reset")
            else:
                if ppr + self._root_sprio < 1:
                    self._send(p, 0, _MT_PRIOT, fresh_uid())
                    self._bump(p, "create_prio")
                while pt + self._root_stoken < self._l:
                    self._send(p, 0, _MT_REST, fresh_uid())
                    s = self._root_stoken + 1
                    self._root_stoken = (
                        s if s < self._pt_cap else self._pt_cap
                    )
                    self._bump(p, "create_rest")
                if self._root_spush < 1:
                    self._send(p, 0, _MT_PUSHT, fresh_uid())
                    self._bump(p, "create_push")
            self._root_stoken = 0
            self._root_sprio = 0
            self._root_spush = 0
            pt = 0
            ppr = 0
        pt2 = pt + self._rset_count(p, q)
        if pt2 > self._pt_cap:
            pt2 = self._pt_cap
        ppr2 = ppr
        if self._prio[p] == q:
            ppr2 = ppr + 1
            if ppr2 > self._small_cap:
                ppr2 = self._small_cap
        self._send(
            p,
            self._succ[p],
            *_pack_ctrl(self._myc[p], self._root_reset, pt2, ppr2),
        )
        self._timer_start[p] = t

    def _ctrl_ring(self, p: int, q: int, w0: int, w1: int) -> bool:
        if q != 0:  # PRED only
            return False
        c = w1
        wrote = False
        if c != self._myc[p]:
            r = bool(w0 & 4)
            ppr = (w0 >> 3) & 3
            pt = w0 >> 5
            self._myc[p] = c
            if r:
                wrote = self._reset_clear(p)
            pt2 = pt + self._rset_count(p, 0)
            if pt2 > self._pt_cap:
                pt2 = self._pt_cap
            ppr2 = ppr
            if self._prio[p] == 0:
                ppr2 = ppr + 1
                if ppr2 > self._small_cap:
                    ppr2 = self._small_cap
            self._send(p, 1, *_pack_ctrl(self._myc[p], r, pt2, ppr2))
        else:
            self._send(p, 1, w0, w1)  # stale duplicate: relay unchanged
        return wrote

    def _ctrl_ring_root(self, p: int, q: int, w0: int, w1: int, t: int) -> None:
        if q != 0 or w1 != self._myc[p]:
            return
        ppr = (w0 >> 3) & 3
        pt = w0 >> 5
        self._root_circulations += 1
        self._myc[p] = (self._myc[p] + 1) % self._myc_mod
        reset = (
            pt + self._root_stoken > self._l
            or ppr + self._root_sprio > 1
            or self._root_spush > 1
        )
        self._root_reset = reset
        if reset:
            self._root_resets += 1
            self._reset_clear(p)
            self._bump(p, "reset")
        else:
            if ppr + self._root_sprio < 1:
                self._send(p, 1, _MT_PRIOT, fresh_uid())
                self._bump(p, "create_prio")
            missing = self._l - min(pt + self._root_stoken, self._l)
            for _ in range(missing):
                self._send(p, 1, _MT_REST, fresh_uid())
                self._bump(p, "create_rest")
            if self._root_spush < 1:
                self._send(p, 1, _MT_PUSHT, fresh_uid())
                self._bump(p, "create_push")
        self._root_stoken = 0
        self._root_sprio = 0
        self._root_spush = 0
        pt0 = self._rset_count(p, 0)
        if pt0 > self._pt_cap:
            pt0 = self._pt_cap
        ppr0 = 1 if self._prio[p] == 0 else 0
        self._send(p, 1, *_pack_ctrl(self._myc[p], reset, pt0, ppr0))
        self._timer_start[p] = t

    # -- local guard tail ----------------------------------------------
    def _on_local(self, p: int, t: int) -> None:
        state = self._state[p]
        ak = self._app_kind[p]
        if state == _OUT and ak:
            need = self._maybe_request(p, t)
            if need is not None:
                need = min(need, self._k)
                self._need[p] = need if need > 0 else 0
                self._state[p] = state = _REQ
                self._open_req[p] = True
                self._req_at[p] = t
                self._cs_at_req[p] = self.total_cs_entries
                self._m_requests += 1
                self._bump(p, "request")
        if state == _REQ and (
            len(self._rset.get(p, ())) >= self._need[p] or self._deg[p] == 0
        ):
            self._state[p] = state = _IN
            self._bump(p, "enter_cs")
            if ak:
                self._cs_since[p] = t
                if self._open_req[p]:
                    self._open_req[p] = False
                    if self._req_at[p] >= self._epoch:
                        self._m_satisfied += 1
                        wt = (self.total_cs_entries - 1) - self._cs_at_req[p]
                        ws = t - self._req_at[p]
                        self._m_wait_sum += wt
                        self._m_wait_n += 1
                        if wt > self._m_wait_max:
                            self._m_wait_max = wt
                        if ws > self._m_wait_steps_max:
                            self._m_wait_steps_max = ws
        if state == _IN and self._release_cs(p, t):
            kind = self._kind[p]
            self._release_rset(p, kind)
            self._state[p] = _OUT
            self._bump(p, "exit_cs")
            if ak:
                self._cs_since[p] = -1
                if ak == _A_SATURATED:
                    self._app_last_exit[p] = t
        kind = self._kind[p]
        if kind >= _K_PRIORITY:
            prio = self._prio[p]
            if prio >= 0 and (
                self._state[p] != _REQ
                or len(self._rset.get(p, ())) >= self._need[p]
            ):
                if (
                    kind == _K_SELFSTAB_ROOT
                    and self._root_seam == "literal"
                    and prio == self._deg[p] - 1
                ):
                    s = self._root_sprio + 1
                    self._root_sprio = (
                        s if s < self._small_cap else self._small_cap
                    )
                nxt = prio + 1
                deg = self._deg[p]
                self._send(p, nxt if nxt < deg else 0, _MT_PRIOT, self._prio_uid[p])
                self._prio[p] = -1
        if kind == _K_SELFSTAB_ROOT:
            if self._deg[p] and t - self._timer_start[p] >= self.timeout_interval:
                self._send(
                    p,
                    self._succ[p],
                    *_pack_ctrl(self._myc[p], self._root_reset, 0, 0),
                )
                self._timer_start[p] = t
                self._bump(p, "timeout")
        elif kind == _K_RING_ROOT:
            if self._deg[p] and t - self._timer_start[p] >= self.timeout_interval:
                self._send(
                    p, 1, *_pack_ctrl(self._myc[p], self._root_reset, 0, 0)
                )
                self._timer_start[p] = t
                self._bump(p, "timeout")

    def _maybe_request(self, p: int, t: int) -> int | None:
        ak = self._app_kind[p]
        if ak == _A_SATURATED:
            le = self._app_last_exit[p]
            if le >= 0 and t - le < self._app_think[p]:
                return None
            return self._app_need[p]
        if ak == _A_ONESHOT or ak == _A_HOG:
            if self._app_done[p] or t < self._app_at[p]:
                return None
            self._app_done[p] = True
            return self._app_need[p]
        if ak == _A_SCRIPTED:
            i = self._scr_i[p]
            if i >= self._scr_off[p + 1] or t < self._scr_at[i]:
                return None
            self._scr_i[p] = i + 1
            self._cs_len[p] = self._scr_dur[i]
            return self._scr_need[i]
        return None  # idle

    def _release_cs(self, p: int, t: int) -> bool:
        ak = self._app_kind[p]
        if ak == _A_NONE or ak == _A_IDLE:
            return True
        cs = self._cs_since[p]
        if cs < 0:
            return True
        if ak == _A_HOG:
            return False
        if ak == _A_SCRIPTED:
            return t - cs >= self._cs_len[p]
        return t - cs >= self._app_dur[p]  # saturated / oneshot

    # ------------------------------------------------------------------
    # Activity filter
    # ------------------------------------------------------------------
    def _recompute_wake(self, p: int) -> None:
        state = self._state[p]
        ak = self._app_kind[p]
        w = _NEVER
        if state == _OUT:
            if ak == _A_SATURATED:
                le = self._app_last_exit[p]
                w = 0 if le < 0 else le + self._app_think[p]
            elif ak == _A_ONESHOT or ak == _A_HOG:
                if not self._app_done[p]:
                    w = self._app_at[p]
            elif ak == _A_SCRIPTED:
                i = self._scr_i[p]
                if i < self._scr_off[p + 1]:
                    w = self._scr_at[i]
        elif state == _REQ:
            if len(self._rset.get(p, ())) >= self._need[p] or self._deg[p] == 0:
                w = 0
        else:  # _IN
            cs = self._cs_since[p]
            if ak == _A_NONE or ak == _A_IDLE or cs < 0:
                w = 0
            elif ak == _A_SCRIPTED:
                w = cs + self._cs_len[p]
            elif ak != _A_HOG:
                w = cs + self._app_dur[p]
        if w > 0 and self._prio[p] >= 0:
            if state != _REQ or len(self._rset.get(p, ())) >= self._need[p]:
                w = 0
        if w > 0 and self._kind[p] in (_K_SELFSTAB_ROOT, _K_RING_ROOT):
            if self._deg[p]:
                tw = self._timer_start[p] + self.timeout_interval
                if tw < w:
                    w = tw
        self._wake_at[p] = w
        self._ready_at[p] = 0 if self._pending[p] else w

    def _recompute_all_wakes(self) -> None:
        for p in range(self.n):
            self._recompute_wake(p)

    # ------------------------------------------------------------------
    # Batched run loop
    # ------------------------------------------------------------------
    def _draw_batch(self, now: int, count: int) -> np.ndarray:
        sch = self.scheduler
        t = type(sch)
        if t is RoundRobinScheduler:
            return (now + np.arange(count, dtype=np.int64)) % self.n
        if t is RandomScheduler:
            out = np.empty(count, dtype=np.int64)
            filled = 0
            while filled < count:
                if sch._buf is None or sch._i >= len(sch._buf):
                    sch._buf = sch.rng.integers(0, sch.n, size=sch._BATCH)
                    sch._i = 0
                take = min(count - filled, len(sch._buf) - sch._i)
                out[filled : filled + take] = sch._buf[sch._i : sch._i + take]
                sch._i += take
                filled += take
            return out
        return np.asarray(sch.next_pids(now, count), dtype=np.int64)

    def run(self, steps: int) -> "ArrayEngine":
        """Advance ``steps`` scheduler steps (batched)."""
        remaining = steps
        now = self.now
        dense = self.n < self.filter_threshold
        ready_at = self._ready_at
        while remaining > 0:
            b = min(_RUN_BATCH, remaining)
            pids = self._draw_batch(now, b)
            if dense:
                # the readiness test per draw (see the module docstring):
                # a pid with nothing pending and a future wake stamp
                # would step as a no-op
                t = now
                for p in pids.tolist():
                    if ready_at[p] <= t:
                        self._exec_step(p, t)
                    t += 1
            else:
                self._run_filtered(pids, now, b)
            now += b
            self.now = now
            remaining -= b
        return self

    def _next_pos(self, pids: np.ndarray, start: int, p: int) -> int:
        """First position >= ``start`` scheduling ``p``, or -1."""
        if start >= len(pids):
            return -1
        if type(self.scheduler) is RoundRobinScheduler:
            # pids[j] = (now0 + j) % n — closed form, no scan
            j = start + (p - int(pids[start])) % self.n
            return j if j < len(pids) else -1
        hits = np.flatnonzero(pids[start:] == p)
        return start + int(hits[0]) if len(hits) else -1

    def _run_filtered(self, pids: np.ndarray, now0: int, b: int) -> None:
        active = np.flatnonzero(
            self._ready_at[pids] <= now0 + np.arange(b, dtype=np.int64)
        )
        scheduled = np.zeros(b, dtype=bool)
        scheduled[active] = True
        heap: list[int] = []
        ai = 0
        na = len(active)
        dsts = self._dsts
        self._track_dsts = True
        try:
            while True:
                anext = int(active[ai]) if ai < na else b
                hnext = heap[0] if heap else b
                if anext >= b and hnext >= b:
                    break
                if anext <= hnext:
                    i = anext
                    ai += 1
                    if hnext == anext:
                        heapq.heappop(heap)
                else:
                    i = heapq.heappop(heap)
                p = int(pids[i])
                dsts.clear()
                self._exec_step(p, now0 + i)
                # reschedule this pid within the rest of the batch
                if self._pending[p]:
                    start = i + 1
                else:
                    w = self._wake_at[p]
                    start = max(i + 1, w - now0) if w < _NEVER else b
                if start < b:
                    j = self._next_pos(pids, start, p)
                    if j >= 0 and not scheduled[j]:
                        scheduled[j] = True
                        heapq.heappush(heap, j)
                # activate message destinations from this step's sends
                if dsts:
                    for q in dsts:
                        j = self._next_pos(pids, i + 1, q)
                        if j >= 0 and not scheduled[j]:
                            scheduled[j] = True
                            heapq.heappush(heap, j)
        finally:
            self._track_dsts = False
            dsts.clear()

    def run_until(self, pred, max_steps: int, check_every: int = 1):
        """Run until ``pred(self)`` holds (mirror of Engine.run_until)."""
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        done = 0
        if pred(self):
            return True
        while done < max_steps:
            chunk = min(check_every, max_steps - done)
            self.run(chunk)
            done += chunk
            if pred(self):
                return True
        return False

    # ------------------------------------------------------------------
    # Accessors (mirror of Engine)
    # ------------------------------------------------------------------
    def process(self, pid: int) -> _ProcView:
        """Live view of process ``pid``."""
        return self.processes[pid]

    def counter(self, kind: str, pid: int | None = None) -> int:
        """Counter total (or one pid's cell) without creating rows."""
        row = self.counters.get(kind)
        if row is None:
            return 0
        return sum(row) if pid is None else row[pid]

    def counter_row(self, kind: str) -> tuple[int, ...]:
        """Per-pid counter row (zeros if the kind never fired)."""
        row = self.counters.get(kind)
        if row is None:
            return (0,) * self.n
        return tuple(row)

    def message_counts(self) -> dict[str, int]:
        """Messages sent by type name (copy)."""
        return dict(self.sent_by_type)

    def cs_entries(self, pid: int | None = None) -> int:
        """Total CS entries, or one process's count."""
        if pid is None:
            return self.total_cs_entries
        return self.counter("enter_cs", pid)

    # ------------------------------------------------------------------
    # Streaming metrics
    # ------------------------------------------------------------------
    def mark_metrics_epoch(self) -> None:
        """Start a fresh measurement window at the current step.

        Requests issued before the mark are excluded from
        :meth:`run_metrics` — the O(1)-memory equivalent of
        ``collect_metrics(..., since_step=now)`` on the object ledger.
        """
        self._epoch = self.now
        self._m_requests = 0
        self._m_satisfied = 0
        self._m_wait_sum = 0
        self._m_wait_n = 0
        self._m_wait_max = -1
        self._m_wait_steps_max = -1

    def run_metrics(self):
        """Aggregate request metrics since the last epoch mark."""
        from ..analysis.metrics import RunMetrics

        wait_n = self._m_wait_n
        return RunMetrics(
            steps=self.now,
            cs_entries=self.cs_entries(),
            requests=self._m_requests,
            satisfied=self._m_satisfied,
            max_waiting_time=self._m_wait_max if wait_n else None,
            mean_waiting_time=(
                self._m_wait_sum / wait_n if wait_n else None
            ),
            max_waiting_steps=(
                self._m_wait_steps_max if wait_n else None
            ),
            messages_by_type=self.message_counts(),
        )

    # ------------------------------------------------------------------
    # Exploration support (word journal, move executor, state codec)
    # ------------------------------------------------------------------
    def fork(self) -> "ArrayEngine":
        """Deep-copied engine sharing no mutable state (Engine mirror).

        Exception: the exploration move memo is *shared* with the clone
        on purpose.  Entries key on a move's full read set over static
        configuration the fork preserves verbatim, so they are valid in
        either engine — and sharing keeps repeated :func:`explore` calls
        (which fork per call) warm.  Cross-process copies still start
        cold: ``__getstate__`` drops the memo from pickles.
        """
        clone = copy.deepcopy(self)
        clone._explore_memo = self._explore_memo
        clone._explore_xmemo = self._explore_xmemo
        return clone

    def __getstate__(self):
        st = self.__dict__.copy()
        # the memos key on identity (sentinels, the invariant callable)
        # and can be large; clones and pickles start cold — they are
        # exploration state, not configuration
        st["_explore_memo"] = {}
        st["_explore_xmemo"] = {}
        st["_held"] = None
        return st

    def seek(self, state: tuple) -> None:
        """Make the engine hold ``state``, diffing from whatever it
        holds now (tracked in ``_held`` by every loader)."""
        held = self._held
        if held is None:
            self.load_state(state)
        elif held is not state:
            self.load_state_diff(held, state)

    def clear_observers(self) -> None:
        """No observers on the array backend (lowering forbids them)."""

    def explore_prepare(self) -> None:
        """Arm the exploration word journal (idempotent).

        An engine at or above ``filter_threshold`` also swaps its numpy
        ring words and ``_ready_at`` column for the plain lists a dense
        engine is built with: the explorer never takes the batched
        filter path, and numpy scalar loads and stores would dominate
        the per-move pop/push/digest cost.  After arming, use
        ``_exec_move``/``_undo_move``/``load_state`` only; ``run()``
        bookkeeping is no longer maintained.
        """
        if self._jrnl_chans is None:
            self._jrnl_chans = []
            self._jrnl_sent = []
            self._jrnl_cnt = []
        if isinstance(self._buf0, np.ndarray):
            self._ready_at = self._ready_at.tolist()
            self._buf0 = self._buf0.tolist()
            self._buf1 = self._buf1.tolist()

    def _exec_move(self, p: int, chan: int) -> None:
        """One explicit move: receive on in-channel ``chan`` of ``p``
        (no-op if empty), or a silent step for ``chan == -1`` — the
        object engine's ``step_pid`` on flat arrays, journal armed."""
        t = self.now
        deg = self._deg[p]
        if chan >= 0 and deg:
            label = chan % deg
            slot = self._in_slot[self._nbr_off[p] + label]
            if self._ch_len[slot]:
                cap = self._cap
                head = self._ch_head[slot]
                pos = slot * cap + head
                w0 = int(self._buf0[pos])
                w1 = int(self._buf1[pos])
                self._jrnl_chans.append((slot, w0, w1))
                self._ch_head[slot] = (head + 1) % cap
                self._ch_len[slot] -= 1
                self._ch_delivered[slot] += 1
                nxt = label + 1
                self._scan[p] = nxt if nxt < deg else 0
                self._dispatch(p, label, w0, w1, t)
        self._on_local(p, t)
        self.now = t + 1

    def _undo_move(self, p: int, parent: tuple) -> None:
        """Rewind the last ``_exec_move`` from pid ``p``.

        The moved pid's own column section comes straight from the
        ``parent`` state tuple (a move never touches another pid's
        columns); channel words, send totals and counter cells replay
        the journal in reverse.  Clears the journal.
        """
        self.now = parent[0]
        self.total_cs_entries = parent[1]
        self._load_proc_section(p, parent[5][p])
        if p == self._root_pid:
            (
                self._root_reset,
                self._root_stoken,
                self._root_sprio,
                self._root_spush,
                self._root_circulations,
                self._root_resets,
            ) = parent[4]
        jc = self._jrnl_chans
        if jc:
            buf0 = self._buf0
            buf1 = self._buf1
            cap = self._cap
            for ev in reversed(jc):
                slot = ev[0]
                if len(ev) == 2:  # send: (slot, old_peak)
                    self._ch_len[slot] -= 1
                    self._ch_sent[slot] -= 1
                    self._ch_peak[slot] = ev[1]
                else:  # receive: (slot, w0, w1), back before the head
                    head = (self._ch_head[slot] - 1) % cap
                    pos = slot * cap + head
                    buf0[pos] = ev[1]
                    buf1[pos] = ev[2]
                    self._ch_head[slot] = head
                    self._ch_len[slot] += 1
                    self._ch_delivered[slot] -= 1
            jc.clear()
        js = self._jrnl_sent
        if js:
            counts = self.sent_by_type
            for name, old in reversed(js):
                if old is None:
                    del counts[name]
                else:
                    counts[name] = old
            js.clear()
        jn = self._jrnl_cnt
        if jn:
            counters = self.counters
            for kind, pid, old in reversed(jn):
                if pid is None:
                    del counters[kind]
                else:
                    counters[kind][pid] = old
            jn.clear()

    def _jrnl_pushes(self) -> tuple:
        """``(slot, packed-digest-words)`` per journaled send, in send
        order — the memoizable digest effect of the last move's pushes
        (token uids zeroed exactly as :meth:`digest_chan_part` does)."""
        jc = self._jrnl_chans
        sends = [ev[0] for ev in jc if len(ev) == 2]
        if not sends:
            return ()
        remaining: dict[int, int] = {}
        for s in sends:
            remaining[s] = remaining.get(s, 0) + 1
        taken: dict[int, int] = {}
        cap = self._cap
        buf0 = self._buf0
        buf1 = self._buf1
        pk2 = _PK2
        out = []
        for s in sends:
            i = taken.get(s, 0)
            taken[s] = i + 1
            pos = s * cap + (
                self._ch_head[s] + self._ch_len[s] - remaining[s] + i
            ) % cap
            w0 = int(buf0[pos])
            out.append(
                (s, pk2(w0, int(buf1[pos]) if w0 & 3 == _MT_CTRL else 0))
            )
        return tuple(out)

    # -- state tuples ---------------------------------------------------
    def _proc_section(self, p: int) -> tuple:
        """Every behavior-affecting per-pid column, as one tuple."""
        return (
            self._state[p],
            self._need[p],
            tuple(self._rset.get(p, ())),
            self._prio[p],
            self._prio_uid[p],
            self._myc[p],
            self._succ[p],
            self._scan[p],
            self._timer_start[p],
            self._app_last_exit[p],
            self._app_done[p],
            self._cs_since[p],
            self._cs_len[p],
            self._scr_i[p],
            self._open_req[p],
            self._req_at[p],
            self._cs_at_req[p],
        )

    def _load_proc_section(self, p: int, sec: tuple) -> None:
        (
            self._state[p],
            self._need[p],
            rset,
            self._prio[p],
            self._prio_uid[p],
            self._myc[p],
            self._succ[p],
            self._scan[p],
            self._timer_start[p],
            self._app_last_exit[p],
            self._app_done[p],
            self._cs_since[p],
            self._cs_len[p],
            self._scr_i[p],
            self._open_req[p],
            self._req_at[p],
            self._cs_at_req[p],
        ) = sec
        if rset:
            self._rset[p] = list(rset)
        else:
            self._rset.pop(p, None)

    def _chan_section(self, slot: int) -> tuple:
        """One channel's queue words and traffic stats, as one tuple."""
        cap = self._cap
        base = slot * cap
        head = self._ch_head[slot]
        buf0 = self._buf0
        buf1 = self._buf1
        msgs = tuple(
            (
                int(buf0[base + (head + off) % cap]),
                int(buf1[base + (head + off) % cap]),
            )
            for off in range(self._ch_len[slot])
        )
        return (
            msgs,
            self._ch_sent[slot],
            self._ch_delivered[slot],
            self._ch_peak[slot],
        )

    def _load_chan_section(self, slot: int, sec: tuple) -> None:
        msgs, sent, delivered, peak = sec
        while len(msgs) > self._cap:  # a state saved by a grown engine
            self._grow_channels()
        cap = self._cap
        base = slot * cap
        buf0 = self._buf0
        buf1 = self._buf1
        for off, (w0, w1) in enumerate(msgs):
            buf0[base + off] = w0
            buf1[base + off] = w1
        self._ch_head[slot] = 0
        self._ch_len[slot] = len(msgs)
        self._ch_sent[slot] = sent
        self._ch_delivered[slot] = delivered
        self._ch_peak[slot] = peak

    def save_state(self) -> tuple:
        """Whole-configuration checkpoint as nested tuples.

        Picklable, and structurally shared between parent and child
        states during exploration (the expander replaces only the
        sections a move touched), so BFS frontiers, routed shard
        payloads and distributed checkpoint files stay compact.
        """
        state = (
            self.now,
            self.total_cs_entries,
            tuple((k, tuple(v)) for k, v in self.counters.items()),
            tuple(self.sent_by_type.items()),
            (
                self._root_reset,
                self._root_stoken,
                self._root_sprio,
                self._root_spush,
                self._root_circulations,
                self._root_resets,
            ),
            tuple(self._proc_section(p) for p in range(self.n)),
            tuple(self._chan_section(s) for s in range(self._nchan)),
        )
        self._held = state
        return state

    def load_state(self, state: tuple) -> None:
        """Full restore of a :meth:`save_state` tuple (repairs the
        activity bookkeeping the explorer let drift)."""
        self._held = state
        (
            self.now,
            self.total_cs_entries,
            counters_t,
            sent_t,
            root_t,
            procs_t,
            chans_t,
        ) = state
        counters = self.counters
        counters.clear()
        for kind, row in counters_t:
            counters[kind] = list(row)
        self.counters_version += 1
        sent = self.sent_by_type
        sent.clear()
        sent.update(sent_t)
        (
            self._root_reset,
            self._root_stoken,
            self._root_sprio,
            self._root_spush,
            self._root_circulations,
            self._root_resets,
        ) = root_t
        for p in range(self.n):
            self._load_proc_section(p, procs_t[p])
        pending = [0] * self.n
        dsts = self._ch_dst
        for s in range(self._nchan):
            self._load_chan_section(s, chans_t[s])
            pending[dsts[s]] += len(chans_t[s][0])
        self._pending = pending
        self._recompute_all_wakes()

    def load_state_diff(self, held: tuple, target: tuple) -> None:
        """Restore ``target`` assuming the engine currently holds
        ``held`` — sections identical by object identity (structural
        sharing from a common ancestor) are skipped wholesale."""
        self._held = target
        if held is target:
            return
        self.now = target[0]
        self.total_cs_entries = target[1]
        if held[2] is not target[2]:
            counters = self.counters
            counters.clear()
            for kind, row in target[2]:
                counters[kind] = list(row)
        if held[3] is not target[3]:
            sent = self.sent_by_type
            sent.clear()
            sent.update(target[3])
        if held[4] is not target[4]:
            (
                self._root_reset,
                self._root_stoken,
                self._root_sprio,
                self._root_spush,
                self._root_circulations,
                self._root_resets,
            ) = target[4]
        hp = held[5]
        tp = target[5]
        if hp is not tp:
            for p in range(self.n):
                if hp[p] is not tp[p]:
                    self._load_proc_section(p, tp[p])
        hc = held[6]
        tc = target[6]
        if hc is not tc:
            for s in range(self._nchan):
                if hc[s] is not tc[s]:
                    self._load_chan_section(s, tc[s])

    def _child_state(self, parent: tuple, pid: int, dirty: list[int]) -> tuple:
        """Post-move state sharing every untouched section of ``parent``."""
        procs_t = parent[5]
        procs = procs_t[:pid] + (self._proc_section(pid),) + procs_t[pid + 1 :]
        chans_t = parent[6]
        if dirty:
            chans = list(chans_t)
            for s in dirty:
                chans[s] = self._chan_section(s)
            chans_t = tuple(chans)
        counters_t = (
            tuple((k, tuple(v)) for k, v in self.counters.items())
            if self._jrnl_cnt
            else parent[2]
        )
        sent_t = (
            tuple(self.sent_by_type.items()) if self._jrnl_sent else parent[3]
        )
        root_t = (
            (
                self._root_reset,
                self._root_stoken,
                self._root_sprio,
                self._root_spush,
                self._root_circulations,
                self._root_resets,
            )
            if pid == self._root_pid
            else parent[4]
        )
        return (
            self.now,
            self.total_cs_entries,
            counters_t,
            sent_t,
            root_t,
            procs,
            chans_t,
        )

    # -- digest parts ---------------------------------------------------
    def digest_proc_part(self, p: int) -> bytes:
        """Packed digest words for pid ``p`` — the array encoding of the
        object explorer's ``state_summary`` partition (uids dropped,
        reserved-token labels sorted, root circulation totals excluded).
        """
        words = [self._state[p], self._need[p]]
        rset = self._rset.get(p)
        if rset:
            words.extend(sorted(lbl for lbl, _ in rset))
        kind = self._kind[p]
        if kind >= _K_PRIORITY:
            words.append(self._prio[p] + 1)
            if kind == _K_SELFSTAB:
                words.append(self._myc[p])
                words.append(self._succ[p])
            elif kind == _K_SELFSTAB_ROOT:
                words += (
                    self._myc[p],
                    self._succ[p],
                    int(self._root_reset),
                    self._root_stoken,
                    self._root_sprio,
                    self._root_spush,
                )
            elif kind == _K_RING:
                words.append(self._myc[p])
            elif kind == _K_RING_ROOT:
                words += (
                    self._myc[p],
                    int(self._root_reset),
                    self._root_stoken,
                    self._root_sprio,
                    self._root_spush,
                )
        return _pack_part(words)

    def digest_chan_part(self, slot: int) -> bytes:
        """Packed digest words for one channel queue: ``(w0, w1)`` per
        message in queue order, token uids zeroed (Ctrl keeps ``w1`` —
        it carries the circulation stamp, not a uid)."""
        ln = self._ch_len[slot]
        if not ln:
            return _EMPTY_PART
        cap = self._cap
        base = slot * cap
        head = self._ch_head[slot]
        buf0 = self._buf0
        buf1 = self._buf1
        words = []
        for off in range(ln):
            pos = base + (head + off) % cap
            w0 = int(buf0[pos])
            words.append(w0)
            words.append(int(buf1[pos]) if w0 & 3 == _MT_CTRL else 0)
        return _pack_part(words)

    def digest_parts(self) -> list[bytes]:
        """All digest parts: proc parts, then channel parts in slot
        order (one hashable list, same layout the expander maintains
        incrementally)."""
        parts = [self.digest_proc_part(p) for p in range(self.n)]
        for s in range(self._nchan):
            parts.append(self.digest_chan_part(s))
        return parts

    def safety_violations(self, params) -> list[str]:
        """The three k-out-of-ℓ safety clauses, straight off the arrays.

        Same clauses, messages and ordering as
        :func:`repro.analysis.invariants.check_safety` (which dispatches
        here), without going through the per-process facade — the
        explorer evaluates this once per new configuration.
        """
        out: list[str] = []
        in_use = 0
        seen_uids: dict[int, int] = {}
        k = params.k
        state = self._state
        rset = self._rset
        for p in range(self.n):
            if state[p] != _IN:
                continue
            reserved = rset.get(p)
            if not reserved:
                continue
            m = len(reserved)
            in_use += m
            if m > k:
                out.append(f"process {p} uses {m} > k={k} units")
            for _, uid in reserved:
                prev = seen_uids.get(uid)
                if prev is not None:
                    out.append(f"unit {uid} used by both {prev} and {p}")
                seen_uids[uid] = p
        if in_use > params.l:
            out.append(f"{in_use} > l={params.l} units in use")
        return out

    def census_counts(self) -> tuple[int, int, int, int, int]:
        """The token census, straight off the arrays.

        Returns ``(free_res, reserved_res, free_prio, held_prio, push)``,
        the field order of :class:`~repro.analysis.census.TokenCensus`;
        :func:`~repro.analysis.census.take_census` dispatches here as
        ``check_safety`` does to :meth:`safety_violations`.  Reserved
        tokens are the ``_rset`` lengths, held priority tokens the set
        ``_prio`` cells, free tokens the type tags of the queued words.
        """
        tags = self._queued_tags()
        return (
            tags[_MT_REST],
            sum(map(len, self._rset.values())),
            tags[_MT_PRIOT],
            self.n - self._prio.count(-1),
            tags[_MT_PUSHT],
        )

    def _queued_tags(self) -> list[int]:
        """Queued messages per type tag (ResT, PushT, PrioT, Ctrl)."""
        cap = self._cap
        buf0 = self._buf0
        if isinstance(buf0, list):
            # list rings (dense engines, explore_prepare): short queues
            counts = [0, 0, 0, 0]
            heads = self._ch_head
            for slot, ln in enumerate(self._ch_len):
                if ln:
                    base = slot * cap
                    start = base + heads[slot]
                    end = start + ln
                    if end > base + cap:  # the queue wraps around its ring
                        seg = buf0[start : base + cap] + buf0[base : end - cap]
                    else:
                        seg = buf0[start:end]
                    for w0 in seg:
                        counts[w0 & 3] += 1
            return counts
        # numpy rings (filtered engines): one vectorized pass over the
        # live cells only
        lens = np.array(self._ch_len, dtype=np.int64)
        slots = np.flatnonzero(lens)
        if not slots.size:
            return [0, 0, 0, 0]
        lens = lens[slots]
        heads = np.array(self._ch_head, dtype=np.int64)[slots]
        off = np.arange(int(lens.sum())) - np.repeat(np.cumsum(lens) - lens, lens)
        pos = np.repeat(slots * cap, lens) + (np.repeat(heads, lens) + off) % cap
        return np.bincount(buf0[pos] & 3, minlength=4).tolist()

    # ------------------------------------------------------------------
    # Configuration codec
    # ------------------------------------------------------------------
    def _proc_snapshot(self, p: int) -> tuple:
        base = (
            _STATE_NAMES[self._state[p]],
            self._need[p],
            tuple(self._rset.get(p, ())),
        )
        kind = self._kind[p]
        if kind <= _K_PUSHER:
            return base
        prio = self._prio[p]
        pr = (base, None if prio < 0 else prio, self._prio_uid[p])
        if kind == _K_PRIORITY:
            return pr
        if kind == _K_SELFSTAB:
            return (pr, self._myc[p], self._succ[p])
        if kind == _K_SELFSTAB_ROOT:
            return (
                pr,
                self._myc[p],
                self._succ[p],
                self._root_reset,
                self._root_stoken,
                self._root_sprio,
                self._root_spush,
                self._root_circulations,
                self._root_resets,
            )
        if kind == _K_RING:
            return (pr, self._myc[p])
        return (
            pr,
            self._myc[p],
            self._root_reset,
            self._root_stoken,
            self._root_sprio,
            self._root_spush,
            self._root_circulations,
            self._root_resets,
        )

    def _chan_snapshot(self, slot: int) -> tuple:
        cap = self._cap
        base = slot * cap
        head = self._ch_head[slot]
        msgs = tuple(
            _decode(
                int(self._buf0[base + (head + off) % cap]),
                int(self._buf1[base + (head + off) % cap]),
            )
            for off in range(self._ch_len[slot])
        )
        return (
            msgs,
            self._ch_sent[slot],
            self._ch_delivered[slot],
            self._ch_peak[slot],
        )

    def config_snapshot(self) -> tuple:
        """The object engine's ``save_state`` tuple, minus the apps
        ledger — decoded messages and per-variant nesting included, so
        the differential suite compares configurations structurally."""
        return (
            self.now,
            self.total_cs_entries,
            tuple(self._scan),
            tuple(self._timer_start),
            tuple((k, tuple(v)) for k, v in self.counters.items()),
            tuple(self.sent_by_type.items()),
            tuple(self._proc_snapshot(p) for p in range(self.n)),
            tuple(self._chan_snapshot(s) for s in range(self._nchan)),
        )


def object_config_projection(state: Any) -> tuple:
    """Project an object :class:`~repro.sim.engine.EngineState` onto the
    :meth:`ArrayEngine.config_snapshot` shape (drops the apps ledger)."""
    return (
        state.now,
        state.total_cs_entries,
        state.scan,
        state.timer_start,
        state.counters,
        state.sent_by_type,
        state.procs,
        state.chans,
    )
