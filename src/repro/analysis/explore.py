"""Bounded exhaustive exploration (model checking in miniature).

Seeded simulation samples one execution; this module checks **all** of
them, up to a depth bound, for small instances: starting from the
engine's current configuration it branches over every scheduling choice
(which process steps, and which of its channels it receives from — the
daemon's full power in this model), deduplicates configurations by a
canonical digest, and evaluates an invariant at every reachable
configuration.

This turns claims like "the naive protocol never violates safety, under
*any* schedule" or "the priority variant never loses a token, under
*any* schedule" into exhaustively verified facts for small n — the
strongest check a simulation harness can offer short of a proof.

How transitions are expanded
----------------------------
Exploration works on a *single reusable engine* and rides its **delta
codec**: a transition is :meth:`Engine.restore_pid` (undo the previous
move's O(degree) footprint against the parent snapshot) →
:meth:`Engine.step_pid` →
:meth:`Engine.save_state_from` (a child snapshot sharing every untouched
slot with its parent), so the per-transition bookkeeping is O(degree)
instead of O(n).  The object expander (:class:`_DeltaExpander`) runs
that transition in one move loop; plain expansion and sleep-set POR
expansion are two modes of it.  The array backend has its own expander
(:class:`_ArrayExpander`: word journal undo, byte-level digest
surgery).  Both speak one protocol — ``root()``, ``parts()``,
``expand()`` — and every search loop and owner-computes shard uses
only that.  The historical full-snapshot and deepcopy-fork
explorers survive only as a test fossil
(``benchmarks/reference_explore.py``) that the differential suites and
the speed gates compare this module against.

How configurations are deduplicated
-----------------------------------
The seen-set holds packed digests: the canonical configuration — every
process's ``state_summary`` (token uids ignored, RSets as sorted
multisets) plus every channel's message-kind sequence — is serialized
into a flat string buffer, one *slot* per process/channel, and the
seen-set stores the 128-bit blake2b hash of the buffer: a fixed 16-byte
key instead of a deep nested tuple (an order of magnitude less memory,
and set operations hash 16 bytes instead of re-walking the tuple).
Because a transition at ``pid`` only rewrites ``pid``'s slot and its
incident channels' slots, the explorer caches the parent's slot buffer
and re-encodes just the dirty slots per move.  :func:`canonical_digest`
is the same canonical data as a hashable nested tuple; it is a public
helper for comparing two engines, not a seen-set key.

Search strategies
-----------------
* ``strategy="bfs"`` (default) — breadth-first with per-depth
  frontiers; violations are reported at their *minimal* depth.
* ``strategy="dfs"`` — depth-first with an explicit stack; memory is
  bounded by the search depth times the branching factor instead of the
  frontier width, which makes materially deeper dives feasible.  With a
  depth bound and global deduplication DFS may skip states it first met
  on a long path (the classic bounded-DFS caveat), so ``exhausted=True``
  is claimed only when the bound never truncated anything — in that
  case the reachable set closed and the two strategies agree.
* ``workers > 1`` — the BFS sharded by digest owner across worker
  processes (:func:`repro.analysis.distributed.explore_owner`).  Counts
  equal the serial search's whenever it runs to closure or the depth
  bound; an early stop (violation, configuration cap) finishes the
  level it happened in, see :func:`explore`.

When to use what
----------------
Use :func:`explore` when the instance is small enough that the
reachable set (or its depth-``D`` slice) fits in memory — the result is
a *verified* fact.  For larger instances, longer horizons or
probabilistic confidence, use :func:`repro.analysis.fuzz.fuzz`
(randomized schedule walks); exhaustive and fuzz share the invariant
convention, so the same predicate serves both.

Depth/width guards keep the search bounded; exploration is only
practical for a handful of processes and tokens (the state space grows
exponentially), which is precisely the regime the paper's figures
live in.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Callable

import struct

from ..core.messages import Ctrl, Message, PrioT, PushT, ResT
from ..sim.array_engine import ArrayEngine
from ..sim.engine import Engine
from ..spec.registry import SpecError

__all__ = [
    "ExplorationResult",
    "explore",
    "canonical_digest",
    "packed_digest",
]

#: Slot separator for the packed encoding.  ``repr`` output never
#: contains raw control characters (they are escaped), so joining repr
#: slots on one is unambiguous.
_SEP = "\x1f"


def _msg_key(m: Message) -> tuple:
    # Token uids are oracle bookkeeping: configurations differing only in
    # uids are behaviorally identical, so digests ignore them.
    if isinstance(m, Ctrl):
        return ("Ctrl", m.c, m.r, m.pt, m.ppr)
    if isinstance(m, ResT):
        return ("ResT",)
    if isinstance(m, PushT):
        return ("PushT",)
    if isinstance(m, PrioT):
        return ("PrioT",)
    return (m.type_name(),)


def _proc_items(p) -> tuple:
    """Canonical ``(key, value)`` items of one process's summary."""
    s = p.state_summary()
    items = []
    for k in sorted(s):
        v = s[k]
        if k == "rset":
            v = tuple(sorted(v))
        elif isinstance(v, list):
            v = tuple(v)
        items.append((k, v))
    return tuple(items)


def canonical_digest(engine: Engine) -> tuple:
    """Hashable canonical form of the engine's configuration.

    Process state (via ``state_summary``, with RSet label multisets) plus
    every channel's message sequence.  Engine time and counters are
    excluded: they do not influence future protocol behavior (apps used
    in exploration must be time-independent, e.g. ``SaturatedWorkload``
    with ``cs_duration=0`` or ``HogWorkload``).

    The explorer's seen-set hashes the same canonical data into a
    fixed-width 128-bit key (see :func:`packed_digest`).
    """
    procs = tuple(_proc_items(p) for p in engine.processes)
    chans = tuple(
        (src, dst, tuple(_msg_key(m) for m in ch))
        for (src, dst), ch in sorted(engine.network.channels.items())
    )
    return (procs, chans)


class _PackedDigester:
    """Slot-wise packed encoder of one engine's canonical configuration.

    One string slot per process (its canonical summary values, keys in
    a per-process fixed sorted order) and per directed channel (its
    message-kind sequence, channels in the engine's codec order — a
    slot's *position* identifies both the channel and, for processes,
    the summary key set, so neither is re-encoded into the buffer).
    The digest is the 128-bit blake2b of the slots joined on ``_SEP``.

    The point of the slot structure: a transition at ``pid`` only
    rewrites ``pid``'s slot and the slots of its dirty incident
    channels, so the exploration hot loop copies the parent's slot
    buffer and re-encodes O(degree) slots per move instead of O(n).
    Channel slots read the live queue deques (queue identity survives
    ``Channel.restore``), so the encoder needs no rebinding across
    ``load_state``.  Channel slot ``n + i`` is codec slot ``i`` — the
    same index :meth:`~repro.sim.engine.Engine.dirty_channels` reports
    and ``EngineState.chans`` uses.
    """

    __slots__ = (
        "_procs",
        "_summaries",
        "_queues",
        "_keys",
        "_rset_idx",
        "_part_cache",
        "n",
    )

    def __init__(self, engine: Engine) -> None:
        procs = engine.processes
        self._procs = procs
        self._summaries = [p.state_summary for p in procs]
        self._queues = [c.queue for c in engine._chan_list]
        n = len(procs)
        self.n = n
        #: per-process sorted summary-key order, fixed at first use (a
        #: process class's summary keys are constant; the positional
        #: encoding relies on it and a drift raises a loud KeyError)
        self._keys: list[list[str] | None] = [None] * n
        self._rset_idx = [-1] * n
        #: (pid, process snapshot) → encoded slot, memoized: process
        #: snapshots determine summaries (the codec contract), local
        #: states recur heavily across the space, and the explorer has
        #: the snapshot in hand anyway for its cleanliness check
        self._part_cache: dict[tuple, str] = {}

    def proc_part(self, pid: int, snap: tuple | None = None) -> str:
        if snap is None:
            snap = self._procs[pid].snapshot()
        key = (pid, snap)
        part = self._part_cache.get(key)
        if part is not None:
            return part
        s = self._summaries[pid]()
        keys = self._keys[pid]
        if keys is None or len(keys) != len(s):
            keys = self._keys[pid] = sorted(s)
            self._rset_idx[pid] = keys.index("rset") if "rset" in keys else -1
        vals = [s[k] for k in keys]
        ri = self._rset_idx[pid]
        if ri >= 0:
            vals[ri] = sorted(vals[ri])
        part = self._part_cache[key] = repr(vals)
        return part

    def chan_part(self, slot: int) -> str:
        return repr([_msg_key(m) for m in self._queues[slot - self.n]])

    def parts(self) -> list[str]:
        """The full slot buffer of the engine's current configuration."""
        out = [self.proc_part(p) for p in range(self.n)]
        n = self.n
        out.extend(self.chan_part(n + i) for i in range(len(self._queues)))
        return out

    @staticmethod
    def hash(parts: list[str]) -> bytes:
        return blake2b(_SEP.join(parts).encode(), digest_size=16).digest()

    def child_parts(
        self,
        parent_parts: list[str],
        pid: int,
        proc_clean: bool,
        dirty_slots: list[int],
        proc_snap: tuple | None = None,
    ) -> list[str]:
        """The slot buffer after one step of ``pid``, reusing the
        parent's slots for everything the step left untouched.
        ``dirty_slots`` are codec channel slots (from
        :meth:`Engine.dirty_channels`); ``proc_snap`` feeds the
        memoized process-slot encoding."""
        cur = parent_parts.copy()
        if not proc_clean:
            cur[pid] = self.proc_part(pid, proc_snap)
        n = self.n
        for i in dirty_slots:
            cur[n + i] = self.chan_part(n + i)
        return cur


def packed_digest(engine: Engine) -> bytes:
    """128-bit blake2b key of the canonical configuration.

    Same canonical data as :func:`canonical_digest` (uid-free message
    kinds, sorted summaries), packed into a flat buffer and hashed to a
    fixed 16-byte value — the explorer's seen-set entry.  Collisions
    are 2^-128 territory; the differential test suite pins the packed
    explorer to the tuple-keyed reference's reachable sets on every
    variant and baseline.
    """
    d = _PackedDigester(engine)
    return d.hash(d.parts())


def _seen_bytes(seen) -> int:
    """Estimated retained bytes of a seen-set (table plus elements).

    Packed digests are fixed-width, so one sample multiplies out
    exactly, and the result is a pure function of the set's *contents*
    (repeated runs report the same value).

    POR and liveness searches key a *dict* (digest → sleep-set mask);
    those are sized as keys plus per-entry mask ints, again purely from
    contents.
    """
    total = sys.getsizeof(seen)
    if not seen:
        return total
    total += len(seen) * sys.getsizeof(next(iter(seen)))
    if isinstance(seen, dict):
        total += sum(sys.getsizeof(v) for v in seen.values())
    return total


@dataclass(slots=True)
class ExplorationResult:
    """Outcome of a bounded exploration."""

    #: distinct configurations visited (after dedup)
    configurations: int
    #: scheduling transitions expanded
    transitions: int
    #: True if the frontier emptied before hitting the depth bound
    exhausted: bool
    #: first invariant violation, as (depth, message), or None
    violation: tuple[int, str] | None = None
    #: per-depth frontier sizes (diagnostics); for DFS, newly discovered
    #: states per depth
    frontier_sizes: list[int] = field(default_factory=list)
    #: distinct configurations discovered per wall-clock second (0.0 for
    #: results that never entered the search loop)
    states_per_sec: float = 0.0
    #: estimated peak memory retained by the digest seen-set, in bytes.
    #: For POR/liveness searches the seen-set is a dict digest → sleep
    #: mask, and the estimate includes the per-entry mask ints.  Sharded
    #: runs (``workers > 1`` or ``distributed=True``) report the summed
    #: *resident* shard estimate (per-shard RAM sets + prefix filters),
    #: which differs from the serial single-set figure for the same
    #: configurations; spilled digests are reported separately in
    #: ``peak_disk_bytes``.
    peak_seen_bytes: int = 0
    #: peak bytes of seen-set digests spilled to disk (owner-computes
    #: distributed exploration with a memory budget; 0 otherwise)
    peak_disk_bytes: int = 0
    #: first fair starving cycle found by ``check="liveness"`` — a
    #: :class:`repro.analysis.liveness.LivelockWitness` — or None
    livelock: object | None = None

    @property
    def ok(self) -> bool:
        """No invariant violation found anywhere reachable."""
        return self.violation is None

    @property
    def converged(self) -> bool:
        """The liveness verdict: every reachable configuration was
        checked (``exhausted``), no safety violation, no fair starving
        cycle.  For a self-stabilizing instance this is the paper's
        claim — convergence under fairness — verified exhaustively."""
        return self.exhausted and self.violation is None and self.livelock is None


def _moves(engine: Engine) -> list[tuple[int, int]]:
    """All distinct (pid, channel) scheduling choices at this configuration.

    For each process: one receive move per non-empty incoming channel,
    plus the no-receive move (``-1``) — the paper's "does nothing"
    option, needed so loop-tail actions can fire without a message.
    Every process gets the silent move, including leaves (degree 1 with
    empty channels) and isolated processes (degree 0).
    """
    out = []
    for pid, queues in enumerate(engine._in_queues):
        for lbl, q in enumerate(queues):
            if q:
                out.append((pid, lbl))
        # the silent step matters when local actions are enabled; always
        # include it — dedup prunes the no-ops cheaply.
        out.append((pid, -1))
    return out


def _verdict(v) -> str | None:
    """The shared invariant-verdict convention (explore and fuzz alike):
    ``False`` or a string is a violation message, anything else holds."""
    if v is False:
        return "invariant returned False"
    if isinstance(v, str):
        return v
    return None


def _check(
    invariant: Callable[[Engine], bool | str | None], e: Engine, depth: int
) -> tuple[int, str] | None:
    msg = _verdict(invariant(e))
    return None if msg is None else (depth, msg)


def _reject_unsupported(
    engine, strategy, check, por, workers, distributed, checkpoint_every
) -> None:
    """The guard table of :func:`explore`, the one place that rejects
    option combinations no explorer runs (the CLI relies on it).  The
    first bad row raises a :class:`SpecError` naming the keyword, its
    CLI flag and the fix."""
    liveness = check == "liveness"
    serial = (
        "check='liveness' (--check liveness)" if liveness
        else "por=True (--por)"
    )
    sharded = workers is not None and workers > 1
    table = (
        (strategy not in ("bfs", "dfs"),
         f"unknown strategy {strategy!r}: use 'bfs' or 'dfs'"),
        (check not in ("safety", "liveness"),
         f"unknown check {check!r} (--check): use 'safety' or 'liveness'"),
        ((por or liveness) and isinstance(engine, ArrayEngine),
         f"{serial} runs on the object backend: use backend='object' "
         "(--backend object)"),
        ((por or liveness) and distributed,
         f"{serial} is a serial search: drop distributed=True, mem_budget, "
         "checkpoint_dir and resume_dir (--distributed, --mem-budget, "
         "--checkpoint, --resume)"),
        ((por or liveness) and sharded,
         f"{serial} is a serial search: use workers=1 (--workers 1)"),
        (por and not liveness and strategy != "bfs",
         "por=True (--por) runs breadth-first: use strategy='bfs'"),
        ((distributed or sharded) and strategy != "bfs",
         "workers > 1 and distributed exploration run breadth-first: "
         "use strategy='bfs'"),
        (checkpoint_every is not None and checkpoint_every < 1,
         f"checkpoint_every={checkpoint_every} (--checkpoint-every) "
         "must be >= 1"),
    )
    for bad, message in table:
        if bad:
            raise SpecError(message)


def explore(
    engine: Engine,
    invariant: Callable[[Engine], bool | str | None],
    *,
    max_depth: int | None = None,
    max_configurations: int | None = None,
    strategy: str = "bfs",
    workers: int | None = None,
    progress: Callable | None = None,
    por: bool = False,
    check: str = "safety",
    fairness: str = "weak",
    distributed: bool = False,
    mem_budget: int | None = None,
    spill_dir: str | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int | None = None,
    resume_dir: str | None = None,
    spec=None,
) -> ExplorationResult:
    """Explore every schedule from the current state, up to ``max_depth``.

    ``invariant(engine)`` is evaluated at every distinct reachable
    configuration; it may return ``False`` (violation), a string
    (violation with a message), or anything truthy/None for "holds".
    The input engine is not mutated (exploration works on a private
    copy).

    ``strategy`` selects breadth-first (``"bfs"``, default — minimal
    violation depths, frontier kept per depth) or depth-first
    (``"dfs"`` — explicit stack, memory bounded by depth × branching,
    for deeper dives; see the module docstring for the dedup caveat).

    ``workers`` > 1 runs the BFS on the **owner-computes** explorer
    (:func:`repro.analysis.distributed.explore_owner`): the digest space
    is partitioned across ``workers`` forked shards, each the dedup
    authority for its digests; it requires ``strategy="bfs"``.
    ``distributed=True`` (or any of ``mem_budget`` /
    ``checkpoint_dir`` / ``resume_dir``) selects the same explorer at
    any worker count and adds its options: each shard may spill to disk
    under a per-shard ``mem_budget``, and campaigns checkpoint into /
    resume from a manifest directory.  ``progress`` receives
    :class:`~repro.analysis.parallel.ShardProgress` events per level.
    Two results differ from the serial search by design:

    * **early stops are level-granular** — ``configurations``,
      ``transitions``, ``exhausted`` and ``frontier_sizes`` equal the
      serial search's for every campaign that runs to closure or the
      depth bound, but a violation or the ``max_configurations`` cap
      stops at the end of the level it occurred in (the serial search
      stops at the exact transition).  A violation is still reported at
      its minimal depth, and the counts do not depend on the worker
      count;
    * **``peak_seen_bytes`` is the summed shard estimate**, not the
      serial single-set estimate for the same configurations.

    ``por=True`` switches on partial-order reduction (sleep sets over
    the delta codec's exact dirty-set footprints): moves with disjoint
    process+channel footprints commute, so only one interleaving is
    explored.  The *visited configuration set is unchanged* — only
    redundant transitions are pruned — so violations and ``exhausted``
    keep their meaning (violation depths may exceed the minimal depth).
    Requires, for safety, ``strategy="bfs"``; serial and object-backend
    only.

    ``check="liveness"`` searches for *livelocks* instead: a lasso DFS
    (see :mod:`repro.analysis.liveness`) looking for a fair cycle in
    which some process requests continuously yet never enters its
    critical section.  ``fairness`` names the registered fairness
    constraint cycles must satisfy (``"weak"``, ``"strong"``,
    ``"unconditional"``); it is ignored for safety checks.  The lasso
    search is inherently sequential (its cycle detection lives on one
    DFS stack), so liveness rejects ``workers > 1`` and distributed
    options, and it runs on the object backend only; ``strategy`` is
    ignored (the search is DFS by nature).  The result's
    ``livelock`` field carries the witness; ``converged`` summarizes the
    verdict.

    Returns an :class:`ExplorationResult`; ``exhausted`` is ``True`` when
    the reachable set closed before ``max_depth`` — in that case the
    invariant holds in *every* reachable configuration, full stop.
    ``states_per_sec`` and ``peak_seen_bytes`` report the search's
    throughput and the (estimated) memory its seen-set retained
    (``peak_disk_bytes`` adds the spilled portion for distributed runs).

    An option combination no explorer runs raises
    :class:`~repro.spec.registry.SpecError` (a ``ValueError``) naming
    the keyword, its CLI flag and the fix.
    """
    distributed = (
        distributed
        or mem_budget is not None
        or checkpoint_dir is not None
        or resume_dir is not None
    )
    _reject_unsupported(
        engine, strategy, check, por, workers, distributed, checkpoint_every
    )
    if distributed or (workers is not None and workers > 1):
        from .distributed import explore_owner

        return explore_owner(
            engine, invariant,
            max_depth=max_depth, max_configurations=max_configurations,
            workers=workers, mem_budget=mem_budget,
            spill_dir=spill_dir, checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every, resume_dir=resume_dir,
            spec=spec, progress=progress,
        )
    if max_depth is None:
        max_depth = 12
    if max_configurations is None:
        max_configurations = 200_000
    if check == "liveness":
        from .liveness import find_livelock

        return find_livelock(
            engine, invariant,
            max_depth=max_depth, max_configurations=max_configurations,
            por=por, fairness=fairness,
        )
    work = engine.fork()
    # Exploration runs on the observer-free kernel: instrumentation on
    # the private fork could only slow the search (snapshots and digests
    # never include it — save_state is observer-neutral).
    work.clear_observers()
    bad = _check(invariant, work, 0)
    if bad is not None:
        return ExplorationResult(1, 0, False, bad, [1])
    t0 = time.perf_counter()
    expander = _expander(work, invariant)
    if por:
        res = _explore_bfs_delta_por(
            work, max_depth, max_configurations, expander
        )
    elif strategy == "bfs":
        res = _explore_bfs_delta(
            work, max_depth, max_configurations, expander
        )
    else:
        res = _explore_dfs_delta(
            work, max_depth, max_configurations, expander
        )
    elapsed = time.perf_counter() - t0
    res.states_per_sec = res.configurations / max(elapsed, 1e-9)
    return res


def _finish(
    seen: set,
    transitions: int,
    exhausted: bool,
    violation: tuple[int, str] | None,
    frontier_sizes: list[int],
) -> ExplorationResult:
    """Build a result, folding in the seen-set memory estimate."""
    return ExplorationResult(
        len(seen), transitions, exhausted, violation, frontier_sizes,
        peak_seen_bytes=_seen_bytes(seen),
    )


class _DeltaExpander:
    """The object backend's expander: one move loop behind every search.

    Both expanders, this one and :class:`_ArrayExpander`, speak one
    protocol: :meth:`root` returns ``(digest, parts)`` of the engine's
    current configuration, :meth:`parts` its slot buffer alone, and
    :meth:`expand` runs every move of one parent and returns a per-move
    record list.  Serial BFS/DFS and the owner-computes shard workers
    call :meth:`expand`; the sleep-set BFS and the liveness lasso call
    :meth:`expand_por`.  Both are entry points into one private loop,
    :meth:`_loop`, so the undo, the step, the footprint classification
    and the child digest exist exactly once.  Per move the loop:

    * executes an inlined observer-free step (exploration engines carry
      no observers, so the hook dispatch and label arithmetic of
      :meth:`Engine.step_pid` are dead weight here — the differential
      tests hold the inline step byte-identical to the kernel's);
    * classifies the step's footprint — process snapshot compared
      against the parent's, channel dirtiness by queue length — and
      short-circuits fully-clean moves (their digest *is* the parent's,
      which is always already known);
    * digests dirty moves by re-encoding O(degree) packed slots;
    * restores the footprint via :meth:`Engine.restore_pid` before the
      next move, skipping whatever the classification proved clean.

    POR mode is a branch of the same loop on one flag: it numbers the
    moves, skips slept ones, records each executed move's observed
    footprint mask and the child's sleep set, and reports duplicates
    and clean self-loops as records too, because the sleep-set
    bookkeeping needs every edge.

    Contract with applications: an app used under exploration mutates
    only through the request lifecycle hooks (``notify_request`` /
    ``on_enter_cs`` / ``on_exit_cs``), each of which coincides with a
    counter bump — so a move with a clean process snapshot, no dirty
    channels and no bump cannot have touched the app.  A clean move
    that bumped a counter still compares the app: the central
    coordinator requests, enters and leaves a zero-length CS in one
    step without changing its process snapshot.  Every shipped
    workload satisfies this (``maybe_request`` / ``release_cs`` are
    pure, or mutate only when a request follows); the cross-variant
    byte-equality tests enforce it.

    The engine must hold ``state`` when an expansion starts and is
    returned to ``state`` before it returns — callers chain parents with
    :meth:`Engine.load_state_diff`, which exploits the structural
    sharing between sibling snapshots.
    """

    __slots__ = (
        "work",
        "invariant",
        "digester",
        "processes",
        "snapshots",
        "restores",
        "app_snapshots",
        "app_restores",
        "on_message",
        "on_local",
        "in_queues",
        "in_chans",
        "degrees",
        "pid_chans",
        "nprocs",
        "mid_base",
        "static_masks",
        "in_slots",
        "all_moves_mask",
        "recv_mid_mask",
    )

    #: callers re-seek the engine to every parent before expanding it
    lazy_seek = False

    def __init__(
        self,
        work: Engine,
        invariant: Callable[[Engine], bool | str | None],
    ) -> None:
        self.work = work
        self.invariant = invariant
        self.digester = _PackedDigester(work)
        procs = work.processes
        self.processes = procs
        self.snapshots = [p.snapshot for p in procs]
        self.restores = [p.restore for p in procs]
        apps = [getattr(p, "app", None) for p in procs]
        self.app_snapshots = [
            None if a is None else a.snapshot_state for a in apps
        ]
        self.app_restores = [
            None if a is None else a.restore_state for a in apps
        ]
        self.on_message = [p.on_message for p in procs]
        self.on_local = [p.on_local for p in procs]
        self.in_queues = work._in_queues
        self.in_chans = work._in_chans
        self.degrees = work._degrees
        self.pid_chans = work._pid_chans
        # ---- move-id / footprint-mask infrastructure (POR, liveness) --
        # Move ids number every (pid, channel) daemon choice densely:
        # ``mid_base[pid]`` is pid's silent move, ``mid_base[pid]+lbl+1``
        # its receive from incoming label ``lbl``.  Sleep sets and
        # enabled/taken sets are int bitmasks over move ids; footprints
        # are int bitmasks over ``nprocs + num_channels`` slots (bit
        # ``pid`` = the process, bit ``nprocs + s`` = codec channel
        # slot ``s`` — the same slot index ``dirty_channels`` reports).
        n = len(procs)
        self.nprocs = n
        degrees = work._degrees
        base = 0
        mid_base = []
        silent_mask = 0
        for pid in range(n):
            mid_base.append(base)
            silent_mask |= 1 << base
            base += degrees[pid] + 1
        self.mid_base = mid_base
        self.all_moves_mask = (1 << base) - 1
        self.recv_mid_mask = self.all_moves_mask & ~silent_mask
        # static footprint superset per move id: a step of ``pid`` can
        # only ever touch ``pid`` and its incident channels — this is
        # the mask a *slept* (unexecuted) move carries down the tree,
        # while executed moves carry their exact observed footprint
        pid_static = []
        for pid in range(n):
            m = 1 << pid
            for slot, _ in work._pid_chans[pid]:
                m |= 1 << (n + slot)
            pid_static.append(m)
        self.static_masks = [
            pid_static[pid]
            for pid in range(n)
            for _ in range(degrees[pid] + 1)
        ]
        chan_index = {id(c): i for i, c in enumerate(work._chan_list)}
        self.in_slots = [
            [chan_index[id(c)] for c in work._in_chans[pid]]
            for pid in range(n)
        ]

    def parts(self) -> list[str]:
        """The slot buffer of the engine's current configuration."""
        return self.digester.parts()

    def root(self) -> tuple:
        """(digest, parts) of the engine's current configuration."""
        parts = self.digester.parts()
        return self.digester.hash(parts), parts

    def expand(self, state, parent_parts, seen) -> list:
        """Expand every move of the parent ``state``; records in move order.

        Each record is ``None`` for a move whose child digest is already
        known (in ``seen``, or earlier within this parent), else
        ``(digest, verdict, child_state, child_parts)``.  ``seen`` is
        read, never written, and only through ``in`` — the caller's
        merge decides which digest wins (this is what lets an
        owner-computes shard pass a view that reads the digests it does
        not own as seen and records them for their owners).
        """
        return self._loop(state, parent_parts, seen, False, None, 0, False)[0]

    def expand_por(
        self,
        state,
        parent_parts,
        parent_digest,
        sleep: int,
        seen,
        liveness: bool = False,
    ) -> tuple[list, int]:
        """Sleep-set expansion of ``state``: records for *executed* moves.

        ``sleep`` is a move-id bitmask of moves proven redundant here
        (an equivalent interleaving was explored elsewhere); they are
        skipped outright — that skip *is* the partial-order reduction.
        Every executed move yields a record

        ``(midbit, pid, chan, digest, verdict, child_state,
        child_parts, child_sleep, entered_cs)``

        — unlike :meth:`expand`, duplicates and clean self-loops are
        reported too (the caller's sleep-set bookkeeping needs every
        edge), with ``verdict`` evaluated only for digests not already
        in ``seen``.  A clean move's record reuses the parent's
        ``state``/``parts``/``digest`` objects outright.

        ``child_sleep`` is the sleep set the child inherits: every
        prior entry (inherited sleep move, or earlier-executed sibling)
        whose footprint mask is disjoint from this move's *observed*
        footprint — disjoint footprints commute, so the child may skip
        them.  Inherited entries carry their static pid+incident-slots
        superset; executed siblings carry their exact observed mask
        (stepped process, popped queue slot, dirty slots).  With
        ``liveness=True`` only receive moves are ever slept, so the
        per-state enabled-move accounting the fairness evaluation needs
        stays exact for silent moves.

        Returns ``(records, recv_mask)`` where ``recv_mask`` is the
        move-id bitmask of every enabled receive move (pending queue),
        including slept ones.  Same engine contract as :meth:`expand`:
        holds ``state`` on entry and on exit.
        """
        return self._loop(
            state, parent_parts, seen, True, parent_digest, sleep, liveness
        )

    def _loop(
        self,
        state,
        parent_parts,
        seen,
        por: bool,
        parent_digest,
        sleep: int,
        liveness: bool,
    ) -> tuple[list, int]:
        """The move loop; ``por`` picks the record shape of
        :meth:`expand_por` over that of :meth:`expand`.  Returns
        ``(records, recv_mask)`` (``recv_mask`` stays 0 in full mode)."""
        work = self.work
        invariant = self.invariant
        digester = self.digester
        snapshots = self.snapshots
        restores = self.restores
        app_snapshots = self.app_snapshots
        app_restores = self.app_restores
        on_message = self.on_message
        on_local = self.on_local
        in_queues = self.in_queues
        in_chans = self.in_chans
        degrees = self.degrees
        pid_chans = self.pid_chans
        mid_base = self.mid_base
        static_masks = self.static_masks
        in_slots = self.in_slots
        recv_only = self.recv_mid_mask
        n = self.nprocs
        scan = work._scan
        timer = work._timer_start
        sent = work.sent_by_type
        counters = work.counters
        chan_list = work._chan_list
        base_now = state.now
        base_total_cs = state.total_cs_entries
        base_scan = state.scan
        base_timer = state.timer_start
        base_counters = state.counters
        base_sent = state.sent_by_type
        base_procs = state.procs
        base_apps = state.apps
        base_chans = state.chans
        records: list = []
        append = records.append
        local_seen: set = set()
        # POR mode: prior entries for child-sleep computation — inherited
        # sleep moves (static masks), then executed siblings (observed
        # masks)
        entries: list[tuple[int, int]] = []
        m = sleep
        while m:
            low = m & -m
            entries.append((low, static_masks[low.bit_length() - 1]))
            m ^= low
        recv_mask = 0
        prev = None
        for pid, chan in _moves(work):
            if por:
                midbit = 1 << (mid_base[pid] + chan + 1)
                if chan >= 0:
                    recv_mask |= midbit
                if sleep & midbit:
                    continue
            if prev is not None:
                # -- inlined undo of the previous move (its classified
                #    footprint only; see Engine.restore_pid for the
                #    reference implementation of this contract)
                ppid, pproc_clean, papp_clean, pdirty, pcnt_clean = prev
                work.now = base_now
                scan[ppid] = base_scan[ppid]
                timer[ppid] = base_timer[ppid]
                if not pcnt_clean:
                    work.total_cs_entries = base_total_cs
                    if len(counters) != len(base_counters):
                        keep = {k for k, _ in base_counters}
                        for k in [k for k in counters if k not in keep]:
                            del counters[k]
                    for k, vals in base_counters:
                        crow = counters[k]
                        if crow[ppid] != vals[ppid]:
                            crow[ppid] = vals[ppid]
                if not pproc_clean:
                    restores[ppid](base_procs[ppid])
                if not papp_clean:
                    app_restores[ppid](base_apps[ppid])
                if pdirty:
                    sent.clear()
                    sent.update(base_sent)
                    for slot in pdirty:
                        chan_list[slot].restore(base_chans[slot])
            # -- inlined observer-free step (byte-identical to step_pid)
            cnt_version = work.counters_version
            if chan >= 0:
                q = in_queues[pid][chan]
                if q:
                    msg = q.popleft()
                    in_chans[pid][chan].stats.delivered += 1
                    nxt = chan + 1
                    scan[pid] = nxt if nxt < degrees[pid] else 0
                    on_message[pid](chan, msg)
            on_local[pid]()
            work.now += 1
            # -- footprint classification
            cnt_clean = work.counters_version == cnt_version
            proc_snap = snapshots[pid]()
            proc_clean = proc_snap == base_procs[pid]
            dirty = [
                slot
                for slot, c in pid_chans[pid]
                if len(c.queue) != len(base_chans[slot][0])
            ]
            if por:
                # observed footprint: the stepped process, the popped
                # queue slot (read even when re-filled), every dirty slot
                fmask = 1 << pid
                if chan >= 0:
                    fmask |= 1 << (n + in_slots[pid][chan])
                for slot in dirty:
                    fmask |= 1 << (n + slot)
                child_sleep = 0
                for ebit, emask in entries:
                    if not (emask & fmask):
                        child_sleep |= ebit
                if liveness:
                    child_sleep &= recv_only
                entries.append((midbit, fmask))
            if proc_clean and not dirty:
                # untouched process, untouched channels: the digest is
                # the parent's, always a known duplicate, and POR mode
                # records a self-loop.  The app can only have moved in a
                # step that bumped a counter (lifecycle-hook contract),
                # so only such a step is checked for an app to undo.
                app_clean = cnt_clean or app_snapshots[pid] is None or (
                    app_snapshots[pid]() == base_apps[pid]
                )
                prev = (pid, True, app_clean, dirty, cnt_clean)
                append(
                    (
                        midbit, pid, chan, parent_digest, None,
                        state, parent_parts, child_sleep, False,
                    )
                    if por
                    else None
                )
                continue
            snapshot_state = app_snapshots[pid]
            if snapshot_state is not None:
                app_snap = snapshot_state()
                app_clean = app_snap == base_apps[pid]
            else:
                app_snap = None
                app_clean = True
            prev = (pid, proc_clean, app_clean, dirty, cnt_clean)
            cur = digester.child_parts(
                parent_parts, pid, proc_clean, dirty, proc_snap
            )
            digest = digester.hash(cur)
            if por:
                entered = work.total_cs_entries != base_total_cs
                verdict = None if digest in seen else _verdict(invariant(work))
                append(
                    (
                        midbit, pid, chan, digest, verdict,
                        work.save_state_from(state, pid, proc_snap, app_snap),
                        cur, child_sleep, entered,
                    )
                )
            elif digest in seen or digest in local_seen:
                append(None)
            else:
                local_seen.add(digest)
                append(
                    (
                        digest,
                        _verdict(invariant(work)),
                        work.save_state_from(state, pid, proc_snap, app_snap),
                        cur,
                    )
                )
        if prev is not None:
            # leave the engine at `state` for the caller's next diff-load
            # (once per parent — the reference restore is fast enough)
            work.restore_pid(state, prev[0], prev[1], prev[2], prev[3])
        return records, recv_mask


class _ArrayExpander:
    """The array-native expansion loop: the ``root``/``parts``/``expand``
    protocol and record shape of :class:`_DeltaExpander`, on flat words
    instead of objects.

    Moves execute through :meth:`ArrayEngine._exec_move` with the word
    journal armed; undo is :meth:`ArrayEngine._undo_move` — O(dirty
    words), with the moved pid's own column section restored from the
    parent state tuple, so no per-move pre-capture exists at all.
    Child digests re-encode only the moved pid's part plus the parts of
    the channels the journal proved dirty.  The clean-move shortcut
    fires when a move recorded no channel events and left the pid's
    digest part byte-identical — equivalent to the object expander's
    clean-snapshot test: every field excluded from the digest part
    (scan, timers, app columns, uids) can only change alongside a
    protocol state change, a receive, or a send.

    The engine must hold ``state`` when :meth:`expand` is called and is
    returned to ``state`` before it returns; callers chain parents via
    :meth:`ArrayEngine.load_state_diff` exactly as with the object
    expander.

    Move outcomes are memoized.  A move's full read set is the moving
    pid's proc section, the consumed head message and its arrival label
    (handlers forward tokens relative to the label they arrived on),
    the root scalar block when the mover is the root, and the clock
    ``now``
    (timeout, think-time and CS-duration guards all compare against
    it) — everything else the handlers touch is either static topology
    or write-only bookkeeping.  Keyed on exactly that read set, a memo
    entry replays the move's digest effect without executing it: the
    child pid part verbatim, pops and pushes as byte surgery on the
    parent's packed channel parts (uids are zeroed in digest words, so
    fresh-uid draws don't break determinism — and distinct entries draw
    distinct uids, preserving per-path uid uniqueness).  Only
    first-sighted configurations execute for real, because the child
    state tuple and the invariant verdict need the engine.  Since
    ``now`` is in the key, BFS levels (which share one clock value) hit
    the memo heavily; depth-first orders merely miss more often —
    correctness never depends on the hit rate.

    Digest parts follow the object expander's slot layout (one part per
    process, then one per channel in codec slot order) and canonical
    partition (token uids dropped, reserved-token labels sorted,
    circulation totals excluded), but each part is count-prefixed
    little-endian int64 words read straight from the arrays, and the
    digest hashes the concatenated bytes.  Array digests therefore live
    in a different 128-bit namespace than packed-string digests; the
    two must never share one seen set.
    """

    __slots__ = (
        "work",
        "invariant",
        "nprocs",
        "_memo",
        "_xmemo",
        "_jc",
        "_cnt",
    )

    #: memo verdict for a move that changed nothing digest-visible
    _CLEAN = object()
    #: safety valve: distinct read-set groups retained before the memo resets
    _MEMO_MAX = 200_000
    #: safety valve: parents retained in the expansion memo before it resets
    _XMEMO_MAX = 50_000

    #: drivers may skip re-seeking the engine between parents; the
    #: expander seeks lazily, only when a move must execute for real
    lazy_seek = True

    def __init__(self, work: ArrayEngine, invariant: Callable) -> None:
        self.work = work
        self.invariant = invariant
        self.nprocs = work.n
        work.explore_prepare()
        self._jc = work._jrnl_chans
        # engine-lifetime memos: stay warm across explore() calls on the
        # same engine (fork() shares them with clones on purpose).  The
        # expansion memo caches invariant verdicts, so it only survives
        # as long as the invariant callable is the same object — the
        # marker lives inside the shared dict so it travels with it.
        xmemo = work._explore_xmemo
        if xmemo.get("__inv__") is not invariant:
            xmemo.clear()
            xmemo["__inv__"] = invariant
        self._memo = work._explore_memo
        self._xmemo = xmemo
        self._cnt = [
            struct.pack("<q", i) for i in range(2 * work._cap + 3)
        ]

    def parts(self) -> list[bytes]:
        """The part buffer of the engine's current configuration."""
        return self.work.digest_parts()

    def root(self) -> tuple:
        """(digest, parts) of the engine's current configuration."""
        parts = self.work.digest_parts()
        return blake2b(b"".join(parts), digest_size=16).digest(), parts

    def expand(self, state, parent_parts, seen: set) -> list:
        """Expand every move of the parent ``state``; records in move
        order, ``None`` for known duplicates — see
        :meth:`_DeltaExpander.expand` for the shared contract.

        Enumeration reads the state tuple, not the engine, so the
        engine is only seeked (lazily, once) when a move has to execute
        for real; a fully-memoized parent never touches it.

        Above the per-move memo sits a parent-level expansion memo
        keyed by the *exact* state tuple: a re-expansion of a
        configuration already expanded on this engine replays the whole
        record row from cache.  The key must be the full state, not its
        digest — digest-equal states may differ in excluded fields
        (timers, scan cursors, uids) and expand differently, and each
        search keeps whichever representative it met first.  Cached
        child tuples are reused across runs, so repeat lookups hit the
        dictionary's identity fast path.  Entries that were
        duplicate-pruned at record time carry only their digest; if
        such a digest is *not* already known to this search, the cached
        row cannot answer for it and the parent falls back to the
        executing path (so the memo is sound under any interleaving of
        calls, it just hits less).
        """
        blake = blake2b
        join = b"".join
        xmemo = self._xmemo
        cached = xmemo.get(state)
        if cached is not None:
            row: list = []
            append = row.append
            local_seen: set = set()
            complete = True
            for e in cached:
                if e is None:
                    # clean move: child digest == parent digest, and the
                    # parent's own digest is always in ``seen``
                    append(None)
                    continue
                d = e[0]
                if d in seen or d in local_seen:
                    append(None)
                elif len(e) == 1:
                    # pruned at record time, but new to this search — no
                    # cached record exists; recompute the row for real
                    complete = False
                    break
                else:
                    local_seen.add(d)
                    append(e)
            if complete:
                return row
        work = self.work
        invariant = self.invariant
        exec_move = work._exec_move
        undo_move = work._undo_move
        proc_part = work.digest_proc_part
        chan_part = work.digest_chan_part
        child_state = work._child_state
        jrnl_pushes = work._jrnl_pushes
        seek = work.seek
        jc = self._jc
        memo = self._memo
        if len(memo) > self._MEMO_MAX:
            memo.clear()
        clean = self._CLEAN
        # count-prefix words, precomputed up to the initial ring size; a
        # parent's parts may hold longer queues (from a grown engine)
        cnt = self._cnt
        ncnt = len(cnt)
        n = self.nprocs
        t = state[0]
        procs_t = state[5]
        root_t = state[4]
        chans_t = state[6]
        root_pid = work._root_pid
        in_slot = work._in_slot
        nbr_off = work._nbr_off
        deg_col = work._deg
        row = []
        append = row.append
        trace: list = []
        record = trace.append
        local_seen = set()
        synced = False
        for pid in range(n):
            sec = procs_t[pid]
            base = nbr_off[pid]
            # group the memo by the per-pid read set so the wide proc
            # section tuple is hashed once per parent, not once per move
            outer = (sec, root_t) if pid == root_pid else sec
            grp = memo.get(outer)
            if grp is None:
                grp = memo[outer] = {}
            mv = []
            for lbl in range(deg_col[pid]):
                slot = in_slot[base + lbl]
                msgs = chans_t[slot][0]
                if msgs:
                    w0, w1 = msgs[0]
                    mv.append((lbl, slot, w0, w1))
            mv.append((-1, -1, -1, -1))
            for lbl, slot, w0, w1 in mv:
                key = (pid, lbl, t, w0, w1)
                ent = grp.get(key)
                if ent is clean:
                    # no channel events, untouched digest words: the
                    # child digest is the parent's, always already known
                    append(None)
                    record(None)
                    continue
                if ent is not None:
                    part, pushes = ent
                    cur = parent_parts.copy()
                    cur[pid] = part
                    if slot >= 0:
                        old = cur[n + slot]
                        k = (len(old) >> 3) - 3  # word count after the pop
                        cur[n + slot] = (
                            cnt[k] if k < ncnt else struct.pack("<q", k)
                        ) + old[24:]
                    for ps, msg in pushes:
                        old = cur[n + ps]
                        k = (len(old) >> 3) + 1  # word count after the push
                        cur[n + ps] = (
                            cnt[k] if k < ncnt else struct.pack("<q", k)
                        ) + old[8:] + msg
                    digest = blake(join(cur), digest_size=16).digest()
                    if digest in seen or digest in local_seen:
                        append(None)
                        record((digest,))
                        continue
                    # first sighting: run the move for real — the child
                    # state tuple and the verdict need the engine
                    local_seen.add(digest)
                    if not synced:
                        seek(state)
                        synced = True
                    exec_move(pid, lbl)
                    dirty = [slot] if slot >= 0 else []
                    for ps, _ in pushes:
                        if ps not in dirty:
                            dirty.append(ps)
                    item = (
                        digest,
                        _verdict(invariant(work)),
                        child_state(state, pid, dirty),
                        cur,
                    )
                    append(item)
                    record(item)
                    undo_move(pid, state)
                    continue
                # memo miss: execute, derive the entry from the journal
                if not synced:
                    seek(state)
                    synced = True
                exec_move(pid, lbl)
                part = proc_part(pid)
                if not jc and part == parent_parts[pid]:
                    grp[key] = clean
                    append(None)
                    record(None)
                    undo_move(pid, state)
                    continue
                grp[key] = (part, jrnl_pushes())
                dirty = []
                for ev in jc:
                    s = ev[0]
                    if s not in dirty:
                        dirty.append(s)
                cur = parent_parts.copy()
                cur[pid] = part
                for s in dirty:
                    cur[n + s] = chan_part(s)
                digest = blake(join(cur), digest_size=16).digest()
                if digest in seen or digest in local_seen:
                    append(None)
                    record((digest,))
                    undo_move(pid, state)
                    continue
                local_seen.add(digest)
                item = (
                    digest,
                    _verdict(invariant(work)),
                    child_state(state, pid, dirty),
                    cur,
                )
                append(item)
                record(item)
                undo_move(pid, state)
        if len(xmemo) > self._XMEMO_MAX:
            xmemo.clear()
        xmemo[state] = trace
        return row


def _expander(
    work: Engine | ArrayEngine, invariant: Callable
) -> _DeltaExpander | _ArrayExpander:
    """The expander for ``work``'s backend."""
    if isinstance(work, ArrayEngine):
        return _ArrayExpander(work, invariant)
    return _DeltaExpander(work, invariant)


def _explore_bfs_delta(
    work: Engine,
    max_depth: int,
    max_configurations: int,
    exp,
) -> ExplorationResult:
    """BFS on the delta codec: O(degree) restore/snapshot per transition.

    Frontier entries carry the parent's packed slot buffer alongside its
    :class:`~repro.sim.engine.EngineState`, so a child digest re-encodes
    only the stepped process and its incident channels.  The driver loop
    is expander-agnostic (object :class:`_DeltaExpander` or array
    :class:`_ArrayExpander`).
    """
    # lazy expanders track the engine's held state themselves and seek
    # only when a move must actually execute
    lazy = exp.lazy_seek
    root_digest, parts = exp.root()
    seen: set = {root_digest}
    held = work.save_state()
    frontier = [(held, parts)]
    transitions = 0
    frontier_sizes: list[int] = []

    for depth in range(1, max_depth + 1):
        nxt: list = []
        for state, parent_parts in frontier:
            if not lazy:
                work.load_state_diff(held, state)
                held = state
            for item in exp.expand(state, parent_parts, seen):
                transitions += 1
                if item is None:
                    continue
                digest, msg, child, child_parts = item
                seen.add(digest)
                if msg is not None:
                    return _finish(
                        seen, transitions, False, (depth, msg),
                        frontier_sizes + [len(nxt)],
                    )
                nxt.append((child, child_parts))
                if len(seen) >= max_configurations:
                    return _finish(
                        seen, transitions, False, None,
                        frontier_sizes + [len(nxt)],
                    )
        frontier_sizes.append(len(nxt))
        frontier = nxt
        if not frontier:
            return _finish(seen, transitions, True, None, frontier_sizes)
    return _finish(seen, transitions, False, None, frontier_sizes)


def _explore_bfs_delta_por(
    work: Engine,
    max_depth: int,
    max_configurations: int,
    exp: _DeltaExpander,
) -> ExplorationResult:
    """Sleep-set BFS: same reachable set, far fewer transitions.

    The seen-set becomes a dict ``digest → sleep mask``: the
    intersection of the sleep sets every arrival carried (what is
    *provably* redundant at a state is only what every path agreed
    was).  Re-arriving at an expanded state with new non-slept moves
    shrinks the stored mask and queues a *wake-up* — a re-expansion
    executing only the newly woken moves — processed within the same
    depth level, so ``exhausted`` keeps its meaning and the visited
    configuration set stays exactly the full explorer's (the
    differential suite pins this on every variant × topology).  Masks
    only ever shrink, so wake-ups terminate.

    Violation depths are the depth at which the reduced search met the
    violating configuration — not necessarily minimal, unlike plain
    BFS.  ``transitions`` counts executed moves only; the full-vs-POR
    transition ratio is the reduction the benchmark gates.
    """
    root_digest, parts = exp.root()
    seen: dict = {root_digest: 0}
    held = work.save_state()
    frontier = [(root_digest, held, parts)]
    # digests discovered but not yet expanded: arrivals there merge
    # masks silently (the pending expansion reads the merged mask);
    # arrivals at already-expanded states must queue a wake-up
    unexpanded = {root_digest}
    transitions = 0
    frontier_sizes: list[int] = []
    all_mask = exp.all_moves_mask

    for depth in range(1, max_depth + 1):
        nxt: list = []
        # (digest, state, parts, sleep_override); None → read seen[d]
        queue: list = [(d, s, p, None) for d, s, p in frontier]
        qi = 0
        while qi < len(queue):
            d, state, parent_parts, sleep_override = queue[qi]
            qi += 1
            sleep = seen[d] if sleep_override is None else sleep_override
            unexpanded.discard(d)
            work.load_state_diff(held, state)
            held = state
            records, _ = exp.expand_por(state, parent_parts, d, sleep, seen)
            for _mb, _pid, _ch, digest, msg, child, child_parts, child_sleep, _cs in records:
                transitions += 1
                stored = seen.get(digest)
                if stored is None:
                    seen[digest] = child_sleep
                    if msg is not None:
                        return _finish(
                            seen, transitions, False, (depth, msg),
                            frontier_sizes + [len(nxt)],
                        )
                    nxt.append((digest, child, child_parts))
                    unexpanded.add(digest)
                    if len(seen) >= max_configurations:
                        return _finish(
                            seen, transitions, False, None,
                            frontier_sizes + [len(nxt)],
                        )
                else:
                    merged = stored & child_sleep
                    if merged != stored:
                        seen[digest] = merged
                        if digest not in unexpanded:
                            woken = stored & ~child_sleep
                            queue.append(
                                (digest, child, child_parts,
                                 all_mask & ~woken)
                            )
        frontier_sizes.append(len(nxt))
        frontier = nxt
        if not frontier:
            return _finish(seen, transitions, True, None, frontier_sizes)
    return _finish(seen, transitions, False, None, frontier_sizes)


def _explore_dfs_delta(
    work: Engine,
    max_depth: int,
    max_configurations: int,
    exp,
) -> ExplorationResult:
    """DFS on the delta codec (same stack semantics as the reference)."""
    lazy = exp.lazy_seek
    root_digest, parts = exp.root()
    seen: set = {root_digest}
    held = work.save_state()
    per_depth = [0] * (max_depth + 1)
    stack: list[tuple] = [(held, 0, parts)]
    transitions = 0
    truncated = False

    while stack:
        state, depth, parent_parts = stack.pop()
        if depth >= max_depth:
            truncated = True
            continue
        if not lazy:
            work.load_state_diff(held, state)
            held = state
        for item in exp.expand(state, parent_parts, seen):
            transitions += 1
            if item is None:
                continue
            digest, msg, child, child_parts = item
            seen.add(digest)
            per_depth[depth + 1] += 1
            if msg is not None:
                last = max(d for d in range(max_depth + 1) if per_depth[d])
                return _finish(
                    seen, transitions, False, (depth + 1, msg),
                    per_depth[1 : last + 1],
                )
            stack.append((child, depth + 1, child_parts))
            if len(seen) >= max_configurations:
                last = max(d for d in range(max_depth + 1) if per_depth[d])
                return _finish(
                    seen, transitions, False, None, per_depth[1 : last + 1]
                )
    last = max((d for d in range(max_depth + 1) if per_depth[d]), default=0)
    return _finish(
        seen, transitions, not truncated, None, per_depth[1 : last + 1]
    )
