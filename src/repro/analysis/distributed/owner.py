"""Owner-computes exploration: the one multi-worker explorer.

Every ``explore(workers > 1)`` search and every ``distributed=True``
campaign runs here.  No process holds the whole seen-set and the parent
is never a dedup authority — a parent-side global seen-set would cap the
search at one process's RAM and make the parent the serial bottleneck:

* The digest space is partitioned across ``W`` worker shards by
  :func:`~.partition.owner_of`, the top 8 digest bytes modulo ``W``
  (ownership invariant: every digest has exactly one owner).
* Each worker holds its shard of ``seen`` in a :class:`~.store.ShardStore`
  (RAM set + disk-spilled sorted runs) and keeps its frontier resident
  as ``(state, digest parts)`` pairs — full ``EngineState``s never pass
  through the parent except for the few children an owner accepted
  from another worker.
* A BFS level runs digest-first, in four steps, each a round of
  requests to every worker:

  1. **Expand**: every worker expands its frontier through the serial
     explorer's expander (:class:`~repro.analysis.explore._DeltaExpander`,
     or :class:`~repro.analysis.explore._ArrayExpander` on the array
     backend).  A child it owns is deduplicated against its shard at
     once and, if new, judged and appended to its next frontier.  A
     foreign child counts as *seen* to the expander, so its move is
     never run past the digest; the digest is recorded once per level
     for its owner, with the frontier index of the parent that first
     produced it.
  2. **Claim**: each owner adds the digests routed to it to its shard,
     in sender-rank order, then expand order, and returns the ones it
     accepted to each sender.
  3. **Build**: each sender re-expands only the parents of accepted
     digests, with a view that admits just those digests, so the
     expander judges and snapshots exactly the accepted children.
  4. **Adopt**: each owner appends the built children to its next
     frontier in claim order and swaps frontiers.  The root enters the
     search through the same claim and adopt steps.

  The parent relays digests and built children and merges per-level
  counts, memory stats and violation verdicts; it holds no seen-set.
  A digest is represented by the owner's own copy if it made one
  (added during expand), else by the first routed copy in rank order,
  then expand order, so frontiers and spills are deterministic for a
  given worker count; the invariant runs once per configuration, as
  in the serial search.

Determinism: the set of *new* configurations discovered at BFS depth
``d`` is a property of the state graph, not of the partitioning — every
new child at depth ``d`` is examined by exactly one owner, once.  So
``configurations``, ``transitions``, ``frontier_sizes`` and
``exhausted`` are identical to the serial explorer for any worker
count, for every campaign that runs to its natural end (closure or the
depth bound).  A campaign stopped *early* — invariant violation or the
``max_configurations`` cap — stops at level granularity (the serial
explorer stops mid-level), with the violation reported at the same
minimal depth; among same-depth violations the one with the smallest
digest wins, which is worker-count independent.  Its counts can
therefore exceed the serial search's but never depend on the worker
count.  The reported ``peak_seen_bytes`` is the sum of the per-shard
estimates, so it too differs from the serial single-set figure.

Workers: the shards run on the package's one worker pool
(:class:`~repro.analysis.parallel.WorkerPool`), forked once per
campaign; each worker's request handler is its :class:`_OwnerWorker`,
and the parent scatters requests and gathers replies in rank order.
A worker that raises or dies surfaces in the parent as
:class:`~repro.analysis.parallel.CampaignError` naming the failed
shard(s); the surviving workers are shut down and joined.  If the
parent dies instead, every worker reads EOF on its pipe and exits.

Checkpoint/resume: with ``checkpoint_dir`` set, every ``k`` completed
levels each worker snapshots its shard (sorted RAM blob + immutable
run files + pickled frontier) and the parent atomically publishes a
manifest (see :mod:`.checkpoint`).  Spills are written directly into
the checkpoint directory so a checkpoint never copies run data, and
files retired by compaction are deleted only *after* the next manifest
lands — a kill at any instant leaves a directory the last manifest
fully describes.  ``resume_dir`` restores shard stores and frontiers
and continues at the next level, reproducing byte-identical final
counts.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Any, Callable

from ...sim.array_engine import ArrayEngine
from ...sim.engine import Engine
from ...spec.registry import SpecError
from ..explore import ExplorationResult, _check, _expander
from ..parallel import CampaignError, ShardProgress, WorkerPool
from .checkpoint import CheckpointError, read_manifest, write_manifest
from .partition import owner_of
from .store import ShardStore

__all__ = ["explore_owner"]

_DEFAULT_MAX_DEPTH = 12
_DEFAULT_MAX_CONFIGURATIONS = 200_000


class _SeenView:
    """The expand step's view of one shard, for the expander's
    membership probes.

    The expanders read their ``seen`` argument only via ``in``.  Digests
    this worker owns answer from the shard store.  A foreign digest
    answers *seen*, so the expander drops the move at its digest: no
    verdict, no snapshot.  The view records the digest instead, the
    first time it meets it this level: in ``outboxes[owner]``, and in
    ``parent_of`` with the frontier index of the parent being expanded,
    which the build step re-expands if the owner accepts the digest.

    Probe order, cheapest first: the shard's RAM set and this level's
    routed digests (both hold only digests of a known owner, this
    worker and another one respectively), then the ownership map, then
    the spilled runs for an owned digest.
    """

    __slots__ = (
        "store", "ram", "owner_of", "rank", "parent", "parent_of", "outboxes",
    )

    def __init__(
        self, store: ShardStore, owner_of, rank: int, shards: int
    ) -> None:
        self.store = store
        self.ram = store.ram
        self.owner_of = owner_of
        self.rank = rank
        #: frontier index of the parent being expanded
        self.parent = 0
        self.parent_of: dict[bytes, int] = {}
        self.outboxes: list[list[bytes]] = [[] for _ in range(shards)]

    def __contains__(self, digest: bytes) -> bool:
        if digest in self.ram or digest in self.parent_of:
            return True
        owner = self.owner_of(digest)
        if owner == self.rank:
            return self.store.spilled(digest)
        self.parent_of[digest] = self.parent
        self.outboxes[owner].append(digest)
        return True


class _Admit:
    """The build step's view: every digest is seen except the admitted
    ones, so the expander judges and snapshots just those children."""

    __slots__ = ("digests",)

    def __init__(self, digests: set[bytes]) -> None:
        self.digests = digests

    def __contains__(self, digest: bytes) -> bool:
        return digest not in self.digests


class _OwnerWorker:
    """One shard owner: its seen-set shard, its frontier, its engine."""

    __slots__ = (
        "rank",
        "shards",
        "owner_of",
        "expander",
        "lazy",
        "store",
        "view",
        "frontier",
        "next_frontier",
        "held",
        "_frontier_blob",
        "_stale",
    )

    def __init__(
        self,
        engine: Engine,
        invariant: Callable,
        rank: int,
        shards: int,
        mem_budget: int | None,
        spill_dir: str | None,
    ) -> None:
        self.rank = rank
        self.shards = shards
        self.owner_of = owner_of(shards)
        self.expander = _expander(engine, invariant)
        # lazy expanders seek the engine themselves, only when a move
        # must execute for real
        self.lazy = self.expander.lazy_seek
        self.store = ShardStore(mem_budget=mem_budget, spill_dir=spill_dir)
        #: this level's expand view (routed digests and their parents)
        self.view: _SeenView | None = None
        #: ``(state, digest parts)`` pairs, as in the serial BFS
        self.frontier: list = []
        self.next_frontier: list = []
        self.held = None
        self._frontier_blob: str | None = None
        self._stale: list[str] = []

    # -- level steps --------------------------------------------------

    def _expand(self, index: int, seen) -> list:
        """The expander's records for frontier entry ``index``."""
        state, parts = self.frontier[index]
        if not self.lazy:
            work = self.expander.work
            if self.held is None:
                work.load_state(state)
            else:
                work.load_state_diff(self.held, state)
            self.held = state
        return self.expander.expand(state, parts, seen)

    def expand(self) -> tuple[int, int, list, list]:
        """Step 1: expand the frontier; returns ``(transitions, accepted,
        violations, outboxes)`` where ``outboxes[r]`` lists the digests
        routed to rank ``r``.  Every record the expander returns is a
        new child this worker owns (foreign ones read as seen): it
        enters the shard and the next frontier at once."""
        view = self.view = _SeenView(
            self.store, self.owner_of, self.rank, self.shards
        )
        add = self.store.add
        nxt = self.next_frontier
        transitions = 0
        violations: list = []
        for i in range(len(self.frontier)):
            view.parent = i
            for item in self._expand(i, view):
                transitions += 1
                if item is None:
                    continue
                digest, msg, child, child_parts = item
                add(digest)
                nxt.append((child, child_parts))
                if msg is not None:
                    violations.append((digest, msg))
        return transitions, len(nxt), violations, view.outboxes

    def claim(self, routed: list) -> list:
        """Step 2: add the digests each sender routed here (``routed[s]``
        for rank ``s``) to the shard, senders in rank order; returns the
        accepted ones per sender."""
        add = self.store.add
        return [[d for d in digests if add(d)] for digests in routed]

    def build(self, accepted: list) -> tuple[list, list]:
        """Step 3: build the children the owners accepted from this
        worker (``accepted[r]`` from rank ``r``) by re-expanding their
        parents; returns ``(violations, children)`` where
        ``children[r]`` holds ``(state, parts)`` pairs in the order of
        ``accepted[r]``."""
        parent_of = self.view.parent_of
        admitted: dict[int, set] = {}
        for digests in accepted:
            for d in digests:
                admitted.setdefault(parent_of[d], set()).add(d)
        built: dict[bytes, tuple] = {}
        violations: list = []
        for i in sorted(admitted):
            for item in self._expand(i, _Admit(admitted[i])):
                if item is None:
                    continue
                digest, msg, child, child_parts = item
                built[digest] = (child, child_parts)
                if msg is not None:
                    violations.append((digest, msg))
        return violations, [[built[d] for d in digests] for digests in accepted]

    def adopt(self, children: list) -> tuple[int, int, int]:
        """Step 4: append the built ``(state, parts)`` children, in claim
        order, after this worker's own new children and make that the
        frontier; returns the shard stats."""
        self.next_frontier.extend(children)
        self.frontier = self.next_frontier
        self.next_frontier = []
        self.view = None
        return self.stats()

    def stats(self) -> tuple[int, int, int]:
        store = self.store
        return len(store), store.mem_bytes(), store.disk_bytes()

    # -- checkpoint / restore -----------------------------------------

    def checkpoint(self, directory: str, tag: int | None = None) -> dict:
        # From the first checkpoint on, every deletion (compacted runs,
        # superseded blobs) must wait for the post-publish gc broadcast:
        # the last manifest on disk may still reference the file.
        self.store.defer_delete = True
        fragment = self.store.checkpoint(directory, tag=tag)
        # Like the store's RAM blob, the frontier pickle is versioned by
        # epoch: overwriting the previous one in place would let a crash
        # before the new manifest publish corrupt the resume the *old*
        # manifest still promises.  Superseded pickles die in gc(), i.e.
        # only after the new manifest is on disk.  It holds the states
        # only; restore() recomputes their digest parts.
        name = ("frontier.pkl" if tag is None
                else f"frontier-{int(tag):06d}.pkl")
        tmp = os.path.join(directory, name + ".tmp")
        with open(tmp, "wb") as fh:
            pickle.dump([state for state, _ in self.frontier], fh,
                        protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, os.path.join(directory, name))
        prev = self._frontier_blob
        self._frontier_blob = os.path.join(directory, name)
        if prev is not None and os.path.abspath(prev) != os.path.abspath(
            self._frontier_blob
        ):
            self._stale.append(prev)
        fragment["frontier"] = name
        fragment["frontier_len"] = len(self.frontier)
        return fragment

    def restore(self, directory: str, fragment: dict, mem_budget) -> tuple:
        self.store.close()
        self.store = ShardStore.restore(directory, fragment, mem_budget=mem_budget)
        self.store.defer_delete = True
        self._frontier_blob = os.path.join(directory, fragment["frontier"])
        with open(self._frontier_blob, "rb") as fh:
            states = pickle.load(fh)
        if len(states) != fragment.get("frontier_len", len(states)):
            raise CheckpointError(
                f"shard {self.rank}: frontier pickle holds "
                f"{len(states)} states, manifest says "
                f"{fragment['frontier_len']}"
            )
        work = self.expander.work
        parts = self.expander.parts
        self.frontier = []
        for state in states:
            work.load_state(state)
            self.frontier.append((state, parts()))
        self.next_frontier = []
        self.held = None
        return len(self.store), len(self.frontier)

    def gc(self) -> None:
        for path in self._stale:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        self._stale.clear()
        self.store.gc()

    def close(self) -> None:
        self.store.close()

    def __call__(self, request: tuple) -> Any:
        """Serve one request from the parent (the worker pool's handler)."""
        return _dispatch(self, request)


def _dispatch(worker: _OwnerWorker, msg: tuple) -> Any:
    cmd = msg[0]
    if cmd == "expand":
        return worker.expand()
    if cmd == "claim":
        return worker.claim(msg[1])
    if cmd == "build":
        return worker.build(msg[1])
    if cmd == "adopt":
        return worker.adopt(msg[1])
    if cmd == "checkpoint":
        return worker.checkpoint(msg[1], msg[2])
    if cmd == "restore":
        return worker.restore(msg[1], msg[2], msg[3])
    if cmd == "gc":
        return worker.gc()
    raise ValueError(f"unknown owner-worker command {cmd!r}")


def _call_all(pool: WorkerPool, requests: list) -> list:
    """Send ``requests[r]`` to rank ``r``; gather replies in rank order,
    raising :class:`CampaignError` if any worker failed."""
    for rank, request in enumerate(requests):
        pool.send(rank, request)
    replies = []
    failures = []
    for rank in range(pool.workers):
        ok, out = pool.recv(rank)
        replies.append(out if ok else None)
        if not ok:
            failures.append(out)
    if failures:
        raise CampaignError("explore-owner", failures)
    return replies


def explore_owner(
    engine: Engine,
    invariant: Callable[[Engine], bool | str | None],
    *,
    max_depth: int | None = None,
    max_configurations: int | None = None,
    workers: int | None = None,
    mem_budget: int | None = None,
    spill_dir: str | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int | None = None,
    resume_dir: str | None = None,
    spec: Any = None,
    progress: Callable[[ShardProgress], None] | None = None,
) -> ExplorationResult:
    """Owner-computes BFS exploration with sharded, disk-spillable dedup.

    Same invariant convention and result type as
    :func:`repro.analysis.explore.explore`; see the module docstring for
    the protocol and its determinism guarantees.  ``workers`` is the
    shard count (1 runs the single shard in-process — still budgeted
    and checkpointable, no fork needed); ``mem_budget`` is the target
    resident bytes *per shard* for the seen-set (frontier states remain
    resident — the budget bounds the cumulatively growing part).

    ``checkpoint_dir`` enables a manifest checkpoint after every
    ``checkpoint_every`` completed levels (and at campaign end);
    ``resume_dir`` restores one and continues.  On resume, the worker
    count is structural: it comes from the manifest and must not
    conflict.  Operational parameters (``max_depth``,
    ``max_configurations``, ``mem_budget``, ``checkpoint_every``)
    default to the manifest's values and may be overridden — raising
    ``max_depth`` deepens a finished bounded campaign from its stored
    frontier.  ``spec`` (a ``ScenarioSpec``) is embedded in checkpoints
    so ``repro explore --resume`` can rebuild the engine.
    """
    manifest = None
    progress_doc: dict = {}
    if resume_dir is not None:
        manifest = read_manifest(resume_dir)
        campaign = manifest["campaign"]
        if workers is not None and workers != campaign["workers"]:
            raise CheckpointError(
                f"checkpoint was written with {campaign['workers']} shard(s); "
                f"resume must use the same worker count, not {workers}"
            )
        # older manifests name their ownership map; topbits is the only one
        foreign = campaign.get("partitioner", "topbits")
        if foreign != "topbits":
            raise CheckpointError(
                f"checkpoint was partitioned by {foreign!r}: its shard "
                "files only mean something under that ownership map, and "
                "shards are owned by 'topbits' here — start a new campaign"
            )
        stored_backend = campaign.get("backend", "object")
        resumed_backend = (
            "array" if isinstance(engine, ArrayEngine) else "object"
        )
        if stored_backend != resumed_backend:
            raise CheckpointError(
                f"checkpoint was explored on the {stored_backend!r} backend; "
                f"its digests mean nothing to {resumed_backend!r} — resume "
                "with the same backend"
            )
        workers = campaign["workers"]
        if max_depth is None:
            max_depth = campaign["max_depth"]
        if max_configurations is None:
            max_configurations = campaign["max_configurations"]
        if mem_budget is None:
            mem_budget = campaign.get("mem_budget")
        if checkpoint_every is None:
            checkpoint_every = campaign.get("checkpoint_every", 1)
        if checkpoint_dir is None:
            checkpoint_dir = resume_dir
        progress_doc = manifest["progress"]
    shards = 1 if workers is None else max(1, workers)
    if max_depth is None:
        max_depth = _DEFAULT_MAX_DEPTH
    if max_configurations is None:
        max_configurations = _DEFAULT_MAX_CONFIGURATIONS
    if checkpoint_every is None:
        checkpoint_every = 1
    if checkpoint_every < 1:
        raise SpecError(
            f"checkpoint_every={checkpoint_every} (--checkpoint-every) "
            "must be >= 1"
        )

    # Stored-result short-circuits: a finished campaign's manifest IS the
    # result unless a deeper depth bound reopens it.
    if manifest is not None:
        stored = _result_from_progress(progress_doc)
        reopened = (
            progress_doc["violation"] is None
            and not progress_doc["exhausted"]
            and max_depth > progress_doc["level"]
            and stored.configurations < max_configurations
        )
        if not reopened:
            return stored

    work = engine.fork()
    # Exploration runs on the observer-free kernel (same contract as the
    # serial explorer).
    work.clear_observers()
    bad = _check(invariant, work, 0)
    if bad is not None and manifest is None:
        return ExplorationResult(1, 0, False, bad, [1])

    if checkpoint_dir is not None:
        shard_dirs: list[str | None] = [
            os.path.join(checkpoint_dir, f"shard{r}") for r in range(shards)
        ]
        for d in shard_dirs:
            os.makedirs(d, exist_ok=True)
    elif spill_dir is not None:
        shard_dirs = [os.path.join(spill_dir, f"shard{r}") for r in range(shards)]
    else:
        shard_dirs = [None] * shards

    t0 = time.perf_counter()
    pool = WorkerPool(
        lambda rank: _OwnerWorker(
            work, invariant, rank, shards, mem_budget, shard_dirs[rank],
        ),
        shards,
    )
    spec_doc = spec.to_dict() if spec is not None else (
        manifest["spec"] if manifest is not None else None
    )
    campaign_doc = {
        "max_depth": max_depth,
        "max_configurations": max_configurations,
        "workers": shards,
        "mem_budget": mem_budget,
        "checkpoint_every": checkpoint_every,
        "backend": "array" if isinstance(work, ArrayEngine) else "object",
    }

    transitions = 0
    configurations = 1
    frontier_sizes: list[int] = []
    peak_seen = 0
    peak_disk = 0
    violation: tuple[int, str] | None = None
    exhausted = False
    start_depth = 1

    def note(event: str, rank: int, detail: str) -> None:
        if progress is not None:
            progress(ShardProgress(
                "explore-owner", rank, shards, rank + 1, shards,
                f"{event}: {detail}",
            ))

    def do_checkpoint(level: int, complete: bool) -> None:
        fragments = _call_all(pool, [
            ("checkpoint", shard_dirs[r], level) for r in range(shards)
        ])
        shards_doc = []
        for r, fragment in enumerate(fragments):
            fragment["rank"] = r
            fragment["dir"] = os.path.basename(shard_dirs[r])
            shards_doc.append(fragment)
        write_manifest(checkpoint_dir, {
            "spec": spec_doc,
            "campaign": campaign_doc,
            "progress": {
                "level": level,
                "configurations": configurations,
                "transitions": transitions,
                "frontier_sizes": list(frontier_sizes),
                "peak_seen_bytes": peak_seen,
                "peak_disk_bytes": peak_disk,
                "violation": list(violation) if violation else None,
                "exhausted": exhausted,
                "complete": complete,
            },
            "shards": shards_doc,
        })
        # Only now is it safe to drop files the previous manifest
        # referenced but the new one does not.
        _call_all(pool, [("gc",)] * shards)
        note("checkpoint", 0, f"level {level} manifest published")

    try:
        if manifest is None:
            # Root bootstrap: digest the root parent-side; its owner
            # claims and adopts it like a routed child.
            root_state = work.save_state()
            root_digest, root_parts = _expander(work, invariant).root()
            root_rank = owner_of(shards)(root_digest)
            _call_all(pool, [
                ("claim", [[root_digest]] if r == root_rank else [])
                for r in range(shards)
            ])
            stats = _call_all(pool, [
                ("adopt", [(root_state, root_parts)] if r == root_rank
                 else [])
                for r in range(shards)
            ])
            configurations = sum(s[0] for s in stats)
            peak_seen = max(peak_seen, sum(s[1] for s in stats))
            if checkpoint_dir is not None:
                do_checkpoint(0, False)
        else:
            replies = _call_all(pool, [
                ("restore", shard_dirs[r], manifest["shards"][r], mem_budget)
                for r in range(shards)
            ])
            transitions = progress_doc["transitions"]
            configurations = sum(r[0] for r in replies)
            if configurations != progress_doc["configurations"]:
                raise CheckpointError(
                    f"restored shards hold {configurations} configurations, "
                    f"manifest says {progress_doc['configurations']}"
                )
            frontier_sizes = list(progress_doc["frontier_sizes"])
            peak_seen = progress_doc["peak_seen_bytes"]
            peak_disk = progress_doc["peak_disk_bytes"]
            start_depth = progress_doc["level"] + 1
            note("resume", 0, (
                f"level {progress_doc['level']}, "
                f"{configurations} configurations restored"
            ))

        for depth in range(start_depth, max_depth + 1):
            expansions = _call_all(pool, [("expand",)] * shards)
            # owner r claims what every sender routed to it ...
            claims = _call_all(pool, [
                ("claim", [e[3][r] for e in expansions]) for r in range(shards)
            ])
            # ... sender s builds what every owner accepted from it ...
            builds = _call_all(pool, [
                ("build", [c[s] for c in claims]) for s in range(shards)
            ])
            # ... and owner r adopts the built children in claim order
            adopted = [
                [child for b in builds for child in b[1][r]]
                for r in range(shards)
            ]
            stats = _call_all(pool, [
                ("adopt", adopted[r]) for r in range(shards)
            ])
            transitions += sum(e[0] for e in expansions)
            level_new = sum(e[1] for e in expansions) + sum(map(len, adopted))
            level_violations = [v for e in expansions for v in e[2]]
            level_violations += [v for b in builds for v in b[0]]
            configurations = sum(s[0] for s in stats)
            peak_seen = max(peak_seen, sum(s[1] for s in stats))
            peak_disk = max(peak_disk, sum(s[2] for s in stats))
            frontier_sizes.append(level_new)
            note("level", 0, f"depth {depth}: {level_new} new, "
                 f"{configurations} total")
            finished = False
            if level_violations:
                violation = (depth, min(level_violations)[1])
                finished = True
            elif level_new == 0:
                exhausted = True
                finished = True
            elif configurations >= max_configurations:
                finished = True
            elif depth == max_depth:
                finished = True
            if checkpoint_dir is not None and (
                finished or depth % checkpoint_every == 0
            ):
                do_checkpoint(depth, finished)
            if finished:
                break
        else:
            # start_depth > max_depth: nothing to expand (resumed at the
            # bound with a reopened campaign never lands here; guarded
            # by the stored-result short-circuit above).
            if checkpoint_dir is not None:
                do_checkpoint(start_depth - 1, True)
    finally:
        pool.close()

    elapsed = time.perf_counter() - t0
    return ExplorationResult(
        configurations, transitions, exhausted, violation, frontier_sizes,
        states_per_sec=configurations / max(elapsed, 1e-9),
        peak_seen_bytes=peak_seen,
        peak_disk_bytes=peak_disk,
    )


def _result_from_progress(doc: dict) -> ExplorationResult:
    violation = doc.get("violation")
    return ExplorationResult(
        doc["configurations"],
        doc["transitions"],
        doc["exhausted"],
        (violation[0], violation[1]) if violation else None,
        list(doc["frontier_sizes"]),
        peak_seen_bytes=doc.get("peak_seen_bytes", 0),
        peak_disk_bytes=doc.get("peak_disk_bytes", 0),
    )
