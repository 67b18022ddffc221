"""Owner-computes exploration: the one multi-worker explorer.

Every ``explore(workers > 1)`` search and every ``distributed=True``
campaign runs here.  No process holds the whole seen-set and the parent
is never a dedup authority — a parent-side global seen-set would cap the
search at one process's RAM and make the parent the serial bottleneck:

* The digest space is partitioned across ``W`` worker shards by a
  registered :mod:`partitioner <.partition>` (ownership invariant:
  every digest has exactly one owner).
* Each worker holds its shard of ``seen`` in a :class:`~.store.ShardStore`
  (RAM set + disk-spilled sorted runs) and keeps its frontier states
  resident — full ``EngineState``s never pass through the parent except
  when routed to a different owner.
* A BFS level runs in two phases.  **Expand**: every worker expands its
  resident frontier through the serial explorer's expander
  (:class:`~repro.analysis.explore._DeltaExpander`, or
  :class:`~repro.analysis.explore._ArrayExpander` on the array
  backend); children it
  owns are deduplicated immediately against its shard, children owned
  elsewhere are buffered into per-owner outboxes as
  ``(digest, verdict, state)``.  **Ingest**: the parent concatenates the
  outboxes per destination (in worker-rank order, so merge order is
  worker-count deterministic) and delivers them; each owner
  deduplicates against its shard and appends survivors to its next
  frontier.  The parent never sees a digest — it merges only per-level
  counts, memory stats and violation verdicts.

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
from ..explore import (
    ExplorationResult,
    _ArrayDigester,
    _check,
    _expander,
    _PackedDigester,
)
from ..parallel import CampaignError, ShardProgress, WorkerPool
from .checkpoint import CheckpointError, read_manifest, write_manifest
from .partition import make_partitioner
from .store import ShardStore

__all__ = ["explore_owner"]

_DEFAULT_MAX_DEPTH = 12
_DEFAULT_MAX_CONFIGURATIONS = 200_000


class _SeenView:
    """Set-like view of one shard for the expander's membership probes.

    :meth:`_DeltaExpander.expand` reads its ``seen`` argument only via
    ``in``.  Digests this worker owns answer from the shard store;
    foreign digests always report *unseen* — the expander then emits a
    record and the digest is routed to its owner, the only authority
    entitled to call it a duplicate.
    """

    __slots__ = ("store", "owner_of", "rank")

    def __init__(self, store: ShardStore, owner_of, rank: int) -> None:
        self.store = store
        self.owner_of = owner_of
        self.rank = rank

    def __contains__(self, digest: bytes) -> bool:
        return self.owner_of(digest) == self.rank and digest in self.store


class _OwnerWorker:
    """One shard owner: its seen-set shard, its frontier, its engine."""

    __slots__ = (
        "rank",
        "shards",
        "owner_of",
        "expander",
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
        partitioner: str,
        partitioner_args: dict | None,
        mem_budget: int | None,
        spill_dir: str | None,
    ) -> None:
        self.rank = rank
        self.shards = shards
        self.owner_of = make_partitioner(partitioner, shards, partitioner_args)
        self.expander = _expander(engine, invariant)
        self.store = ShardStore(mem_budget=mem_budget, spill_dir=spill_dir)
        self.view = _SeenView(self.store, self.owner_of, rank)
        self.frontier: list = []
        self.next_frontier: list = []
        self.held = None
        self._frontier_blob: str | None = None
        self._stale: list[str] = []

    # -- level phases -------------------------------------------------

    def expand(self) -> tuple[int, int, list, dict]:
        """Expand the resident frontier; returns
        ``(transitions, accepted, violations, outboxes)`` where
        ``outboxes`` maps foreign rank → ``[(digest, verdict, state)]``.
        Self-owned new children enter the shard and next frontier
        immediately (this worker is their dedup authority)."""
        exp = self.expander
        work = exp.work
        digester = exp.digester
        store = self.store
        owner_of = self.owner_of
        rank = self.rank
        view = self.view
        nxt = self.next_frontier
        outboxes: dict[int, list] = {}
        transitions = 0
        accepted = 0
        violations: list = []
        frontier, self.frontier = self.frontier, []
        for state in frontier:
            if self.held is None:
                work.load_state(state)
            else:
                work.load_state_diff(self.held, state)
            self.held = state
            parts = digester.parts()
            for item in exp.expand(state, parts, view):
                transitions += 1
                if item is None:
                    continue
                digest, msg, child, _parts = item
                owner = owner_of(digest)
                if owner == rank:
                    if store.add(digest):
                        accepted += 1
                        nxt.append(child)
                        if msg is not None:
                            violations.append((digest, msg))
                else:
                    box = outboxes.get(owner)
                    if box is None:
                        box = outboxes[owner] = []
                    box.append(item[:3])
        return transitions, accepted, violations, outboxes

    def ingest(self, incoming: list) -> tuple[int, list, tuple]:
        """Adopt routed children this worker owns; close the level.

        Returns ``(accepted, violations, stats)``.  The frontier swap
        happens here — ingest is always the level's second phase — so
        the next expand sees self-accepted children first, then routed
        arrivals in the parent's rank-ordered concatenation order.
        """
        store = self.store
        nxt = self.next_frontier
        accepted = 0
        violations: list = []
        for digest, msg, state in incoming:
            if store.add(digest):
                accepted += 1
                nxt.append(state)
                if msg is not None:
                    violations.append((digest, msg))
        self.frontier = nxt
        self.next_frontier = []
        return accepted, violations, self.stats()

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
        # only after the new manifest is on disk.
        name = ("frontier.pkl" if tag is None
                else f"frontier-{int(tag):06d}.pkl")
        tmp = os.path.join(directory, name + ".tmp")
        with open(tmp, "wb") as fh:
            pickle.dump(self.frontier, fh, protocol=pickle.HIGHEST_PROTOCOL)
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
        self.view = _SeenView(self.store, self.owner_of, self.rank)
        self._frontier_blob = os.path.join(directory, fragment["frontier"])
        with open(self._frontier_blob, "rb") as fh:
            self.frontier = pickle.load(fh)
        if len(self.frontier) != fragment.get("frontier_len", len(self.frontier)):
            raise CheckpointError(
                f"shard {self.rank}: frontier pickle holds "
                f"{len(self.frontier)} states, manifest says "
                f"{fragment['frontier_len']}"
            )
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
    if cmd == "ingest":
        return worker.ingest(msg[1])
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
    partitioner: str | None = None,
    partitioner_args: dict | None = None,
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
    ``resume_dir`` restores one and continues.  On resume, structural
    parameters (worker count, partitioner) come from the manifest and
    must not conflict; operational ones (``max_depth``,
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
        if partitioner is not None and partitioner != campaign["partitioner"]:
            raise CheckpointError(
                f"checkpoint was partitioned by {campaign['partitioner']!r}; "
                f"cannot resume with {partitioner!r}"
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
        partitioner = campaign["partitioner"]
        partitioner_args = campaign.get("partitioner_args") or None
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
    if partitioner is None:
        partitioner = "topbits"
    if max_depth is None:
        max_depth = _DEFAULT_MAX_DEPTH
    if max_configurations is None:
        max_configurations = _DEFAULT_MAX_CONFIGURATIONS
    if checkpoint_every is None:
        checkpoint_every = 1
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    # Fail fast on an unknown partitioner name, before any fork.
    make_partitioner(partitioner, shards, partitioner_args)

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
            work, invariant, rank, shards,
            partitioner, partitioner_args, mem_budget, shard_dirs[rank],
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
        "partitioner": partitioner,
        "partitioner_args": partitioner_args or {},
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
            # Root bootstrap: compute the root digest parent-side and
            # route it to its owner as a level-0 ingest.
            digester = (
                _ArrayDigester(work)
                if isinstance(work, ArrayEngine)
                else _PackedDigester(work)
            )
            root_digest = digester.hash(digester.parts())
            root_state = work.save_state()
            owner_of = make_partitioner(partitioner, shards, partitioner_args)
            root_rank = owner_of(root_digest)
            ingests = _call_all(pool, [
                ("ingest", [(root_digest, None, root_state)] if r == root_rank
                 else [])
                for r in range(shards)
            ])
            configurations = sum(s[2][0] for s in ingests)
            peak_seen = max(peak_seen, sum(s[2][1] for s in ingests))
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
            incoming: list[list] = [[] for _ in range(shards)]
            for reply in expansions:
                for target, box in sorted(reply[3].items()):
                    incoming[target].extend(box)
            ingests = _call_all(pool, [
                ("ingest", incoming[r]) for r in range(shards)
            ])
            level_new = 0
            level_violations: list = []
            for (trans, accepted, violations_e, _boxes), (
                accepted_i, violations_i, stats,
            ) in zip(expansions, ingests):
                transitions += trans
                level_new += accepted + accepted_i
                level_violations.extend(violations_e)
                level_violations.extend(violations_i)
            configurations = sum(i[2][0] for i in ingests)
            peak_seen = max(peak_seen, sum(i[2][1] for i in ingests))
            peak_disk = max(peak_disk, sum(i[2][2] for i in ingests))
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
