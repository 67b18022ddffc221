"""Multi-core campaign runner for sweeps and fuzz campaigns.

Everything in :mod:`repro.analysis` is deterministic per seed, and the
sweep and fuzz campaign shapes — a parameter sweep, a
swarm-verification fuzz run — are embarrassingly parallel.  This module
shards them across worker *processes* (the GIL rules out threads for
pure-python stepping) while keeping one hard guarantee:

    **the merged result is byte-identical to the serial run**, for any
    worker count, any shard size, and any worker finish order.

Multi-worker exploration lives in :mod:`repro.analysis.distributed`
(owner-computes shards); it shares this module's :class:`ShardProgress`
events and :class:`CampaignError` failure report.

How sharding works
------------------
Workers are started with the ``fork`` start method (the default on
Linux), so they inherit the parent's memory image at fork time:
engines, invariant closures and application objects never cross the
process boundary going *in* — a worker receives only an index range.
Coming *out*, workers ship compact picklable records: metric dicts for
sweeps and ``(walk, step, message, schedule)`` tuples for fuzz.

Deterministic merging
---------------------
Each campaign's merge step replays the *serial* algorithm's visit order
over the workers' records:

* **sweeps** — results are indexed by ``(cell, seed)``; metric-name
  inference scans the grid in the same cell-major order as
  :func:`repro.analysis.sweeps.run_sweep`.
* **fuzz** — walk ``w`` draws from ``default_rng([seed, w])`` no matter
  which worker runs it; the reported violation is the one with the
  minimal walk index, and the serial result (step totals, walk lengths)
  is reconstructed exactly.

Progress and failures
---------------------
Every campaign accepts a ``progress`` callback receiving
:class:`ShardProgress` events as shards complete (the CLI renders these
on stderr).  A worker that raises does not poison the pool silently:
the traceback is captured per shard and re-raised in the parent as
:class:`CampaignError` listing every failed shard.

Fallback
--------
When the ``fork`` start method is unavailable (non-POSIX platforms) or
``workers`` is ``None``/``0``/``1``, every entry point runs the serial
code path in-process — identical output, no subprocesses.
"""

from __future__ import annotations

import mmap
import multiprocessing
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..sim.engine import Engine
from .fuzz import FuzzResult, _verdict, campaign_result, run_walk_range
from .sweeps import SweepCell, SweepResult, aggregate_grid

__all__ = [
    "ShardProgress",
    "WorkerFailure",
    "CampaignError",
    "fork_available",
    "parallel_map",
    "run_sweep_parallel",
    "fuzz_parallel",
]


# ---------------------------------------------------------------------------
# Shared infrastructure
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ShardProgress:
    """One progress event: shard ``shard`` of ``shards`` finished.

    ``done``/``total`` count finished vs. scheduled shards (finish
    order, not shard order), and ``note`` carries a campaign-specific
    human-readable detail ("walks 32-48: clean", "depth 3: 211 states").
    """

    campaign: str
    shard: int
    shards: int
    done: int
    total: int
    note: str = ""


@dataclass(frozen=True, slots=True)
class WorkerFailure:
    """A worker exception, captured per shard."""

    shard: int
    error: str
    traceback: str


class CampaignError(RuntimeError):
    """Raised when one or more worker shards failed.

    Carries every captured :class:`WorkerFailure` so a campaign over
    hundreds of shards reports all failures at once instead of the
    first one the pool happened to surface.
    """

    def __init__(self, campaign: str, failures: Sequence[WorkerFailure]):
        self.campaign = campaign
        self.failures = list(failures)
        lines = [f"{len(self.failures)} worker shard(s) failed in {campaign!r}:"]
        for f in self.failures:
            first = f.error.strip().splitlines()[0] if f.error.strip() else "?"
            lines.append(f"  shard {f.shard}: {first}")
        lines.append("(full tracebacks in CampaignError.failures)")
        super().__init__("\n".join(lines))


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


#: Payload slot inherited by forked workers.  Set immediately before the
#: pool is created and cleared right after; workers read it exactly once.
#: This is what lets non-picklable payloads (engines bound to contexts,
#: invariant closures) reach workers without ever being pickled.
_PAYLOAD: Any = None
#: Cancel flag inherited the same way: one byte of an anonymous shared
#: mapping, set by the parent to skip every shard not yet started.
_CANCEL: mmap.mmap | None = None


def _run_shard(task: tuple[int, Callable[..., Any], tuple]) -> tuple[int, bool, Any]:
    """Worker entry point: run one shard against the inherited payload.

    Returns ``(shard_index, ok, result_or_failure)`` — exceptions are
    captured here so a bad shard reports instead of killing the pool.
    """
    shard, fn, args = task
    if _CANCEL is not None and _CANCEL[0]:
        return shard, True, None  # cancelled: the parent discards it
    try:
        return shard, True, fn(_PAYLOAD, *args)
    except Exception as exc:  # noqa: BLE001 — re-raised in parent as CampaignError
        return shard, False, WorkerFailure(
            shard, f"{type(exc).__name__}: {exc}", traceback.format_exc()
        )


def parallel_map(
    campaign: str,
    fn: Callable[..., Any],
    payload: Any,
    shard_args: Sequence[tuple],
    *,
    workers: int,
    progress: Callable[[ShardProgress], None] | None = None,
    note: Callable[[int, Any], str] | None = None,
    stop: Callable[[Any], bool] | None = None,
) -> list[Any]:
    """Run ``fn(payload, *shard_args[i])`` across a fork-worker pool.

    ``payload`` is inherited by workers through the fork (never
    pickled); ``shard_args`` and each shard's return value must pickle.
    Results come back **in shard order** regardless of finish order.
    ``stop(result)`` may request early termination: shards already
    yielded keep their results, unfinished ones are ``None`` (used by
    the fuzz campaign to stop once the minimal violating shard is in);
    shards not yet started are skipped, shards already running finish
    and are discarded.

    ``fn`` must be a module-level function (workers import it by
    reference); campaign-specific state goes in ``payload``.
    Worker exceptions are collected and re-raised as
    :class:`CampaignError` after the pool drains.
    """
    global _PAYLOAD, _CANCEL
    n = len(shard_args)
    results: list[Any] = [None] * n
    failures: list[WorkerFailure] = []
    tasks = [(i, fn, args) for i, args in enumerate(shard_args)]
    ctx = multiprocessing.get_context("fork")
    _PAYLOAD = payload
    _CANCEL = mmap.mmap(-1, 1)
    pool = ctx.Pool(min(workers, n))
    try:
        done = 0
        # Ordered imap: when `stop` fires on a shard, every earlier
        # shard has already been consumed clean, so cancelling the
        # rest can only discard later (larger-index) work — this is
        # what makes early fuzz cancellation minimal-walk-safe.
        for shard, ok, out in pool.imap(_run_shard, tasks):
            done += 1
            if ok:
                results[shard] = out
            else:
                failures.append(out)
            if progress is not None:
                detail = out.error if not ok else (
                    note(shard, out) if note is not None else ""
                )
                progress(ShardProgress(campaign, shard, n, done, n, detail))
            if ok and stop is not None and stop(out):
                break
    except BaseException:
        # interrupted (Ctrl-C, a raising callback): stop the workers now
        pool.terminate()
        raise
    else:
        # Wind down without signals: skip the shards not yet started and
        # let each worker finish its current one and exit.  terminate()
        # SIGTERMs workers, and one killed while putting its result
        # leaves the result queue's lock held: the pool's own shutdown
        # then waits for that lock forever.
        _CANCEL[0] = 1
        pool.close()
    finally:
        # Always join: leaving a pool's helper threads alive past return
        # is how the next fork inherits a held lock and deadlocks — the
        # cleanup must complete before the next campaign forks again.
        pool.join()
        _PAYLOAD = None
        _CANCEL = None
    if failures:
        failures.sort(key=lambda f: f.shard)
        raise CampaignError(campaign, failures)
    return results


def _shard_ranges(total: int, shards: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into at most ``shards`` contiguous ranges.

    Ranges are balanced to within one element and concatenate, in
    order, back to ``range(total)`` — the property every deterministic
    merge below relies on.
    """
    shards = max(1, min(shards, total))
    base, extra = divmod(total, shards)
    out = []
    lo = 0
    for s in range(shards):
        hi = lo + base + (1 if s < extra else 0)
        out.append((lo, hi))
        lo = hi
    return out


def _effective_workers(workers: int | None) -> int:
    """Normalize a ``workers`` argument; 0/1/None or no fork → serial."""
    if workers is None or workers <= 1:
        return 1
    if not fork_available():  # pragma: no cover - non-POSIX fallback
        return 1
    return workers


# ---------------------------------------------------------------------------
# Sweeps: shard the (cell, seed) grid
# ---------------------------------------------------------------------------

def _sweep_shard(payload, lo: int, hi: int):
    """Evaluate grid points ``lo..hi`` (flat cell-major index) of a sweep.

    Cells dispatch through :meth:`SweepCell.run`, so spec-driven cells
    reach workers as compact serialized :class:`~repro.spec.ScenarioSpec`
    mappings and the engine is constructed in-worker via
    ``ScenarioSpec.build()``.
    """
    runner, cells, seeds = payload
    out = []
    for flat in range(lo, hi):
        i, j = divmod(flat, len(seeds))
        out.append(cells[i].run(runner, seed=seeds[j]))
    return out


def run_sweep_parallel(
    runner: Callable[..., Mapping[str, float] | None],
    cells: Sequence[SweepCell],
    seeds: Iterable[int],
    *,
    metrics: Sequence[str] | None = None,
    workers: int,
    progress: Callable[[ShardProgress], None] | None = None,
) -> SweepResult:
    """Parallel :func:`repro.analysis.sweeps.run_sweep` over worker shards.

    The flat ``(cell, seed)`` grid is split into contiguous shards, one
    task per grid point inside each shard.  Merging indexes results by
    grid position and re-runs the serial metric-inference scan
    (cell-major, first non-``None`` wins), so labels, metric order and
    the value array are identical to the serial sweep.
    """
    cells = list(cells)
    seeds = list(seeds)
    if not cells:
        raise ValueError("sweep needs at least one cell")
    if not seeds:
        raise ValueError("sweep needs at least one seed")
    total = len(cells) * len(seeds)
    workers = _effective_workers(workers)
    ranges = _shard_ranges(total, workers * 4)
    flat: list[Mapping[str, float] | None]
    if workers == 1:
        flat = _sweep_shard((runner, cells, seeds), 0, total)
    else:
        shards = parallel_map(
            "sweep",
            _sweep_shard,
            (runner, cells, seeds),
            ranges,
            workers=workers,
            progress=progress,
            note=lambda s, out: f"cells {ranges[s][0]}-{ranges[s][1]} done",
        )
        flat = [r for shard in shards for r in shard]
    # Aggregation is the exact serial path: shared with run_sweep.
    return aggregate_grid(flat, cells, seeds, metrics)


# ---------------------------------------------------------------------------
# Fuzz: shard the walk range
# ---------------------------------------------------------------------------

def _fuzz_shard(payload, lo: int, hi: int):
    """Run walks ``lo..hi`` of a fuzz campaign on this worker's engine.

    Delegates to :func:`repro.analysis.fuzz.run_walk_range` — the
    *same* walk loop the serial campaign runs, so the two code paths
    cannot drift apart.
    """
    engine, start, invariant, depth, seed = payload
    return run_walk_range(engine, start, invariant, lo, hi, depth, seed)


def fuzz_parallel(
    engine: Engine,
    invariant: Callable[[Engine], bool | str | None],
    *,
    walks: int = 64,
    depth: int = 256,
    seed: int = 0,
    workers: int,
    progress: Callable[[ShardProgress], None] | None = None,
) -> FuzzResult:
    """Parallel :func:`repro.analysis.fuzz.fuzz` over walk-range shards.

    Each worker owns a contiguous walk range on its own forked copy of
    the engine.  Because every walk's schedule is a pure function of
    ``(seed, walk)``, the set of violations is shard-independent; the
    merge keeps the violation with the **minimal walk index** and
    reconstructs the serial result exactly (in the serial campaign,
    every walk before the violating one completed all ``depth`` steps).
    Shards after the earliest violating one are cancelled (those
    already running finish and are discarded) — their outcome cannot
    affect the result.
    """
    if walks < 1:
        raise ValueError("walks must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    work = engine.fork()
    work.clear_observers()  # walks run on the observer-free kernel
    msg = _verdict(invariant(work))
    if msg is not None:
        return FuzzResult(walks, depth, seed, 0, [], (0, 0, msg), [])
    start = work.save_state()
    workers = _effective_workers(workers)
    ranges = _shard_ranges(walks, workers * 4)
    payload = (work, start, invariant, depth, seed)
    if workers == 1:
        hits: list = []
        for lo, hi in ranges:
            hits.append(_fuzz_shard(payload, lo, hi))
            if hits[-1] is not None:
                break
    else:
        hits = parallel_map(
            "fuzz",
            _fuzz_shard,
            payload,
            ranges,
            workers=workers,
            progress=progress,
            note=lambda s, out: (
                f"walks {ranges[s][0]}-{ranges[s][1]}: "
                + ("clean" if out is None else f"violation at walk {out[0]}")
            ),
            stop=lambda out: out is not None,
        )
    violations = [h for h in hits if h is not None]
    hit = min(violations, key=lambda v: v[0]) if violations else None
    return campaign_result(walks, depth, seed, hit)
