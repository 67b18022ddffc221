"""Randomized schedule fuzzing (swarm verification for the daemon model).

:func:`repro.analysis.explore.explore` enumerates *every* schedule of a
small instance — a verified fact, but only for toy sizes and shallow
horizons because the state space grows exponentially.  This module
covers the complementary regime, in the spirit of Holzmann's swarm
verification for SPIN: run ``N`` independent seeded random walks of
depth ``D`` over the scheduling choices, check the invariant after
every step, and report the first violating *schedule* as a replayable
artifact.

When to use exhaustive vs. fuzz
-------------------------------
* **Exhaustive** (:func:`~repro.analysis.explore.explore`): instance
  small (≲ 4 processes, ≲ 3 tokens), horizon shallow, and you want a
  proof-grade "holds under ALL schedules" answer (``exhausted=True``).
* **Fuzz** (:func:`fuzz`): anything bigger — tens of processes,
  thousands of steps — where exhaustive search cannot reach but a
  violating schedule, if one exists at realistic depths, is likely to
  be hit by enough independent walks.  A passing fuzz run is evidence,
  not proof; a failing one is a *deterministic counterexample*.

Walks are driven by process id only (each chosen process performs its
normal round-robin channel scan), so a counterexample is exactly a pid
sequence — replayable bit-for-bit through
:class:`~repro.sim.scheduler.ScriptedScheduler` via
:func:`replay_schedule`, or pasted into any harness.  Reset between
walks uses the engine state codec
(:meth:`~repro.sim.engine.Engine.save_state`), so an ``N × D`` campaign
costs one deepcopy total, not ``N``.  Unlike the explorer, a walk never
backtracks — each step is final — so fuzzing rides the plain codec and
leaves the delta machinery (:meth:`~repro.sim.engine.Engine.restore_pid`
and friends) to :mod:`repro.analysis.explore`.

Everything is deterministic: walk ``w`` of seed ``s`` draws from
``default_rng([s, w])``, so a violation reproduces from ``(seed,
walk)`` alone and a clean campaign replays step-count-for-step-count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..sim.engine import Engine
from ..sim.scheduler import ScriptedScheduler
from . import parallel
from .explore import _verdict

__all__ = ["FuzzResult", "fuzz", "replay_schedule"]


@dataclass(slots=True)
class FuzzResult:
    """Outcome of one fuzzing campaign."""

    #: walks requested
    walks: int
    #: per-walk depth bound (steps)
    depth: int
    #: master seed of the campaign
    seed: int
    #: total steps executed across all walks
    steps_total: int
    #: steps actually taken by each completed or violating walk
    walk_lengths: list[int] = field(default_factory=list)
    #: first violation, as (walk index, step, message), or None;
    #: step 0 means the initial configuration itself violates
    violation: tuple[int, int, str] | None = None
    #: pid schedule reproducing the violation (empty for step 0), or None
    schedule: list[int] | None = None

    @property
    def ok(self) -> bool:
        """No walk hit an invariant violation."""
        return self.violation is None


def fuzz(
    engine: Engine,
    invariant: Callable[[Engine], bool | str | None],
    *,
    walks: int = 64,
    depth: int = 256,
    seed: int = 0,
    workers: int | None = None,
    progress: Callable | None = None,
) -> FuzzResult:
    """Run ``walks`` seeded random schedule walks of up to ``depth`` steps.

    ``invariant`` follows the :func:`~repro.analysis.explore.explore`
    convention: ``False`` or a string is a violation, anything else
    holds.  It is evaluated on the initial configuration and after every
    step of every walk.  The input engine is never mutated.

    On violation the campaign stops and the result carries the walk
    index, the step number and the pid ``schedule`` that reaches the
    violating configuration from the input engine's current state —
    feed it to :func:`replay_schedule` (or a
    :class:`~repro.sim.scheduler.ScriptedScheduler` of your own) to
    reproduce the failure deterministically.

    The walk range is split into contiguous shards that
    :func:`repro.analysis.parallel.parallel_map` runs with
    :func:`run_walk_range` on ``workers`` processes (default 1, which
    runs in-process and forks nothing).  Walk ``w`` draws from
    ``default_rng([seed, w])`` whoever runs it, and shards are handled
    in walk order, so the result (including any counterexample) is
    identical at every worker count.  ``progress`` receives one
    :class:`~repro.analysis.parallel.ShardProgress` event per shard, and
    an invariant that raises fails the campaign as a
    :class:`~repro.analysis.parallel.CampaignError`.
    """
    if walks < 1:
        raise ValueError("walks must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    work = engine.fork()
    # Walks run on the observer-free kernel (the fork is private and its
    # instrumentation is never read; save_state is observer-neutral).
    work.clear_observers()
    msg = _verdict(invariant(work))
    if msg is not None:
        return FuzzResult(walks, depth, seed, 0, [], (0, 0, msg), [])
    workers = workers or 1
    ranges = parallel._shard_ranges(walks, workers * 4)
    hits = parallel.parallel_map(
        "fuzz",
        run_walk_range,
        (work, work.save_state(), invariant, depth, seed),
        ranges,
        workers=workers,
        progress=progress,
        # walk ids are 0-based (the violation's walk, its RNG key);
        # the note names the shard's walks inclusively
        note=lambda s, out: (
            f"walks {ranges[s][0]}-{ranges[s][1] - 1} of {walks}: "
            + ("clean" if out is None else f"violation at walk {out[0]}")
        ),
        stop=lambda out: out is not None,
    )
    # The stop leaves one hit, in the first violating shard: every shard
    # before it came back clean and none after it was handled.
    hit = next((h for h in hits if h is not None), None)
    if hit is None:
        return FuzzResult(walks, depth, seed, walks * depth, [depth] * walks)
    w, step, msg, schedule = hit
    # every walk before the violating one completed all ``depth`` steps
    return FuzzResult(
        walks, depth, seed,
        w * depth + step,
        [depth] * w + [step],
        (w, step, msg),
        schedule,
    )


def run_walk_range(
    payload, lo: int, hi: int
) -> tuple[int, int, str, list[int]] | None:
    """Run walks ``lo..hi`` of a fuzz campaign: its shard function.

    ``payload`` is ``(engine, start, invariant, depth, seed)``; each walk
    loads ``start`` into ``engine`` (mutating it) and draws its schedule
    from ``default_rng([seed, w])``, so who runs a walk cannot change
    what it executes.  Returns the range's earliest violation as
    ``(walk, step, message, schedule)``, or ``None`` if every walk
    completed clean.
    """
    engine, start, invariant, depth, seed = payload
    n = engine.n
    step_pid = engine.step_pid
    for w in range(lo, hi):
        rng = np.random.default_rng([seed, w])
        engine.load_state(start)
        # one vectorized draw per walk: the whole schedule up front,
        # materialized to plain ints once (the step loop is the hot
        # path; per-step numpy scalar unboxing costs more than the list)
        script = [int(p) for p in rng.integers(0, n, size=depth)]
        for step, pid in enumerate(script, start=1):
            step_pid(pid)
            v = invariant(engine)
            if v is False:
                return (w, step, "invariant returned False", script[:step])
            if isinstance(v, str):
                return (w, step, v, script[:step])
    return None


def replay_schedule(engine: Engine, schedule: list[int]) -> Engine:
    """Replay a fuzz counterexample on a fork of ``engine``.

    Installs the pid ``schedule`` as a
    :class:`~repro.sim.scheduler.ScriptedScheduler` on a fork of the
    engine (the input is untouched), runs exactly ``len(schedule)``
    steps through the normal :meth:`Engine.step` path, and returns the
    forked engine in the violating configuration.  Because a fuzz walk
    drives :meth:`Engine.step_pid` with the default round-robin channel
    scan — the same receive rule the engine itself applies — the replay
    is bit-for-bit identical to the walk that found the violation.
    """
    replay = engine.fork()
    replay.scheduler = ScriptedScheduler(replay.n, schedule)
    replay.run(len(schedule))
    return replay
