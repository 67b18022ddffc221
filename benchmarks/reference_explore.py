"""Fossil of the retained reference explorers, kept for differential testing.

``explore_reference`` replays the bounded-exhaustive search the way it
stood before the delta codec and packed digests became the only
production path:

* ``method="snapshot"`` — one reusable engine, a full O(n)
  ``load_state`` → ``step_pid`` → ``save_state`` per transition;
* ``method="fork"`` — one ``Engine.fork()`` deepcopy per child, the
  slowest and most obviously-correct implementation;
* ``digest="tuple"`` keys the seen-set by the nested hashable
  :func:`~repro.analysis.explore.canonical_digest`; ``digest="packed"``
  by the 16-byte :func:`~repro.analysis.explore.packed_digest`.

Every combination visits the identical state space as production
:func:`repro.analysis.explore.explore` (same move order, same dedup
winners, same early-stop transition), which is what the differential
tests and the speed/memory gates in ``test_bench_explore.py`` assert
before they trust a ratio.

Test-only: never import this from ``src``.  It is importable from
``tests/`` and ``benchmarks/`` alike through the ``pythonpath`` entry
in ``pyproject.toml``.
"""

import sys
import time
from typing import Callable

from repro.analysis.explore import (
    ExplorationResult,
    _check,
    canonical_digest,
    packed_digest,
)
from repro.sim.engine import Engine

__all__ = ["explore_reference"]

_DIGESTS = {"tuple": canonical_digest, "packed": packed_digest}


def _moves(engine: Engine) -> list[tuple[int, int]]:
    """All distinct (pid, channel) scheduling choices at this configuration.

    For each process: one receive move per non-empty incoming channel,
    plus the no-receive move (``-1``) — the paper's "does nothing"
    option, needed so loop-tail actions can fire without a message.
    Every process gets the silent move, including leaves (degree 1 with
    empty channels) and isolated processes (degree 0).  Both production
    expanders enumerate a parent's moves in this order (the object
    expander reads the queues off the parent's digest parts), which the
    differential tests hold them to.
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


def _seen_bytes(seen) -> int:
    """Estimated retained bytes of a seen-set of packed or tuple keys.

    Packed digests are fixed-width, so one sample multiplies out
    exactly; nested tuple digests are deep-sized individually (an
    estimate — interned and structurally-shared leaves are counted at
    every occurrence).
    """
    total = sys.getsizeof(seen)
    if not seen:
        return total
    sample = next(iter(seen))
    if isinstance(sample, bytes):
        return total + len(seen) * sys.getsizeof(sample)
    return total + sum(_deep_sizeof(v) for v in seen)


def _deep_sizeof(obj) -> int:
    size = sys.getsizeof(obj)
    if isinstance(obj, tuple):
        size += sum(_deep_sizeof(v) for v in obj)
    return size


def explore_reference(
    engine: Engine,
    invariant: Callable[[Engine], bool | str | None],
    *,
    max_depth: int = 12,
    max_configurations: int = 200_000,
    strategy: str = "bfs",
    method: str = "snapshot",
    digest: str = "tuple",
) -> ExplorationResult:
    """The reference search; same contract and result as ``explore``.

    The input engine is not mutated.  ``method`` is ``"snapshot"`` or
    ``"fork"``, ``digest`` is ``"tuple"`` or ``"packed"`` and
    ``strategy`` is ``"bfs"`` or ``"dfs"``.
    """
    if method not in ("snapshot", "fork"):
        raise ValueError(f"unknown method {method!r}")
    if strategy not in ("bfs", "dfs"):
        raise ValueError(f"unknown strategy {strategy!r}")
    digest_fn = _DIGESTS[digest]
    work = engine.fork()
    work.clear_observers()
    bad = _check(invariant, work, 0)
    if bad is not None:
        return ExplorationResult(1, 0, False, bad, [1])
    t0 = time.perf_counter()
    if strategy == "dfs":
        res = _explore_dfs_reference(
            work, invariant, max_depth, max_configurations, digest_fn,
            fork=method == "fork",
        )
    elif method == "fork":
        res = _explore_bfs_fork(
            work, invariant, max_depth, max_configurations, digest_fn
        )
    else:
        res = _explore_bfs_snapshot(
            work, invariant, max_depth, max_configurations, digest_fn
        )
    res.states_per_sec = res.configurations / max(
        time.perf_counter() - t0, 1e-9
    )
    return res


def _finish(seen, transitions, exhausted, violation, frontier_sizes):
    return ExplorationResult(
        len(seen), transitions, exhausted, violation, frontier_sizes,
        peak_seen_bytes=_seen_bytes(seen),
    )


def _explore_bfs_snapshot(
    work: Engine,
    invariant: Callable[[Engine], bool | str | None],
    max_depth: int,
    max_configurations: int,
    digest_fn: Callable[[Engine], object],
) -> ExplorationResult:
    """Full-codec reference: BFS with O(n) load/save per transition."""
    seen: set = {digest_fn(work)}
    frontier = [work.save_state()]
    transitions = 0
    frontier_sizes: list[int] = []

    for depth in range(1, max_depth + 1):
        nxt = []
        for state in frontier:
            work.load_state(state)
            moves = _moves(work)
            for i, (pid, chan) in enumerate(moves):
                if i:
                    work.load_state(state)
                work.step_pid(pid, chan)
                transitions += 1
                digest = digest_fn(work)
                if digest in seen:
                    continue
                seen.add(digest)
                bad = _check(invariant, work, depth)
                if bad is not None:
                    return _finish(
                        seen, transitions, False, bad,
                        frontier_sizes + [len(nxt)],
                    )
                nxt.append(work.save_state())
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


def _explore_bfs_fork(
    root: Engine,
    invariant: Callable[[Engine], bool | str | None],
    max_depth: int,
    max_configurations: int,
    digest_fn: Callable[[Engine], object],
) -> ExplorationResult:
    """Reference implementation: BFS with one deepcopy fork per child."""
    seen: set = {digest_fn(root)}
    frontier: list[Engine] = [root]
    transitions = 0
    frontier_sizes: list[int] = []

    for depth in range(1, max_depth + 1):
        nxt: list[Engine] = []
        for conf in frontier:
            for pid, chan in _moves(conf):
                child = conf.fork()
                child.step_pid(pid, chan)
                transitions += 1
                digest = digest_fn(child)
                if digest in seen:
                    continue
                seen.add(digest)
                bad = _check(invariant, child, depth)
                if bad is not None:
                    return _finish(
                        seen, transitions, False, bad,
                        frontier_sizes + [len(nxt)],
                    )
                nxt.append(child)
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


def _explore_dfs_reference(
    work: Engine,
    invariant: Callable[[Engine], bool | str | None],
    max_depth: int,
    max_configurations: int,
    digest_fn: Callable[[Engine], object],
    *,
    fork: bool = False,
) -> ExplorationResult:
    """Depth-first exploration with an explicit stack (deep, memory-lean).

    The stack holds (state, depth) pairs; memory is proportional to the
    open path's branching, not the width of a depth slice.  A state
    popped at ``max_depth`` is not expanded; if that ever happens,
    ``exhausted`` stays ``False`` because deeper configurations may
    exist.  Violation depths are the depth at which DFS *found* the
    configuration, which need not be minimal.
    """
    seen: set = {digest_fn(work)}
    per_depth = [0] * (max_depth + 1)
    stack: list[tuple[object, int]] = [
        (work if fork else work.save_state(), 0)
    ]
    transitions = 0
    truncated = False

    while stack:
        state, depth = stack.pop()
        if depth >= max_depth:
            truncated = True
            continue
        if fork:
            parent: Engine = state  # type: ignore[assignment]
            moves = _moves(parent)
        else:
            work.load_state(state)  # type: ignore[arg-type]
            moves = _moves(work)
        for i, (pid, chan) in enumerate(moves):
            if fork:
                child = parent.fork()
            else:
                if i:
                    work.load_state(state)  # type: ignore[arg-type]
                child = work
            child.step_pid(pid, chan)
            transitions += 1
            digest = digest_fn(child)
            if digest in seen:
                continue
            seen.add(digest)
            per_depth[depth + 1] += 1
            bad = _check(invariant, child, depth + 1)
            if bad is not None:
                last = max(d for d in range(max_depth + 1) if per_depth[d])
                return _finish(
                    seen, transitions, False, bad, per_depth[1 : last + 1]
                )
            stack.append((child if fork else child.save_state(), depth + 1))
            if len(seen) >= max_configurations:
                last = max(d for d in range(max_depth + 1) if per_depth[d])
                return _finish(
                    seen, transitions, False, None, per_depth[1 : last + 1]
                )
    last = max((d for d in range(max_depth + 1) if per_depth[d]), default=0)
    return _finish(
        seen, transitions, not truncated, None, per_depth[1 : last + 1]
    )
