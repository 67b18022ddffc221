#!/usr/bin/env python
"""State-space turbo tour: the same verification, an order deeper.

The exhaustive explorer's hot loop is built around three mechanisms
(see "The state-space engine" in docs/ARCHITECTURE.md):

* **packed digests** — a fixed 16-byte blake2b key per configuration
  instead of a nested tuple in the seen-set (~50-70x less memory);
* **delta snapshots** — restore/step/snapshot in O(degree) instead of
  O(n), with child snapshots structurally sharing their parent's slots;
* **owner-computes shards** — `workers=N` partitions the seen-set by
  digest across N worker processes, each the sole dedup authority for
  its digests, so no process ever holds the whole set.

This tour verifies safety on instances far deeper than a one-deepcopy-
per-child explorer could afford, and shows that the sharded search
visits the *identical* state space as the serial one.

Run:  python examples/state_space_tour.py
"""

import time

from repro import KLParams, safety_ok, take_census
from repro.analysis import explore, fork_available
from repro.apps.workloads import SaturatedWorkload
from repro.core.priority import build_priority_engine
from repro.core.selfstab import build_selfstab_engine
from repro.topology import path_tree


def timed(label, fn):
    t0 = time.perf_counter()
    res = fn()
    elapsed = time.perf_counter() - t0
    print(f"  {label:<34s} {res.configurations:>7} configs  "
          f"{elapsed:>7.2f}s  {res.states_per_sec:>10,.0f} states/s  "
          f"seen ~{res.peak_seen_bytes / 1024:,.0f} KiB")
    return res


def serial_vs_sharded() -> None:
    """Same space, one process or two: identical counts."""
    print("=" * 72)
    print("1. Serial vs. 2 owner-computes shards — identical space")
    print("=" * 72)
    n = 6
    tree = path_tree(n)
    params = KLParams(k=2, l=2, n=n)
    apps = [SaturatedWorkload(need=1, cs_duration=0) for _ in range(n)]
    eng = build_priority_engine(tree, params, apps)
    for p in range(n):
        eng.step_pid(p, -1)

    def invariant(e):
        if not safety_ok(e, params):
            return "SAFETY VIOLATION"
        if take_census(e).res != params.l:
            return "TOKEN MINTED OR LOST"
        return True

    kw = dict(max_depth=10, max_configurations=200_000)
    serial = timed("serial", lambda: explore(eng, invariant, **kw))
    if not fork_available():
        print("  (no fork start method here: sharded run skipped)")
        return
    sharded = timed(
        "2 shards (workers=2)",
        lambda: explore(eng, invariant, workers=2, **kw),
    )
    assert (sharded.configurations, sharded.transitions,
            sharded.frontier_sizes, sharded.violation) == (
        serial.configurations, serial.transitions,
        serial.frontier_sizes, serial.violation,
    ), "a depth-bounded search must count the same at any worker count"
    print("  -> identical counts, every configuration safety- and "
          "census-checked")
    print("     (the memory column sums the two shards' seen-set estimates)")


def previously_out_of_reach() -> None:
    """Depth and width a full-snapshot explorer only crawls through.

    Self-stabilizing variant — the paper's full controller stack — at
    n=6 with every process saturated: ~20,000 transitions to depth 14.
    A full-snapshot, nested-tuple explorer spends ~5x the wall-clock on
    restore and digest bookkeeping alone, and its seen-set grows ~50x
    faster (``benchmarks/test_bench_explore.py`` measures both) — the
    turbo engine is what moves this regime from a one-off check into
    something a test suite can afford on every run, and what keeps far
    wider configuration caps inside memory.
    """
    print()
    print("=" * 72)
    print("2. Previously out of reach: selfstab n=6 saturated, depth 14")
    print("=" * 72)
    n = 6
    tree = path_tree(n)
    params = KLParams(k=2, l=3, n=n)
    apps = [SaturatedWorkload(need=1, cs_duration=0) for _ in range(n)]
    eng = build_selfstab_engine(tree, params, apps, init="tokens")
    for p in range(n):
        eng.step_pid(p, -1)

    def invariant(e):
        return safety_ok(e, params) or "SAFETY VIOLATION"

    res = timed(
        "selfstab n=6 saturated, depth 14",
        lambda: explore(eng, invariant, max_depth=14,
                        max_configurations=30_000),
    )
    print(f"  safety holds at every one of {res.configurations} reachable "
          f"configurations: {res.ok}")
    if res.exhausted:
        print("  state space CLOSED — verified for ALL schedules")


def dfs_deep_dive() -> None:
    """DFS: memory bounded by the path, depth far past any BFS slice."""
    print()
    print("=" * 72)
    print("3. DFS deep dive: depth 60, memory bounded by the open path")
    print("=" * 72)
    n = 5
    tree = path_tree(n)
    params = KLParams(k=2, l=2, n=n)
    apps = [SaturatedWorkload(need=1, cs_duration=0) for _ in range(n)]
    eng = build_priority_engine(tree, params, apps)
    for p in range(n):
        eng.step_pid(p, -1)

    def invariant(e):
        return safety_ok(e, params) or "SAFETY VIOLATION"

    res = timed(
        "priority n=5, dfs depth 60",
        lambda: explore(eng, invariant, strategy="dfs", max_depth=60,
                        max_configurations=10_000),
    )
    print(f"  dived {len(res.frontier_sizes)} levels deep, "
          f"all {res.configurations} configurations safe: {res.ok}")


def main() -> None:
    serial_vs_sharded()
    previously_out_of_reach()
    dfs_deep_dive()
    print()
    print("For multi-core exploration, pass workers=N (or --workers on the")
    print("CLI): counts match serial whenever the search runs to closure or")
    print("its depth bound; an early stop finishes the BFS level it is in.")


if __name__ == "__main__":
    main()
