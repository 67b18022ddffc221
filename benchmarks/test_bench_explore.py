"""Explorer throughput: each generation gated against its reference.

Two gated ladders, measured in the same run on the same instances so
machine drift cancels.  The references are the retained explorers of
the test fossil ``reference_explore.py``; the production side is always
:func:`repro.analysis.explore.explore` (delta codec + packed 128-bit
digests, its only path):

* **snapshot vs. fork** (PR 1's gate): the snapshot codec (restore →
  step → snapshot on one reusable engine — in production, its delta
  descendant) against the historical ``Engine.fork()``
  deepcopy-per-child.
* **turbo vs. snapshot**: production against the retained tuple-digest
  + full-snapshot reference, on a selfstab n=6 scenario, BFS and a DFS
  deep dive, plus a seen-set memory floor.

Every pairing must visit the *identical* state space — the ratio is
meaningless otherwise, so each gate asserts the differential first.
The measured explore matrix is written to the path named by
``BENCH_EXPLORE_OUT`` (CI sets ``BENCH_explore.json``) so the
states/sec trajectory accumulates run over run, like
``BENCH_kernel.json``; without it the committed artifact is left alone.
"""

import os
import time

import pytest

from reference_explore import explore_reference
from repro import KLParams
from repro.analysis import safety_ok
from repro.analysis.bench import run_explore_bench, write_bench_json
from repro.analysis.explore import explore
from repro.apps.interface import IdleApplication
from repro.apps.workloads import HogWorkload, OneShotWorkload, SaturatedWorkload
from repro.core.naive import build_naive_engine
from repro.core.priority import build_priority_engine
from repro.core.selfstab import build_selfstab_engine
from repro.scenarios import FIG2_NEEDS
from repro.topology import paper_example_tree, paper_livelock_tree, path_tree, star_tree

#: comfortably below the ~14x observed even on slow shared CI, loud on a
#: real regression (the PR-1 acceptance floor)
MIN_SPEEDUP = 5.0

#: this PR's acceptance floor: delta codec + packed digests vs. the
#: retained tuple-digest + full-snapshot reference (measured ~6-6.5x)
TURBO_SPEEDUP_FLOOR = 5.0
#: same ladder for the DFS deep dive (measured ~3.2x; diff-loads share
#: less structure across stack jumps than across BFS siblings)
TURBO_DFS_FLOOR = 2.0
#: packed seen-set must be at least this much smaller (measured ~70x)
TURBO_MEMORY_FLOOR = 8.0

#: this PR's acceptance floor: sleep-set partial-order reduction must
#: execute at least this many times fewer transitions than the full
#: search on the gate instances (measured ~5.2-5.3x; the counts are
#: deterministic, so the gate has no wall-clock variance at all)
POR_REDUCTION_FLOOR = 5.0


def fig2_instance():
    """Naive protocol on the Fig. 1/2/4 paper tree with the Fig. 2 needs."""
    tree = paper_example_tree()
    params = KLParams(k=3, l=5, n=tree.n)
    apps = [
        OneShotWorkload(FIG2_NEEDS[p], cs_duration=0)
        if p in FIG2_NEEDS
        else IdleApplication()
        for p in range(tree.n)
    ]
    eng = build_naive_engine(tree, params, apps)
    for p in range(tree.n):
        eng.step_pid(p, -1)
    return eng, params


def fig3_instance():
    """Priority variant on the Fig. 3 livelock tree with hogs."""
    tree = paper_livelock_tree()
    params = KLParams(k=1, l=2, n=3)
    apps = [None, HogWorkload(1), HogWorkload(1)]
    eng = build_priority_engine(tree, params, apps)
    for p in range(3):
        eng.step_pid(p, -1)
    return eng, params


def timed(eng, params, *, depth, cap, reference=False):
    """Production explore, or the deepcopy-fork fossil with ``reference``."""
    def inv(e):
        return safety_ok(e, params) or "unsafe"

    run = explore_reference if reference else explore
    kw = dict(method="fork", digest="packed") if reference else {}
    t0 = time.perf_counter()
    res = run(eng, inv, max_depth=depth, max_configurations=cap, **kw)
    return res, time.perf_counter() - t0


@pytest.mark.slow
def test_bench_explore_snapshot_vs_fork(benchmark, report):
    cases = [
        ("fig2 naive (paper tree)", fig2_instance, 14, 4_000),
        ("fig3 priority (livelock tree)", fig3_instance, 16, 4_000),
    ]
    rows = []
    speedups = []
    for label, make, depth, cap in cases:
        eng, params = make()
        snap, t_snap = timed(eng, params, depth=depth, cap=cap)
        fork, t_fork = timed(eng, params, depth=depth, cap=cap, reference=True)
        # identical state space: the codec must not change what is explored
        assert (snap.configurations, snap.transitions, snap.violation) == (
            fork.configurations,
            fork.transitions,
            fork.violation,
        )
        assert snap.exhausted == fork.exhausted
        speedup = t_fork / max(t_snap, 1e-9)
        speedups.append(speedup)
        rows.append(
            (label, depth, snap.configurations, snap.transitions,
             t_snap, t_fork, f"{speedup:.1f}x")
        )
    report(
        "EXPLORE — snapshot codec vs. deepcopy-fork reference (same run)",
        ["instance", "depth", "configs", "transitions",
         "snapshot s", "fork s", "speedup"],
        rows,
    )
    # regression floor on the paper-tree instance (the large one)
    assert speedups[0] >= MIN_SPEEDUP, (
        f"snapshot explorer only {speedups[0]:.1f}x faster than the "
        f"deepcopy reference (floor {MIN_SPEEDUP}x)"
    )

    eng, params = fig2_instance()
    benchmark.pedantic(
        lambda: timed(eng, params, depth=12, cap=4_000),
        rounds=3,
        iterations=1,
    )
    assert benchmark.stats["mean"] < 2.0


# ---------------------------------------------------------------------------
# Delta codec + packed digests vs. the retained reference
# ---------------------------------------------------------------------------

def selfstab_gate_instance():
    """Self-stabilizing variant, n=6 path, one-shot requesters.

    The acceptance-gate scenario: three one-shot requests contending for
    l=3 units under the full controller stack.  Depth stays far below
    the root's timeout interval, so configurations are time-independent
    within the explored region (the digest-soundness requirement).
    """
    tree = path_tree(6)
    params = KLParams(k=2, l=3, n=6)
    needs = {1: 1, 3: 2, 5: 1}
    apps = [
        OneShotWorkload(needs[p], cs_duration=0) if p in needs
        else IdleApplication()
        for p in range(6)
    ]
    eng = build_selfstab_engine(tree, params, apps, init="tokens")
    for p in range(6):
        eng.step_pid(p, -1)
    return eng, params


def dfs_dive_instance():
    """Priority variant, n=5 path, saturated — the DFS depth workload."""
    tree = path_tree(5)
    params = KLParams(k=2, l=2, n=5)
    apps = [SaturatedWorkload(need=1, cs_duration=0) for _ in range(5)]
    eng = build_priority_engine(tree, params, apps)
    for p in range(5):
        eng.step_pid(p, -1)
    return eng, params


def same_space(a, b):
    assert (a.configurations, a.transitions, a.violation, a.exhausted,
            a.frontier_sizes) == (
        b.configurations, b.transitions, b.violation, b.exhausted,
        b.frontier_sizes,
    ), "turbo and reference explored different state spaces"


def best_of(make_ref, make_turbo, rounds=3):
    """Interleaved best-of timing so machine drift hits both sides."""
    t_ref = t_turbo = None
    ref = turbo = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        ref = make_ref()
        dt = time.perf_counter() - t0
        t_ref = dt if t_ref is None else min(t_ref, dt)
        t0 = time.perf_counter()
        turbo = make_turbo()
        dt = time.perf_counter() - t0
        t_turbo = dt if t_turbo is None else min(t_turbo, dt)
    return ref, t_ref, turbo, t_turbo


@pytest.mark.slow
def test_bench_explore_turbo_vs_reference(report):
    """>= 5x explored states/sec and >= 8x less seen-set memory on the
    selfstab n=6 gate scenario; emits the BENCH_explore.json artifact."""
    eng, params = selfstab_gate_instance()

    def inv(e):
        return safety_ok(e, params) or "unsafe"

    kw = dict(max_depth=16, max_configurations=8_000)
    ref, t_ref, turbo, t_turbo = best_of(
        lambda: explore_reference(eng, inv, **kw),
        lambda: explore(eng, inv, **kw),
    )
    same_space(ref, turbo)
    speedup = t_ref / max(t_turbo, 1e-9)
    mem_ratio = ref.peak_seen_bytes / max(turbo.peak_seen_bytes, 1)

    # DFS deep dive on the same ladder
    deng, dparams = dfs_dive_instance()

    def dinv(e):
        return safety_ok(e, dparams) or "unsafe"

    dkw = dict(strategy="dfs", max_depth=40, max_configurations=4_000)
    dref, dt_ref, dturbo, dt_turbo = best_of(
        lambda: explore_reference(deng, dinv, **dkw),
        lambda: explore(deng, dinv, **dkw),
        rounds=2,
    )
    same_space(dref, dturbo)
    dfs_speedup = dt_ref / max(dt_turbo, 1e-9)

    report(
        "EXPLORE — turbo (delta+packed) vs. retained reference "
        "(full-snapshot+tuple), same run",
        ["instance", "strategy", "configs", "ref s", "turbo s",
         "speedup", "seen-mem ratio"],
        [
            ("selfstab n=6 oneshot", "bfs d16", ref.configurations,
             t_ref, t_turbo, f"{speedup:.1f}x", f"{mem_ratio:.0f}x"),
            ("priority n=5 saturated", "dfs d40", dref.configurations,
             dt_ref, dt_turbo, f"{dfs_speedup:.1f}x",
             f"{dref.peak_seen_bytes / max(dturbo.peak_seen_bytes, 1):.0f}x"),
        ],
    )

    rows = run_explore_bench(repeat=2)
    out = os.environ.get("BENCH_EXPLORE_OUT")
    if out:
        write_bench_json(
            rows,
            out,
            name="explore-states-per-sec",
            extra={
                "gate_scenario": "selfstab-path-n6-oneshot-bfs-d16",
                "reference_states_per_sec": ref.configurations / t_ref,
                "turbo_states_per_sec": turbo.configurations / t_turbo,
                "turbo_speedup_vs_reference": speedup,
                "dfs_turbo_speedup_vs_reference": dfs_speedup,
                "reference_peak_seen_bytes": ref.peak_seen_bytes,
                "turbo_peak_seen_bytes": turbo.peak_seen_bytes,
            },
        )

    assert mem_ratio >= TURBO_MEMORY_FLOOR, (
        f"packed seen-set only {mem_ratio:.1f}x smaller than tuple "
        f"(floor {TURBO_MEMORY_FLOOR}x)"
    )
    assert dfs_speedup >= TURBO_DFS_FLOOR, (
        f"DFS turbo only {dfs_speedup:.2f}x faster than the reference "
        f"(floor {TURBO_DFS_FLOOR}x)"
    )
    assert speedup >= TURBO_SPEEDUP_FLOOR, (
        f"turbo explorer only {speedup:.2f}x faster than the "
        f"tuple-digest + full-snapshot reference "
        f"(floor {TURBO_SPEEDUP_FLOOR}x)"
    )


# ---------------------------------------------------------------------------
# This PR's gate: sleep-set partial-order reduction vs. the full search
# ---------------------------------------------------------------------------

def por_gate_instance(topology):
    """Self-stabilizing variant, n=12 path/star, saturated requesters.

    Wide shallow topologies maximize independent (process, channel)
    footprints, which is exactly what sleep sets prune; n=12 at depth 9
    keeps the full search around a second while leaving POR enough
    commuting pairs to shed >5x of the transitions.
    """
    tree = path_tree(12) if topology == "path" else star_tree(12)
    params = KLParams(k=2, l=3, n=12)
    apps = [SaturatedWorkload(1 + p % 2, cs_duration=0) for p in range(12)]
    eng = build_selfstab_engine(tree, params, apps, init="tokens")
    return eng, params


@pytest.mark.slow
def test_bench_explore_por_reduction(report, merge_into_artifact):
    """POR must visit the identical configuration set while executing
    >= 5x fewer transitions on both gate topologies; the measured
    ratios are appended to the BENCH_explore.json artifact."""
    rows = []
    ratios = {}
    for topology in ("path", "star"):
        eng, params = por_gate_instance(topology)

        def inv(e):
            return safety_ok(e, params) or "unsafe"

        kw = dict(max_depth=9, max_configurations=2_000_000)
        t0 = time.perf_counter()
        full = explore(eng, inv, **kw)
        t_full = time.perf_counter() - t0
        t0 = time.perf_counter()
        por = explore(eng, inv, por=True, **kw)
        t_por = time.perf_counter() - t0
        # The reduction theorem: same reachable configurations, same
        # verdicts — only redundant interleavings disappear.  (Depth
        # histograms may legitimately differ: pruning an edge can defer
        # a state's discovery to a later level.)
        assert (full.configurations, full.violation, full.exhausted) == (
            por.configurations,
            por.violation,
            por.exhausted,
        ), "POR changed the explored configuration set"
        ratio = full.transitions / max(por.transitions, 1)
        ratios[topology] = ratio
        rows.append(
            (f"selfstab {topology} n=12 saturated", full.configurations,
             full.transitions, por.transitions, f"{ratio:.2f}x",
             t_full, t_por)
        )
    report(
        "EXPLORE — sleep-set POR vs. full search (identical configuration "
        "sets)",
        ["instance", "configs", "full trans", "por trans", "reduction",
         "full s", "por s"],
        rows,
    )
    # Fold the deterministic ratios into the artifact the turbo gate
    # wrote earlier in this run (partial runs simply leave it alone).
    merge_into_artifact("BENCH_EXPLORE_OUT", "por_gate", {
        "instances": "selfstab-{path,star}-n12-saturated-bfs-d9",
        "reduction_floor": POR_REDUCTION_FLOOR,
        **{f"{t}_transition_reduction": r for t, r in ratios.items()},
    })
    worst = min(ratios, key=ratios.get)
    assert ratios[worst] >= POR_REDUCTION_FLOOR, (
        f"POR only removed {ratios[worst]:.2f}x of the transitions on "
        f"the {worst} gate (floor {POR_REDUCTION_FLOOR}x)"
    )


# ---------------------------------------------------------------------------
# This PR's gate: array-native expansion vs. the object delta expander
# ---------------------------------------------------------------------------

#: the array-native expander (flat words, O(dirty-words) undo, and the
#: engine-resident move/expansion memos) vs. the object delta expander
#: on the identical instance.  Round 1 runs cold; the memos live on the
#: engine, so later rounds replay cached expansions — best-of measures
#: the steady state of a long-lived engine: repeated serial explore()
#: calls on one engine in one process.  A CLI run and a campaign resume
#: start cold (a new process; ``__getstate__`` drops the memos), and
#: owner-computes shards keep level-scoped memos, not the engine's.
ARRAY_SPEEDUP_FLOOR = 5.0


@pytest.mark.slow
def test_bench_explore_array_gate(report, merge_into_artifact):
    """Array-native exploration must visit the identical state space as
    the object delta expander and clear >= 5x states/sec on the selfstab
    n=6 gate; the measurement is appended to BENCH_explore.json."""
    from repro.sim.array_engine import ArrayEngine

    eng, params = selfstab_gate_instance()
    aeng = ArrayEngine.from_engine(eng)

    def inv(e):
        return safety_ok(e, params) or "unsafe"

    kw = dict(max_depth=16, max_configurations=8_000)
    obj, t_obj, arr, t_arr = best_of(
        lambda: explore(eng, inv, **kw),
        lambda: explore(aeng, inv, **kw),
        rounds=3,
    )
    same_space(obj, arr)
    speedup = t_obj / max(t_arr, 1e-9)
    report(
        "EXPLORE — array-native expander vs. object delta expander "
        "(delta+packed both sides, same run)",
        ["instance", "configs", "object s", "array s", "speedup"],
        [
            ("selfstab n=6 oneshot bfs d16", obj.configurations,
             t_obj, t_arr, f"{speedup:.1f}x"),
        ],
    )
    merge_into_artifact("BENCH_EXPLORE_OUT", "array_explore_gate", {
        "instance": "selfstab-path-n6-oneshot-bfs-d16",
        "baseline": "object-delta-packed",
        "speedup_floor": ARRAY_SPEEDUP_FLOOR,
        "object_states_per_sec": obj.configurations / max(t_obj, 1e-9),
        "array_states_per_sec": arr.configurations / max(t_arr, 1e-9),
        "array_speedup_vs_object": speedup,
    })
    assert speedup >= ARRAY_SPEEDUP_FLOOR, (
        f"array expander only {speedup:.2f}x faster than the object "
        f"delta expander (floor {ARRAY_SPEEDUP_FLOOR}x)"
    )


def test_committed_explore_baseline(bench_baseline):
    """The committed BENCH_explore.json artifact parses and carries the
    explore-matrix schema (skips, with instructions, when absent)."""
    doc = bench_baseline("BENCH_explore.json")
    assert doc.get("benchmark") == "explore-states-per-sec"
    rows = doc.get("rows") or []
    assert rows, "committed artifact has no measurement rows"
    for row in rows:
        assert {"scenario", "configurations", "transitions",
                "states_per_sec"} <= set(row)


def test_bench_explore_dfs_reaches_depth(benchmark):
    """The DFS deep dive actually reaches the depth bound within the
    cap — the 'materially deeper dives' claim, timed."""
    deng, dparams = dfs_dive_instance()

    def dinv(e):
        return safety_ok(e, dparams) or "unsafe"

    def dive():
        return explore(
            deng, dinv, strategy="dfs", max_depth=40,
            max_configurations=4_000,
        )

    res = benchmark.pedantic(dive, rounds=2, iterations=1)
    assert len(res.frontier_sizes) == 40, "dive never reached the bound"
    assert res.configurations == 4_000
    assert benchmark.stats["mean"] < 2.0
