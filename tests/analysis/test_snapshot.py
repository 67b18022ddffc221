"""Differential tests for the engine state codec.

Two families of guarantees:

1. ``save_state``/``load_state`` round-trips to the exact same
   ``canonical_digest`` for every protocol variant on every tree shape,
   across both in-place restore and cross-engine load, and a restored
   engine's future is indistinguishable from a deepcopy fork's.
2. The production explorer (delta snapshots on one reusable engine)
   visits the identical (configurations, transitions, violation) triple
   as the deepcopy-fork reference on small instances.
"""

import pytest

from reference_explore import explore_reference
from repro import KLParams, RandomScheduler, RoundRobinScheduler, SaturatedWorkload
from repro.analysis import safety_ok, take_census
from repro.analysis.explore import canonical_digest, explore
from repro.apps.workloads import HogWorkload
from repro.baselines.central import build_central_engine
from repro.baselines.ring import build_ring_engine
from repro.core.composed import build_composed_engine
from repro.core.naive import build_naive_engine
from repro.core.priority import build_priority_engine
from repro.core.pusher import build_pusher_engine
from repro.core.selfstab import build_selfstab_engine
from repro.topology import paper_livelock_tree, path_tree
from repro.topology.graphs import ring_graph

VARIANTS = {
    "naive": build_naive_engine,
    "pusher": build_pusher_engine,
    "priority": build_priority_engine,
    "selfstab": build_selfstab_engine,
    "central": build_central_engine,
}


def build_variant(variant, tree, *, seed=3, sched="random"):
    params = KLParams(k=2, l=3, n=tree.n)
    apps = [
        SaturatedWorkload(1 + p % params.k, cs_duration=2) for p in range(tree.n)
    ]
    kwargs = {"init": "tokens"} if variant == "selfstab" else {}
    scheduler = (
        RandomScheduler(tree.n, seed=seed)
        if sched == "random"
        else RoundRobinScheduler(tree.n)
    )
    engine = VARIANTS[variant](tree, params, apps, scheduler, **kwargs)
    return engine, params


def assert_same_state(a, b):
    assert canonical_digest(a) == canonical_digest(b)
    assert a.now == b.now
    assert a.total_cs_entries == b.total_cs_entries
    assert dict(a.counters) == dict(b.counters)
    assert dict(a.sent_by_type) == dict(b.sent_by_type)
    assert a._scan == b._scan
    assert a._timer_start == b._timer_start


@pytest.mark.parametrize("variant", sorted(VARIANTS))
class TestRoundTrip:
    def test_roundtrip_digest(self, any_tree, variant):
        """save → perturb → load restores the exact canonical digest."""
        engine, _ = build_variant(variant, any_tree)
        engine.run(2_000)
        reference = engine.fork()
        state = engine.save_state()
        engine.run(1_500)  # perturb well past the saved point
        engine.load_state(state)
        assert_same_state(engine, reference)

    def test_restored_future_matches_fork(self, any_tree, variant):
        """A restored engine evolves exactly like a deepcopy fork.

        Round-robin scheduling: the codec deliberately excludes
        scheduler state, and round-robin is a pure function of ``now``
        (which IS restored), so the replay is exact.
        """
        engine, _ = build_variant(variant, any_tree, sched="rr")
        engine.run(1_000)
        state = engine.save_state()
        fork = engine.fork()
        engine.run(2_000)
        engine.load_state(state)
        engine.run(2_000)
        fork.run(2_000)
        assert_same_state(engine, fork)

    def test_cross_engine_load(self, any_tree, variant):
        """A state saved on one engine loads into a fresh twin build."""
        a, _ = build_variant(variant, any_tree, seed=7)
        a.run(2_500)
        b, _ = build_variant(variant, any_tree, seed=7)
        b.load_state(a.save_state())
        assert_same_state(a, b)


class TestMismatchRejected:
    def test_load_into_different_topology_raises(self):
        a, _ = build_variant("naive", path_tree(5))
        b, _ = build_variant("naive", path_tree(7))
        state = a.save_state()
        with pytest.raises(ValueError, match="different topology"):
            b.load_state(state)
        # b must be untouched, not half-restored
        twin, _ = build_variant("naive", path_tree(7))
        assert_same_state(b, twin)


class TestOtherTopologies:
    def test_ring_baseline_roundtrip(self):
        n = 5
        params = KLParams(k=2, l=3, n=n)
        apps = [SaturatedWorkload(1 + p % 2, cs_duration=2) for p in range(n)]
        engine = build_ring_engine(
            n, params, apps, RoundRobinScheduler(n), init="tokens"
        )
        engine.run(2_000)
        state = engine.save_state()
        fork = engine.fork()
        engine.run(1_000)
        engine.load_state(state)
        assert_same_state(engine, fork)
        engine.run(1_500)
        fork.run(1_500)
        assert_same_state(engine, fork)

    def test_composed_roundtrip(self):
        graph = ring_graph(6)
        params = KLParams(k=2, l=3, n=graph.n)
        apps = [
            SaturatedWorkload(1 + p % 2, cs_duration=2) for p in range(graph.n)
        ]
        engine = build_composed_engine(
            graph, params, apps, RoundRobinScheduler(graph.n)
        )
        engine.run(4_000)  # long enough for the tree layer to stabilize
        state = engine.save_state()
        fork = engine.fork()
        engine.run(1_000)
        engine.load_state(state)
        assert_same_state(engine, fork)
        engine.run(2_000)
        fork.run(2_000)
        assert_same_state(engine, fork)


def small_naive():
    tree = path_tree(3)
    params = KLParams(k=2, l=2, n=3)
    apps = [
        None,
        SaturatedWorkload(2, cs_duration=0),
        SaturatedWorkload(1, cs_duration=0),
    ]
    eng = build_naive_engine(tree, params, apps)
    for p in range(3):
        eng.step_pid(p, -1)
    return eng, params


def small_priority():
    tree = paper_livelock_tree()
    params = KLParams(k=1, l=2, n=3)
    apps = [None, HogWorkload(1), HogWorkload(1)]
    eng = build_priority_engine(tree, params, apps)
    for p in range(3):
        eng.step_pid(p, -1)
    return eng, params


class TestExploreDifferential:
    """Snapshot-based exploration == deepcopy-fork reference."""

    @staticmethod
    def fork_reference(eng, inv, **kw):
        return explore_reference(eng, inv, method="fork", digest="packed",
                                 **kw)

    @pytest.mark.parametrize("make", [small_naive, small_priority])
    def test_bfs_triple_identical(self, make):
        eng, params = make()
        def inv(e):
            return safety_ok(e, params) or "safety violated"

        snap = explore(eng, inv, max_depth=10)
        fork = self.fork_reference(eng, inv, max_depth=10)
        assert (snap.configurations, snap.transitions, snap.violation) == (
            fork.configurations,
            fork.transitions,
            fork.violation,
        )
        assert snap.exhausted == fork.exhausted
        assert snap.frontier_sizes == fork.frontier_sizes

    def test_bfs_triple_identical_on_violation(self):
        eng, params = small_naive()
        # an invariant that must break: nobody may ever enter the CS
        def inv(e):
            return e.total_cs_entries == 0 or "somebody entered"

        snap = explore(eng, inv, max_depth=10)
        fork = self.fork_reference(eng, inv, max_depth=10)
        assert snap.violation == fork.violation
        assert not snap.ok
        assert (snap.configurations, snap.transitions) == (
            fork.configurations,
            fork.transitions,
        )

    def test_dfs_closes_same_state_space(self):
        """On a closed space, DFS and BFS agree on the reachable count."""
        eng, params = small_naive()
        def inv(e):
            return safety_ok(e, params) or "bad"

        bfs = explore(eng, inv, max_depth=40)
        dfs = explore(eng, inv, max_depth=40, strategy="dfs")
        assert bfs.exhausted and dfs.exhausted
        assert bfs.configurations == dfs.configurations

    def test_dfs_fork_and_snapshot_agree(self):
        eng, params = small_priority()
        def inv(e):
            return safety_ok(e, params) or "bad"

        snap = explore(eng, inv, max_depth=30, strategy="dfs")
        fork = self.fork_reference(eng, inv, max_depth=30, strategy="dfs")
        assert (snap.configurations, snap.transitions, snap.violation) == (
            fork.configurations,
            fork.transitions,
            fork.violation,
        )

    def test_census_invariant_parity(self):
        eng, params = small_priority()

        def inv(e):
            if not safety_ok(e, params):
                return "safety violated"
            if take_census(e).as_tuple() != (2, 1, 1):
                return f"census {take_census(e).as_tuple()}"
            return True

        snap = explore(eng, inv, max_depth=8)
        fork = self.fork_reference(eng, inv, max_depth=8)
        assert snap.ok and fork.ok
        assert snap.configurations == fork.configurations
