"""Differential proofs for sleep-set partial-order reduction.

POR is only a *reduction* if it changes nothing observable: the
explorer with ``por=True`` must reach exactly the configurations the
full search reaches (the wake-up re-expansion obligation), report the
same exhaustion verdict, and find a safety violation whenever the full
search finds one.  These tests hold that differential across every
protocol variant, the ring/centralized baselines, the composed stack,
and path/star/balanced/ring shapes — clean instances, violating
instances, and depth-truncated instances alike.

What POR *may* change is also pinned: strictly fewer (or equal)
transitions, and possibly different per-level discovery histograms
(pruning an edge can defer a state to a later BFS level).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.messages as messages
from repro import KLParams, RoundRobinScheduler, SaturatedWorkload
from repro.analysis import safety_ok
from repro.analysis.explore import _DeltaExpander, _moves, explore
from repro.baselines.central import build_central_engine
from repro.baselines.ring import build_ring_engine
from repro.core.composed import build_composed_engine
from repro.core.naive import build_naive_engine
from repro.core.priority import build_priority_engine
from repro.core.pusher import build_pusher_engine
from repro.core.selfstab import build_selfstab_engine
from repro.topology import balanced_tree, path_tree, random_tree, star_tree
from repro.topology.graphs import ring_graph

VARIANTS = {
    "naive": build_naive_engine,
    "pusher": build_pusher_engine,
    "priority": build_priority_engine,
    "selfstab": build_selfstab_engine,
    "central": build_central_engine,
}

TOPOLOGIES = {
    "path": lambda: path_tree(4),
    "star": lambda: star_tree(5),
    "tree": lambda: balanced_tree(branching=2, height=2),
}


def build_variant(variant, tree):
    """Exploration-legal build: cs_duration=0 keeps digests sound."""
    params = KLParams(k=2, l=3, n=tree.n)
    apps = [
        SaturatedWorkload(1 + p % params.k, cs_duration=0)
        for p in range(tree.n)
    ]
    kwargs = {"init": "tokens"} if variant == "selfstab" else {}
    engine = VARIANTS[variant](
        tree, params, apps, RoundRobinScheduler(tree.n), **kwargs
    )
    return engine, params


def both(engine, invariant, **kw):
    full = explore(engine, invariant, **kw)
    por = explore(engine, invariant, por=True, **kw)
    return full, por


def assert_same_clean_space(full, por, context=""):
    """The reduction theorem, observable half: identical configuration
    set and verdicts; only the transition count may (and should) drop."""
    assert full.violation is None and por.violation is None, context
    assert full.configurations == por.configurations, (
        f"{context}: POR changed the reachable set"
    )
    assert full.exhausted == por.exhausted, context
    assert por.transitions <= full.transitions, (
        f"{context}: POR executed more transitions than the full search"
    )


@pytest.mark.slow
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
class TestPorMatchesFull:
    def test_exhausted_space_identical(self, variant, topology):
        engine, params = build_variant(variant, TOPOLOGIES[topology]())

        def inv(e):
            return safety_ok(e, params) or "unsafe"

        full, por = both(engine, inv, max_depth=30, max_configurations=6_000)
        assert_same_clean_space(full, por, f"{variant}/{topology}")
        if full.configurations < 6_000:
            assert full.exhausted, (
                f"{variant}/{topology}: space did not close; "
                "pick a deeper bound for this fixture"
            )

    def test_truncated_space_identical(self, variant, topology):
        """Equality must also hold when the depth bound bites."""
        engine, params = build_variant(variant, TOPOLOGIES[topology]())

        def inv(e):
            return safety_ok(e, params) or "unsafe"

        full, por = both(engine, inv, max_depth=4, max_configurations=6_000)
        assert full.violation is None and por.violation is None
        assert full.configurations == por.configurations
        assert full.exhausted == por.exhausted


@st.composite
def expansion_parents(draw):
    """A random parent configuration and a random sleep mask for it: a
    variant, a uniformly random tree with n <= 6, a warm-up that
    decorrelates the parent from the initial configuration, raw sleep
    bits (folded into the parent's move ids at run time) and the
    liveness flag of the sleep-set call."""
    variant = draw(st.sampled_from(sorted(VARIANTS)))
    n = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    warmup = draw(st.integers(min_value=0, max_value=80))
    sleep_bits = draw(st.integers(min_value=0, max_value=2**64 - 1))
    liveness = draw(st.booleans())
    return variant, n, seed, warmup, sleep_bits, liveness


def state_key(state):
    """An ``EngineState`` as a comparable tuple (it defines no ``==``)."""
    return tuple(getattr(state, f) for f in state.__slots__)


class TestExpandModesAgree:
    """The object expander runs one move loop in two modes: full
    (``expand``) and sleep-set POR (``expand_por``).  The whole-search
    differential above only compares final configuration sets; this
    property ties the two modes to each other at every parent.

    Fresh token uids are pinned to one value while the expansions run,
    so that child states compare equal even when slept moves shift the
    order of uid draws (digests ignore uids anyway)."""

    @given(expansion_parents())
    @settings(max_examples=200, deadline=None)
    def test_por_mode_agrees_with_full_mode(self, case):
        variant, n, seed, warmup, sleep_bits, liveness = case
        engine, params = build_variant(variant, random_tree(n, seed=seed))
        engine.run(warmup)
        work = engine.fork()
        work.clear_observers()

        def inv(e):
            if e.total_cs_entries % 2:
                return f"{e.total_cs_entries} CS entries"
            return safety_ok(e, params) or "unsafe"

        exp = _DeltaExpander(work, inv)
        digest, parts = exp.root()
        parent = work.save_state()
        moves = _moves(work)
        seen = {digest}
        sleep = sleep_bits & exp.all_moves_mask
        ctx = f"{variant} n={n} seed={seed} warmup={warmup} sleep={sleep:#x}"

        def holds_parent():
            # (d) every call leaves the engine at the parent
            assert state_key(work.save_state()) == state_key(parent), ctx

        saved = messages._uid_counter
        messages._uid_counter = itertools.repeat(0)
        try:
            full = exp.expand(parent, parts, seen)
            holds_parent()
            por0, recv0 = exp.expand_por(
                parent, parts, digest, 0, seen, liveness
            )
            holds_parent()
            slept, recv = exp.expand_por(
                parent, parts, digest, sleep, seen, liveness
            )
            holds_parent()
        finally:
            messages._uid_counter = saved

        # (a) sleep 0: one record per move of _moves, in order
        assert [(r[1], r[2]) for r in por0] == moves, ctx
        assert [r[0] for r in por0] == [
            1 << (exp.mid_base[pid] + chan + 1) for pid, chan in moves
        ], ctx
        assert recv0 == sum(r[0] for r in por0 if r[2] >= 0), ctx

        # (b) full mode: the first POR-mode record of each unseen digest,
        # None for every other move
        assert len(full) == len(moves), ctx
        known = set(seen)
        for rec, got in zip(por0, full):
            if rec[3] in known:
                assert got is None, ctx
                continue
            known.add(rec[3])
            assert got is not None, ctx
            assert (got[0], got[1], got[3]) == (rec[3], rec[4], rec[6]), ctx
            assert state_key(got[2]) == state_key(rec[5]), ctx

        # (c) a sleep mask drops the slept moves and changes no other
        # record, except for the slept entries a child sleep set inherits
        assert recv == recv0, ctx
        awake = [r for r in por0 if not r[0] & sleep]
        assert len(slept) == len(awake), ctx
        for got, want in zip(slept, awake):
            assert got[:5] == want[:5], ctx
            assert state_key(got[5]) == state_key(want[5]), ctx
            assert (got[6], got[8]) == (want[6], want[8]), ctx
            assert (got[7] ^ want[7]) & ~sleep == 0, ctx


class TestPorOnOtherStacks:
    def test_ring_baseline(self):
        n = 4
        params = KLParams(k=2, l=3, n=n)
        apps = [SaturatedWorkload(1 + p % 2, cs_duration=0) for p in range(n)]
        engine = build_ring_engine(
            n, params, apps, RoundRobinScheduler(n), init="tokens"
        )

        def inv(e):
            return safety_ok(e, params) or "unsafe"

        full, por = both(engine, inv, max_depth=12, max_configurations=6_000)
        assert_same_clean_space(full, por, "ring")

    def test_composed_on_ring_graph(self):
        graph = ring_graph(5)
        params = KLParams(k=2, l=3, n=graph.n)
        apps = [
            SaturatedWorkload(1 + p % 2, cs_duration=0)
            for p in range(graph.n)
        ]
        engine = build_composed_engine(
            graph, params, apps, RoundRobinScheduler(graph.n)
        )

        def inv(e):
            return safety_ok(e, params) or "unsafe"

        full, por = both(engine, inv, max_depth=8, max_configurations=4_000)
        assert_same_clean_space(full, por, "composed")


class TestPorFindsViolations:
    """Whenever the full search can reach a violating configuration,
    POR must reach one too (possibly a different witness at a different
    depth — presence is the contract, the reachable set being equal)."""

    @pytest.mark.parametrize("variant", ["naive", "pusher", "priority"])
    def test_artificial_invariant_trips_both(self, variant):
        engine, params = build_variant(variant, path_tree(4))

        def inv(e):
            # Trips on any schedule that lets anyone enter a CS: a
            # reachable "violation" with many distinct witnesses, the
            # adversarial case for a reduction.
            return e.total_cs_entries == 0 or "someone entered a CS"

        full, por = both(engine, inv, max_depth=20, max_configurations=6_000)
        assert full.violation is not None, "fixture never trips"
        assert por.violation is not None, (
            f"{variant}: POR missed a violation the full search found"
        )
        assert full.violation[1] == por.violation[1]

    def test_real_safety_violation_found_under_por(self):
        # An extra pre-placed token beyond l=1 lets two hogs sit in
        # their CS at once: a genuine safety violation a few steps in
        # (hogs never exit, so the overlap is observable between steps).
        from repro.apps.workloads import HogWorkload
        from repro.core.messages import ResT

        tree = path_tree(3)
        params = KLParams(k=1, l=1, n=3)
        apps = [HogWorkload(1) for _ in range(3)]
        engine = build_naive_engine(
            tree, params, apps, RoundRobinScheduler(3)
        )
        engine.network.out_channel(0, 0).push_initial(ResT())

        def inv(e):
            return safety_ok(e, params) or "unsafe"

        full, por = both(engine, inv, max_depth=16, max_configurations=4_000)
        assert full.violation is not None, "fixture never trips"
        assert por.violation is not None, (
            "POR missed a safety violation the full search found"
        )


class TestPorArgumentValidation:
    def setup_method(self):
        self.engine, self.params = build_variant("naive", path_tree(3))
        self.inv = lambda e: safety_ok(e, self.params) or "unsafe"

    def test_por_requires_bfs(self):
        with pytest.raises(ValueError, match="por"):
            explore(self.engine, self.inv, strategy="dfs", por=True)

    def test_por_requires_delta_codec(self):
        """POR reads the delta codec's dirty-set footprints, and that
        codec is the only one: there is no method to pick."""
        with pytest.raises(TypeError, match="method"):
            explore(self.engine, self.inv, method="snapshot", por=True)

    def test_por_is_serial_only(self):
        with pytest.raises(ValueError, match="por"):
            explore(self.engine, self.inv, workers=2, por=True)
