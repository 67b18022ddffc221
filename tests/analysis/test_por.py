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
from reference_explore import _moves

import repro.core.messages as messages
from repro import KLParams, RoundRobinScheduler, SaturatedWorkload
from repro.analysis import safety_ok
from repro.analysis.explore import _DeltaExpander, explore
from repro.baselines.central import build_central_engine
from repro.core.base import REQ
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
    decorrelates the parent from the initial configuration, and raw
    sleep bits (folded into the parent's move ids at run time)."""
    variant = draw(st.sampled_from(sorted(VARIANTS)))
    n = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    warmup = draw(st.integers(min_value=0, max_value=80))
    sleep_bits = draw(st.integers(min_value=0, max_value=2**64 - 1))
    return variant, n, seed, warmup, sleep_bits


def state_key(state):
    """An ``EngineState`` as a comparable tuple (it defines no ``==``)."""
    return tuple(getattr(state, f) for f in state.__slots__)


def entered_by_step(engine, state, pid, chan):
    """Whether ``step_pid(pid, chan)`` from ``state`` enters a CS."""
    engine.load_state(state)
    engine.step_pid(pid, chan)
    return engine.total_cs_entries != state.total_cs_entries


def stepped_state(engine, state, pid, chan):
    """The state ``step_pid(pid, chan)`` reaches from ``state``."""
    engine.load_state(state)
    engine.step_pid(pid, chan)
    return engine.save_state()


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
        variant, n, seed, warmup, sleep_bits = case
        engine, params = build_variant(variant, random_tree(n, seed=seed))
        elsewhere = engine.save_state()
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
        requesting = sum(
            1 << p for p, proc in enumerate(work.processes)
            if getattr(proc, "state", None) == REQ
        )
        seen = {digest: 0}
        sleep = sleep_bits & exp.all_moves_mask
        ctx = f"{variant} n={n} seed={seed} warmup={warmup} sleep={sleep:#x}"

        def seeks(call) -> bool:
            # (d) the seek contract: a call that seeks its parent (every
            # call that executes a move does) leaves the engine holding
            # it; any other call leaves the engine untouched.  Returns
            # whether the call sought.
            work.load_state(elsewhere)
            out = call()
            sought = work._held is not elsewhere
            held = state_key(work.save_state())
            assert held == state_key(parent if sought else elsewhere), ctx
            return out, sought

        saved = messages._uid_counter
        messages._uid_counter = itertools.repeat(0)
        try:
            # a cold memo derives every clock-free entry: the first call
            # executes moves, so it must seek
            full, sought = seeks(lambda: exp.expand(parent, parts, seen))
            assert sought, ctx
            (por0, recv0, req0), _ = seeks(
                lambda: exp.expand_por(parent, parts, digest, 0, seen)
            )
            (slept, recv, req), _ = seeks(
                lambda: exp.expand_por(parent, parts, digest, sleep, seen)
            )
            # (g) a second expansion of the same parent replays the memo
            # entries and gives equal records
            again, _ = seeks(lambda: exp.expand(parent, parts, seen))
            (por_again, _, _), _ = seeks(
                lambda: exp.expand_por(parent, parts, digest, 0, seen)
            )
        finally:
            messages._uid_counter = saved

        # (a) sleep 0: one record per move of the reference enumeration
        # (_moves), in order, and the parent's requester mask
        assert [(r[1], r[2]) for r in por0] == moves, ctx
        assert [r[0] for r in por0] == [
            1 << (exp.mid_base[pid] + chan + 1) for pid, chan in moves
        ], ctx
        assert recv0 == sum(r[0] for r in por0 if r[2] >= 0), ctx
        assert req0 == req == requesting, ctx

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

        # (g) continued: replayed records equal the derived ones
        assert len(again) == len(full), ctx
        for got, want in zip(again, full):
            assert (got is None) == (want is None), ctx
            if got is not None:
                assert (got[0], got[1], got[3]) == (want[0], want[1], want[3])
                assert state_key(got[2]) == state_key(want[2]), ctx
        assert len(por_again) == len(por0), ctx
        for got, want in zip(por_again, por0):
            assert got[:5] == want[:5] and got[6:] == want[6:], ctx
            assert (got[5] is None) == (want[5] is None), ctx
            if got[5] is not None:
                assert state_key(got[5]) == state_key(want[5]), ctx

        # (c) a sleep mask drops the slept moves and changes no other
        # record, except for the slept entries a child sleep set inherits
        assert recv == recv0, ctx
        awake = [r for r in por0 if not r[0] & sleep]
        assert len(slept) == len(awake), ctx
        for got, want in zip(slept, awake):
            assert got[:5] == want[:5], ctx
            if got[5] is not None and want[5] is not None:
                assert state_key(got[5]) == state_key(want[5]), ctx
            assert (got[6], got[8]) == (want[6], want[8]), ctx
            assert (got[7] ^ want[7]) & ~sleep == 0, ctx

        # (e) a record's ``entered`` is the CS-counter change of the same
        # move replayed through the kernel's step_pid from the parent
        replay = work.fork()
        for rec in por0:
            assert rec[8] == entered_by_step(replay, parent, rec[1], rec[2]), (
                f"{ctx} move {(rec[1], rec[2])}"
            )

        # (f) against stored masks, half of them subsets of the record's
        # child sleep set: a record carries no child state exactly when
        # its digest is stored with a mask inside its child sleep set
        # (it can never wake), every other child is the kernel's
        # step_pid replay from the parent, and no other field moves
        stored = dict(seen)
        for i, rec in enumerate(slept):
            stored[rec[3]] = rec[7] if i % 2 else exp.all_moves_mask
        messages._uid_counter = itertools.repeat(0)
        try:
            (marked, _, _), _ = seeks(
                lambda: exp.expand_por(parent, parts, digest, sleep, stored)
            )
            assert len(marked) == len(slept), ctx
            for got, want in zip(marked, slept):
                move = f"{ctx} move {(got[1], got[2])}"
                assert got[:4] == want[:4] and got[6:] == want[6:], move
                mask = stored.get(got[3])
                assert got[4] == (want[4] if mask is None else None), move
                if got[5] is None:
                    assert mask is not None and mask & ~got[7] == 0, move
                elif got[5] is not parent:  # a clean self-loop reuses it
                    assert mask is None or mask & ~got[7], move
                    assert state_key(got[5]) == state_key(
                        stepped_state(replay, parent, got[1], got[2])
                    ), move
        finally:
            messages._uid_counter = saved

    def test_clean_self_loop_reports_its_cs_entry(self):
        """The central coordinator can request, enter and leave a
        zero-length CS in one silent step without changing its process
        snapshot: a clean self-loop that still entered the CS."""
        tree = path_tree(2)
        params = KLParams(k=1, l=1, n=tree.n)
        apps = [SaturatedWorkload(1, cs_duration=0) for _ in range(tree.n)]
        engine = build_central_engine(
            tree, params, apps, RoundRobinScheduler(tree.n)
        )
        work = engine.fork()
        work.clear_observers()
        exp = _DeltaExpander(work, lambda e: True)
        coord = tree.root

        def silent(records):
            return next(r for r in records if r[1:3] == (coord, -1))

        digest, parts = exp.root()
        parent = work.save_state()
        first = silent(exp.expand_por(parent, parts, digest, 0, {digest: 0})[0])
        child, child_parts, child_digest = first[5], first[6], first[3]
        work.load_state(child)
        rec = silent(exp.expand_por(
            child, child_parts, child_digest, 0, {digest: 0, child_digest: 0}
        )[0])
        assert rec[3] == child_digest  # clean: the child's own digest
        assert entered_by_step(work.fork(), child, coord, -1)
        assert rec[8] is True


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


# ---------------------------------------------------------------------------
# The object expander's move memo: which pids it stores entries for, and
# why an entry keyed on a pid's digest part answers for every state that
# shares the part.
# ---------------------------------------------------------------------------

MEMO_APPS = {
    "saturated": {"kind": "saturated", "args": {"cs_duration": 0}},
    "idle": {"kind": "idle", "args": {}},
    "cs_duration=1": {"kind": "saturated", "args": {"cs_duration": 1}},
    "think_time=1": {
        "kind": "saturated", "args": {"cs_duration": 0, "think_time": 1},
    },
    "oneshot": {"kind": "oneshot", "args": {"cs_duration": 0}},
    "hog": {"kind": "hog", "args": {}},
    "scripted": {
        "kind": "scripted", "args": {"script": [[0, 1, 0], [4, 2, 0]]},
    },
}
#: applications whose time guards are constant (plus no application)
CLOCK_FREE_APPS = ("saturated", "idle", "none")
#: variants the array backend lowers; ``listing`` is the pusher with the
#: arXiv listing's guard, ``composed`` the stack on a general graph
LOWERED = ("naive", "pusher", "priority", "selfstab", "ring")


def memo_engine(variant, *, n, tree_seed=0, warmup=(), apps, k=2, l=3):
    """An object engine whose pid ``p`` runs workload ``apps[p]`` ("none":
    no application), wandered by a scripted warmup of ``warmup`` pids."""
    from repro.spec import ScenarioSpec

    if variant == "composed":
        from repro.apps.interface import IdleApplication
        from repro.apps.workloads import (
            HogWorkload, OneShotWorkload, ScriptedWorkload,
        )

        # the composed stack has no variant entry: build it directly
        made = {
            "saturated": lambda: SaturatedWorkload(1, cs_duration=0),
            "idle": IdleApplication,
            "cs_duration=1": lambda: SaturatedWorkload(1, cs_duration=1),
            "think_time=1": lambda: SaturatedWorkload(1, 0, think_time=1),
            "oneshot": lambda: OneShotWorkload(1, cs_duration=0),
            "hog": lambda: HogWorkload(1),
            "scripted": lambda: ScriptedWorkload([(0, 1, 0), (4, 2, 0)]),
            "none": lambda: None,
        }
        engine = build_composed_engine(
            ring_graph(n), KLParams(k=k, l=l, n=n),
            [made[a]() for a in apps], RoundRobinScheduler(n),
        )
    else:
        d = {
            "topology": {"kind": "random", "args": {"n": n, "seed": tree_seed}},
            "variant": "pusher" if variant == "listing" else variant,
            "k": k,
            "l": l,
            "cmax": 2,
            "workload": MEMO_APPS["saturated"],
            "workload_overrides": {
                str(p): MEMO_APPS[a] for p, a in enumerate(apps) if a != "none"
            },
            "scheduler": {
                "kind": "scripted",
                "args": {"script": [s % n for s in warmup] or [0]},
            },
            "seed": tree_seed,
        }
        if variant in ("selfstab", "ring"):
            d["variant_options"] = {"init": "tokens"}
        engine = ScenarioSpec.from_dict(d).build().engine
        for p, a in enumerate(apps):
            if a == "none":
                # no registered workload leaves a process without one
                engine.processes[p].app = None
    engine.run(len(warmup))
    work = engine.fork()
    work.clear_observers()
    return work


@pytest.mark.parametrize("app", [*MEMO_APPS, "none"])
@pytest.mark.parametrize(
    "variant", [*LOWERED, "central", "composed", "listing"]
)
def test_clock_free_classification(variant, app, monkeypatch):
    """A pid gets stored memo entries iff its engine lowers to the array
    backend and the lowering classifies it clock-free: not a selfstab or
    ring root, and an application that is none, idle, or saturated with
    no CS duration and no think time.  An engine that does not lower
    (central, composed, the listing pusher guard) has none."""
    from repro.core.pusher import PusherProcess

    if variant == "listing":
        monkeypatch.setattr(PusherProcess, "pusher_guard", "listing")
    work = memo_engine(variant, n=4, apps=[app] * 4)
    exp = _DeltaExpander(work, lambda e: True)
    roots = {
        p for p, proc in enumerate(work.processes)
        if variant in ("selfstab", "ring") and proc.is_root
    }
    assert len(roots) == (variant in ("selfstab", "ring"))
    assert exp.clock_free == [
        variant in LOWERED and app in CLOCK_FREE_APPS and p not in roots
        for p in range(4)
    ]


def retimed(engine, state, pid, rng, *, reverse_rset=False):
    """``state`` with ``pid``'s digest part kept and everything a
    clock-free move must not read changed: the clock (stamps stay at or
    before it, as every stamp is an earlier clock value), ``pid``'s scan
    cursor, timer, application ledger and stamps, the CS and metric
    counters, every token uid, and optionally ``pid``'s RSet order."""
    from repro.core.messages import PrioT, PushT, ResT

    engine.load_state(state)
    t = state.now + rng.choice((0, 1, rng.randrange(0, 1000)))

    def stamp():
        # none yet, the boundaries a time guard would split on, or any
        return rng.choice((None, t - 1, t, rng.randrange(0, t + 1)))

    engine.now = t
    engine.total_cs_entries += rng.randrange(0, 50)
    engine._scan[pid] = rng.randrange(max(engine._degrees[pid], 1))
    engine._timer_start[pid] = rng.randrange(0, t + 1)
    proc = engine.processes[pid]
    proc.rset = [(lbl, rng.randrange(1, 10**6)) for lbl, _ in proc.rset]
    if reverse_rset:
        proc.rset.reverse()
    if getattr(proc, "prio", None) is not None:
        proc._prio_uid = rng.randrange(1, 10**6)
    app = getattr(proc, "app", None)
    if app is not None:
        app.requests = app.requests[: rng.randrange(len(app.requests) + 1)]
        app._cs_since = stamp()
        if hasattr(app, "_last_exit"):
            app._last_exit = stamp()
    for chan in engine.network.channels.values():
        chan.queue.extend([
            type(m)(uid=rng.randrange(1, 10**6))
            if type(m) in (ResT, PushT, PrioT) else m
            for m in [chan.queue.popleft() for _ in range(len(chan.queue))]
        ])
    return engine.save_state()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 7),
    tree_seed=st.integers(0, 40),
    variant=st.sampled_from(LOWERED),
    warmup_len=st.integers(0, 300),
    apps=st.lists(st.sampled_from([*MEMO_APPS, "none"]), min_size=7,
                  max_size=7),
    salt=st.integers(0, 2**32),
    k=st.integers(1, 3),
    extra_l=st.integers(0, 2),
)
def test_clock_free_moves_read_only_their_digest_part(
    n, tree_seed, variant, warmup_len, apps, salt, k, extra_l
):
    """The object expander stores a clock-free pid's entries under its
    digest part and the head message's token text
    (``ArrayEngine._clock_free``).  For a reachable state and copies
    that keep the pid's digest part but change the clock, its scan
    cursor, timer, application ledger, the counters, every token uid
    and its RSet order, a fresh expander derives the same memo group:
    the same requester flag and, move by move, the same child part,
    pushed tokens per channel, CS entry and footprint."""
    import random

    if variant == "ring" and n == 2:
        n = 3
    apps = apps[:n]
    rng = random.Random(salt)
    # long warmups, so that pids with a CS duration are met inside it
    warmup = [rng.randrange(n) for _ in range(warmup_len)]
    work = memo_engine(variant, n=n, tree_seed=tree_seed, warmup=warmup,
                       apps=apps, k=k, l=k + extra_l)
    exp = _DeltaExpander(work, lambda e: True)
    free = exp.clock_free
    state = work.save_state()
    parts = exp.parts()
    exp.expand(state, parts, set())
    probe = work.fork()
    for pid in (p for p in range(n) if free[p]):
        group = exp.memo[(pid, parts[pid])]
        for i in range(4):
            other = retimed(probe, state, pid, rng, reverse_rset=i == 3)
            fresh = _DeltaExpander(probe, lambda e: True)
            assert fresh.parts() == parts
            fresh.expand(other, parts, set())
            assert fresh.memo[(pid, parts[pid])] == group
