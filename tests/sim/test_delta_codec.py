"""Byte-equivalence proofs for the engine's delta codec.

The exploration hot path replaces full ``save_state``/``load_state``
round-trips with O(degree) operations: ``restore_pid`` (undo against
the retained parent snapshot), ``save_state_from`` (child snapshot sharing
every untouched slot with its parent), ``load_state_diff``
(slot-identity-pruned restore) and ``seek`` (a diff load from the state
the engine holds).  Every one of them must be *byte-identical* to the
full codec — these tests hold each to ``save_state`` equality across
protocol variants, baselines, the composed stack, tree shapes and every
scheduling choice.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.messages as messages
from repro import KLParams, RoundRobinScheduler, SaturatedWorkload
from repro.analysis.explore import _expander
from repro.baselines.central import build_central_engine
from repro.baselines.ring import build_ring_engine
from repro.core.composed import build_composed_engine
from repro.core.naive import build_naive_engine
from repro.core.priority import build_priority_engine
from repro.core.pusher import build_pusher_engine
from repro.core.selfstab import build_selfstab_engine
from repro.sim.array_engine import ArrayEngine
from repro.topology import path_tree, random_tree, star_tree
from repro.topology.graphs import ring_graph

VARIANTS = {
    "naive": build_naive_engine,
    "pusher": build_pusher_engine,
    "priority": build_priority_engine,
    "selfstab": build_selfstab_engine,
    "central": build_central_engine,
}


def build_variant(variant, tree):
    params = KLParams(k=2, l=3, n=tree.n)
    apps = [
        SaturatedWorkload(1 + p % params.k, cs_duration=2)
        for p in range(tree.n)
    ]
    kwargs = {"init": "tokens"} if variant == "selfstab" else {}
    engine = VARIANTS[variant](
        tree, params, apps, RoundRobinScheduler(tree.n), **kwargs
    )
    return engine


def other_engines():
    n = 5
    params = KLParams(k=2, l=3, n=n)
    apps = [SaturatedWorkload(1 + p % 2, cs_duration=2) for p in range(n)]
    ring = build_ring_engine(
        n, params, apps, RoundRobinScheduler(n), init="tokens"
    )
    graph = ring_graph(6)
    gparams = KLParams(k=2, l=3, n=graph.n)
    gapps = [SaturatedWorkload(1 + p % 2, cs_duration=2) for p in range(graph.n)]
    composed = build_composed_engine(
        graph, gparams, gapps, RoundRobinScheduler(graph.n)
    )
    return [("ring", ring), ("composed", composed)]


def assert_states_equal(a, b, context=""):
    for f in a.__slots__:
        assert getattr(a, f) == getattr(b, f), f"{context}: slot {f!r} differs"


def step_cases(engine):
    """Every (pid, channel) footprint shape: silent, scan, explicit."""
    cases = []
    for pid in range(engine.n):
        cases.append((pid, -1))
        cases.append((pid, None))
        for lbl in range(engine.network.degree(pid)):
            cases.append((pid, lbl))
    return cases


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("tree_fn", [path_tree, star_tree])
class TestDeltaRoundTrip:
    def test_restore_pid_is_exact_undo(self, variant, tree_fn):
        """The explorer's undo-against-parent-snapshot, full and with
        precomputed cleanliness hints."""
        engine = build_variant(variant, tree_fn(5))
        engine.run(600)
        for pid, chan in step_cases(engine):
            before = engine.save_state()
            engine.step_pid(pid, chan)
            engine.restore_pid(before, pid)
            assert_states_equal(
                engine.save_state(), before, f"{variant} pid={pid} ch={chan}"
            )
            # hinted flavor: classify the footprint exactly as the
            # explorer does, then restore only what was reported dirty
            engine.step_pid(pid, chan)
            proc_clean = engine.processes[pid].snapshot() == before.procs[pid]
            app = getattr(engine.processes[pid], "app", None)
            app_clean = (
                app is None or app.snapshot_state() == before.apps[pid]
            )
            dirty = engine.dirty_channels(before, pid)
            engine.restore_pid(before, pid, proc_clean, app_clean, dirty)
            assert_states_equal(
                engine.save_state(), before,
                f"hinted {variant} pid={pid} ch={chan}",
            )
            engine.run(29)

    def test_save_state_from_matches_full_snapshot(self, variant, tree_fn):
        engine = build_variant(variant, tree_fn(5))
        engine.run(600)
        for pid, chan in step_cases(engine):
            base = engine.save_state()
            engine.step_pid(pid, chan)
            incremental = engine.save_state_from(base, pid)
            full = engine.save_state()
            assert_states_equal(
                incremental, full, f"{variant} pid={pid} ch={chan}"
            )
            engine.run(41)

    def test_save_state_from_shares_untouched_slots(self, variant, tree_fn):
        """Structural sharing is the point: every slot outside the
        stepped pid's footprint must be the parent's *object*."""
        engine = build_variant(variant, tree_fn(5))
        engine.run(600)
        pid = 1
        base = engine.save_state()
        engine.step_pid(pid, -1)
        child = engine.save_state_from(base, pid)
        for q in range(engine.n):
            if q != pid:
                assert child.procs[q] is base.procs[q]
                assert child.apps[q] is base.apps[q]
        incident = {slot for slot, _ in engine._pid_chans[pid]}
        for slot in range(len(base.chans)):
            if slot not in incident:
                assert child.chans[slot] is base.chans[slot]


@pytest.mark.parametrize("label_engine", other_engines(), ids=lambda le: le[0])
class TestDeltaOnOtherStacks:
    """Ring baseline and the composed two-layer stack ride the same codec."""

    def test_round_trips(self, label_engine):
        label, engine = label_engine
        engine.run(2_000)
        for pid in range(engine.n):
            for chan in (-1, None, 0):
                before = engine.save_state()
                engine.step_pid(pid, chan)
                child_inc = engine.save_state_from(before, pid)
                assert_states_equal(child_inc, engine.save_state(), label)
                engine.restore_pid(before, pid)
                assert_states_equal(engine.save_state(), before, label)
                engine.run(53)


class TestCounterFootprint:
    def test_materialized_kind_is_deleted_on_restore(self):
        """A step that materializes a brand-new counter row must leave
        no trace after the undo (save_state encodes present rows)."""
        engine = build_variant("naive", path_tree(4))
        # fresh engine: no counters materialized yet; the first step of
        # a requesting process bumps "request" into existence
        before = engine.save_state()
        assert before.counters == ()
        engine.step_pid(0, -1)
        assert "request" in engine.counters
        engine.restore_pid(before, 0)
        assert_states_equal(engine.save_state(), before)

    def test_counters_version_advances_on_bump(self):
        engine = build_variant("naive", path_tree(4))
        v0 = engine.counters_version
        engine.step_pid(0, -1)  # registers a request -> bumps
        assert engine.counters_version > v0


class TestLoadStateDiff:
    def test_diff_load_between_siblings(self):
        engine = build_variant("priority", path_tree(5))
        engine.run(400)
        base = engine.save_state()
        siblings = []
        for pid in range(engine.n):
            engine.load_state(base)
            engine.step_pid(pid, -1)
            siblings.append(engine.save_state_from(base, pid))
        for i, a in enumerate(siblings):
            for b in siblings:
                engine.load_state(a)
                engine.load_state_diff(a, b)
                assert_states_equal(engine.save_state(), b, f"sib {i}")

    def test_diff_load_between_unrelated_states(self):
        """No shared slots at all: diff-load degenerates to a full load."""
        engine = build_variant("pusher", star_tree(5))
        engine.run(300)
        a = engine.save_state()
        engine.run(777)
        b = engine.save_state()
        engine.load_state(a)
        engine.load_state_diff(a, b)
        assert_states_equal(engine.save_state(), b)
        engine.load_state_diff(b, a)
        assert_states_equal(engine.save_state(), a)


class TestSeek:
    """``seek`` diffs from the state the engine holds, which
    ``save_state``, ``load_state`` and ``load_state_diff`` track, so the
    expanders load their own parents and no search re-syncs the
    engine."""

    def test_seek_equals_load_state(self):
        engine = build_variant("priority", path_tree(5))
        engine.run(400)
        base = engine.save_state()
        siblings = []
        for pid in range(engine.n):
            engine.load_state(base)
            engine.step_pid(pid, -1)
            siblings.append(engine.save_state_from(base, pid))
        for i, a in enumerate(siblings):
            for j, b in enumerate(siblings + [base]):
                engine.load_state(a)  # held: a, so the seek diffs
                engine.seek(b)
                assert_states_equal(engine.save_state(), b, f"sib {i}->{j}")
                engine.seek(a)  # held: the save_state just taken
                assert_states_equal(engine.save_state(), a, f"sib {j}->{i}")

    def test_fork_holds_no_state(self):
        """A clone's objects are copies, so it must not diff from the
        original's held state: its first seek is a full load, even when
        the original stepped after its last save."""
        engine = build_variant("pusher", star_tree(5))
        engine.run(300)
        saved = engine.save_state()
        engine.run(50)
        clone = engine.fork()
        clone.seek(saved)
        assert_states_equal(clone.save_state(), saved)


def bfs_level(exp, depth):
    """``(state, parts)`` of every configuration first reached at BFS
    ``depth`` from the expander's engine."""
    digest, parts = exp.root()
    seen = {digest}
    level = [(exp.work.save_state(), parts)]
    for _ in range(depth):
        nxt = []
        for state, parts in level:
            for item in exp.expand(state, parts, seen):
                if item is not None:
                    seen.add(item[0])
                    nxt.append((item[2], item[3]))
        level = nxt
    return level


def record_key(rec):
    """An expansion record as a comparable value (``EngineState``
    defines no ``==``; array states are plain tuples)."""
    if rec is None:
        return None
    digest, verdict, child, parts = rec
    if not isinstance(child, tuple):
        child = tuple(getattr(child, f) for f in child.__slots__)
    return digest, verdict, child, parts


@pytest.mark.parametrize("backend", ["object", "array"])
@pytest.mark.parametrize("variant", ["naive", "pusher", "priority", "selfstab"])
def test_expander_seeks_each_parent(backend, variant):
    """One BFS level's parents, expanded in shuffled order by one
    expander with no re-sync in between, give the records a fresh
    expander gives each parent on an engine loaded with it.  Fresh token
    uids are pinned so child states compare equal."""
    engine = build_variant(variant, path_tree(5))
    if backend == "array":
        engine = ArrayEngine.from_engine(engine)

    def inv(e):
        return e.total_cs_entries % 2 == 0 or f"{e.total_cs_entries} CS entries"

    saved = messages._uid_counter
    messages._uid_counter = itertools.repeat(0)
    try:
        level = bfs_level(_expander(engine.fork(), inv, level_scoped=True), 3)
        random.Random(0).shuffle(level)
        exp = _expander(engine.fork(), inv)
        for i, (state, parts) in enumerate(level):
            got = exp.expand(state, parts, set())
            ref = engine.fork()
            ref.load_state(state)
            want = _expander(ref, inv, level_scoped=True).expand(
                state, parts, set()
            )
            assert list(map(record_key, got)) == list(
                map(record_key, want)
            ), f"{backend} {variant} parent {i}"
    finally:
        messages._uid_counter = saved
    assert len(level) > 10


@st.composite
def footprint_runs(draw):
    """A random engine plus a random schedule to probe it with.

    The topology is a uniformly random tree, the warm-up decorrelates
    the starting configuration, and each raw move is (pid, channel
    seed) — the seed is folded into the pid's actual degree at run
    time, with negatives meaning a silent step.
    """
    variant = draw(st.sampled_from(sorted(VARIANTS)))
    n = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    warmup = draw(st.integers(min_value=0, max_value=80))
    moves = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=-1, max_value=5),
            ),
            min_size=1,
            max_size=10,
        )
    )
    return variant, n, seed, warmup, moves


class TestFootprintProperty:
    """The POR soundness obligation, as a property: the reported
    footprint of a step — ``dirty_channels`` plus the snapshot-compared
    process/app cleanliness — covers *exactly* the slots that differ
    between the parent and child snapshots.  Under-reporting would
    corrupt hinted restores and break POR's commutation argument;
    over-reporting would erode the reduction.  Both directions are
    asserted, on random schedules over random small trees."""

    @given(footprint_runs())
    @settings(max_examples=40, deadline=None)
    def test_footprint_exactly_covers_slot_diff(self, run):
        variant, n, seed, warmup, moves = run
        engine = build_variant(variant, random_tree(n, seed=seed))
        engine.run(warmup)
        for pid, raw_chan in moves:
            degree = len(engine._in_chans[pid])
            chan = -1 if raw_chan < 0 or degree == 0 else raw_chan % degree
            base = engine.save_state()
            engine.step_pid(pid, chan)
            child = engine.save_state()

            # Channel slots: dirty_channels is exact, both directions.
            dirty = set(engine.dirty_channels(base, pid))
            diff = {
                s
                for s in range(len(base.chans))
                if base.chans[s] != child.chans[s]
            }
            ctx = f"{variant} n={n} seed={seed} pid={pid} ch={chan}"
            assert diff <= dirty, (
                f"{ctx}: changed slots {sorted(diff - dirty)} not reported"
            )
            assert dirty <= diff, (
                f"{ctx}: clean slots {sorted(dirty - diff)} reported dirty"
            )

            # Process/app slots: only the stepped pid may move, and the
            # explorer's cleanliness classification must agree with the
            # actual snapshot diff.
            for q in range(engine.n):
                if q != pid:
                    assert child.procs[q] == base.procs[q], ctx
                    assert child.apps[q] == base.apps[q], ctx
            proc_clean = (
                engine.processes[pid].snapshot() == base.procs[pid]
            )
            assert proc_clean == (child.procs[pid] == base.procs[pid]), ctx
            app = getattr(engine.processes[pid], "app", None)
            app_clean = (
                app is None or app.snapshot_state() == base.apps[pid]
            )
            assert app_clean == (child.apps[pid] == base.apps[pid]), ctx

            # The incremental child snapshot agrees byte-for-byte and
            # shares every slot outside the stepped pid's static
            # footprint with its parent by identity.
            shared = engine.save_state_from(base, pid)
            assert_states_equal(shared, child, ctx)
            incident = {slot for slot, _ in engine._pid_chans[pid]}
            assert dirty <= incident, (
                f"{ctx}: step touched a non-incident channel"
            )
            for slot in range(len(base.chans)):
                if slot not in incident:
                    assert shared.chans[slot] is base.chans[slot], ctx
