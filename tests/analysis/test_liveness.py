"""Liveness checking: hand-verified livelock and convergence verdicts.

The two anchor fixtures are distillations of the paper's figures:

* ``fig3-starvation`` — the Fig. 3 starving regime made
  time-independent: on the 3-process livelock tree with k=1, l=2, two
  ``HogWorkload`` children enter their CS and stay (the set ``I`` of
  the (k,ℓ)-liveness property, pinning every unit), so the saturated
  root requests forever while tokens circulate around it.  The lasso
  search must convict this — under weak, strong *and* unconditional
  fairness (all three processes keep stepping on the cycle) — and the
  witness must replay.
* ``fig1-circulation`` — one resource token circling the 8-process
  paper tree with idle applications: nobody requests, the reachable
  space closes, and the verdict is ``converged``.

Around the anchors: witness replay closure (the cycle really returns to
its entry configuration, any number of turns), POR/full verdict
equality, fairness-constraint semantics including the
deadlock-starvation corner (a starving state with *no* enabled moves is
convicted by weak/strong via its clean self-loop but dismissed by
unconditional), and the channel-scripted scheduler the witnesses replay
through.
"""

import pytest

from repro import KLParams, RoundRobinScheduler
from repro.analysis import (
    LivelockWitness,
    explore,
    find_livelock,
    format_moves,
    packed_digest,
    safety_ok,
)
from repro.analysis.explore import _DeltaExpander
from repro.apps.workloads import SaturatedWorkload
from repro.core.pusher import build_pusher_engine
from repro.scenarios import scenario_spec
from repro.sim.engine import Engine
from repro.sim.scheduler import ScriptedScheduler
from repro.spec import FairnessSpec, SpecError, UnknownSpecKey
from repro.topology import paper_livelock_tree, path_tree


def starvation_built(variant="pusher"):
    return scenario_spec("fig3-starvation", variant=variant).build()


def explore_liveness(built, *, fairness="weak", por=False, max_depth=40):
    return explore(
        built.engine,
        built.invariant,
        max_depth=max_depth,
        max_configurations=50_000,
        check="liveness",
        fairness=fairness,
        por=por,
    )


class TestFig3Starvation:
    """The known-livelock anchor, hand-verified: victim 0, starving
    forever while both hogs sit in their CS."""

    @pytest.mark.parametrize(
        "fairness", ["weak", "strong", "unconditional"]
    )
    def test_livelock_found_under_every_fairness(self, fairness):
        res = explore_liveness(starvation_built(), fairness=fairness)
        assert res.violation is None
        assert res.livelock is not None
        assert res.livelock.victims == (0,)
        assert res.livelock.fairness == fairness
        assert not res.converged

    def test_cycle_is_genuine_circulation(self):
        """The starving cycle moves real messages — it is the paper's
        'tokens keep moving, the victim keeps waiting', not a stutter."""
        res = explore_liveness(starvation_built())
        lv = res.livelock
        receives = [m for m in lv.cycle if m[1] != -1]
        assert receives, "cycle contains no message deliveries"
        assert len(lv.cycle) >= 2

    def test_starves_under_every_variant(self):
        """With α = ℓ units pinned by hogs, the paper's conditional
        liveness promises nothing — every variant starves the root."""
        for variant in ("pusher", "priority", "naive"):
            res = explore_liveness(starvation_built(variant))
            assert res.livelock is not None, variant
            assert 0 in res.livelock.victims, variant

    def test_spec_carries_weak_fairness(self):
        spec = scenario_spec("fig3-starvation")
        assert spec.fairness == FairnessSpec("weak")
        d = spec.to_dict()
        assert d["fairness"] == {"kind": "weak", "args": {}}
        assert type(spec).from_dict(d) == spec


class TestWitnessReplay:
    def test_cycle_returns_to_entry_configuration(self):
        built = starvation_built()
        lv = explore_liveness(built).livelock
        digests = [
            packed_digest(lv.replay(built.engine, cycles=c))
            for c in (1, 2, 5)
        ]
        assert digests[0] == digests[1] == digests[2], (
            "cycle does not return to its entry configuration"
        )
        if lv.entry_digest is not None:
            assert digests[0] == lv.entry_digest

    def test_victim_requests_and_never_enters(self):
        built = starvation_built()
        lv = explore_liveness(built).livelock
        (victim,) = lv.victims
        one = lv.replay(built.engine, cycles=1)
        ten = lv.replay(built.engine, cycles=10)
        assert one.processes[victim].state == "Req"
        # The victim may be served during the *prefix*; starvation is a
        # property of the cycle: nine further turns, zero CS entries.
        assert (
            ten.counter("enter_cs", victim)
            == one.counter("enter_cs", victim)
        )
        # ... while the system as a whole did make progress earlier
        # (both hogs are inside their CS, holding every unit)
        assert ten.total_cs_entries >= 2

    def test_replay_leaves_input_untouched(self):
        built = starvation_built()
        lv = explore_liveness(built).livelock
        before = built.engine.save_state()
        lv.replay(built.engine, cycles=3)
        for f in before.__slots__:
            assert getattr(built.engine.save_state(), f) == getattr(before, f)

    def test_as_script_shape(self):
        lv = LivelockWitness(
            prefix=[(0, -1), (1, 0)], cycle=[(2, 0), (0, 1)], victims=(0,)
        )
        pids, chans = lv.as_script(cycles=2)
        assert pids == [0, 1, 2, 0, 2, 0]
        assert chans == [-1, 0, 0, 1, 0, 1]

    def test_format_moves(self):
        assert format_moves([(0, -1), (2, 0), (0, 1)]) == "0 2:0 0:1"
        assert format_moves([]) == ""

    def test_describe_mentions_victims(self):
        lv = LivelockWitness(prefix=[], cycle=[(0, -1)], victims=(1, 2))
        assert "victims [1, 2]" in lv.describe()


class TestFig1Convergence:
    """The known-convergent anchor: space closes, nothing starves."""

    def test_converged_verdict(self):
        built = scenario_spec("fig1-circulation").build()
        res = explore_liveness(built)
        assert res.exhausted
        assert res.violation is None
        assert res.livelock is None
        assert res.converged

    def test_converged_verdict_under_por(self):
        built = scenario_spec("fig1-circulation").build()
        res = explore_liveness(built, por=True)
        assert res.converged


class TestPorVerdictEquality:
    """POR must not change any liveness verdict on the fixtures."""

    @pytest.mark.parametrize("fairness", ["weak", "unconditional"])
    @pytest.mark.parametrize(
        "scenario", ["fig3-starvation", "fig1-circulation"]
    )
    def test_same_verdict(self, scenario, fairness):
        built = scenario_spec(scenario).build()
        full = explore_liveness(built, fairness=fairness)
        built = scenario_spec(scenario).build()
        por = explore_liveness(built, fairness=fairness, por=True)
        assert (full.livelock is None) == (por.livelock is None)
        assert full.converged == por.converged
        # the full search sleeps nothing, so POR can only prune edges
        assert por.transitions <= full.transitions
        if full.livelock is not None:
            assert full.livelock.victims == por.livelock.victims

    def test_por_witness_replays_too(self):
        built = starvation_built()
        lv = explore_liveness(built, por=True).livelock
        a = packed_digest(lv.replay(built.engine, cycles=1))
        b = packed_digest(lv.replay(built.engine, cycles=4))
        assert a == b


class TestPorChildStates:
    """The expander builds a child state only for a record the lasso
    search may read: a new configuration, or a duplicate whose stored
    sleep mask has a bit outside the record's child sleep set (it may
    wake its state).  The search stores receive bits only under POR and
    no bits in the full search, so there every duplicate is child-free.
    The results are pinned to what the search gave while every non-clean
    record carried a child state."""

    @staticmethod
    def counted(monkeypatch):
        tally = {"built": 0, "new": 0, "may_wake": 0, "cannot_wake": 0,
                 "silent_slept": 0, "seen": None, "recv": None}
        save_state_from = Engine.save_state_from
        expand_por = _DeltaExpander.expand_por

        def counted_save(self, *args):
            tally["built"] += 1
            return save_state_from(self, *args)

        def classified(self, state, parts, digest, sleep, seen):
            out = expand_por(self, state, parts, digest, sleep, seen)
            records = out[0]
            tally["seen"], tally["recv"] = seen, self.recv_mid_mask
            # ``seen`` is read, never written, by the expansion
            for rec in records:
                if rec[7] & ~self.recv_mid_mask:
                    tally["silent_slept"] += 1
                if rec[5] is state:  # a clean self-loop shares the parent
                    continue
                stored = seen.get(rec[3])
                if stored is None:
                    tally["new"] += 1
                elif stored & ~rec[7]:
                    tally["may_wake"] += 1
                else:
                    tally["cannot_wake"] += 1
            return out

        monkeypatch.setattr(Engine, "save_state_from", counted_save)
        monkeypatch.setattr(_DeltaExpander, "expand_por", classified)
        return tally

    @staticmethod
    def pusher_path(por):
        n = 4
        params = KLParams(k=2, l=2, n=n)
        apps = [SaturatedWorkload(1 + p % 2, cs_duration=0) for p in range(n)]
        engine = build_pusher_engine(
            path_tree(n), params, apps, RoundRobinScheduler(n)
        )
        return explore(
            engine, lambda e: safety_ok(e, params) or "unsafe",
            max_depth=30, max_configurations=50_000,
            check="liveness", por=por,
        )

    def test_pusher_path_builds_only_states_it_may_read(self, monkeypatch):
        tally = self.counted(monkeypatch)
        res = self.pusher_path(por=True)
        assert tally["built"] == tally["new"] + tally["may_wake"]
        assert tally["may_wake"] > 0 and tally["cannot_wake"] > 0
        assert (res.configurations, res.transitions) == (1560, 8913)
        assert (res.exhausted, res.violation, res.livelock) == (
            False, None, None
        )

    def test_full_search_builds_only_new_states(self, monkeypatch):
        """The full search stores no sleep bits, so no duplicate can
        wake its state and none gets a child state."""
        tally = self.counted(monkeypatch)
        res = self.pusher_path(por=False)
        assert tally["built"] == tally["new"]
        assert tally["may_wake"] == 0 and tally["cannot_wake"] > 0
        assert (res.configurations, res.transitions) == (1559, 9165)
        assert (res.exhausted, res.violation, res.livelock) == (
            False, None, None
        )

    @pytest.mark.parametrize("por", [True, False])
    def test_stored_masks_keep_only_receive_bits(self, monkeypatch, por):
        """Records carry child sleep sets with silent bits too; the
        search keeps only their receive bits under POR, and none in the
        full search."""
        tally = self.counted(monkeypatch)
        self.pusher_path(por=por)
        masks = set(tally["seen"].values())
        assert tally["silent_slept"] > 0
        if por:
            assert any(masks)
            assert all(m & ~tally["recv"] == 0 for m in masks)
        else:
            assert masks == {0}

    def test_starvation_anchor_witness(self, monkeypatch):
        tally = self.counted(monkeypatch)
        res = explore_liveness(starvation_built(), por=True)
        assert tally["built"] == tally["new"] + tally["may_wake"]
        assert tally["cannot_wake"] > 0
        assert (res.configurations, res.transitions) == (22, 36)
        assert (res.exhausted, res.violation) == (False, None)
        lv = res.livelock
        assert lv.victims == (0,)
        assert format_moves(lv.prefix) == (
            "0 1:0 0:0 0 1:0 1:0 0:0 2:0 0:1 0 1:0 0:0 0 2:0 0:1 1:0 0:0 2:0"
        )
        assert format_moves(lv.cycle) == "2:0 0:1 1:0 0:0"


class TestMoveMemo:
    """The object expander's move memo under the lasso search.  A memo
    hit leaves the engine wherever it was, so a frame takes the parent's
    requester mask from the expander, not from the live processes; only
    kept children and memo derivations execute; and a memo reset
    changes nothing but the work."""

    @staticmethod
    def pusher_path():
        n = 5
        params = KLParams(k=2, l=2, n=n)
        apps = [SaturatedWorkload(1 + p % 2, cs_duration=0) for p in range(n)]
        engine = build_pusher_engine(
            path_tree(n), params, apps, RoundRobinScheduler(n)
        )
        return engine, lambda e: safety_ok(e, params) or "unsafe"

    def search(self, fixture, **kw):
        if fixture == "fig3-starvation":
            built = starvation_built()
            engine, inv = built.engine, built.invariant
        else:
            engine, inv = self.pusher_path()
        res = explore(engine, inv, max_depth=40, max_configurations=3_000,
                      check="liveness", por=True, **kw)
        return engine, res

    @staticmethod
    def spied(monkeypatch):
        """Every ``expand_por`` call as ``(expander, state, req_mask)``."""
        calls = []
        expand_por = _DeltaExpander.expand_por

        def spy(self, state, parts, digest, sleep, seen):
            out = expand_por(self, state, parts, digest, sleep, seen)
            calls.append((self, state, out[2]))
            return out

        monkeypatch.setattr(_DeltaExpander, "expand_por", spy)
        return calls

    @pytest.mark.parametrize("fixture", ["fig3-starvation", "pusher-path"])
    def test_frame_requester_masks_match_their_states(self, monkeypatch,
                                                      fixture):
        calls = self.spied(monkeypatch)
        engine, _ = self.search(fixture)
        fresh = engine.fork()
        assert len(calls) > 20
        for _, state, req in calls:
            fresh.load_state(state)
            assert req == sum(
                1 << p for p, proc in enumerate(fresh.processes)
                if getattr(proc, "state", None) == "Req"
            )

    def test_executes_only_kept_children_and_derivations(self, monkeypatch):
        """Every pid of the pusher path is clock-free, so a move runs
        only to derive a memo entry or to build a child the search
        keeps."""
        from repro.core.base import TokenProcessBase

        tally = {"executed": 0, "kept": 0}
        on_local = TokenProcessBase.on_local
        save_state_from = Engine.save_state_from

        def counted_step(self):
            tally["executed"] += 1
            return on_local(self)

        def counted_save(self, *args):
            tally["kept"] += 1
            return save_state_from(self, *args)

        monkeypatch.setattr(TokenProcessBase, "on_local", counted_step)
        monkeypatch.setattr(Engine, "save_state_from", counted_save)
        calls = self.spied(monkeypatch)
        _, res = self.search("pusher-path")
        exp = calls[0][0]
        assert all(exp.clock_free)
        entries = sum(len(ents) for _, ents in exp.memo.values())
        assert tally["executed"] <= tally["kept"] + entries
        assert tally["kept"] + entries < res.transitions

    @pytest.mark.parametrize("fixture", ["fig3-starvation", "pusher-path"])
    def test_memo_resets_change_nothing(self, monkeypatch, fixture):
        """With the reset valve at one group the memo clears before
        almost every expansion; the search must not notice."""
        from repro.analysis.explore import _ArrayExpander

        def outcome(res):
            lv = res.livelock
            return (
                res.configurations, res.transitions, res.exhausted,
                res.violation, res.frontier_sizes, res.peak_seen_bytes,
                None if lv is None else (lv.prefix, lv.cycle, lv.victims),
            )

        _, want = self.search(fixture)
        monkeypatch.setattr(_ArrayExpander, "_MEMO_MAX", 1)
        calls = self.spied(monkeypatch)
        engine, got = self.search(fixture)
        assert outcome(got) == outcome(want)
        assert len(calls[-1][0].memo) <= 1 + engine.n
        # the breadth-first search under the same valve
        engine, inv = self.pusher_path()
        bfs = explore(engine, inv, max_depth=12)
        monkeypatch.undo()
        assert outcome(bfs) == outcome(explore(engine, inv, max_depth=12))


class TestDeadlockStarvation:
    """A starving state with no enabled moves at all: its clean
    self-loop is a one-state cycle that weak and strong convict, while
    unconditional dismisses it (only one process steps on the loop).
    Starvation-by-silence needs the weaker daemons — documented
    behavior, pinned here."""

    def engine(self):
        # No tokens anywhere: all three requesters starve immediately.
        tree = paper_livelock_tree()
        params = KLParams(k=1, l=2, n=3)
        apps = [SaturatedWorkload(1, cs_duration=0) for _ in range(3)]
        engine = build_pusher_engine(
            tree, params, apps, RoundRobinScheduler(3)
        )
        for chan in engine.network.all_channels():
            chan.clear()
        for p in range(3):
            engine.step_pid(p, -1)
        for chan in engine.network.all_channels():
            chan.clear()
        params_inv = params

        def inv(e):
            return safety_ok(e, params_inv) or "unsafe"

        return engine, inv

    @pytest.mark.parametrize("fairness", ["weak", "strong"])
    def test_weak_and_strong_convict(self, fairness):
        engine, inv = self.engine()
        res = find_livelock(engine, inv, max_depth=20, fairness=fairness)
        assert res.livelock is not None
        assert set(res.livelock.victims) == {0, 1, 2}

    def test_unconditional_dismisses(self):
        engine, inv = self.engine()
        res = find_livelock(engine, inv, max_depth=20,
                            fairness="unconditional")
        assert res.livelock is None


class TestArgumentValidation:
    def built(self):
        return starvation_built()

    def test_unknown_fairness_lists_choices(self):
        built = self.built()
        with pytest.raises(UnknownSpecKey, match="strong"):
            find_livelock(
                built.engine, built.invariant, fairness="bogus"
            )

    def test_liveness_requires_delta_codec(self):
        """The lasso search runs on the delta codec and packed digests,
        the explorer's only path: no codec or seen-set key to choose."""
        built = self.built()
        with pytest.raises(TypeError, match="method"):
            explore(
                built.engine, built.invariant,
                check="liveness", method="snapshot",
            )
        with pytest.raises(TypeError, match="digest"):
            find_livelock(built.engine, built.invariant, digest="tuple")

    def test_unknown_check_rejected(self):
        built = self.built()
        with pytest.raises(ValueError, match="check"):
            explore(built.engine, built.invariant, check="deadlock")

    def test_fairness_spec_rejects_args(self):
        with pytest.raises(SpecError, match="takes no arguments"):
            FairnessSpec("weak", {"n": 3}).build()

    def test_fairness_spec_builds_predicate(self):
        fn = FairnessSpec("weak").build()
        assert fn(enabled_all=0, enabled_any=7, taken=1,
                  stepped_pids=1, all_pids=7) is True
        assert fn(enabled_all=2, enabled_any=7, taken=1,
                  stepped_pids=1, all_pids=7) is False


class TestChannelScriptedScheduler:
    """The witness-replay vehicle: a ScriptedScheduler that also pins
    the channel of every scripted move."""

    def test_next_move_returns_scripted_channels(self):
        s = ScriptedScheduler(3, [0, 2, 1], channels=[-1, 0, 1])
        assert s.next_move(0) == (0, -1)
        assert s.next_move(1) == (2, 0)
        assert s.next_move(2) == (1, 1)

    def test_exhausted_script_falls_back_to_free_choice(self):
        s = ScriptedScheduler(2, [1], channels=[0])
        assert s.next_move(0) == (1, 0)
        pid, chan = s.next_move(1)
        assert chan is None  # past the script: engine picks the channel

    def test_extend_keeps_channel_alignment(self):
        s = ScriptedScheduler(2, [0], channels=[-1])
        s.extend([1])
        assert s.next_move(0) == (0, -1)
        assert s.next_move(1) == (1, None)

    def test_channel_script_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ScriptedScheduler(2, [0, 1], channels=[0])

    def test_invalid_channel_rejected(self):
        with pytest.raises(ValueError):
            ScriptedScheduler(2, [0], channels=["x"])

    def test_channelled_script_disables_batched_kernel(self):
        """The batched run loop bypasses next_move; channel choices
        must force the per-step path."""
        assert ScriptedScheduler(2, [0], channels=[-1]).deterministic_batch \
            is False
        assert ScriptedScheduler(2, [0]).deterministic_batch is True

    def test_plain_scheduler_next_move_is_free_choice(self):
        s = RoundRobinScheduler(3)
        assert s.next_move(0) == (0, None)
        assert s.next_move(1) == (1, None)
