"""Bounded exhaustive exploration of small instances."""

import pytest

from reference_explore import explore_reference
from repro import KLParams, RoundRobinScheduler
from repro.analysis import safety_ok, take_census
from repro.analysis.explore import canonical_digest, explore, packed_digest
from repro.apps.workloads import HogWorkload, SaturatedWorkload
from repro.baselines.central import build_central_engine
from repro.baselines.ring import build_ring_engine
from repro.core.composed import build_composed_engine
from repro.core.naive import build_naive_engine
from repro.core.priority import build_priority_engine
from repro.core.pusher import build_pusher_engine
from repro.core.selfstab import build_selfstab_engine
from repro.topology import paper_livelock_tree, path_tree, star_tree
from repro.topology.graphs import ring_graph


def naive_engine(n=2, k=1, l=1, needs=None):
    tree = path_tree(n)
    params = KLParams(k=k, l=l, n=n)
    apps = [
        SaturatedWorkload(needs[p], cs_duration=0) if needs and p in needs else None
        for p in range(n)
    ]
    return build_naive_engine(tree, params, apps), params


class TestDigest:
    def test_identical_configs_same_digest(self):
        a, _ = naive_engine()
        b, _ = naive_engine()
        assert canonical_digest(a) == canonical_digest(b)

    def test_uid_invariance(self):
        from repro.core.messages import ResT
        a, _ = naive_engine()
        b, _ = naive_engine()
        # replace b's token with a fresh-uid one: digest must not change
        ch = b.network.out_channel(0, 0)
        ch.clear()
        ch.push_initial(ResT())
        assert canonical_digest(a) == canonical_digest(b)

    def test_channel_contents_matter(self):
        a, _ = naive_engine()
        b, _ = naive_engine()
        b.network.out_channel(1, 0).push_initial(
            __import__("repro.core.messages", fromlist=["PushT"]).PushT()
        )
        assert canonical_digest(a) != canonical_digest(b)


class TestPackedDigest:
    def test_identical_configs_same_digest(self):
        a, _ = naive_engine()
        b, _ = naive_engine()
        assert packed_digest(a) == packed_digest(b)

    def test_fixed_width(self):
        a, _ = naive_engine()
        b, _ = naive_engine(n=4, l=2, needs={1: 1})
        assert len(packed_digest(a)) == len(packed_digest(b)) == 16

    def test_uid_invariance(self):
        from repro.core.messages import ResT
        a, _ = naive_engine()
        b, _ = naive_engine()
        ch = b.network.out_channel(0, 0)
        ch.clear()
        ch.push_initial(ResT())  # fresh uid, same kind
        assert packed_digest(a) == packed_digest(b)

    def test_channel_contents_matter(self):
        from repro.core.messages import PushT
        a, _ = naive_engine()
        b, _ = naive_engine()
        b.network.out_channel(1, 0).push_initial(PushT())
        assert packed_digest(a) != packed_digest(b)

    def test_process_state_matters(self):
        a, _ = naive_engine(n=3, l=2, needs={1: 1})
        b = a.fork()
        b.step_pid(1, -1)  # registers the request: state Out -> Req
        assert packed_digest(a) != packed_digest(b)

    def test_time_and_counters_excluded(self):
        """Like the tuple digest, packing ignores time, timers, scan
        positions and counters — only protocol-visible state counts."""
        a, _ = naive_engine()
        b = a.fork()
        b.now += 17
        b._timer_start[0] = 5
        b._scan[0] = 0
        b.counters["whatever"] = [1, 0]
        assert packed_digest(a) == packed_digest(b)


def _collision_engines():
    """All 5 variants + ring/central baselines, exploration-shaped."""
    engines = []
    for name, builder in (
        ("naive", build_naive_engine),
        ("pusher", build_pusher_engine),
        ("priority", build_priority_engine),
        ("selfstab", build_selfstab_engine),
        ("central", build_central_engine),
    ):
        for tree_fn in (path_tree, star_tree):
            tree = tree_fn(4)
            params = KLParams(k=1, l=2, n=tree.n)
            apps = [
                SaturatedWorkload(need=1, cs_duration=0)
                for _ in range(tree.n)
            ]
            kwargs = {"init": "tokens"} if name == "selfstab" else {}
            eng = builder(tree, params, apps, **kwargs)
            engines.append((f"{name}-{tree_fn.__name__}", eng, params))
    n = 5
    params = KLParams(k=1, l=2, n=n)
    apps = [SaturatedWorkload(need=1, cs_duration=0) for _ in range(n)]
    engines.append((
        "ring",
        build_ring_engine(n, params, apps, RoundRobinScheduler(n), init="tokens"),
        params,
    ))
    graph = ring_graph(4)
    gparams = KLParams(k=1, l=2, n=graph.n)
    gapps = [SaturatedWorkload(need=1, cs_duration=0) for _ in range(graph.n)]
    engines.append((
        "composed",
        build_composed_engine(graph, gparams, gapps),
        gparams,
    ))
    return engines


class TestDigestCollisionSafety:
    """The production explorer (delta codec, 128-bit packed digests)
    must report the identical reachable set as every combination of the
    retained reference (full-snapshot or deepcopy-fork codec, tuple or
    packed digests) on every variant and baseline — a digest collision,
    an encoding ambiguity, or a canonicalization drift would all surface
    as a count mismatch here."""

    @pytest.mark.parametrize(
        "label_eng_params", _collision_engines(), ids=lambda t: t[0]
    )
    def test_packed_equals_tuple_everywhere(self, label_eng_params):
        label, eng, params = label_eng_params

        def inv(e):
            return safety_ok(e, params) or "unsafe"

        def fields(r):
            return (r.configurations, r.transitions, r.exhausted,
                    r.violation, r.frontier_sizes)

        results = {"production": fields(explore(eng, inv, max_depth=5))}
        for method in ("snapshot", "fork"):
            for digest in ("packed", "tuple"):
                results[(method, digest)] = fields(explore_reference(
                    eng, inv, max_depth=5, method=method, digest=digest
                ))
        reference = results[("snapshot", "tuple")]
        for key, got in results.items():
            assert got == reference, f"{label}: {key} diverged"

    def test_violation_messages_identical(self):
        eng, params = naive_engine(n=3, k=1, l=1, needs={1: 1, 2: 1})
        for p in range(3):
            eng.step_pid(p, -1)

        def inv(e):
            return e.total_cs_entries == 0 or "someone entered the CS"

        runs = [explore(eng, inv, max_depth=8)] + [
            explore_reference(eng, inv, max_depth=8, method=m, digest=d)
            for m in ("snapshot", "fork")
            for d in ("packed", "tuple")
        ]
        assert all(not r.ok for r in runs)
        assert len({r.violation for r in runs}) == 1


class TestThroughputFields:
    def test_states_per_sec_and_peak_seen_reported(self):
        eng, params = naive_engine(n=3, l=2, needs={1: 1, 2: 1})
        res = explore(eng, lambda e: True, max_depth=6)
        assert res.states_per_sec > 0
        assert res.peak_seen_bytes > 0

    def test_packed_seen_set_is_much_smaller(self):
        """The headline memory claim: fixed 16-byte keys vs nested
        tuples, on the same reachable set."""
        eng, params = naive_engine(n=4, k=2, l=3, needs={1: 2, 2: 1, 3: 2})
        for p in range(4):
            eng.step_pid(p, -1)
        packed = explore(eng, lambda e: True, max_depth=10)
        tup = explore_reference(eng, lambda e: True, max_depth=10)
        assert packed.configurations == tup.configurations
        assert packed.configurations > 100
        assert packed.peak_seen_bytes * 10 < tup.peak_seen_bytes

    def test_depth_zero_violation_has_zero_throughput(self):
        eng, _ = naive_engine()
        res = explore(eng, lambda e: "broken", max_depth=5)
        assert res.states_per_sec == 0.0
        assert res.peak_seen_bytes == 0

    def test_peak_seen_bytes_is_deterministic(self):
        """Wall-clock throughput is the *only* run-to-run variable:
        repeated searches of the same instance must report identical
        peak memory and identical search-shape fields, while both runs
        still report a positive (but uncomparable) states/sec."""
        runs = []
        for _ in range(2):
            eng, params = naive_engine(n=4, k=2, l=3,
                                       needs={1: 2, 2: 1, 3: 2})

            def inv(e):
                return safety_ok(e, params) or "unsafe"

            runs.append(explore(eng, inv, max_depth=10))
        a, b = runs
        assert a.peak_seen_bytes == b.peak_seen_bytes > 0
        assert (a.configurations, a.transitions, a.exhausted,
                a.violation, a.frontier_sizes) == \
               (b.configurations, b.transitions, b.exhausted,
                b.violation, b.frontier_sizes)
        assert a.states_per_sec > 0 and b.states_per_sec > 0

    def test_peak_seen_bytes_deterministic_under_por(self):
        eng1, params = naive_engine(n=4, k=2, l=3, needs={1: 2, 2: 1})

        def inv(e):
            return safety_ok(e, params) or "unsafe"

        eng2, _ = naive_engine(n=4, k=2, l=3, needs={1: 2, 2: 1})
        a = explore(eng1, inv, max_depth=10, por=True)
        b = explore(eng2, inv, max_depth=10, por=True)
        assert a.peak_seen_bytes == b.peak_seen_bytes > 0
        assert a.transitions == b.transitions


class TestSeenBytesAccounting:
    """``_seen_bytes`` must charge POR/liveness sleep masks, not just
    the digest keys — a dict seen-set retains its values too."""

    DIGESTS = [bytes([i]) * 16 for i in range(128)]

    def test_dict_mask_values_are_counted(self):
        import sys

        from repro.analysis.explore import _seen_bytes

        zero = {d: 0 for d in self.DIGESTS}
        wide = {d: (1 << 300) - 1 for d in self.DIGESTS}
        # Only the mask values differ, so the estimates must differ by
        # exactly the summed value-size delta — anything else means the
        # values fell out of the accounting.
        delta = len(self.DIGESTS) * (
            sys.getsizeof((1 << 300) - 1) - sys.getsizeof(0)
        )
        assert delta > 0
        assert _seen_bytes(wide) - _seen_bytes(zero) == delta

    def test_estimate_is_pure_function_of_contents(self):
        from repro.analysis.explore import _seen_bytes

        fwd = {d: i % 7 for i, d in enumerate(self.DIGESTS)}
        rev = dict(reversed(list(fwd.items())))
        assert _seen_bytes(fwd) == _seen_bytes(rev)
        assert (_seen_bytes(set(self.DIGESTS))
                == _seen_bytes(set(reversed(self.DIGESTS))))

    def test_por_run_charges_digests_and_masks(self):
        import sys

        eng, params = naive_engine(n=4, k=2, l=3, needs={1: 2, 2: 1})

        def inv(e):
            return safety_ok(e, params) or "unsafe"

        res = explore(eng, inv, max_depth=10, por=True)
        # Lower bound: every entry retains a 16-byte digest key plus at
        # least a small-int mask (sys.getsizeof(0) is the int floor).
        floor = res.configurations * (
            sys.getsizeof(b"\x00" * 16) + sys.getsizeof(0)
        )
        assert res.peak_seen_bytes >= floor


class TestExploreMechanics:
    def test_closes_reachable_set(self):
        # 2 processes, 1 token, no requesters: the token just circulates;
        # the reachable set is tiny and must close.
        eng, params = naive_engine()
        res = explore(eng, lambda e: True, max_depth=30)
        assert res.exhausted
        assert res.configurations < 50

    def test_depth_bound_respected(self):
        eng, params = naive_engine(n=3, l=2, needs={1: 1, 2: 1})
        res = explore(eng, lambda e: True, max_depth=2)
        assert not res.exhausted or res.configurations > 0
        assert len(res.frontier_sizes) <= 3

    def test_violation_reported_with_depth(self):
        eng, params = naive_engine()
        res = explore(eng, lambda e: e.network.pending_messages() == 1
                      or "token left the channels", max_depth=10)
        # the token gets absorbed... no requesters here, so it stays in
        # flight forever: pending == 1 except right when being handled
        # (handled tokens are re-sent within the same step) -> holds.
        assert res.ok

    def test_input_engine_not_mutated(self):
        eng, params = naive_engine()
        before = canonical_digest(eng)
        explore(eng, lambda e: True, max_depth=5)
        assert canonical_digest(eng) == before


class TestMoves:
    def test_isolated_process_gets_silent_move(self):
        """Degree-0 (single-process network): the silent ``-1`` move is
        the only move, and it must be offered (regression for the old
        dead ``deg == 0`` branch in ``_moves``)."""
        from repro.analysis.explore import _moves

        eng, _ = naive_engine(n=1)
        assert _moves(eng) == [(0, -1)]

    def test_leaf_with_empty_channels_gets_silent_move(self):
        from repro.analysis.explore import _moves

        eng, _ = naive_engine(n=3)
        for ch in eng.network.all_channels():
            ch.clear()
        moves = _moves(eng)
        # no pending messages anywhere: exactly one silent move each,
        # including the leaf (pid 2, degree 1) and the root
        assert moves == [(0, -1), (1, -1), (2, -1)]

    def test_every_process_keeps_silent_move_alongside_receives(self):
        from repro.analysis.explore import _moves

        eng, _ = naive_engine()  # token in root's outgoing channel 0
        moves = _moves(eng)
        for pid in range(eng.n):
            assert (pid, -1) in moves


class TestExploreEdgeCases:
    def test_violation_at_depth_zero(self):
        """An initially-violated invariant reports depth 0 without
        expanding a single transition."""
        eng, _ = naive_engine()
        res = explore(eng, lambda e: "broken from the start", max_depth=10)
        assert res.violation == (0, "broken from the start")
        assert res.configurations == 1
        assert res.transitions == 0
        assert not res.exhausted
        assert res.frontier_sizes == [1]

    def test_max_configurations_truncation_reported(self):
        """Hitting the width cap stops the search with ``exhausted=False``
        and no violation — explicitly 'truncated', not 'verified'."""
        eng, params = naive_engine(n=3, l=2, needs={1: 1, 2: 1})
        res = explore(eng, lambda e: True, max_depth=20, max_configurations=10)
        assert res.configurations == 10
        assert not res.exhausted
        assert res.violation is None
        # identical truncation point under the fork reference
        ref = explore_reference(
            eng, lambda e: True, max_depth=20, max_configurations=10,
            method="fork",
        )
        assert ref.configurations == res.configurations
        assert ref.transitions == res.transitions

    def test_exhaustion_on_fig3_livelock_tree(self):
        """Fig. 3 tree with hogs: the reachable set closes, so
        ``exhausted=True`` upgrades the invariant to a verified fact."""
        from repro.topology import paper_livelock_tree

        tree = paper_livelock_tree()
        params = KLParams(k=1, l=2, n=3)
        apps = [None, HogWorkload(1), HogWorkload(1)]
        eng = build_priority_engine(tree, params, apps)
        for p in range(3):
            eng.step_pid(p, -1)
        res = explore(
            eng, lambda e: safety_ok(e, params) or "unsafe", max_depth=20
        )
        assert res.exhausted
        assert res.ok
        # the frontier emptied strictly before the bound
        assert len(res.frontier_sizes) <= 20
        assert res.frontier_sizes[-1] == 0

    def test_bad_strategy_and_method_rejected(self):
        eng, _ = naive_engine()
        with pytest.raises(ValueError):
            explore(eng, lambda e: True, strategy="idfs")
        # the delta codec is the only one: there is no method to pick
        with pytest.raises(TypeError, match="method"):
            explore(eng, lambda e: True, method="teleport")

    def test_dfs_deep_dive_closes_small_space(self):
        """DFS with a deep bound closes the no-requester space exactly as
        BFS does, with memory bounded by the path not the frontier."""
        eng, _ = naive_engine()
        bfs = explore(eng, lambda e: True, max_depth=40)
        dfs = explore(eng, lambda e: True, max_depth=40, strategy="dfs")
        assert bfs.exhausted and dfs.exhausted
        assert bfs.configurations == dfs.configurations

    def test_dfs_input_engine_not_mutated(self):
        eng, _ = naive_engine()
        before = canonical_digest(eng)
        explore(eng, lambda e: True, max_depth=15, strategy="dfs")
        assert canonical_digest(eng) == before


class TestExhaustiveSafety:
    def test_naive_safety_under_all_schedules(self):
        """Exhaustive: the naive protocol with two 1-unit requesters on a
        3-path never violates safety under ANY schedule."""
        eng, params = naive_engine(n=3, k=1, l=1, needs={1: 1, 2: 1})
        # register requests deterministically first
        for p in range(3):
            eng.step_pid(p, -1)
        res = explore(
            eng,
            lambda e: safety_ok(e, params) or "safety violated",
            max_depth=14,
            max_configurations=120_000,
        )
        assert res.ok
        assert res.configurations > 10  # small but closed state space

    def test_naive_token_conservation_under_all_schedules(self):
        eng, params = naive_engine(n=3, k=2, l=2, needs={1: 2, 2: 1})
        for p in range(3):
            eng.step_pid(p, -1)
        res = explore(
            eng,
            lambda e: take_census(e).res == 2 or "token minted or lost",
            max_depth=12,
            max_configurations=120_000,
        )
        assert res.ok

    def test_priority_variant_exhaustive_invariants(self):
        """Fig. 3 topology, 1-out-of-2 with hogs: all schedules preserve
        safety and the full census."""
        tree = paper_livelock_tree()
        params = KLParams(k=1, l=2, n=3)
        apps = [None, HogWorkload(1), HogWorkload(1)]
        eng = build_priority_engine(tree, params, apps)
        for p in range(3):
            eng.step_pid(p, -1)

        def inv(e):
            if not safety_ok(e, params):
                return "safety violated"
            if take_census(e).as_tuple() != (2, 1, 1):
                return f"census {take_census(e).as_tuple()}"
            return True

        res = explore(eng, inv, max_depth=10, max_configurations=120_000)
        assert res.ok
        assert res.configurations > 10

    def test_wider_instance_explores_many_configs(self):
        """More tokens and a 2-unit demand widen the interleaving space."""
        eng, params = naive_engine(n=4, k=2, l=3, needs={1: 2, 2: 1, 3: 2})
        for p in range(4):
            eng.step_pid(p, -1)
        res = explore(
            eng,
            lambda e: safety_ok(e, params) or "safety violated",
            max_depth=26,
            max_configurations=60_000,
        )
        assert res.ok
        assert res.configurations > 200


class TestGuardTable:
    """``explore()`` is the one place that rejects option combinations
    no explorer runs (the CLI keeps no copy).  Each raises a
    ``SpecError`` before any search, naming the keyword, its CLI flag
    and the fix."""

    CASES = [
        (dict(backend="array", por=True),
         ["por=True (--por)", "backend='object' (--backend object)"]),
        (dict(backend="array", check="liveness"),
         ["check='liveness' (--check liveness)", "(--backend object)"]),
        (dict(distributed=True, por=True),
         ["por=True (--por)", "distributed=True", "--distributed"]),
        (dict(mem_budget=1 << 20, check="liveness"),
         ["check='liveness' (--check liveness)", "mem_budget", "--mem-budget"]),
        (dict(workers=2, por=True),
         ["por=True (--por)", "workers=1 (--workers 1)"]),
        (dict(workers=2, check="liveness"),
         ["check='liveness' (--check liveness)", "workers=1 (--workers 1)"]),
        (dict(checkpoint_every=0),
         ["checkpoint_every=0 (--checkpoint-every)"]),
    ]

    @pytest.mark.parametrize("kwargs, names", CASES)
    def test_rejection_names_keyword_and_flag(self, kwargs, names):
        from repro.sim.array_engine import ArrayEngine
        from repro.spec import SpecError

        kwargs = dict(kwargs)
        eng, _ = naive_engine(needs={0: 1, 1: 1})
        if kwargs.pop("backend", "object") == "array":
            eng = ArrayEngine.from_engine(eng)
        with pytest.raises(SpecError) as exc:
            explore(eng, lambda e: True, max_depth=2, **kwargs)
        for name in names:
            assert name in str(exc.value)


# ---------------------------------------------------------------------------
# Array-backend differential identity (the PR-9 contract)
# ---------------------------------------------------------------------------

class TestArrayBackendDifferential:
    """``explore()`` over an :class:`ArrayEngine` must agree with the
    object engine on the *entire* search outcome — configuration and
    transition counts, violation, exhaustion and per-depth frontiers —
    cold, warm (engine-resident memos), pooled and distributed.

    uid discipline: the two builds run sequentially, each after a
    process-global uid counter reset (see tests/sim/test_array_engine_diff.py).
    """

    VARIANTS = ("naive", "pusher", "priority", "selfstab", "ring")

    @staticmethod
    def _spec_dict(variant, topology="path", *, n=5, backend="object"):
        args = {"n": n}
        if topology == "random":
            args["seed"] = 3
        d = {
            "topology": {"kind": topology, "args": args},
            "variant": variant,
            "k": 2,
            "l": 3,
            "cmax": 2,
            # time-independent workload: the digest-soundness requirement
            "workload": {"kind": "saturated", "args": {"cs_duration": 0}},
            "scheduler": {"kind": "round_robin", "args": {}},
            "seed": 1,
            "backend": backend,
        }
        if variant in ("selfstab", "ring"):
            d["variant_options"] = {"init": "tokens"}
        return d

    @classmethod
    def _built(cls, variant, topology="path", *, n=5, backend="object"):
        import itertools

        import repro.core.messages as messages
        from repro.spec import ScenarioSpec

        messages._uid_counter = itertools.count(1)
        return ScenarioSpec.from_dict(
            cls._spec_dict(variant, topology, n=n, backend=backend)
        ).build()

    @staticmethod
    def _key(res):
        return (res.configurations, res.transitions, res.exhausted,
                res.violation, res.frontier_sizes)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("strategy", ["bfs", "dfs"])
    def test_cold_serial_agreement(self, variant, strategy):
        kw = dict(max_depth=6, max_configurations=20_000, strategy=strategy)
        obj = self._built(variant)
        ref = explore(obj.engine, obj.invariant, **kw)
        arr = self._built(variant, backend="array")
        res = explore(arr.engine, arr.invariant, **kw)
        assert self._key(res) == self._key(ref)

    @pytest.mark.parametrize("topology", ["star", "random"])
    def test_cold_agreement_other_topologies(self, topology):
        kw = dict(max_depth=6, max_configurations=20_000)
        obj = self._built("selfstab", topology)
        ref = explore(obj.engine, obj.invariant, **kw)
        arr = self._built("selfstab", topology, backend="array")
        res = explore(arr.engine, arr.invariant, **kw)
        assert self._key(res) == self._key(ref)

    def test_warm_memo_replay_and_cross_strategy(self):
        """Repeat runs on the same engine hit the engine-resident move
        and expansion memos; warm results must stay identical — even
        when the second search walks the space in a different order."""
        kw = dict(max_depth=7, max_configurations=20_000)
        obj = self._built("selfstab")
        ref_bfs = explore(obj.engine, obj.invariant, **kw)
        ref_dfs = explore(obj.engine, obj.invariant, strategy="dfs", **kw)
        arr = self._built("selfstab", backend="array")
        cold = explore(arr.engine, arr.invariant, **kw)
        warm = explore(arr.engine, arr.invariant, **kw)
        assert self._key(cold) == self._key(warm) == self._key(ref_bfs)
        # a DFS over memos recorded by the BFS must not inherit its
        # visit order or representatives
        warm_dfs = explore(arr.engine, arr.invariant, strategy="dfs", **kw)
        assert self._key(warm_dfs) == self._key(ref_dfs)

    def test_pool_workers_match_serial(self):
        """The W=2 owner-computes worker pool on the array backend."""
        kw = dict(max_depth=6, max_configurations=20_000)
        obj = self._built("selfstab")
        ref = explore(obj.engine, obj.invariant, **kw)
        arr = self._built("selfstab", backend="array")
        res = explore(arr.engine, arr.invariant, workers=2, **kw)
        assert self._key(res) == self._key(ref)

    def test_distributed_w2_matches_serial(self, tmp_path):
        from repro.analysis.distributed.owner import explore_owner

        kw = dict(max_depth=6, max_configurations=20_000)
        obj = self._built("selfstab")
        ref = explore(obj.engine, obj.invariant, **kw)
        arr = self._built("selfstab", backend="array")
        res = explore_owner(arr.engine, arr.invariant, workers=2,
                            spill_dir=str(tmp_path), **kw)
        assert (res.configurations, res.transitions, res.violation) == (
            ref.configurations, ref.transitions, ref.violation)

    def test_memo_replay_on_queues_past_the_initial_ring(self):
        """A memo replay reads the parent's digest parts, not the
        engine, so a parent whose queues outgrew the ring size the
        expander started with (a state from a grown engine) must replay
        to the same children as a cold expansion."""
        from repro.analysis.explore import _expander
        from repro.core.messages import fresh_uid

        arr = self._built("naive", backend="array")
        work = arr.engine.fork()
        exp = _expander(work, arr.invariant)
        cap0 = work._cap
        exp.expand(work.save_state(), work.digest_parts(), set())  # warm
        # same procs and clock, so the head moves hit the memo; every
        # queue padded with ResT tokens past what cap0 rings can hold
        for slot in range(work._nchan):
            while work._ch_len[slot] < cap0 + 3:
                work._enqueue_raw(slot, 0, fresh_uid())
        state, parts = work.save_state(), work.digest_parts()
        warm = exp.expand(state, parts, set())
        work._explore_memo.clear()
        work._explore_xmemo.clear()
        cold = _expander(work, arr.invariant).expand(state, parts, set())

        def key(row):
            return [None if r is None else (r[0], r[1]) for r in row]

        assert any(r is not None for r in warm)
        assert key(warm) == key(cold)

    def test_xmemo_does_not_leak_across_invariants(self):
        """Cached expansion rows embed invariant verdicts; swapping the
        invariant must invalidate them, not replay stale 'holds'."""
        arr = self._built("selfstab", backend="array")
        eng = arr.engine
        ok = explore(eng, lambda e: True, max_depth=5,
                     max_configurations=20_000)
        assert ok.violation is None
        # every child has now >= 1: a leaked cache would miss all of them
        res = explore(eng, lambda e: e.now == 0 or "clock advanced",
                      max_depth=5, max_configurations=20_000)
        assert res.violation is not None
