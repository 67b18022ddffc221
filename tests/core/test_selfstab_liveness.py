"""Fairness, (k,l)-liveness, and the waiting-time bound (Theorem 2)."""

import pytest

from repro import KLParams, RandomScheduler
from repro.analysis import run_waiting_time, stabilize
from repro.analysis.metrics import priority_holder_bound, waiting_time_bound
from repro.apps.workloads import HogWorkload, OneShotWorkload, SaturatedWorkload
from repro.core.selfstab import build_selfstab_engine
from tests.conftest import make_params, saturated_engine, t2_spec


class TestFairness:
    def test_every_process_enters_infinitely_often(self, any_tree):
        params = make_params(any_tree, k=2, l=3)
        engine, _ = saturated_engine(any_tree, params, seed=4)
        assert stabilize(engine, params)
        checkpoints = []
        for _ in range(3):
            engine.run(40_000)
            checkpoints.append(list(engine.counters["enter_cs"]))
        # strictly increasing for every process between checkpoints
        for a, b in zip(checkpoints, checkpoints[1:]):
            assert all(y > x for x, y in zip(a, b))

    def test_max_need_requester_not_starved(self, paper_tree):
        """One process wants k=l units (the hardest request) amid load."""
        params = make_params(paper_tree, k=3, l=3)
        apps = [
            SaturatedWorkload(3 if p == 2 else 1, cs_duration=2)
            for p in range(paper_tree.n)
        ]
        engine = build_selfstab_engine(
            paper_tree, params, apps, RandomScheduler(paper_tree.n, seed=5)
        )
        assert stabilize(engine, params)
        engine.run(120_000)
        assert engine.counters["enter_cs"][2] > 0


class TestKLLiveness:
    def test_progress_despite_perpetual_holders(self, paper_tree):
        """(k,l)-liveness: hogs pin alpha units forever; requesters asking
        for <= l - alpha units still get served."""
        params = make_params(paper_tree, k=2, l=4)
        # pids 2 and 5 hog 1 unit each (alpha=2); others request <= 2
        apps = []
        for p in range(paper_tree.n):
            if p in (2, 5):
                apps.append(HogWorkload(1))
            else:
                apps.append(SaturatedWorkload(1 + p % 2, cs_duration=2))
        engine = build_selfstab_engine(
            paper_tree, params, apps, RandomScheduler(paper_tree.n, seed=6)
        )
        assert stabilize(engine, params)
        engine.run(150_000)
        # hogs entered once and hold
        assert engine.counters["enter_cs"][2] == 1
        assert engine.counters["enter_cs"][5] == 1
        # everyone else keeps going
        others = [p for p in range(paper_tree.n) if p not in (2, 5)]
        assert all(engine.counters["enter_cs"][p] > 10 for p in others)

    def test_full_saturation_alpha_equals_l(self, paper_tree):
        """Hogs pin all l units: nobody else can be served (not a
        (k,l)-liveness violation since every request exceeds l - alpha)."""
        params = make_params(paper_tree, k=2, l=2)
        apps = []
        for p in range(paper_tree.n):
            if p in (1, 4):
                apps.append(HogWorkload(1))
            else:
                apps.append(OneShotWorkload(1, at=5_000))
        engine = build_selfstab_engine(
            paper_tree, params, apps, RandomScheduler(paper_tree.n, seed=7)
        )
        assert stabilize(engine, params)
        engine.run_until(
            lambda e: e.counters["enter_cs"][1] + e.counters["enter_cs"][4] == 2,
            300_000, check_every=128,
        )
        engine.run(60_000)
        others = [p for p in range(paper_tree.n) if p not in (1, 4)]
        assert all(engine.counters["enter_cs"][p] == 0 for p in others)


class TestWaitingTime:
    @pytest.mark.parametrize("tree", ["path:n=5", "star:n=6"])
    @pytest.mark.parametrize("k,l", [(1, 1), (2, 3)])
    def test_within_theorem2_bound(self, tree, k, l):
        res = run_waiting_time(t2_spec(tree, k=k, l=l, seed=2),
                               measure_steps=50_000)
        assert res.within_bound
        assert res.metrics.satisfied > 0

    def test_bound_formulas(self):
        params = KLParams(k=2, l=3, n=8)
        assert waiting_time_bound(params) == 3 * 13 * 13
        assert priority_holder_bound(params) == 3 * 13

    def test_bound_degenerate_n1(self):
        params = KLParams(k=1, l=1, n=1)
        assert waiting_time_bound(params) == 0
