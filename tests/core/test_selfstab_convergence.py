"""Theorem 1: convergence from arbitrary configurations, and closure."""

import pytest

from repro import KLParams
from repro.analysis import (
    domains_ok,
    population_correct,
    run_convergence,
    safety_ok,
    stabilize,
    take_census,
)
from repro.sim.faults import scramble_configuration
from repro.topology import path_tree
from tests.conftest import make_params, saturated_engine, t1_spec

TREES = {
    "paper": "paper",
    "path7": "path:n=7",
    "star6": "star:n=6",
    "rand11": "random:n=11,seed=9",
}


class TestConvergence:
    @pytest.mark.parametrize("name", list(TREES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_converges_from_arbitrary_config(self, name, seed):
        spec = t1_spec(TREES[name], k=2, l=4, seed=seed)
        res = run_convergence(spec, max_steps=150_000)
        assert res.converged, f"{name} seed={seed}: {res}"
        assert res.final_census == (spec.l, 1, 1)

    @pytest.mark.parametrize("k,l", [(1, 1), (2, 2), (3, 5), (1, 6)])
    def test_converges_across_kl(self, k, l):
        res = run_convergence(t1_spec("paper", k=k, l=l, seed=3),
                              max_steps=150_000)
        assert res.converged
        assert res.final_census == (l, 1, 1)

    @pytest.mark.parametrize("cmax", [0, 1, 5])
    def test_converges_across_cmax(self, cmax):
        res = run_convergence(t1_spec("path:n=6", cmax=cmax, seed=4),
                              max_steps=150_000)
        assert res.converged

    def test_safety_clean_before_or_with_stabilization(self):
        res = run_convergence(t1_spec("paper", k=2, l=4, seed=5),
                              max_steps=150_000)
        assert res.safety_clean_from is not None
        assert res.safety_clean_from <= res.steps

    def test_single_process_trivially_stable(self):
        tree = path_tree(1)
        params = KLParams(k=1, l=1, n=1)
        engine, _ = saturated_engine(tree, params)
        engine.run(200)
        assert engine.counters["enter_cs"][0] > 0


class TestClosure:
    def test_safety_holds_forever_after_stabilization(self, paper_tree):
        params = make_params(paper_tree, k=2, l=4)
        engine, _ = saturated_engine(paper_tree, params, seed=6)
        scramble_configuration(engine, params, seed=66)
        assert stabilize(engine, params, max_steps=1_000_000)
        for _ in range(60):
            engine.run(500)
            assert safety_ok(engine, params)
            assert population_correct(engine, params)

    def test_domains_hold_at_every_moment(self, paper_tree):
        """Bounded memory: variables never leave their paper domains,
        even while converging from garbage."""
        params = make_params(paper_tree, k=2, l=3)
        engine, _ = saturated_engine(paper_tree, params, seed=7)
        scramble_configuration(engine, params, seed=77)
        for _ in range(300):
            engine.run(50)
            rep = domains_ok(engine, params)
            assert rep.ok, rep.violations


class TestRepeatedFaults:
    def test_survives_fault_storm(self, paper_tree):
        params = make_params(paper_tree, k=2, l=3)
        engine, _ = saturated_engine(paper_tree, params, seed=8)
        for round_ in range(5):
            scramble_configuration(engine, params, seed=round_)
            assert stabilize(engine, params, max_steps=1_000_000), f"round {round_}"
        assert take_census(engine).as_tuple() == (params.l, 1, 1)

    def test_mid_run_single_process_corruption(self, paper_tree):
        from repro.sim.faults import corrupt_process
        params = make_params(paper_tree, k=2, l=3)
        engine, _ = saturated_engine(paper_tree, params, seed=9)
        assert stabilize(engine, params)
        for pid in (0, 3, 4):
            corrupt_process(engine, pid, seed=pid)
            assert stabilize(engine, params, max_steps=1_000_000)
            assert population_correct(engine, params)
