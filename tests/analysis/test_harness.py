"""Experiment harness: convergence and waiting-time runners."""

import pytest

from repro.analysis.harness import (
    _first_suffix_true,
    run_convergence,
    run_waiting_time,
    stabilize,
)
from repro.spec import ScenarioSpec, SpecError, TopologySpec, WorkloadSpec
from tests.conftest import make_params, saturated_engine, t1_spec, t2_spec


class TestSuffixHelper:
    def test_basic(self):
        assert _first_suffix_true([(1, False), (2, True), (3, True)]) == 2

    def test_flapping_resets(self):
        assert _first_suffix_true([(1, True), (2, False), (3, True)]) == 3

    def test_never(self):
        assert _first_suffix_true([(1, False)]) is None

    def test_empty(self):
        assert _first_suffix_true([]) is None


class TestRunConvergence:
    def test_structure_of_result(self):
        res = run_convergence(t1_spec("paper"), max_steps=80_000)
        assert res.steps == 80_000
        assert res.converged
        assert 0 < res.stabilization_step <= res.steps
        assert res.stabilized_fraction is not None
        assert res.circulations > 0

    def test_unscrambled_start_converges_fast(self):
        res = run_convergence(t1_spec("paper", scramble=False),
                              max_steps=80_000)
        assert res.converged

    def test_deterministic_given_seed(self):
        spec = t1_spec("path:n=5", seed=5)
        a = run_convergence(spec, max_steps=40_000)
        b = run_convergence(spec, max_steps=40_000)
        assert a.stabilization_step == b.stabilization_step
        assert a.resets == b.resets


class TestStabilize:
    def test_reports_failure_on_tiny_budget(self, paper_tree):
        params = make_params(paper_tree)
        engine, _ = saturated_engine(paper_tree, params)
        assert not stabilize(engine, params, max_steps=10)

    def test_idempotent(self, paper_tree):
        params = make_params(paper_tree)
        engine, _ = saturated_engine(paper_tree, params)
        assert stabilize(engine, params)
        now = engine.now
        assert stabilize(engine, params)  # already stable: quick
        assert engine.now - now < engine.timeout_interval * 40

    @pytest.mark.parametrize("backend", ["object", "array"])
    def test_engine_without_controller_is_a_spec_error(self, backend):
        """A naive engine's root counts no circulations: stabilize()
        refuses it before stepping and names the variants that work."""
        spec = ScenarioSpec(
            topology=TopologySpec("path", {"n": 4}),
            variant="naive",
            k=1,
            l=2,
            workload=WorkloadSpec("saturated", {"cs_duration": 1}),
            backend=backend,
        )
        built = spec.build()
        with pytest.raises(SpecError, match="selfstab or ring variant"):
            stabilize(built.engine, built.params)
        assert built.engine.now == 0


class TestRunWaitingTime:
    def test_result_fields(self):
        res = run_waiting_time(t2_spec("path:n=5", k=2, l=3, seed=1),
                               measure_steps=30_000)
        assert res.n == 5
        assert res.bound == 3 * 49
        assert res.within_bound
        assert res.metrics.satisfied > 0

    def test_custom_needs(self):
        spec = t2_spec("path:n=4", k=2, l=2, seed=1, needs=[2, 1, 1, 2])
        res = run_waiting_time(spec, measure_steps=20_000)
        assert res.metrics.satisfied > 0


class TestScenarioHelpers:
    def test_helpers_build_the_cli_scenarios(self):
        """The suite's T1/T2 specs are the ``converge``/``wait`` ones."""
        from repro.cli import _converge_spec, _wait_spec, build_parser

        flags = ["--tree", "path", "--n", "6", "--k", "2", "--l", "4",
                 "--seed", "3"]
        parse = build_parser().parse_args
        assert t1_spec("path:n=6", l=4, seed=3) == _converge_spec(
            parse(["converge", *flags]))
        assert t2_spec("path:n=6", l=4, seed=3) == _wait_spec(
            parse(["wait", *flags]))
