"""Sweep aggregation utilities."""

import math
import warnings

import numpy as np
import pytest

from repro.analysis.sweeps import SweepCell, run_sweep


def runner(seed, base=0):
    return {"x": base + seed, "y": 2.0 * seed}


class TestRunSweep:
    def test_grid_shape_and_values(self):
        cells = [SweepCell("a", {"base": 0}), SweepCell("b", {"base": 10})]
        res = run_sweep(runner, cells, seeds=[1, 2, 3])
        assert res.labels == ["a", "b"]
        assert res.values.shape == (2, 3, 2)
        assert res.mean("x")[0] == pytest.approx(2.0)
        assert res.mean("x")[1] == pytest.approx(12.0)
        assert res.max("y")[0] == pytest.approx(6.0)
        assert res.min("y")[0] == pytest.approx(2.0)

    def test_missing_runs_become_nan(self):
        def flaky(seed):
            return None if seed == 2 else {"x": float(seed)}
        res = run_sweep(flaky, [SweepCell("only")], seeds=[1, 2, 3])
        assert np.isnan(res.values[0, 1, 0])
        assert res.mean("x")[0] == pytest.approx(2.0)  # NaN-aware

    def test_cell_without_values_is_nan_without_warning(self):
        """A cell where no seed produced the metric (no seed converged)
        aggregates to NaN, the documented "missing" value, without
        numpy's empty-slice warnings."""
        def runner_b_missing(seed, missing=False):
            return {"x": float(seed), "y": None if missing else 2.0 * seed}

        cells = [SweepCell("a"), SweepCell("b", {"missing": True})]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_sweep(runner_b_missing, cells, seeds=[1, 3])
            for agg in ("mean", "std", "max", "min"):
                vals = getattr(res, agg)("y")
                assert not math.isnan(vals[0]) and math.isnan(vals[1])
            (a, ya), (b, yb) = res.rows("y")
            assert (a, ya, b) == ("a", 4.0, "b") and math.isnan(yb)
            assert math.isnan(res.as_dict()["b"]["y"])

    def test_rows_and_dict(self):
        res = run_sweep(runner, [SweepCell("a")], seeds=[1, 3])
        rows = res.rows("x", "y")
        assert rows == [("a", 2.0, 4.0)]
        assert res.as_dict()["a"]["y"] == pytest.approx(4.0)

    def test_explicit_metric_order(self):
        res = run_sweep(runner, [SweepCell("a")], seeds=[1], metrics=["y", "x"])
        assert res.metrics == ["y", "x"]

    def test_unknown_metric_rejected(self):
        res = run_sweep(runner, [SweepCell("a")], seeds=[1])
        with pytest.raises(KeyError):
            res.mean("z")

    def test_validation(self):
        with pytest.raises(ValueError):
            run_sweep(runner, [], seeds=[1])
        with pytest.raises(ValueError):
            run_sweep(runner, [SweepCell("a")], seeds=[])
        with pytest.raises(ValueError):
            run_sweep(lambda seed: None, [SweepCell("a")], seeds=[1])

    def test_std(self):
        res = run_sweep(runner, [SweepCell("a")], seeds=[0, 2])
        assert res.std("x")[0] == pytest.approx(1.0)


class TestSpecGrid:
    def base_spec(self):
        from repro.spec import ScenarioBuilder

        return (
            ScenarioBuilder()
            .variant("selfstab")
            .topology("path", n=5)
            .params(k=2, l=4, cmax=2)
            .workload("saturated", cs_duration=2)
            .fault("scramble")
            .scheduler("random")
            .spec()
        )

    def test_spec_grid_derives_cells(self):
        from repro.analysis import spec_grid

        cells = spec_grid(
            self.base_spec(),
            [("n5", {"topology.args.n": 5}), ("n7", {"topology.args.n": 7})],
            kwargs={"max_steps": 50_000},
        )
        assert [c.label for c in cells] == ["n5", "n7"]
        assert cells[0].kwargs["max_steps"] == 50_000
        assert cells[1].kwargs["spec"]["topology"]["args"]["n"] == 7
        # cells carry plain serialized mappings — picklable by construction
        import pickle

        pickle.loads(pickle.dumps(cells))

    def test_spec_cells_run_through_spec_runner(self):
        from repro.analysis import convergence_spec_runner, run_sweep, spec_grid

        cells = spec_grid(
            self.base_spec(),
            [("n5", {"topology.args.n": 5})],
            kwargs={"max_steps": 50_000},
        )
        res = run_sweep(convergence_spec_runner, cells, seeds=[0, 1])
        assert res.labels == ["n5"]
        assert res.mean("converged")[0] == pytest.approx(1.0)

    def test_convergence_spec_runner_pins_historical_values(self):
        """The spec path gives the T1 values the retired hand-built
        ``(tree, params, seed)`` runner gave on the same cells."""
        from repro.analysis import convergence_spec_runner, run_sweep, spec_grid

        cells = spec_grid(
            self.base_spec(),
            [(f"path-n{n}", {"topology.args.n": n}) for n in (5, 6)],
            kwargs={"max_steps": 50_000},
        )
        res = run_sweep(convergence_spec_runner, cells, seeds=[0, 1])
        assert res.metrics == ["converged", "stab_step", "resets", "circulations"]
        assert np.array_equal(res.values, [
            [[1, 375, 0, 543], [1, 375, 1, 527]],
            [[1, 500, 0, 400], [1, 875, 1, 390]],
        ])

    def test_spec_sweep_serial_parallel_identity(self):
        """Campaign identity driven end-to-end through specs."""
        from repro.analysis import convergence_spec_runner, run_sweep, spec_grid

        cells = spec_grid(
            self.base_spec(),
            [(f"n{n}", {"topology.args.n": n}) for n in (5, 6)],
            kwargs={"max_steps": 50_000},
        )
        serial = run_sweep(convergence_spec_runner, cells, seeds=[0, 1])
        parallel = run_sweep(
            convergence_spec_runner, cells, seeds=[0, 1], workers=2
        )
        assert serial.labels == parallel.labels
        assert serial.metrics == parallel.metrics
        assert np.array_equal(serial.values, parallel.values, equal_nan=True)

    def test_waiting_spec_runner_pins_historical_values(self):
        """The spec path gives the T2 values the retired hand-built
        ``(tree, params, seed)`` runner gave on the same cell."""
        from repro.analysis import run_sweep, spec_grid, waiting_spec_runner
        from repro.spec import ScenarioBuilder

        base = (
            ScenarioBuilder()
            .variant("selfstab", init="tokens")
            .topology("star", n=5)
            .params(k=1, l=1, cmax=2)
            .workload("saturated", need=1, cs_duration=1)
            .scheduler("random")
            .spec()
        )
        cells = spec_grid(
            base, [("star-n5", {})], kwargs={"measure_steps": 8_000}
        )
        res = run_sweep(waiting_spec_runner, cells, seeds=[0, 1])
        assert res.metrics == [
            "max_wait", "bound", "within_bound", "satisfied", "msgs_per_cs",
        ]
        assert np.array_equal(res.values, [[
            [7, 49, 1, 358, 7.545931758530184],
            [7, 49, 1, 359, 7.472584856396867],
        ]])
