"""Parallel campaigns: worker-count-independent merges, progress, failures.

The contract under test: at every worker count, ``run_sweep``/``fuzz``
produce results **byte-identical** to a one-shard reference kept here
— every grid point in one loop, every walk in one shard-function call
— across topologies and protocol variants, and they report progress
and failures by one rule.  ``explore`` with ``workers=N`` (the
owner-computes explorer) reports the serial counts whenever the search
runs to closure or the depth bound, and stops early at level
granularity: its early-stop counts are the full stopping level's,
identical at every worker count.
"""

import mmap
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from reference_explore import explore_reference
from repro import KLParams, RandomScheduler, SaturatedWorkload
from repro.analysis import (
    CampaignError,
    FuzzResult,
    ShardProgress,
    SweepCell,
    explore,
    fuzz,
    run_sweep,
)
from repro.analysis.parallel import (
    WorkerPool,
    _shard_ranges,
    fork_available,
    parallel_map,
)
from repro.analysis.invariants import safety_ok
from repro.core.naive import build_naive_engine
from repro.core.priority import build_priority_engine
from repro.core.pusher import build_pusher_engine
from repro.topology import paper_example_tree, path_tree, star_tree

#: ``import repro.analysis.fuzz`` binds the function the package
#: re-exports under its module's name; the module is in sys.modules
fuzz_module = sys.modules["repro.analysis.fuzz"]

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="parallel campaigns need the fork start method"
)

BUILDERS = {
    "naive": build_naive_engine,
    "pusher": build_pusher_engine,
    "priority": build_priority_engine,
}

TOPOLOGIES = {
    "path": lambda n: path_tree(n),
    "star": lambda n: star_tree(n),
    "paper": lambda n: paper_example_tree(),  # fixed 8-process example
}


def small_engine(topology: str, variant: str, *, n=3, k=1, l=1, cs=0):
    """A toy instance in the exhaustive-exploration regime."""
    tree = TOPOLOGIES[topology](n)
    params = KLParams(k=k, l=l, n=tree.n)
    apps = [SaturatedWorkload(need=1, cs_duration=cs) for _ in range(tree.n)]
    return BUILDERS[variant](tree, params, apps), params


def mid_engine(topology: str, variant: str, *, n=8, k=2, l=3):
    """A fuzz-regime instance (too big to explore exhaustively)."""
    tree = TOPOLOGIES[topology](n)
    params = KLParams(k=k, l=l, n=tree.n)
    apps = [
        SaturatedWorkload(need=1 + p % params.k, cs_duration=2)
        for p in range(tree.n)
    ]
    return BUILDERS[variant](tree, params, apps), params


def fuzz_fields(r):
    return (r.walks, r.depth, r.seed, r.steps_total, r.walk_lengths,
            r.violation, r.schedule)


def explore_fields(r):
    return (r.configurations, r.transitions, r.exhausted, r.violation,
            r.frontier_sizes)


def one_shard_fuzz(eng, inv, *, walks, depth, seed):
    """The fuzz reference: every walk in one shard-function call, and the
    campaign result rebuilt from its hit (every walk before the
    violating one ran all ``depth`` steps)."""
    work = eng.fork()
    work.clear_observers()
    hit = fuzz_module.run_walk_range(
        (work, work.save_state(), inv, depth, seed), 0, walks
    )
    if hit is None:
        return FuzzResult(walks, depth, seed, walks * depth, [depth] * walks)
    w, step, msg, schedule = hit
    return FuzzResult(walks, depth, seed, w * depth + step,
                      [depth] * w + [step], (w, step, msg), schedule)


def one_loop_sweep(runner, cells, seeds):
    """The sweep reference, as ``(labels, metrics, values)``: every grid
    point in one cell-major loop; metric names from its first
    non-``None`` result, NaN for a missing run or metric."""
    seeds = list(seeds)
    flat = [cell.run(runner, seed=s) for cell in cells for s in seeds]
    metrics = next(list(out) for out in flat if out is not None)
    values = np.full((len(cells), len(seeds), len(metrics)), np.nan)
    for pos, out in enumerate(flat):
        if out is None:
            continue
        i, j = divmod(pos, len(seeds))
        for m, name in enumerate(metrics):
            if out.get(name) is not None:
                values[i, j, m] = float(out[name])
    return [cell.label for cell in cells], metrics, values


def _cs_runner(seed, variant, tree, params, steps):
    """Sweep runner: CS throughput of a variant under a seeded scheduler."""
    apps = [
        SaturatedWorkload(need=1 + p % params.k, cs_duration=2)
        for p in range(tree.n)
    ]
    eng = BUILDERS[variant](
        tree, params, apps, RandomScheduler(tree.n, seed=seed)
    )
    eng.run(steps)
    return {"cs": float(eng.total_cs_entries),
            "msgs": float(sum(eng.sent_by_type.values()))}


class TestShardRanges:
    def test_concatenates_to_range(self):
        for total in (0, 1, 5, 17, 64):
            for shards in (1, 2, 3, 7, 100):
                ranges = _shard_ranges(total, shards)
                flat = [i for lo, hi in ranges for i in range(lo, hi)]
                assert flat == list(range(total))

    def test_balanced_within_one(self):
        sizes = [hi - lo for lo, hi in _shard_ranges(17, 4)]
        assert max(sizes) - min(sizes) <= 1 and sum(sizes) == 17


class TestFuzzDeterminism:
    @pytest.mark.parametrize("topology", ["paper", "star"])
    @pytest.mark.parametrize("variant", ["naive", "priority"])
    def test_clean_campaign_identical(self, topology, variant):
        eng, params = mid_engine(topology, variant)

        def inv(e):
            return safety_ok(e, params) or "safety violated"

        ref = one_shard_fuzz(eng, inv, walks=8, depth=50, seed=7)
        for workers in (1, 2, 4):
            par = fuzz(eng, inv, walks=8, depth=50, seed=7, workers=workers)
            assert fuzz_fields(par) == fuzz_fields(ref)
        assert ref.ok and ref.steps_total == 8 * 50

    @pytest.mark.parametrize("topology", ["paper", "path"])
    @pytest.mark.parametrize("variant", ["priority", "pusher"])
    def test_counterexample_identical(self, topology, variant):
        """A genuinely-false invariant yields the same minimal
        counterexample (walk, step, schedule) at any worker count."""
        eng, params = mid_engine(topology, variant)
        def inv(e):
            return e.total_cs_entries == 0 or "a process entered its CS"

        ref = one_shard_fuzz(eng, inv, walks=6, depth=300, seed=0)
        assert not ref.ok
        for workers in (1, 2, 4):
            par = fuzz(eng, inv, walks=6, depth=300, seed=0, workers=workers)
            assert fuzz_fields(par) == fuzz_fields(ref)

    def test_initial_violation_short_circuits(self):
        eng, params = mid_engine("paper", "priority")
        res = fuzz(eng, lambda e: "bad from the start", walks=4, depth=10,
                   seed=0, workers=4)
        assert res.violation == (0, 0, "bad from the start")
        assert res.schedule == [] and res.steps_total == 0

    def test_input_engine_never_mutated(self):
        eng, params = mid_engine("paper", "priority")
        before = eng.save_state()
        fuzz(eng, lambda e: True, walks=4, depth=30, seed=1, workers=2)
        after = eng.save_state()
        assert before.procs == after.procs and before.chans == after.chans


class TestExploreDeterminism:
    @pytest.mark.parametrize("topology", ["path", "star"])
    @pytest.mark.parametrize("variant", ["naive", "priority"])
    def test_state_counts_identical(self, topology, variant):
        eng, params = small_engine(topology, variant)

        def inv(e):
            return safety_ok(e, params)

        serial = explore(eng, inv, max_depth=5)
        par = explore(eng, inv, max_depth=5, workers=4)
        assert explore_fields(par) == explore_fields(serial)
        assert serial.configurations > 1

    @pytest.mark.parametrize("variant", ["naive", "priority"])
    def test_forced_pool_path_identical(self, variant):
        """Every level of a W >= 2 search runs on the forked worker pool
        (there is no in-process shortcut for small frontiers), and the
        result is serial's."""
        eng, params = small_engine("path", variant)

        def inv(e):
            return safety_ok(e, params)

        serial = explore(eng, inv, max_depth=5)
        events = []
        par = explore(eng, inv, max_depth=5, workers=3,
                      progress=events.append)
        assert explore_fields(par) == explore_fields(serial)
        levels = [ev.note for ev in events if ev.note.startswith("level:")]
        assert len(levels) == len(serial.frontier_sizes)

    @staticmethod
    def sharded_runs(eng, inv, **kw):
        """The same search at W = 2, 3, 4 and owner-computes at W = 1."""
        runs = [explore(eng, inv, workers=w, **kw) for w in (2, 3, 4)]
        runs.append(explore(eng, inv, distributed=True, workers=1, **kw))
        return runs

    def test_violation_identical(self):
        """Violation depth and message are serial's; the counts are those
        of the whole violating level, at every worker count."""
        eng, params = small_engine("path", "naive")

        def inv(e):
            return e.total_cs_entries == 0 or "entered CS"

        serial = explore(eng, inv, max_depth=6)
        assert not serial.ok
        depth = serial.violation[0]
        # the violating level expanded in full, nothing deeper
        level = explore(eng, lambda e: True, max_depth=depth)
        for par in self.sharded_runs(eng, inv, max_depth=6):
            assert par.violation == serial.violation
            assert not par.exhausted
            assert (par.configurations, par.transitions,
                    par.frontier_sizes) == (
                level.configurations, level.transitions,
                level.frontier_sizes,
            )
        assert level.configurations > serial.configurations

    def test_configuration_cap_identical(self):
        """A cap stop finishes the level the cap was reached in: the
        serial stop level, expanded in full, at every worker count."""
        eng, params = small_engine("star", "naive")

        def inv(e):
            return True

        serial = explore(eng, inv, max_depth=6, max_configurations=20)
        assert serial.configurations == 20 and not serial.exhausted
        level = explore(eng, inv, max_depth=len(serial.frontier_sizes))
        for par in self.sharded_runs(
            eng, inv, max_depth=6, max_configurations=20
        ):
            assert par.configurations >= 20
            assert not par.exhausted and par.violation is None
            assert (par.configurations, par.transitions,
                    par.frontier_sizes) == (
                level.configurations, level.transitions,
                level.frontier_sizes,
            )

    def test_min_frontier_public_kwarg(self):
        """The pool-dispatch threshold is gone from the public API: every
        W >= 2 level is sharded, so there is nothing to tune."""
        eng, params = small_engine("star", "priority")
        with pytest.raises(TypeError, match="min_frontier"):
            explore(eng, lambda e: True, max_depth=5, workers=2,
                    min_frontier=1)

    def test_in_process_levels_report_progress(self):
        """The single in-process shard (distributed, W=1) reports one
        event per level, like the forked shards do."""
        eng, params = small_engine("path", "naive")
        events = []
        res = explore(eng, lambda e: True, max_depth=4, distributed=True,
                      workers=1, progress=events.append)
        assert events and all(
            ev.campaign == "explore-owner" for ev in events
        )
        notes = [ev.note for ev in events]
        assert notes == [
            f"level: depth {d}: {new} new, {total} total"
            for d, new, total in zip(
                range(1, 5), res.frontier_sizes,
                np.cumsum([1] + res.frontier_sizes)[1:],
            )
        ]

    def test_workers_require_bfs_snapshot(self):
        eng, params = small_engine("path", "naive")
        with pytest.raises(ValueError, match="bfs"):
            explore(eng, lambda e: True, strategy="dfs", workers=2)
        # the snapshot-codec requirement went with the codec choice
        with pytest.raises(TypeError, match="method"):
            explore(eng, lambda e: True, method="fork", workers=2)

    def test_bad_digest_rejected(self):
        eng, params = small_engine("path", "naive")
        with pytest.raises(TypeError, match="digest"):
            explore(eng, lambda e: True, workers=2, digest="sha0")

    @pytest.mark.parametrize("digest", ["packed", "tuple"])
    def test_both_digests_identical_to_serial(self, digest):
        """W=3 visits the space the serial reference search keyed by
        either digest visits."""
        eng, params = small_engine("star", "naive")

        def inv(e):
            return safety_ok(e, params)

        serial = explore_reference(eng, inv, max_depth=5, digest=digest)
        par = explore(eng, inv, max_depth=5, workers=3)
        assert explore_fields(par) == explore_fields(serial)

    @pytest.mark.parametrize("method", ["delta", "snapshot"])
    def test_both_methods_identical_to_serial(self, method):
        """W=2 and W=3 match the serial search on the production delta
        codec and on the retained full-snapshot reference, so a delta
        codec bug stays cross-checkable in parallel."""
        eng, params = small_engine("star", "naive")

        def inv(e):
            return safety_ok(e, params)

        if method == "delta":
            serial = explore(eng, inv, max_depth=5)
        else:
            serial = explore_reference(eng, inv, max_depth=5, method=method)
        for workers in (2, 3):
            par = explore(eng, inv, max_depth=5, workers=workers)
            assert explore_fields(par) == explore_fields(serial)

    def test_fork_method_rejected(self):
        eng, params = small_engine("path", "naive")
        with pytest.raises(TypeError, match="method"):
            explore(eng, lambda e: True, workers=2, method="fork")


@pytest.mark.usefixtures("time_limit")
class TestPersistentPool:
    """The owner-computes worker pool: forked once per campaign, alive
    until the campaign ends, failing as a whole."""

    def test_pool_created_exactly_once_across_levels(self, monkeypatch):
        """One pool per owner campaign, on the shared worker pool."""
        created = []
        real = WorkerPool.__init__

        def counting(pool, make_handler, workers):
            created.append(workers)
            real(pool, make_handler, workers)

        monkeypatch.setattr(WorkerPool, "__init__", counting)
        eng, params = small_engine("star", "naive")

        def inv(e):
            return safety_ok(e, params)

        serial = explore(eng, inv, max_depth=6)
        par = explore(eng, inv, max_depth=6, workers=2)
        assert explore_fields(par) == explore_fields(serial)
        assert created == [2], "expected exactly one pool for the campaign"
        assert len(serial.frontier_sizes) >= 4, "needs several pooled levels"

    def test_worker_exception_surfaces_as_campaign_error(self):
        import multiprocessing

        eng, params = small_engine("star", "naive")
        before = {p.pid for p in multiprocessing.active_children()}

        def inv(e):
            if e.now > 2:
                raise RuntimeError("invariant exploded")
            return True

        with pytest.raises(CampaignError) as exc:
            explore(eng, inv, max_depth=6, workers=2)
        failures = exc.value.failures
        assert failures and "invariant exploded" in failures[0].error
        assert "RuntimeError" in failures[0].traceback
        assert [p for p in multiprocessing.active_children()
                if p.pid not in before] == []

    def test_pool_survives_alternating_level_sizes(self):
        """Levels that grow past and shrink below the shard count (a
        shard idles at a one-state level, works at the next) keep
        serial's counts through to closure."""
        eng, params = small_engine("star", "naive", n=4, l=2)

        def inv(e):
            return safety_ok(e, params)

        serial = explore(eng, inv, max_depth=20)
        sizes = serial.frontier_sizes
        assert serial.exhausted and max(sizes) > 2 and 1 in sizes[1:], (
            "scenario must grow and shrink for this pin to bite"
        )
        par = explore(eng, inv, max_depth=20, workers=2)
        assert explore_fields(par) == explore_fields(serial)


class TestSweepDeterminism:
    @pytest.mark.parametrize("topology", ["path", "star"])
    def test_tables_identical_across_variants(self, topology):
        """One sweep over two protocol variants x two sizes: the value
        array is byte-identical at any worker count."""
        cells = []
        for variant in ("naive", "priority"):
            for n in (4, 6):
                tree = TOPOLOGIES[topology](n)
                params = KLParams(k=2, l=3, n=tree.n)
                cells.append(SweepCell(
                    f"{variant}-{topology}{n}",
                    {"variant": variant, "tree": tree, "params": params,
                     "steps": 800},
                ))
        labels, metrics, values = one_loop_sweep(_cs_runner, cells, range(3))
        for workers in (1, 2, 4):
            par = run_sweep(_cs_runner, cells, seeds=range(3), workers=workers)
            assert par.labels == labels
            assert par.metrics == metrics
            assert par.values.tobytes() == values.tobytes()

    def test_none_cells_and_metric_inference(self):
        """None results (missing cells) and metric inference from the
        first non-None result merge identically."""

        def runner(seed, idx):
            if idx == 0:
                return None  # entire first cell missing
            return {"a": idx * 10 + seed, "b": seed}

        cells = [SweepCell(f"c{i}", {"idx": i}) for i in range(4)]
        _, metrics, values = one_loop_sweep(runner, cells, range(2))
        assert metrics == ["a", "b"]
        for workers in (1, 3):
            par = run_sweep(runner, cells, seeds=range(2), workers=workers)
            assert par.metrics == metrics
            assert par.values.tobytes() == values.tobytes()
            assert np.isnan(par.values[0]).all()

    def test_all_none_raises_in_both_modes(self):
        cells = [SweepCell("c", {})]
        with pytest.raises(ValueError, match="no metrics"):
            run_sweep(lambda seed: None, cells, seeds=[0])
        with pytest.raises(ValueError, match="no metrics"):
            run_sweep(lambda seed: None, cells, seeds=[0], workers=2)


class TestProgressAndFailures:
    def test_progress_events_cover_all_shards(self):
        events: list[ShardProgress] = []
        eng, params = mid_engine("paper", "priority")
        fuzz(eng, lambda e: True, walks=8, depth=20, seed=0, workers=2,
             progress=events.append)
        assert events, "expected progress events"
        assert all(ev.campaign == "fuzz" for ev in events)
        assert sorted(ev.shard for ev in events) == list(range(events[0].shards))
        assert events[-1].done == events[-1].total == len(events)

    def test_worker_exception_surfaces_as_campaign_error(self):
        def runner(seed, boom):
            if seed == 1:
                raise RuntimeError("cell exploded")
            return {"m": 1.0}

        cells = [SweepCell("c", {"boom": True})]
        with pytest.raises(CampaignError) as exc:
            run_sweep(runner, cells, seeds=range(4), workers=2)
        failures = exc.value.failures
        assert failures and "cell exploded" in failures[0].error
        assert "RuntimeError" in failures[0].traceback

    def test_one_worker_reports_every_shard(self):
        """The default single in-process worker reports one event per
        shard, in shard order, as a forked pool does."""
        events: list[ShardProgress] = []
        run_sweep(lambda seed: {"m": float(seed)}, [SweepCell("c", {})],
                  seeds=range(8), progress=events.append)
        eng, params = mid_engine("paper", "priority")
        fuzz(eng, lambda e: True, walks=8, depth=20, seed=0,
             progress=events.append)
        assert [(ev.campaign, ev.shard, ev.shards, ev.done) for ev in events] == [
            (campaign, s, 4, s + 1) for campaign in ("sweep", "fuzz")
            for s in range(4)
        ]
        assert events[0].note == "runs 1-2 of 8 done"
        assert events[-1].note == "walks 6-7 of 8: clean"

    def test_one_worker_raising_runner_is_a_campaign_error(self):
        """A runner or invariant that raises in the default single
        in-process worker fails the campaign as a CampaignError naming
        its shard, as it does on a forked pool."""

        def runner(seed):
            if seed == 1:
                raise RuntimeError("cell exploded")
            return {"m": 1.0}

        with pytest.raises(CampaignError) as exc:
            run_sweep(runner, [SweepCell("c", {})], seeds=range(4))
        [failure] = exc.value.failures
        assert failure.shard == 1 and "cell exploded" in failure.error
        assert "RuntimeError" in failure.traceback

        def inv(e):
            if e.now > 5:
                raise RuntimeError("invariant exploded")
            return True

        eng, params = mid_engine("paper", "priority")
        with pytest.raises(CampaignError) as exc:
            fuzz(eng, inv, walks=4, depth=20, seed=0)
        assert [f.shard for f in exc.value.failures] == [0, 1, 2, 3]
        assert "invariant exploded" in exc.value.failures[0].error

    def test_parallel_map_generic_roundtrip(self):
        out = parallel_map(
            "demo",
            _double_shard,
            10,
            [(i,) for i in range(5)],
            workers=3,
        )
        assert out == [0, 10, 20, 30, 40]

    @pytest.mark.usefixtures("time_limit")
    def test_early_stop_winds_down_without_signals(self, monkeypatch):
        """A stop() starts no further shard and ends the pool without a
        signal: idle workers read None, a busy one finishes its shard and
        finds its pipe closed; each exits on its own and none outlives
        the call."""
        pools = []
        real = WorkerPool.close

        def spy(pool):
            pools.append(pool)
            real(pool)

        monkeypatch.setattr(WorkerPool, "close", spy)
        before = {p.pid for p in multiprocessing.active_children()}
        ran = np.frombuffer(mmap.mmap(-1, 40), dtype=np.uint8)  # shared
        out = parallel_map(
            "demo", _mark_shard, ran, [(i,) for i in range(40)],
            workers=2, stop=lambda r: r == 3,
        )
        [pool] = pools
        assert [p.exitcode for p in pool.procs] == [0, 0], (
            "a worker was signalled"
        )
        assert out[:4] == [0, 1, 2, 3] and out[4:] == [None] * 36
        assert ran[:4].all() and not ran[-8:].any(), (
            "shards queued behind the stop must be skipped"
        )
        assert [p for p in multiprocessing.active_children()
                if p.pid not in before] == []


@pytest.mark.usefixtures("time_limit")
class TestKilledWorkers:
    """A SIGKILLed sweep or fuzz worker fails the campaign as a
    CampaignError naming its shard, instead of leaving the parent
    waiting for a reply that never comes, and no worker outlives the
    call.  (Killed owner-explorer workers: test_distributed.py.)"""

    @staticmethod
    def children():
        return {p.pid for p in multiprocessing.active_children()}

    @staticmethod
    def assert_lost(exc, shard):
        [failure] = exc.failures
        assert (failure.shard, failure.error) == (
            shard, "worker exited without replying"
        )
        assert f"shard {shard}: worker exited without replying" in str(exc)

    def test_sweep_worker_killed_mid_shard(self):
        parent = os.getpid()

        def runner(seed):
            if seed == 5 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)  # 2nd point of shard 2
            return {"m": float(seed)}

        before = self.children()
        with pytest.raises(CampaignError) as exc:
            run_sweep(runner, [SweepCell("c", {})], seeds=range(16),
                      workers=2)
        self.assert_lost(exc.value, 2)
        assert self.children() - before == set()

    def test_fuzz_worker_killed_mid_shard(self, monkeypatch):
        real = fuzz_module.run_walk_range

        def dying(payload, lo, hi):
            if lo == 4:  # shard 2 of 8: one walk in, then its worker dies
                real(payload, lo, lo + 1)
                os.kill(os.getpid(), signal.SIGKILL)
            return real(payload, lo, hi)

        monkeypatch.setattr(fuzz_module, "run_walk_range", dying)
        eng, params = mid_engine("paper", "priority")
        before = self.children()
        with pytest.raises(CampaignError) as exc:
            fuzz(eng, lambda e: True, walks=16, depth=20, seed=0, workers=2)
        self.assert_lost(exc.value, 2)
        assert self.children() - before == set()

    @pytest.mark.skipif(
        not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
        reason="reads worker pids from /proc/PID/task/PID/children",
    )
    def test_cli_sweep_with_a_killed_worker_exits_2(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src"),
             env.get("PYTHONPATH", "")]
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", "--experiment",
             "converge", "--tree", "random", "--sizes", "8,16,32,64",
             "--seeds", "8", "--steps", "150000", "--workers", "2"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        children = f"/proc/{proc.pid}/task/{proc.pid}/children"
        workers = []
        try:
            deadline = time.monotonic() + 60
            while (len(workers) < 2 and proc.poll() is None
                   and time.monotonic() < deadline):
                with open(children) as fh:
                    workers = [int(pid) for pid in fh.read().split()]
                time.sleep(0.02)
            assert len(workers) == 2, "the campaign never forked its workers"
            os.kill(workers[0], signal.SIGKILL)
            _, err = proc.communicate(timeout=90)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert proc.returncode == 2, err
        [line] = err.splitlines()
        # killed mid-shard, or (rarely) before its first shard was sent
        assert re.fullmatch(
            r"error: 1 worker shard\(s\) failed in 'sweep': shard \d+: "
            r"worker (exited without replying|unreachable: .*)", line
        ), line
        assert not any(os.path.exists(f"/proc/{w}") for w in workers)


def _double_shard(payload, i):
    return payload * i


def _mark_shard(ran, i):
    ran[i] = 1
    time.sleep(0.05)
    return i
