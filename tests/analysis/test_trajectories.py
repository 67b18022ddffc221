"""Token trajectory reconstruction from traces."""

import pytest

from repro import KLParams, RandomScheduler, SaturatedWorkload
from repro.analysis import stabilize
from repro.analysis.trajectories import lap_times, track_tokens
from repro.core.messages import PushT, ResT
from repro.core.selfstab import build_selfstab_engine
from repro.sim.observers import TraceObserver
from repro.sim.trace import Trace
from repro.topology import build_virtual_ring, paper_example_tree


@pytest.fixture(scope="module")
def traced_run():
    tree = paper_example_tree()
    params = KLParams(k=2, l=3, n=tree.n, cmax=2)
    apps = [SaturatedWorkload(1 + p % 2, cs_duration=2) for p in range(tree.n)]
    trace = Trace(keep=lambda e: e.kind == "recv")
    engine = build_selfstab_engine(
        tree, params, apps, RandomScheduler(tree.n, seed=5)
    )
    engine.add_observer(TraceObserver(trace))
    assert stabilize(engine, params)
    trace.events.clear()
    engine.run(40_000)
    return tree, params, engine, trace


class TestTrackTokens:
    def test_token_population_tracked(self, traced_run):
        tree, params, engine, trace = traced_run
        trajs = track_tokens(trace)
        kinds = {}
        for t in trajs.values():
            kinds[t.kind] = kinds.get(t.kind, 0) + 1
        # post-stabilization: exactly l resource + 1 pusher + 1 priority
        assert kinds["ResT"] == params.l
        assert kinds["PushT"] == 1
        assert kinds["PrioT"] == 1

    def test_trajectories_follow_ring_edges(self, traced_run):
        tree, params, engine, trace = traced_run
        ring = build_virtual_ring(tree)
        valid_edges = set(ring.channel_sequence())
        for traj in track_tokens(trace, kinds=(PushT,)).values():
            pids = traj.pids()
            for a, b in zip(pids, pids[1:]):
                assert (a, b) in valid_edges

    def test_pusher_visits_everyone(self, traced_run):
        tree, params, engine, trace = traced_run
        (pusher,) = track_tokens(trace, kinds=(PushT,)).values()
        for p in range(tree.n):
            assert pusher.visit_count(p) > 0

    def test_root_arrivals_are_per_subtree(self, traced_run):
        """The root appears deg(r) times per lap, so consecutive root
        arrivals are subtree traversals, not full laps."""
        tree, params, engine, trace = traced_run
        (pusher,) = track_tokens(trace, kinds=(PushT,)).values()
        gaps = lap_times(pusher, seam_pid=0)
        assert len(gaps) > 5
        assert all(g > 0 for g in gaps)

    def test_leaf_lap_times_cover_full_ring(self, traced_run):
        """A leaf appears exactly once per lap: gaps are true lap times
        and cannot beat the ring length (one step per hop minimum)."""
        tree, params, engine, trace = traced_run
        (pusher,) = track_tokens(trace, kinds=(PushT,)).values()
        laps = lap_times(pusher, seam_pid=2)  # leaf b
        assert len(laps) > 3
        assert min(laps) >= 2 * (tree.n - 1)

    def test_dwell_times(self, traced_run):
        tree, params, engine, trace = traced_run
        trajs = track_tokens(trace, kinds=(ResT,))
        for t in trajs.values():
            assert t.max_dwell() is None or t.max_dwell() >= 1
