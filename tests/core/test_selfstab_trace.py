"""Trace-level protocol observations (events, reset payloads)."""

from repro import KLParams, RandomScheduler, SaturatedWorkload
from repro.analysis import stabilize
from repro.core.selfstab import build_selfstab_engine
from repro.sim.faults import duplicate_random_token
from repro.sim.observers import TraceObserver
from repro.sim.trace import Trace
from repro.topology import paper_example_tree


def traced_engine(seed=3):
    tree = paper_example_tree()
    params = KLParams(k=2, l=3, n=tree.n, cmax=2)
    apps = [SaturatedWorkload(1 + p % 2, cs_duration=2) for p in range(tree.n)]
    trace = Trace(keep=lambda e: e.kind in
                  ("enter_cs", "exit_cs", "request", "reset", "timeout",
                   "hold_prio", "release_prio", "pushed"))
    eng = build_selfstab_engine(
        tree, params, apps, RandomScheduler(tree.n, seed=seed)
    )
    eng.add_observer(TraceObserver(trace))
    return eng, params, trace


class TestEvents:
    def test_cs_events_paired_and_ordered(self):
        eng, params, trace = traced_engine()
        assert stabilize(eng, params)
        eng.run(30_000)
        for p in range(8):
            evs = [e for e in trace.by_pid(p) if e.kind in ("enter_cs", "exit_cs")]
            kinds = [e.kind for e in evs]
            # strict alternation starting with enter
            for i, k in enumerate(kinds):
                assert k == ("enter_cs" if i % 2 == 0 else "exit_cs")

    def test_requests_precede_entries(self):
        eng, params, trace = traced_engine()
        assert stabilize(eng, params)
        eng.run(20_000)
        for p in range(8):
            reqs = [e.now for e in trace.by_pid(p) if e.kind == "request"]
            ents = [e.now for e in trace.by_pid(p) if e.kind == "enter_cs"]
            if ents:
                assert reqs and reqs[0] <= ents[0]

    def test_priority_hold_release_alternate(self):
        eng, params, trace = traced_engine()
        assert stabilize(eng, params)
        eng.run(40_000)
        for p in range(8):
            kinds = [e.kind for e in trace.by_pid(p)
                     if e.kind in ("hold_prio", "release_prio")]
            for a, b in zip(kinds, kinds[1:]):
                assert a != b  # strict alternation

    def test_reset_event_carries_census_payload(self):
        eng, params, trace = traced_engine(seed=4)
        assert stabilize(eng, params)
        duplicate_random_token(eng, seed=1)
        assert stabilize(eng, params, max_steps=1_000_000)
        resets = trace.of_kind("reset")
        assert resets
        payload = resets[-1].detail
        assert set(payload) == {"pt", "stoken", "ppr", "sprio", "spush"}
        assert payload["pt"] + payload["stoken"] > params.l

    def test_timeout_recorded_at_bootstrap(self):
        eng, params, trace = traced_engine(seed=5)
        eng.run(eng.timeout_interval * 3)
        assert trace.count("timeout", pid=0) >= 1
