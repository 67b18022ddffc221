"""The Theorem 2 proof's first half: a requester holding the priority
token is satisfied within l*(2n-3) CS entries by others.

Measured from traces: for every (hold_prio -> own enter_cs) interval,
count other processes' enter_cs events inside it.
"""

import pytest

from repro import KLParams, RandomScheduler, SaturatedWorkload
from repro.analysis import stabilize
from repro.analysis.metrics import priority_holder_bound
from repro.core.selfstab import build_selfstab_engine
from repro.sim.observers import TraceObserver
from repro.sim.trace import Trace
from repro.topology import paper_example_tree, path_tree, star_tree


def holder_waits(tree, k, l, seed=2, steps=120_000):
    params = KLParams(k=k, l=l, n=tree.n, cmax=2)
    apps = [SaturatedWorkload(1 + p % k, cs_duration=1) for p in range(tree.n)]
    trace = Trace(keep=lambda e: e.kind in ("hold_prio", "enter_cs", "release_prio"))
    engine = build_selfstab_engine(
        tree, params, apps, RandomScheduler(tree.n, seed=seed), init="tokens"
    )
    engine.add_observer(TraceObserver(trace))
    assert stabilize(engine, params)
    trace.events.clear()
    engine.run(steps)

    entries = [(e.now, e.pid) for e in trace.of_kind("enter_cs")]
    waits = []
    for pid in range(tree.n):
        evs = [e for e in trace.by_pid(pid)
               if e.kind in ("hold_prio", "enter_cs", "release_prio")]
        hold_at = None
        for e in evs:
            if e.kind == "hold_prio":
                hold_at = e.now
            elif e.kind == "enter_cs" and hold_at is not None:
                waits.append(sum(1 for (t, q) in entries
                                 if hold_at < t < e.now and q != pid))
                hold_at = None
            elif e.kind == "release_prio":
                # released without entering: the request was satisfied in
                # the same local step; interval closed by the enter event
                hold_at = None
    return waits, params


@pytest.mark.parametrize("treefn,n", [(path_tree, 6), (star_tree, 7)])
@pytest.mark.parametrize("k,l", [(1, 1), (2, 3)])
def test_priority_holder_within_intermediate_bound(treefn, n, k, l):
    tree = treefn(n)
    waits, params = holder_waits(tree, k, l)
    assert waits, "no holder intervals observed"
    bound = priority_holder_bound(params, n)
    assert max(waits) <= bound, (max(waits), bound)


def test_holder_bound_tighter_than_total_bound():
    tree = paper_example_tree()
    waits, params = holder_waits(tree, 2, 3)
    from repro.analysis.metrics import waiting_time_bound
    assert waits
    assert priority_holder_bound(params) < waiting_time_bound(params)
    assert max(waits) <= priority_holder_bound(params)
