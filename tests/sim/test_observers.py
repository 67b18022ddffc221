"""Observer layer: hook dispatch, zero-cost nulls, built-in observers."""

import pytest

from repro.core.messages import ResT
from repro.sim.channel import ChannelStats
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.observers import (
    ChannelStatsObserver,
    InvariantObserver,
    NullObserver,
    Observer,
    TraceObserver,
)
from repro.sim.process import Process
from repro.sim.scheduler import RoundRobinScheduler
from repro.sim.trace import Trace
from repro.topology import path_tree


class Echo(Process):
    def __init__(self, pid, degree):
        super().__init__(pid, degree)
        self.received = []

    def on_message(self, q, msg):
        self.received.append((q, msg))

    def on_local(self):
        pass


class Recorder(Observer):
    """Overrides every hook; logs the dispatch order."""

    def __init__(self):
        self.log = []

    def on_attach(self, engine):
        self.log.append(("attach", engine.n))

    def on_detach(self, engine):
        self.log.append(("detach", engine.n))

    def on_send(self, now, pid, label, msg):
        self.log.append(("send", now, pid, label))

    def on_receive(self, now, pid, label, msg):
        self.log.append(("recv", now, pid, label))

    def on_step(self, now, pid):
        self.log.append(("step", now, pid))

    def on_event(self, now, pid, kind, detail):
        self.log.append(("event", now, pid, kind))


def make_pair():
    tree = path_tree(2)
    net = Network.from_tree(tree)
    procs = [Echo(0, 1), Echo(1, 1)]
    eng = Engine(net, procs, RoundRobinScheduler(2))
    return eng, net, procs


class TestHookDispatch:
    def test_all_hooks_fire_in_order(self):
        eng, net, procs = make_pair()
        rec = eng.add_observer(Recorder())
        procs[0].send(0, ResT())
        eng.step_pid(1)
        procs[1].ctx.record("custom", 42)
        assert rec.log == [
            ("attach", 2),
            ("send", 0, 0, 0),
            ("recv", 0, 1, 0),
            ("step", 0, 1),
            ("event", 1, 1, "custom"),
        ]

    def test_remove_and_clear(self):
        eng, _, procs = make_pair()
        rec = eng.add_observer(Recorder())
        eng.remove_observer(rec)
        assert rec.log[-1] == ("detach", 2)
        procs[0].send(0, ResT())
        assert ("send", 0, 0, 0) not in rec.log
        a, b = eng.add_observer(Recorder()), eng.add_observer(Recorder())
        eng.clear_observers()
        assert eng.observers == ()
        assert a.log[-1] == ("detach", 2) and b.log[-1] == ("detach", 2)

    def test_remove_unattached_is_noop(self):
        eng, _, _ = make_pair()
        eng.remove_observer(Recorder())  # must not raise


class TestNullObserver:
    def test_registers_zero_hooks(self):
        eng, _, _ = make_pair()
        eng.add_observer(NullObserver())
        assert eng.observers != ()
        assert not eng._send_hooks
        assert not eng._recv_hooks
        assert not eng._step_hooks
        assert not eng._event_hooks

    def test_partial_observer_registers_only_overrides(self):
        class SendOnly(Observer):
            def on_send(self, now, pid, label, msg):
                pass

        eng, _, _ = make_pair()
        eng.add_observer(SendOnly())
        assert len(eng._send_hooks) == 1
        assert not eng._recv_hooks and not eng._step_hooks


class TestTraceObserver:
    def test_add_observer_records_into_given_trace(self):
        tr = Trace()
        eng, _, procs = make_pair()
        obs = eng.add_observer(TraceObserver(tr))
        assert obs.trace is tr
        procs[0].send(0, ResT())
        eng.step_pid(1)
        procs[1].ctx.record("tick")
        assert tr.count("send") == 1
        assert tr.count("recv") == 1
        assert tr.count("tick") == 1


class TestInvariantObserver:
    def test_first_violation_kept(self):
        eng, _, _ = make_pair()
        obs = eng.add_observer(
            InvariantObserver(lambda e: e.now < 3 or "too late")
        )
        eng.run(6)
        assert not obs.ok
        # the probe runs at the tail of each step, before the time
        # increment: the 4th step (pre-step now == 3) is the first hit
        assert obs.violation == (4, "too late")
        assert obs.violations == 3
        assert obs.checks == 6

    def test_every_and_false_verdict(self):
        eng, _, _ = make_pair()
        obs = eng.add_observer(InvariantObserver(lambda e: False, every=4))
        eng.run(8)
        assert obs.checks == 2
        assert obs.violation == (4, "invariant returned False")

    def test_every_validated(self):
        with pytest.raises(ValueError):
            InvariantObserver(lambda e: True, every=0)


class TestChannelStatsObserver:
    def test_totals_and_encoding_shared_with_codec(self):
        eng, net, procs = make_pair()
        obs = eng.add_observer(ChannelStatsObserver())
        for _ in range(3):
            procs[0].send(0, ResT())
        eng.step_pid(1)
        totals = obs.totals()
        assert isinstance(totals, ChannelStats)
        assert totals.sent == 3 and totals.delivered == 1
        assert totals.peak_occupancy == 3
        assert obs.in_flight() == 2
        per = obs.per_channel()
        for key, chan in net.channels.items():
            # the observer row is the stats section of the codec snapshot
            assert chan.snapshot()[1:] == per[key]
        assert obs.busiest(1) == [((0, 1), 3)]

    def test_detached_observer_raises(self):
        obs = ChannelStatsObserver()
        with pytest.raises(RuntimeError):
            obs.totals()


class TestObserverFreeKernel:
    def test_step_level_hooks_force_general_loop_equivalently(self):
        """A step-hooked engine must match the batched kernel step-for-step."""
        from repro import KLParams, RandomScheduler, SaturatedWorkload
        from repro.core.priority import build_priority_engine
        from repro.topology import random_tree

        def build():
            tree = random_tree(7, seed=3)
            params = KLParams(k=2, l=3, n=7)
            apps = [SaturatedWorkload(1, cs_duration=1) for _ in range(7)]
            return build_priority_engine(
                tree, params, apps, RandomScheduler(7, seed=5)
            )

        fast = build()
        slow = build()
        counted = slow.add_observer(
            InvariantObserver(lambda e: True)  # on_step hook: general loop
        )
        fast.run(4_000)
        slow.run(4_000)
        assert counted.checks == 4_000
        # both engines were built back-to-back, so uids differ; compare
        # uid-free canonical digests plus the counter state
        from repro.analysis import canonical_digest

        assert canonical_digest(fast) == canonical_digest(slow)
        assert fast.counters == slow.counters
        assert fast.sent_by_type == slow.sent_by_type
