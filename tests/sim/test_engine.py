"""Engine step semantics, timers, counters, and adversarial control."""

import pytest

from repro.core.messages import ResT
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.observers import TraceObserver
from repro.sim.process import Process
from repro.sim.scheduler import RoundRobinScheduler
from repro.sim.trace import Trace
from repro.topology import path_tree


class Echo(Process):
    """Forwards everything to channel 0; counts local ticks."""

    def __init__(self, pid, degree):
        super().__init__(pid, degree)
        self.received = []
        self.ticks = 0

    def on_message(self, q, msg):
        self.received.append((q, msg))

    def on_local(self):
        self.ticks += 1


def make_pair():
    tree = path_tree(2)
    net = Network.from_tree(tree)
    procs = [Echo(0, 1), Echo(1, 1)]
    eng = Engine(net, procs, RoundRobinScheduler(2))
    return eng, net, procs


class TestStepping:
    def test_one_message_per_step(self):
        eng, net, procs = make_pair()
        net.out_channel(0, 0).push_initial(ResT())
        net.out_channel(0, 0).push_initial(ResT())
        eng.step_pid(1)
        assert len(procs[1].received) == 1
        eng.step_pid(1)
        assert len(procs[1].received) == 2

    def test_local_runs_even_without_message(self):
        eng, _, procs = make_pair()
        eng.step_pid(0)
        assert procs[0].ticks == 1
        assert procs[0].received == []

    def test_now_advances(self):
        eng, _, _ = make_pair()
        eng.run(5)
        assert eng.now == 5

    def test_scheduler_drives_step(self):
        eng, _, procs = make_pair()
        eng.run(4)  # round robin: 0,1,0,1
        assert procs[0].ticks == 2 and procs[1].ticks == 2

    def test_channel_scan_rotates(self):
        # A process with two busy incoming channels must alternate them.
        tree = path_tree(3)
        net = Network.from_tree(tree)
        procs = [Echo(p, tree.degree(p)) for p in range(3)]
        eng = Engine(net, procs, RoundRobinScheduler(3))
        for _ in range(2):
            net.out_channel(0, 0).push_initial(ResT())  # to 1 on ch 0
            net.out_channel(2, 0).push_initial(ResT())  # to 1 on ch 1
        for _ in range(4):
            eng.step_pid(1)
        labels = [q for q, _ in procs[1].received]
        assert sorted(labels) == [0, 0, 1, 1]
        assert labels[0] != labels[1]  # alternation, not starvation


class TestChannelOverride:
    def test_explicit_channel(self):
        eng, net, procs = make_pair()
        net.out_channel(0, 0).push_initial(ResT())
        eng.step_pid(1, 0)
        assert len(procs[1].received) == 1

    def test_no_receive_step(self):
        eng, net, procs = make_pair()
        net.out_channel(0, 0).push_initial(ResT())
        eng.step_pid(1, -1)
        assert procs[1].received == []
        assert procs[1].ticks == 1

    def test_empty_channel_is_noop_receive(self):
        eng, _, procs = make_pair()
        eng.step_pid(1, 0)
        assert procs[1].received == []


class TestRunUntil:
    def test_stops_at_predicate(self):
        eng, _, _ = make_pair()
        assert eng.run_until(lambda e: e.now >= 7, max_steps=100)
        assert eng.now == 7

    def test_gives_up(self):
        eng, _, _ = make_pair()
        assert not eng.run_until(lambda e: False, max_steps=10)
        assert eng.now == 10

    def test_immediate_true_runs_nothing(self):
        eng, _, _ = make_pair()
        assert eng.run_until(lambda e: True, max_steps=10)
        assert eng.now == 0


class TestTimerAndCounters:
    def test_timeout_fires_after_interval(self):
        tree = path_tree(2)
        net = Network.from_tree(tree)

        class TimerProc(Echo):
            def __init__(self, pid, degree):
                super().__init__(pid, degree)
                self.fired = 0

            def on_local(self):
                super().on_local()
                if self.ctx.timeout():
                    self.fired += 1
                    self.ctx.restart_timer()

        procs = [TimerProc(0, 1), Echo(1, 1)]
        eng = Engine(net, procs, RoundRobinScheduler(2), timeout_interval=10)
        eng.run(50)
        # process 0 steps 25 times over 50 engine steps; interval 10
        assert 3 <= procs[0].fired <= 5

    def test_bump_counters(self):
        eng, _, procs = make_pair()
        procs[0].ctx.bump("enter_cs")
        procs[0].ctx.bump("enter_cs")
        procs[1].ctx.bump("enter_cs")
        assert eng.counters["enter_cs"] == [2, 1]
        assert eng.total_cs_entries == 3
        assert eng.cs_entries(0) == 2
        assert eng.cs_entries() == 3

    def test_sent_by_type(self):
        eng, _, procs = make_pair()
        procs[0].send(0, ResT())
        assert eng.sent_by_type["ResT"] == 1

    def test_pid_mismatch_rejected(self):
        tree = path_tree(2)
        net = Network.from_tree(tree)
        with pytest.raises(ValueError):
            Engine(net, [Echo(1, 1), Echo(0, 1)], None)


class TestTracing:
    def test_send_recv_traced(self):
        tree = path_tree(2)
        net = Network.from_tree(tree)
        procs = [Echo(0, 1), Echo(1, 1)]
        trace = Trace()
        eng = Engine(net, procs, RoundRobinScheduler(2))
        eng.add_observer(TraceObserver(trace))
        procs[0].send(0, ResT())
        eng.step_pid(1)
        assert trace.count("send") == 1
        assert trace.count("recv") == 1


class TestBatchedKernel:
    """The batched run loop and the per-step general loop are one engine."""

    def _build(self):
        from repro import KLParams, RandomScheduler, SaturatedWorkload
        from repro.core.selfstab import build_selfstab_engine
        from repro.topology import random_tree

        tree = random_tree(8, seed=6)
        params = KLParams(k=2, l=3, n=8)
        apps = [SaturatedWorkload(1 + p % 2, cs_duration=2) for p in range(8)]
        return build_selfstab_engine(
            tree, params, apps, RandomScheduler(8, seed=4), init="tokens"
        )

    @staticmethod
    def _state(engine):
        st = engine.save_state()
        return tuple(getattr(st, f) for f in st.__slots__)

    @staticmethod
    def _reset_uids():
        # token uids are minted from a process-global counter; pin it so
        # two sequential replays of one execution mint identical ids
        import itertools

        import repro.core.messages as messages

        messages._uid_counter = itertools.count(10_000)

    def test_run_equals_step_loop(self):
        # fork shares token uids, so the two executions are comparable
        batched = self._build()
        stepped = batched.fork()
        self._reset_uids()
        batched.run(5_000)
        self._reset_uids()
        for _ in range(5_000):
            stepped.step()
        assert self._state(batched) == self._state(stepped)

    def test_run_in_uneven_chunks_is_identical(self):
        whole = self._build()
        chunked = whole.fork()
        self._reset_uids()
        whole.run(4_100)
        self._reset_uids()
        for chunk in (1, 2, 4096, 1):
            chunked.run(chunk)
        assert self._state(whole) == self._state(chunked)

    def test_function_scheduler_uses_general_loop(self):
        from repro.sim.scheduler import FunctionScheduler

        eng, _, procs = make_pair()
        # reacts to live state: only steps pid 1 until it heard something
        eng.scheduler = FunctionScheduler(
            2, lambda now: 0 if procs[1].received else 1
        )
        eng.network.out_channel(0, 0).push_initial(ResT())
        eng.run(3)
        assert len(procs[1].received) == 1
        assert procs[0].ticks == 2  # switched to 0 right after delivery

    def test_run_zero_steps(self):
        eng, _, _ = make_pair()
        eng.run(0)
        assert eng.now == 0


class TestRunUntilChunking:
    def test_check_every_spanning_end(self):
        eng, _, _ = make_pair()
        assert not eng.run_until(lambda e: False, max_steps=10, check_every=3)
        assert eng.now == 10

    def test_predicate_checked_only_at_multiples(self):
        eng, _, _ = make_pair()
        seen = []
        eng.run_until(
            lambda e: seen.append(e.now) or e.now >= 9,
            max_steps=20,
            check_every=4,
        )
        assert seen == [0, 4, 8, 12]
        assert eng.now == 12


class TestCounterAccessors:
    def test_counter_reads_never_mutate(self):
        eng, _, procs = make_pair()
        assert eng.counter("enter_cs") == 0
        assert eng.counter("enter_cs", 1) == 0
        assert eng.counter_row("reset") == (0, 0)
        assert eng.counters == {}
        procs[0].ctx.bump("reset")
        assert eng.counter("reset") == 1
        assert eng.counter("reset", 0) == 1 and eng.counter("reset", 1) == 0
        assert list(eng.counters) == ["reset"]

    def test_message_counts_is_a_copy(self):
        eng, _, procs = make_pair()
        procs[0].send(0, ResT())
        counts = eng.message_counts()
        counts["ResT"] = 99
        assert eng.sent_by_type["ResT"] == 1


class TestRunUntilValidation:
    def test_check_every_must_be_positive(self):
        eng, _, _ = make_pair()
        with pytest.raises(ValueError):
            eng.run_until(lambda e: True, max_steps=10, check_every=0)
        with pytest.raises(ValueError):
            eng.run_until(lambda e: True, max_steps=10, check_every=-3)
