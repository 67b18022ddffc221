"""The controller: counter-flushing DFS circulation (Lemma 1)."""

from repro import KLParams, RandomScheduler
from repro.core.messages import Ctrl
from repro.core.selfstab import build_selfstab_engine
from repro.sim.observers import TraceObserver
from repro.sim.trace import Trace
from repro.topology import build_virtual_ring, path_tree
from tests.conftest import make_params, saturated_engine


class TestBootstrap:
    def test_timeout_launches_controller(self, paper_tree):
        params = make_params(paper_tree)
        engine, _ = saturated_engine(paper_tree, params)
        root = engine.process(0)
        engine.run(engine.timeout_interval * 3)
        assert engine.counters["timeout"][0] >= 1
        assert root.circulations >= 1

    def test_root_creates_tokens_on_first_census(self, paper_tree):
        params = make_params(paper_tree)
        engine, _ = saturated_engine(paper_tree, params)
        root = engine.process(0)
        engine.run_until(lambda e: root.circulations >= 2, 200_000, check_every=32)
        assert sum(engine.counters["create_rest"]) == params.l
        assert sum(engine.counters["create_push"]) == 1
        assert sum(engine.counters["create_prio"]) == 1


class TestDfsOrder:
    def test_controller_follows_virtual_ring(self, paper_tree):
        """Once stabilized, a circulation's ctrl receptions follow the Euler tour."""
        from repro.analysis import stabilize
        params = make_params(paper_tree)
        trace = Trace(keep=lambda e: e.kind == "recv" and isinstance(e.detail[1], Ctrl))
        apps = [None] * paper_tree.n
        engine = build_selfstab_engine(
            paper_tree, params, apps, RandomScheduler(paper_tree.n, seed=2)
        )
        engine.add_observer(TraceObserver(trace))
        assert stabilize(engine, params)
        root = engine.process(0)
        trace.events.clear()
        target = root.circulations + 2
        engine.run_until(lambda e: root.circulations >= target, 400_000, check_every=16)
        ring = build_virtual_ring(paper_tree)
        expected = [s.next_pid for s in ring.stops]  # receivers in tour order
        got = [e.pid for e in trace.events]
        # find one aligned full circulation in the received sequence
        text, pat = "".join(map(str, got)), "".join(map(str, expected))
        assert pat in text

    def test_succ_wraps_cleanly(self, paper_tree):
        from repro.analysis import stabilize
        params = make_params(paper_tree)
        engine, _ = saturated_engine(paper_tree, params)
        assert stabilize(engine, params)
        root = engine.process(0)
        assert 0 <= root.succ < paper_tree.degree(0)


class TestCounterFlushing:
    def test_myc_advances_each_circulation(self, paper_tree):
        from repro.analysis import stabilize
        params = make_params(paper_tree)
        engine, _ = saturated_engine(paper_tree, params)
        assert stabilize(engine, params)
        root = engine.process(0)
        before_myc, before_circ = root.myc, root.circulations
        engine.run_until(lambda e: root.circulations == before_circ + 3,
                         400_000, check_every=32)
        advanced = (root.myc - before_myc) % params.myc_modulus
        assert advanced == 3

    def test_stale_ctrl_ignored_at_root(self, paper_tree):
        params = make_params(paper_tree)
        engine, _ = saturated_engine(paper_tree, params)
        root = engine.process(0)
        stale = Ctrl(c=(root.myc + 1) % params.myc_modulus, r=False, pt=0, ppr=0)
        succ_before = root.succ
        root.on_message(root.succ, stale)
        assert root.succ == succ_before  # not accepted

    def test_wrong_channel_ctrl_ignored_at_root(self, paper_tree):
        params = make_params(paper_tree)
        engine, _ = saturated_engine(paper_tree, params)
        root = engine.process(0)
        wrong = (root.succ + 1) % paper_tree.degree(0)
        succ_before = root.succ
        root.on_message(wrong, Ctrl(c=root.myc))
        assert root.succ == succ_before

    def test_nonroot_rebinds_on_new_flag(self):
        tree = path_tree(3)
        params = KLParams(k=1, l=1, n=3)
        engine, _ = saturated_engine(tree, params)
        p = engine.process(1)
        p.myc, p.succ = 5, 1
        p.on_message(0, Ctrl(c=7))
        assert p.myc == 7
        assert p.succ == 1  # min(1, deg-1) with deg=2
        # forwarded to succ
        assert len(engine.network.out_channel(1, 1)) == 1

    def test_leaf_succ_zero(self):
        tree = path_tree(2)
        params = KLParams(k=1, l=1, n=2)
        engine, _ = saturated_engine(tree, params)
        leaf = engine.process(1)
        leaf.myc = 0
        leaf.on_message(0, Ctrl(c=3))
        assert leaf.succ == 0  # leaf bounces back to parent
        assert len(engine.network.out_channel(1, 0)) >= 1

    def test_duplicate_from_parent_retransmitted(self):
        tree = path_tree(3)
        params = KLParams(k=1, l=1, n=3)
        engine, _ = saturated_engine(tree, params)
        p = engine.process(1)
        p.myc, p.succ = 4, 1
        p.on_message(0, Ctrl(c=4))  # same flag from parent: relay to Succ
        assert len(engine.network.out_channel(1, 1)) == 1

    def test_invalid_from_child_dropped(self):
        tree = path_tree(3)
        params = KLParams(k=1, l=1, n=3)
        engine, _ = saturated_engine(tree, params)
        p = engine.process(1)
        p.myc, p.succ = 4, 1
        p.on_message(1, Ctrl(c=9))  # from succ but wrong flag
        assert len(engine.network.out_channel(1, 0)) == 0
        assert len(engine.network.out_channel(1, 1)) == 0


class TestLossRecovery:
    def test_controller_loss_recovered_by_timeout(self, paper_tree):
        from repro.analysis import stabilize
        params = make_params(paper_tree)
        engine, _ = saturated_engine(paper_tree, params)
        assert stabilize(engine, params)
        # destroy every in-flight ctrl message
        for ch in engine.network.all_channels():
            kept = [m for m in ch if not isinstance(m, Ctrl)]
            ch.clear()
            for m in kept:
                ch.queue.append(m)
        root = engine.process(0)
        circ = root.circulations
        engine.run_until(lambda e: root.circulations > circ + 1,
                         engine.timeout_interval * 20, check_every=128)
        assert root.circulations > circ
