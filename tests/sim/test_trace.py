"""Trace recording and querying."""

from repro.sim.trace import Trace


class TestTrace:
    def test_record_and_query(self):
        tr = Trace()
        tr.record(1, 0, "send", "x")
        tr.record(2, 1, "enter_cs")
        tr.record(3, 0, "send", "y")
        assert len(tr) == 3
        assert [e.detail for e in tr.of_kind("send")] == ["x", "y"]
        assert tr.count("send") == 2
        assert tr.count("send", pid=0) == 2
        assert tr.count("send", pid=1) == 0

    def test_by_pid(self):
        tr = Trace()
        tr.record(1, 0, "a")
        tr.record(2, 1, "b")
        assert [e.kind for e in tr.by_pid(1)] == ["b"]

    def test_cs_entries_and_last(self):
        tr = Trace()
        tr.record(1, 0, "enter_cs")
        tr.record(5, 2, "enter_cs")
        assert len(tr.cs_entries()) == 2
        assert tr.last("enter_cs").now == 5
        assert tr.last("nothing") is None

    def test_between(self):
        tr = Trace()
        for t in range(10):
            tr.record(t, 0, "tick")
        assert len(list(tr.between(3, 6))) == 3

    def test_filter(self):
        tr = Trace(keep=lambda e: e.kind == "keepme")
        tr.record(0, 0, "dropme")
        tr.record(1, 0, "keepme")
        assert len(tr) == 1
