"""Application interface: request records and waiting-time bookkeeping."""

import pytest

from repro.apps.interface import (
    Application,
    IdleApplication,
    RequestRecord,
    upgrade_snapshot,
)


class FakeEngine:
    def __init__(self):
        self.total_cs_entries = 0
        self.now = 0


class Probe(Application):
    def maybe_request(self, now):
        return 2

    def release_cs(self, now):
        return self._done_after(3)


class TestRequestRecord:
    def test_waiting_time(self):
        r = RequestRecord(need=1, requested_at=5, cs_total_at_request=10,
                          entered_at=9, cs_total_at_enter=14)
        assert r.waiting_time == 4
        assert r.waiting_steps == 4
        assert r.satisfied

    def test_unsatisfied(self):
        r = RequestRecord(need=1, requested_at=5, cs_total_at_request=10)
        assert r.waiting_time is None
        assert r.waiting_steps is None
        assert not r.satisfied


class TestLifecycle:
    def test_full_cycle_accounting(self):
        app, eng = Probe(), FakeEngine()
        app.attach(eng)
        app.notify_request(now=0, need=2)
        eng.total_cs_entries = 7  # others entered 7 times meanwhile
        eng.total_cs_entries += 1  # protocol bumps before EnterCS
        app.on_enter_cs(now=20)
        rec = app.requests[-1]
        assert rec.cs_total_at_request == 0
        assert rec.cs_total_at_enter == 7  # own entry excluded
        assert rec.waiting_time == 7
        app.on_exit_cs(now=30)
        # records are values: the hook replaced the ledger's last record
        rec = app.requests[-1]
        assert rec.exited_at == 30
        assert app.satisfied_count() == 1

    def test_waiting_times_aggregation(self):
        app, eng = Probe(), FakeEngine()
        app.attach(eng)
        for w in (3, 5):
            app.notify_request(0, 1)
            eng.total_cs_entries += w + 1
            app.on_enter_cs(0)
            app.on_exit_cs(0)
            # reset baseline for next round
            eng.total_cs_entries = 0
        assert app.max_waiting_time() is not None
        assert len(app.waiting_times()) == 2

    def test_max_waiting_none_when_unsatisfied(self):
        app = Probe()
        app.notify_request(0, 1)
        assert app.max_waiting_time() is None


class TestRecordValues:
    """Records are immutable values that snapshots share with the live
    ledger: a hook replaces the last record, never edits one."""

    def test_records_are_immutable(self):
        rec = RequestRecord(need=1, requested_at=5, cs_total_at_request=10)
        with pytest.raises(AttributeError):
            rec.entered_at = 9

    def test_snapshot_shares_records_and_survives_the_hooks(self):
        app, eng = Probe(), FakeEngine()
        app.attach(eng)
        app.notify_request(now=0, need=2)
        snap = app.snapshot_state()
        assert snap[0][0] is app.requests[0]
        eng.total_cs_entries = 1
        app.on_enter_cs(now=4)
        app.on_exit_cs(now=6)
        assert app.requests[-1] == (2, 0, 0, 4, 0, 6)
        assert snap[0] == ((2, 0, 0, None, None, None),)
        app.restore_state(snap)
        assert app.requests == [RequestRecord(2, 0, 0)]
        assert app.requests[0] is snap[0][0]
        assert app.cs_elapsed is None

    def test_upgrade_snapshot_reencodes_tuple_ledgers(self):
        app, eng = Probe(), FakeEngine()
        app.attach(eng)
        app.notify_request(now=3, need=1)
        snap = app.snapshot_state()
        assert upgrade_snapshot(snap) is snap
        assert upgrade_snapshot(None) is None
        # the encoding of builds before records were values
        old = (tuple(map(tuple, snap[0])),) + snap[1:]
        new = upgrade_snapshot(old)
        assert new == snap
        assert all(type(r) is RequestRecord for r in new[0])
        app.restore_state(new)
        eng.total_cs_entries = 1
        app.on_enter_cs(now=8)
        assert app.requests[-1].waiting_steps == 5


class TestReleaseSemantics:
    def test_done_after_without_entry_is_true(self):
        # fault put protocol in In without EnterCS: ReleaseCS() holds
        app = Probe()
        app.attach(FakeEngine())
        assert app.release_cs(0)

    def test_done_after_duration(self):
        app, eng = Probe(), FakeEngine()
        app.attach(eng)
        eng.now = 10
        app.on_enter_cs(10)
        eng.now = 12
        assert not app.release_cs(12)
        eng.now = 13
        assert app.release_cs(13)

    def test_cs_elapsed(self):
        app, eng = Probe(), FakeEngine()
        app.attach(eng)
        assert app.cs_elapsed is None
        eng.now = 4
        app.on_enter_cs(4)
        eng.now = 9
        assert app.cs_elapsed == 5
        app.on_exit_cs(9)
        assert app.cs_elapsed is None


class TestIdle:
    def test_never_requests(self):
        app = IdleApplication()
        assert app.maybe_request(0) is None
        assert app.release_cs(0)
