"""Journal-undo property tests for the array explorer (Hypothesis).

The array-native expander never copies whole configurations: a child is
produced by ``_exec_move`` and retired by ``_undo_move``, which rewinds
the word journal in reverse.  The soundness contract is *identity*:
after any single move from any reachable configuration, undo must
restore the engine **byte for byte** — the decoded ``config_snapshot``,
every digest part, and the packed ``save_state`` tuple.  A single
un-journaled cell would silently corrupt every sibling expanded after
the first child, so this is exercised over random trees, variants and
schedules rather than a handful of fixtures.  Channel growth must stay
invisible to the journal, whether it re-lays the rings between a move
and its undo or inside the move (a send into a full ring).

The expander's move memo rests on a second contract, checked here the
same way: a *clock-free* mover (``ArrayEngine._clock_free``) reads only
its digest part and the head message's digest words, so the memo may
key it on those instead of its whole column section and the clock.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.messages as messages
from repro.sim.array_engine import ArrayEngine
from repro.spec import ScenarioSpec

VARIANTS = ("naive", "pusher", "priority", "selfstab", "ring")


def _spec_dict(variant, *, n, tree_seed, script, k, l):
    d = {
        "topology": {"kind": "random", "args": {"n": n, "seed": tree_seed}},
        "variant": variant,
        "k": k,
        "l": l,
        "cmax": 2,
        # cs_duration=0 keeps the workload time-independent, matching
        # the explorer's own digest-soundness requirement
        "workload": {"kind": "saturated", "args": {"cs_duration": 0}},
        "scheduler": {"kind": "scripted", "args": {"script": script}},
        "seed": tree_seed,
    }
    if variant in ("selfstab", "ring"):
        d["variant_options"] = {"init": "tokens"}
    return d


def _armed_engine(variant, *, n, tree_seed, warmup, k, l):
    """An array engine wandered to a random reachable configuration by a
    scripted warmup run, then armed for exploration."""
    script = [s % n for s in warmup]
    messages._uid_counter = itertools.count(1)
    eng = ArrayEngine.from_engine(
        ScenarioSpec.from_dict(
            _spec_dict(variant, n=n, tree_seed=tree_seed, script=script,
                       k=k, l=l)
        ).build().engine
    )
    eng.run(len(script))
    eng.explore_prepare()
    return eng


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    tree_seed=st.integers(0, 40),
    variant=st.sampled_from(VARIANTS),
    warmup=st.lists(st.integers(0, 10**6), min_size=0, max_size=40),
    moves=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(-1, 6)),
        min_size=1, max_size=30,
    ),
    grow_at=st.sets(st.integers(0, 7), max_size=3),
    k=st.integers(1, 3),
    extra_l=st.integers(0, 3),
)
def test_exec_undo_is_identity(
    n, tree_seed, variant, warmup, moves, grow_at, k, extra_l
):
    """``_exec_move`` + ``_undo_move`` restores the byte-identical
    configuration — snapshot, digest parts and state tuple — for every
    move (receive, silent, and no-op on an empty channel) from every
    warmed-up start, also when the rings grow between a move and its
    undo (moves at the ``grow_at`` positions)."""
    if variant == "ring" and n == 2:
        n = 3  # ring networks need n == 1 or n >= 3
    eng = _armed_engine(variant, n=n, tree_seed=tree_seed, warmup=warmup,
                        k=k, l=k + extra_l)
    parent = eng.save_state()
    snap = eng.config_snapshot()
    digests = eng.digest_parts()
    for i, (raw_pid, chan) in enumerate(moves):
        pid = raw_pid % n
        eng._exec_move(pid, chan)
        if i in grow_at:
            eng._grow_channels()
        eng._undo_move(pid, parent)
        assert eng.config_snapshot() == snap
        assert eng.digest_parts() == digests
    assert eng.save_state() == parent


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    tree_seed=st.integers(0, 40),
    variant=st.sampled_from(VARIANTS),
    warmup=st.lists(st.integers(0, 10**6), min_size=0, max_size=40),
    raw_pid=st.integers(0, 10**6),
    chan=st.integers(-1, 6),
)
def test_undo_is_identity_when_the_move_grows_channels(
    n, tree_seed, variant, warmup, raw_pid, chan
):
    """Every out-channel of the mover is filled to the ring size, so any
    send the move makes grows the rings after its receive: the undo
    still restores the byte-identical configuration."""
    if variant == "ring" and n == 2:
        n = 3
    eng = _armed_engine(variant, n=n, tree_seed=tree_seed, warmup=warmup,
                        k=2, l=3)
    pid = raw_pid % n
    base = eng._nbr_off[pid]
    for lbl in range(eng._deg[pid]):
        slot = eng._out_slot[base + lbl]
        while eng._ch_len[slot] < eng._cap:
            eng._enqueue_raw(slot, 0, messages.fresh_uid())  # a ResT
    parent = eng.save_state()
    snap = eng.config_snapshot()
    digests = eng.digest_parts()
    eng._exec_move(pid, chan)
    eng._undo_move(pid, parent)
    assert eng.config_snapshot() == snap
    assert eng.digest_parts() == digests
    assert eng.save_state() == parent


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 8),
    tree_seed=st.integers(0, 40),
    variant=st.sampled_from(VARIANTS),
    warmup=st.lists(st.integers(0, 10**6), min_size=0, max_size=30),
    raw_pid=st.integers(0, 10**6),
    chan=st.integers(-1, 6),
)
def test_replayed_move_is_deterministic(
    n, tree_seed, variant, warmup, raw_pid, chan
):
    """Undo leaves no residue that a re-execution could observe: the
    same move executed twice (with an undo in between) lands on the
    identical child configuration and digests."""
    if variant == "ring" and n == 2:
        n = 3
    eng = _armed_engine(variant, n=n, tree_seed=tree_seed, warmup=warmup,
                        k=2, l=3)
    parent = eng.save_state()
    pid = raw_pid % n
    eng._exec_move(pid, chan)
    child_snap = eng.config_snapshot()
    child_digests = eng.digest_parts()
    eng._undo_move(pid, parent)
    eng._exec_move(pid, chan)
    assert eng.config_snapshot() == child_snap
    assert eng.digest_parts() == child_digests
    eng._undo_move(pid, parent)


#: the workloads the clock-free classification is checked on; only the
#: first two (and a process without an application) are clock-free
APPS = {
    "saturated": {"kind": "saturated", "args": {"cs_duration": 0}},
    "idle": {"kind": "idle", "args": {}},
    "cs_duration=1": {"kind": "saturated", "args": {"cs_duration": 1}},
    "think_time=1": {
        "kind": "saturated", "args": {"cs_duration": 0, "think_time": 1},
    },
    "oneshot": {"kind": "oneshot", "args": {"cs_duration": 0}},
    "hog": {"kind": "hog", "args": {}},
    "scripted": {"kind": "scripted", "args": {"script": [[0, 1, 0], [4, 2, 0]]}},
}
CLOCK_FREE_APPS = ("saturated", "idle", "none")


def _mixed_engine(variant, *, n, tree_seed, warmup, apps, k, l):
    """An armed array engine whose pid ``p`` runs workload ``apps[p]``
    ("none": no application at all), wandered by a scripted warmup."""
    d = _spec_dict(variant, n=n, tree_seed=tree_seed,
                   script=[s % n for s in warmup], k=k, l=l)
    d["workload_overrides"] = {
        str(p): APPS[a] for p, a in enumerate(apps) if a != "none"
    }
    messages._uid_counter = itertools.count(1)
    obj = ScenarioSpec.from_dict(d).build().engine
    for p, a in enumerate(apps):
        if a == "none":
            # no registered workload leaves a process without one
            obj.processes[p].app = None
    eng = ArrayEngine.from_engine(obj)
    eng.run(len(warmup))
    eng.explore_prepare()
    return eng


def _retimed(eng, state, pid, rng, *, reverse_rset=False):
    """``state`` with ``pid``'s digest part kept and everything a
    clock-free move must not read changed: the clock (stamps stay at or
    before it, as every stamp is an earlier clock value), ``pid``'s
    timer, app and metric columns, and every token uid."""
    now, total, counters, sent, root, procs, chans = state
    t = now + rng.choice((0, 1, rng.randrange(0, 1000)))

    def stamp():
        # none yet, the boundaries a time guard would split on, or any
        return rng.choice((-1, t - 1, t, rng.randrange(-1, t + 1)))

    (st_, need, rset, prio, _uid, myc, succ, _scan, _timer, _le, _done,
     _cs, _cslen, scr_i, _open, _req_at, _cs_at) = procs[pid]
    rset = [(lbl, rng.randrange(1, 10**6)) for lbl, _ in rset]
    if reverse_rset:
        rset.reverse()
    sec = (
        st_, need, tuple(rset), prio, rng.randrange(1, 10**6), myc, succ,
        rng.randrange(max(eng._deg[pid], 1)),  # scan
        max(stamp(), 0),  # timer_start
        stamp(),  # app_last_exit
        rng.random() < 0.5,  # app_done
        stamp(),  # cs_since
        rng.randrange(0, 5),  # cs_len
        scr_i,
        rng.random() < 0.5,  # open_req
        rng.randrange(0, t + 1),  # req_at
        rng.randrange(0, total + 1),  # cs_at_req
    )
    # a Ctrl message (tag 3) keeps its w1, the circulation stamp
    chans = tuple(
        (tuple((w0, w1 if w0 & 3 == 3 else rng.randrange(1, 10**6))
               for w0, w1 in msgs), *stats)
        for msgs, *stats in chans
    )
    procs = procs[:pid] + (sec,) + procs[pid + 1:]
    return (t, total + rng.randrange(0, 50), counters, sent, root, procs,
            chans)


def _outcomes(eng, state, pid):
    """``(label, child digest part, pushes)`` of every move of ``pid``
    from ``state`` (receives on empty channels included)."""
    eng.load_state(state)
    out = []
    for lbl in range(-1, eng._deg[pid]):
        eng._exec_move(pid, lbl)
        out.append((lbl, eng.digest_proc_part(pid), eng._jrnl_pushes()))
        eng._undo_move(pid, state)
    return out


def _by_channel(pushes):
    per: dict = {}
    for slot, msg in pushes:
        per.setdefault(slot, []).append(msg)
    return per


@pytest.mark.parametrize("app", [*APPS, "none"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_clock_free_classification(variant, app):
    """A pid is clock-free iff it is not a selfstab or ring root and its
    application is none, idle, or saturated with no CS duration and no
    think time."""
    eng = _mixed_engine(variant, n=4, tree_seed=0, warmup=[], apps=[app] * 4,
                        k=2, l=3)
    root = eng._root_pid
    assert (root >= 0) == (variant in ("selfstab", "ring"))
    assert eng._clock_free() == [
        app in CLOCK_FREE_APPS and p != root for p in range(4)
    ]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 7),
    tree_seed=st.integers(0, 40),
    variant=st.sampled_from(VARIANTS),
    warmup_len=st.integers(0, 300),
    apps=st.lists(st.sampled_from(list(APPS) + ["none"]), min_size=7,
                  max_size=7),
    salt=st.integers(0, 2**32),
    k=st.integers(1, 3),
    extra_l=st.integers(0, 2),
)
def test_clock_free_moves_read_only_their_digest_part(
    n, tree_seed, variant, warmup_len, apps, salt, k, extra_l
):
    """The move memo keys a clock-free mover on its digest part and the
    head message's digest words (``ArrayEngine._clock_free``).  On mixed
    applications the classification still picks pid by pid, and for a
    pid it accepts, a reachable state and a copy that keeps the pid's
    digest part but changes the clock, the pid's timer, app and metric
    columns and every token uid give the same child part and pushes on
    every move; reordering its RSet changes only the order of sends on
    distinct channels."""
    if variant == "ring" and n == 2:
        n = 3
    apps = apps[:n]
    rng = random.Random(salt)
    # long warmups, so that pids with a CS duration are met inside it
    warmup = [rng.randrange(n) for _ in range(warmup_len)]
    eng = _mixed_engine(variant, n=n, tree_seed=tree_seed, warmup=warmup,
                        apps=apps, k=k, l=k + extra_l)
    free = eng._clock_free()
    assert (eng._root_pid >= 0) == (variant in ("selfstab", "ring"))
    assert free == [
        a in CLOCK_FREE_APPS and p != eng._root_pid for p, a in enumerate(apps)
    ]
    state = eng.save_state()
    parts = eng.digest_parts()
    for pid in (p for p in range(n) if free[p]):
        base = _outcomes(eng, state, pid)
        for _ in range(3):
            other = _retimed(eng, state, pid, rng)
            eng.load_state(other)
            assert eng.digest_parts() == parts
            assert _outcomes(eng, other, pid) == base
        shuffled = _outcomes(
            eng, _retimed(eng, state, pid, rng, reverse_rset=True), pid
        )
        assert [(lbl, part, _by_channel(pushes))
                for lbl, part, pushes in shuffled] == [
            (lbl, part, _by_channel(pushes)) for lbl, part, pushes in base
        ]
