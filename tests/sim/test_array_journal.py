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
"""

import itertools

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
