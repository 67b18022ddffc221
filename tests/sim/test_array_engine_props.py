"""Property tests for the struct-of-arrays backend (Hypothesis).

Three families:

* random topologies + random scripted schedules ⇒ the array backend
  and the object engine agree *step for step* — after every single
  step, the decoded SoA state (``config_snapshot``) equals the object
  engine's ``save_state`` projection;
* the run loops' readiness test is sound: stepping a pid with no
  pending message and a future wake stamp changes nothing, for every
  workload kind, so skipping that draw is exact;
* the ring-buffer channels preserve FIFO order through push/pop, head
  wrap-around and growth: a push into a full ring doubles every ring
  and re-lays its queue, never dropping or reordering a message.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.messages as messages
from repro import KLParams
from repro.sim.array_engine import ArrayEngine, object_config_projection
from repro.sim.scheduler import RoundRobinScheduler
from repro.spec import ScenarioSpec
from repro.topology import path_tree

VARIANTS = ("naive", "pusher", "priority", "selfstab", "ring")

#: packed message words: mt lives in bits 0-1 of w0, uid in w1
_W0_REST, _W0_PUSHT, _W0_PRIOT = 0, 1, 2


def _spec_dict(variant, *, n, tree_seed, script, k, l, cs_duration):
    d = {
        "topology": {"kind": "random", "args": {"n": n, "seed": tree_seed}},
        "variant": variant,
        "k": k,
        "l": l,
        "cmax": 2,
        "workload": {"kind": "saturated",
                     "args": {"cs_duration": cs_duration}},
        "scheduler": {"kind": "scripted", "args": {"script": script}},
        "seed": tree_seed,
    }
    if variant in ("selfstab", "ring"):
        d["variant_options"] = {"init": "tokens"}
    return d


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 9),
    tree_seed=st.integers(0, 40),
    variant=st.sampled_from(VARIANTS),
    raw_script=st.lists(st.integers(0, 10**6), min_size=1, max_size=80),
    k=st.integers(1, 3),
    extra_l=st.integers(0, 3),
    cs_duration=st.integers(0, 2),
)
def test_step_for_step_agreement(
    n, tree_seed, variant, raw_script, k, extra_l, cs_duration
):
    """After *every* step of a random scripted schedule on a random
    tree, decoded SoA state == object ``save_state`` projection."""
    if variant == "ring" and n == 2:
        n = 3  # ring networks need n == 1 or n >= 3
    script = [s % n for s in raw_script]
    steps = len(script) + 40  # run past the script into the RR tail
    spec_dict = _spec_dict(
        variant, n=n, tree_seed=tree_seed, script=script,
        k=k, l=k + extra_l, cs_duration=cs_duration,
    )

    # sequential passes: the uid counter is process-global, so the two
    # engines must not interleave their builds/runs
    messages._uid_counter = itertools.count(1)
    obj = ScenarioSpec.from_dict(spec_dict).build().engine
    obj_states = []
    for _ in range(steps):
        obj.run(1)
        obj_states.append(object_config_projection(obj.save_state()))

    messages._uid_counter = itertools.count(1)
    arr = ArrayEngine.from_engine(
        ScenarioSpec.from_dict(spec_dict).build().engine
    )
    for t, expected in enumerate(obj_states):
        arr.run(1)
        assert arr.config_snapshot() == expected, f"diverged after step {t + 1}"


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(4, 16),
    tree_seed=st.integers(0, 40),
    raw_script=st.lists(st.integers(0, 10**6), min_size=1, max_size=60),
)
def test_filtered_path_agreement(n, tree_seed, raw_script):
    """The activity-filtered run loop (filter_threshold=1) executes the
    same schedule as the dense loop and the object engine."""
    script = [s % n for s in raw_script]
    spec_dict = _spec_dict(
        "selfstab", n=n, tree_seed=tree_seed, script=script,
        k=2, l=3, cs_duration=1,
    )
    steps = len(script) + 64

    messages._uid_counter = itertools.count(1)
    obj = ScenarioSpec.from_dict(spec_dict).build().engine
    obj.run(steps)
    expected = object_config_projection(obj.save_state())

    messages._uid_counter = itertools.count(1)
    arr = ArrayEngine.from_engine(
        ScenarioSpec.from_dict(spec_dict).build().engine,
        filter_threshold=1,
    )
    arr.run(steps)
    assert arr.config_snapshot() == expected


# ---------------------------------------------------------------------------
# Readiness test soundness (what both run loops' draw skipping rests on)
# ---------------------------------------------------------------------------

WORKLOAD_KINDS = ("idle", "saturated", "oneshot", "scripted", "hog")


def _workload(kind, pid, shift):
    """A workload of ``kind`` whose timings vary with the pid."""
    if kind == "saturated":
        return {"kind": "saturated", "args": {
            "cs_duration": pid % 3, "think_time": 1 + (pid + shift) % 6}}
    if kind == "oneshot":
        return {"kind": "oneshot", "args": {
            "at": 1 + (5 * pid + shift) % 40, "cs_duration": 1 + pid % 3}}
    if kind == "scripted":
        return {"kind": "scripted", "args": {"script": [
            [(pid + shift) % 9, 1, 1 + pid % 2],
            [12 + 3 * pid + shift, 2, 3]]}}
    if kind == "hog":
        return {"kind": "hog", "args": {"at": (7 * pid + shift) % 50}}
    return {"kind": "idle", "args": {}}


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 9),
    tree_seed=st.integers(0, 40),
    variant=st.sampled_from(VARIANTS),
    kinds=st.lists(st.sampled_from(WORKLOAD_KINDS), min_size=9, max_size=9),
    shift=st.integers(0, 20),
    raw_script=st.lists(st.integers(0, 10**6), min_size=1, max_size=80),
    k=st.integers(1, 3),
    extra_l=st.integers(0, 3),
    scramble=st.booleans(),
    timeout=st.integers(8, 60),
    filtered=st.booleans(),
)
def test_not_ready_step_is_a_noop(
    n, tree_seed, variant, kinds, shift, raw_script, k, extra_l,
    scramble, timeout, filtered,
):
    """Before every step of a random schedule, ``_exec_step(p, t)`` on
    any pid the scheduler could draw with ``_pending[p] == 0`` and
    ``_wake_at[p] > t`` leaves ``save_state()`` (and the streaming
    metrics) unchanged — the exactness of ``_recompute_wake`` for each
    workload kind, mixed per pid.  Scrambled process states (channels
    left quiet) add garbage phases and held priority tokens; a short
    root timeout makes the controller's timer fire within the run.

    After every step of either run loop the activity bookkeeping is
    exact: ``_pending`` counts each pid's queued messages, and
    ``_wake_at``/``_ready_at`` equal a full recompute.  A relay step
    skips the guard tail and keeps its stamp, so a handler that wrote
    a guard column but reported a relay leaves a stale stamp here."""
    if variant == "ring" and n == 2:
        n = 3
    script = [s % n for s in raw_script]
    spec_dict = _spec_dict(
        variant, n=n, tree_seed=tree_seed, script=script,
        k=k, l=k + extra_l, cs_duration=1,
    )
    spec_dict["workload"] = _workload(kinds[0], 0, shift)
    spec_dict["workload_overrides"] = {
        str(p): _workload(kinds[p], p, shift) for p in range(1, n)
    }
    if scramble:
        spec_dict["faults"] = [
            {"kind": "scramble", "args": {"channel_garbage": False}}
        ]
    if variant in ("selfstab", "ring"):
        spec_dict["variant_options"]["timeout_interval"] = timeout
    messages._uid_counter = itertools.count(1)
    arr = ArrayEngine.from_engine(
        ScenarioSpec.from_dict(spec_dict).build().engine,
        **({"filter_threshold": 1} if filtered else {}),
    )
    for _ in range(len(script) + 60):
        t = arr.now
        for p in range(n):
            if arr._pending[p] or arr._wake_at[p] <= t:
                continue
            before = (arr.save_state(), arr.run_metrics(), arr._wake_at[p])
            arr._exec_step(p, t)
            after = (arr.save_state(), arr.run_metrics(), arr._wake_at[p])
            assert after == before, f"pid {p} acted at t={t} while not ready"
        arr.run(1)
        queued = [0] * n
        for slot, ln in enumerate(arr._ch_len):
            queued[arr._ch_dst[slot]] += ln
        assert arr._pending == queued, f"pending drifted at t={t}"
        ref = arr.fork()
        ref._recompute_all_wakes()
        assert arr._wake_at == ref._wake_at, f"stale wake stamp at t={t}"
        assert list(arr._ready_at) == list(ref._ready_at), (
            f"stale readiness at t={t}"
        )


# ---------------------------------------------------------------------------
# Ring-buffer channel properties
# ---------------------------------------------------------------------------

def _tiny_engine():
    """A 2-process engine whose 0->1 channel we drive directly."""
    tree = path_tree(2)
    params = KLParams(k=1, l=2, n=2)
    return ArrayEngine.from_scratch(
        tree, params, variant="selfstab",
        scheduler=RoundRobinScheduler(2),
        workload="idle", init="empty",
    )


def _slot_0_to_1(eng):
    return eng._out_slot[eng._nbr_off[0]]


def _queued_uids(eng, slot):
    msgs, *_ = eng._chan_snapshot(slot)
    return [m.uid for m in msgs]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ring_buffer_fifo_push_pop(data):
    """Messages come out in push order through the real receive path,
    including after partial pops (head advancing through the ring)."""
    eng = _tiny_engine()
    uids = data.draw(st.lists(
        st.integers(1, 2**40), min_size=1, max_size=eng._cap, unique=True
    ))
    npop = data.draw(st.integers(0, eng._cap))
    slot = _slot_0_to_1(eng)
    for uid in uids:
        eng._enqueue_raw(slot, _W0_REST, uid)
    eng._ready_at[1] = 0  # pending messages make pid 1 schedulable
    assert _queued_uids(eng, slot) == uids

    popped = []
    for t in range(min(npop, len(uids))):
        head = _queued_uids(eng, slot)[0]
        eng._exec_step(1, t)  # real pop: receive exactly the head
        popped.append(head)
    assert popped == uids[: min(npop, len(uids))]
    assert _queued_uids(eng, slot) == uids[min(npop, len(uids)):]


@settings(max_examples=25, deadline=None)
@given(slack=st.integers(0, 3), extra=st.integers(1, 4))
def test_ring_buffer_wraparound_order(slack, extra):
    """Fill the ring but ``slack`` slots, pop 4, push ``slack + extra``
    more: positions wrap past the ring's end without reordering, and
    the ring does not grow (the queue never exceeds its size)."""
    eng = _tiny_engine()
    cap = eng._cap
    slot = _slot_0_to_1(eng)
    first = list(range(1, cap - slack + 1))
    second = list(range(2**30, 2**30 + slack + extra))
    for uid in first:
        eng._enqueue_raw(slot, _W0_REST, uid)
    eng._ready_at[1] = 0
    for t in range(4):
        eng._exec_step(1, t)
    for uid in second:
        eng._enqueue_raw(slot, _W0_REST, uid)
    assert eng._cap == cap
    assert eng._ch_head[slot] + eng._ch_len[slot] > cap  # it wrapped
    assert _queued_uids(eng, slot) == first[4:] + second


@settings(max_examples=20, deadline=None)
@given(
    doublings=st.integers(1, 3),
    npop=st.integers(0, 6),
    sends=st.lists(st.booleans(), min_size=8, max_size=8),
)
def test_ring_buffer_growth_keeps_order(doublings, npop, sends):
    """Pushes past a full ring double every ring, several times over,
    through both push paths (``_enqueue_raw`` and the counting
    ``_send``), after pops that moved the head: queue order survives
    every re-layout, and only ``_send`` counts traffic."""
    eng = _tiny_engine()
    cap0 = eng._cap
    slot = _slot_0_to_1(eng)
    for uid in range(1, npop + 1):
        eng._enqueue_raw(slot, _W0_REST, uid)
    eng._ready_at[1] = 0
    for t in range(npop):
        eng._exec_step(1, t)  # head now at npop, queue empty
    total = cap0 * 2 ** (doublings - 1) + 1
    sent = 0
    for uid in range(npop + 1, npop + total + 1):
        if sends[uid % len(sends)]:
            eng._send(0, 0, _W0_REST, uid)
            sent += 1
        else:
            eng._enqueue_raw(slot, _W0_REST, uid)
    assert eng._cap == cap0 * 2**doublings
    assert _queued_uids(eng, slot) == list(range(npop + 1, npop + total + 1))
    assert eng._ch_sent[slot] == sent
    assert eng._ch_peak[slot] == total
