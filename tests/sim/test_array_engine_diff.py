"""Differential equivalence: struct-of-arrays backend vs object engine.

The array backend (:mod:`repro.sim.array_engine`) re-implements the
step semantics over flat arrays; these tests prove the two kernels
execute *identical* steps by comparing full configuration snapshots —
``ArrayEngine.config_snapshot()`` against the object engine's
``save_state()`` run through :func:`object_config_projection` — across
every variant × topology × scheduler cell, every deterministic workload
kind, under fault injection, on both run loops (dense and
activity-filtered), plus CS-entry sequences and streaming metrics.

uid discipline: token uids come from a process-global counter
(``repro.core.messages._uid_counter``), and the self-stabilizing root
mints fresh uids during recovery.  The object and array passes must
therefore run *sequentially*, each preceded by a counter reset — an
interleaved run would diverge in uids alone.
"""

import itertools

import pytest

import repro.core.messages as messages
from repro.sim.array_engine import (
    ArrayEngine,
    LoweringError,
    object_config_projection,
)
from repro.spec import ScenarioSpec, SpecError

VARIANTS = ("naive", "pusher", "priority", "selfstab", "ring")
TOPOLOGIES = ("path", "star", "random")
SCHEDULERS = ("round_robin", "weighted", "scripted")

#: Cumulative run() increments; the last crosses the 4096-step batch.
INCREMENTS = (1, 7, 92, 1500, 4096)


def _scheduler_dict(kind: str, n: int, seed: int) -> dict:
    if kind == "round_robin":
        return {"kind": "round_robin", "args": {}}
    if kind == "random":
        return {"kind": "random", "args": {"seed": seed}}
    if kind == "weighted":
        weights = [1.0 + (p * 13 + seed) % 3 for p in range(n)]
        return {"kind": "weighted", "args": {"weights": weights, "seed": seed}}
    if kind == "scripted":
        # Adversarial prefix (data), round-robin tail — exercises both
        # the scripted segment and the fallback inside one run.
        script = [(p * 7 + seed) % n for p in range(120)]
        return {"kind": "scripted", "args": {"script": script}}
    raise AssertionError(kind)


def _spec_dict(
    variant: str,
    topology: str,
    scheduler: str,
    *,
    n: int = 9,
    seed: int = 1,
    k: int = 2,
    l: int = 4,
    faults: tuple[str, ...] = (),
    workload: dict | None = None,
) -> dict:
    args = {"n": n}
    if topology == "random":
        args["seed"] = seed
    d = {
        "topology": {"kind": topology, "args": args},
        "variant": variant,
        "k": k,
        "l": l,
        "cmax": 2,
        "workload": workload
        or {"kind": "saturated", "args": {"cs_duration": 2}},
        "scheduler": _scheduler_dict(scheduler, n, seed),
        "seed": seed,
        "faults": [{"kind": f, "args": {}} for f in faults],
    }
    if variant in ("selfstab", "ring"):
        d["variant_options"] = {"init": "tokens"}
    return d


def _object_snapshots(spec_dict: dict, increments=INCREMENTS) -> list:
    """Sequential object pass: snapshot after each cumulative increment."""
    messages._uid_counter = itertools.count(1)
    engine = ScenarioSpec.from_dict(spec_dict).build().engine
    snaps = []
    for inc in increments:
        engine.run(inc)
        snaps.append(object_config_projection(engine.save_state()))
    return snaps


def _array_snapshots(
    spec_dict: dict, increments=INCREMENTS, **lower_kw
) -> tuple[list, ArrayEngine]:
    """Sequential array pass over the same scenario and increments;
    also returns the engine, as it stands after the last increment."""
    messages._uid_counter = itertools.count(1)
    built = ScenarioSpec.from_dict(spec_dict).build()
    engine = ArrayEngine.from_engine(built.engine, **lower_kw)
    snaps = []
    for inc in increments:
        engine.run(inc)
        snaps.append(engine.config_snapshot())
    return snaps, engine


def _assert_identical(
    spec_dict: dict, increments=INCREMENTS, **lower_kw
) -> ArrayEngine:
    """Both passes agree at every checkpoint; returns the array engine."""
    obj = _object_snapshots(spec_dict, increments)
    arr, engine = _array_snapshots(spec_dict, increments, **lower_kw)
    for i, (o, a) in enumerate(zip(obj, arr)):
        assert a == o, (
            f"configuration diverged at checkpoint {i} "
            f"(after {sum(increments[: i + 1])} steps)"
        )
    return engine


# ---------------------------------------------------------------------------
# The full variant × topology × scheduler matrix
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_matrix_equivalence(variant, topology, scheduler):
    """Every cell: identical configurations at every checkpoint.

    The ring variant uses only the tree's size (its network is the
    oriented ring), so its three topology cells triple-check the ring
    lowering rather than varying shape — intentional: the matrix stays
    total over the advertised registry.
    """
    _assert_identical(_spec_dict(variant, topology, scheduler))


@pytest.mark.parametrize("variant", VARIANTS)
def test_random_scheduler_equivalence(variant):
    """The random scheduler's batched draw stream agrees too."""
    _assert_identical(_spec_dict(variant, "random", "random", seed=3))


# ---------------------------------------------------------------------------
# Fault schedules
# ---------------------------------------------------------------------------

FAULTS = (
    "scramble",
    "channel-garbage",
    "corrupt-process",
    "drop-token",
    "duplicate-token",
)


@pytest.mark.slow
@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("variant", ("selfstab", "ring"))
def test_fault_schedule_equivalence(variant, fault):
    """Faults mutate the object engine pre-lowering; recovery (root
    resets, token re-mints, garbage absorption) must replay identically."""
    _assert_identical(
        _spec_dict(variant, "random", "random", seed=5, faults=(fault,))
    )


def test_stacked_faults_equivalence():
    _assert_identical(
        _spec_dict(
            "selfstab", "path", "weighted", seed=2,
            faults=("scramble", "channel-garbage", "duplicate-token"),
        )
    )


# ---------------------------------------------------------------------------
# Scheduling paths and edge sizes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ("selfstab", "priority", "ring"))
@pytest.mark.parametrize("scheduler", ("round_robin", "weighted"))
def test_filtered_path_equivalence(variant, scheduler):
    """filter_threshold=1 forces the activity-filtered run loop (the
    n >= threshold production path) at test-friendly sizes."""
    _assert_identical(
        _spec_dict(variant, "random", scheduler, n=11, seed=7),
        filter_threshold=1,
    )


#: Workloads whose wake stamps lie in the future, so both run loops
#: skip draws: think time, a late one-shot, a request script, a hog
#: that never leaves its CS — and idle, which never wakes at all.
WORKLOADS = {
    "idle": {"kind": "idle", "args": {}},
    "saturated-think": {
        "kind": "saturated", "args": {"cs_duration": 2, "think_time": 37},
    },
    "oneshot-late": {
        "kind": "oneshot", "args": {"at": 700, "cs_duration": 3},
    },
    "scripted": {
        "kind": "scripted",
        "args": {"script": [[5, 1, 2], [60, 2, 1], [2500, 1, 40]]},
    },
    "hog": {"kind": "hog", "args": {"need": 1, "at": 300}},
}

#: The two run loops: dense (n below the threshold) and filtered.
LOOPS = {"dense": {}, "filtered": {"filter_threshold": 1}}


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("scheduler", ("random", "round_robin"))
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_workload_equivalence(variant, workload, scheduler, loop):
    """Both run loops skip a draw only when its pid has no pending
    message and a future wake stamp; every workload kind's stamps must
    make that skip invisible."""
    _assert_identical(
        _spec_dict(variant, "random", scheduler, seed=4,
                   workload=WORKLOADS[workload]),
        **LOOPS[loop],
    )


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("variant", ("selfstab", "ring"))
def test_workload_scrambled_equivalence(variant, workload, loop):
    """From scrambled process states (channels left quiet, so few pids
    have a message pending), the stamps of garbage states matter too: a
    held priority token outside ``Req``, a ``Req`` already holding its
    need, and frequent root timeouts.  Only the stabilizing variants:
    without a controller, scrambled priority tokens pile up without
    bound."""
    spec_dict = _spec_dict(variant, "random", "random", seed=6,
                           workload=WORKLOADS[workload])
    spec_dict["faults"] = [
        {"kind": "scramble", "args": {"channel_garbage": False}}
    ]
    spec_dict["variant_options"]["timeout_interval"] = 50
    _assert_identical(spec_dict, **LOOPS[loop])


@pytest.mark.parametrize("variant", ("naive", "selfstab"))
def test_single_process_equivalence(variant):
    _assert_identical(_spec_dict(variant, "path", "round_robin", n=1))


#: ``repro converge --tree random --n N --seed S`` cells whose scrambled
#: queues outgrow the initial rings (2l + cmax + 8 = 18 slots) within
#: 13,000 steps, so the array pass must grow its channels
GROWING_CONVERGE_CELLS = ((64, 2), (128, 0), (128, 2))


def _converge_spec_dict(n: int, seed: int) -> dict:
    """The spec ``repro converge --tree random --n N --seed S`` runs."""
    return {
        "topology": {"kind": "random", "args": {"n": n, "seed": seed}},
        "variant": "selfstab",
        "k": 2,
        "l": 4,
        "cmax": 2,
        "workload": {"kind": "saturated", "args": {"cs_duration": 2}},
        "faults": [{"kind": "scramble", "args": {}}],
        "scheduler": {"kind": "random", "args": {}},
        "seed": seed,
    }


@pytest.mark.parametrize("n,seed", GROWING_CONVERGE_CELLS)
def test_converge_cells_that_grow_channels(n, seed):
    """The T1 ``converge`` spec on the cells whose queues outgrow the
    initial ring size: every 5,000-step checkpoint up to 100,000 steps
    matches the object engine's unbounded deques."""
    engine = _assert_identical(
        _converge_spec_dict(n, seed), increments=(5_000,) * 20
    )
    assert max(engine._ch_peak) > 18  # a queue outgrew the initial ring


@pytest.mark.parametrize("armed", (False, True), ids=("run", "explore"))
def test_state_of_a_grown_engine_loads_into_a_fresh_lowering(armed):
    """A state saved after the rings grew loads into a fresh lowering
    of the same spec (initial ring size), growing its rings on load —
    as an owner shard loads states routed from a shard that grew."""
    spec_dict = _converge_spec_dict(64, 2)
    grown = ArrayEngine.from_engine(
        ScenarioSpec.from_dict(spec_dict).build().engine
    )
    cap0 = grown._cap
    # stop while a queue is longer than the initial ring
    assert grown.run_until(lambda e: max(e._ch_len) > cap0, 20_000)
    state = grown.save_state()

    fresh = ArrayEngine.from_engine(
        ScenarioSpec.from_dict(spec_dict).build().engine
    )
    if armed:
        fresh.explore_prepare()
    assert fresh._cap == cap0
    fresh.load_state(state)
    assert fresh._cap > cap0
    assert fresh.config_snapshot() == grown.config_snapshot()
    assert fresh.digest_parts() == grown.digest_parts()
    assert fresh.save_state() == state


def test_deep_run_equivalence():
    """A long single window (several batches) on the headline scenario."""
    _assert_identical(
        _spec_dict("selfstab", "random", "random", n=13, seed=11),
        increments=(20_000,),
    )


# ---------------------------------------------------------------------------
# CS-entry sequences and streaming metrics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ("selfstab", "priority"))
def test_cs_entry_sequence(variant):
    """Step-resolved CS-entry counts: the *sequence*, not just totals."""
    spec_dict = _spec_dict(variant, "random", "random", n=7, seed=4)

    messages._uid_counter = itertools.count(1)
    obj = ScenarioSpec.from_dict(spec_dict).build().engine
    obj_seq = []
    for _ in range(800):
        obj.run(1)
        obj_seq.append(obj.total_cs_entries)

    messages._uid_counter = itertools.count(1)
    arr = ArrayEngine.from_engine(
        ScenarioSpec.from_dict(spec_dict).build().engine
    )
    arr_seq = []
    for _ in range(800):
        arr.run(1)
        arr_seq.append(arr.cs_entries())

    assert arr_seq == obj_seq
    assert arr.config_snapshot() == object_config_projection(obj.save_state())


def test_streaming_metrics_match_ledger_metrics():
    """Array O(1) aggregates == object per-request ledger metrics,
    including the epoch mark that replaces ``since_step`` filtering."""
    from repro.analysis.metrics import collect_metrics

    spec_dict = _spec_dict("selfstab", "random", "random", n=9, seed=6)

    messages._uid_counter = itertools.count(1)
    built = ScenarioSpec.from_dict(spec_dict).build()
    obj = built.engine
    obj.run(3_000)
    warmup_end = obj.now
    obj.run(9_000)
    expected = collect_metrics(obj, built.apps, since_step=warmup_end)

    messages._uid_counter = itertools.count(1)
    arr = ArrayEngine.from_engine(
        ScenarioSpec.from_dict(spec_dict).build().engine
    )
    arr.run(3_000)
    arr.mark_metrics_epoch()
    arr.run(9_000)
    got = arr.run_metrics()

    assert got == expected


def test_counter_rows_match():
    """The per-type message counters (the bench/README columns) agree."""
    spec_dict = _spec_dict("selfstab", "star", "random", n=8, seed=9)

    messages._uid_counter = itertools.count(1)
    obj = ScenarioSpec.from_dict(spec_dict).build().engine
    obj.run(6_000)

    messages._uid_counter = itertools.count(1)
    arr = ArrayEngine.from_engine(
        ScenarioSpec.from_dict(spec_dict).build().engine
    )
    arr.run(6_000)

    assert dict(arr.message_counts()) == dict(obj.sent_by_type)


# ---------------------------------------------------------------------------
# Spec/builder/manifest plumbing and lowering rejections
# ---------------------------------------------------------------------------

def test_spec_backend_builds_array_engine():
    spec_dict = _spec_dict("selfstab", "path", "round_robin", n=6)
    spec_dict["backend"] = "array"
    built = ScenarioSpec.from_dict(spec_dict).build()
    assert isinstance(built.engine, ArrayEngine)
    built.engine.run(500)
    assert built.engine.now == 500


def test_spec_backend_equivalence_via_build():
    """backend='array' through spec.build() matches backend='object'."""
    spec_dict = _spec_dict("priority", "random", "weighted", n=8, seed=3)

    messages._uid_counter = itertools.count(1)
    obj = ScenarioSpec.from_dict(spec_dict).build().engine
    obj.run(4_000)

    spec_dict["backend"] = "array"
    messages._uid_counter = itertools.count(1)
    arr = ScenarioSpec.from_dict(spec_dict).build().engine
    arr.run(4_000)

    assert arr.config_snapshot() == object_config_projection(obj.save_state())


def test_backend_round_trips_through_manifest():
    spec_dict = _spec_dict("selfstab", "path", "round_robin", n=6)
    spec_dict["backend"] = "array"
    spec = ScenarioSpec.from_dict(spec_dict)
    replay = ScenarioSpec.from_json(spec.to_json())
    assert replay.backend == "array"
    assert replay == spec
    # the default backend stays out of the manifest (byte-compat with
    # every pre-backend manifest in the wild)
    d = ScenarioSpec.from_dict(_spec_dict("naive", "path", "round_robin"))
    assert "backend" not in d.to_dict()


def test_unknown_backend_rejected():
    spec_dict = _spec_dict("naive", "path", "round_robin")
    spec_dict["backend"] = "gpu"
    with pytest.raises(SpecError):
        ScenarioSpec.from_dict(spec_dict)


def test_array_backend_rejects_observers():
    spec_dict = _spec_dict("selfstab", "path", "round_robin", n=6)
    spec_dict["backend"] = "array"
    spec_dict["observers"] = [{"kind": "safety", "args": {}}]
    with pytest.raises(SpecError):
        ScenarioSpec.from_dict(spec_dict).build()


def test_lowering_rejects_channel_scripted_scheduler():
    """Channel-directed scripted schedules are not batchable — the
    lowering must refuse rather than silently diverge."""
    from repro.sim.scheduler import ScriptedScheduler
    from repro.core.selfstab import build_selfstab_engine
    from repro.topology import path_tree
    from repro import KLParams, SaturatedWorkload

    tree = path_tree(4)
    params = KLParams(k=1, l=2, n=4)
    apps = [SaturatedWorkload(1, cs_duration=1) for _ in range(4)]
    sched = ScriptedScheduler(4, [0, 1, 2], channels=[None, 0, None])
    engine = build_selfstab_engine(tree, params, apps, sched, init="tokens")
    with pytest.raises(LoweringError):
        ArrayEngine.from_engine(engine)


# ---------------------------------------------------------------------------
# from_scratch: the direct lowering used by the large-n smoke path
# ---------------------------------------------------------------------------

def test_from_scratch_matches_from_engine():
    """Building the arrays directly (no object engine) must land in the
    same configuration as lowering a freshly built object engine."""
    from repro import KLParams
    from repro.sim.scheduler import RandomScheduler
    from repro.topology import random_tree

    tree = random_tree(40, seed=2)
    params = KLParams(k=2, l=4, n=40)

    messages._uid_counter = itertools.count(1)
    direct = ArrayEngine.from_scratch(
        tree, params, variant="selfstab",
        scheduler=RandomScheduler(40, seed=2),
        workload="saturated", cs_duration=2, init="tokens",
    )

    spec_dict = _spec_dict("selfstab", "random", "random", n=40, seed=2)
    messages._uid_counter = itertools.count(1)
    lowered = ArrayEngine.from_engine(
        ScenarioSpec.from_dict(spec_dict).build().engine
    )

    direct.run(5_000)
    lowered.run(5_000)
    assert direct.config_snapshot() == lowered.config_snapshot()
