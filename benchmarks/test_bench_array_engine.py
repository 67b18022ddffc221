"""Struct-of-arrays backend: speedup gate + large-n smoke.

The differential suite (``tests/sim/test_array_engine_diff.py``) proves
the array backend executes the object kernel's exact steps; this file
gates the payoff:

* equivalence is re-asserted at the gate size first — a throughput
  ratio between diverging engines would be meaningless;
* interleaved best-of timing holds the array backend at
  ``>= ARRAY_SPEEDUP_FLOOR`` (default 10x, measured ~45x) the object
  kernel's steps/sec on the selfstab tree scenario at n=10^4
  (comfortably past the n>=4096 acceptance threshold);
* the measured numbers merge into the artifact named by
  ``BENCH_KERNEL_OUT`` that the kernel gate wrote earlier in the run,
  like the POR gate does for ``BENCH_EXPLORE_OUT``;
* a from-scratch n=10^6 smoke proves the lowering and the filtered run
  loop stay linear in memory at the ROADMAP's "millions of users"
  scale.
"""

import itertools
import os
import time

import pytest

import repro.core.messages as _messages
from repro import KLParams, RandomScheduler, SaturatedWorkload
from repro.core.selfstab import build_selfstab_engine
from repro.sim.array_engine import ArrayEngine, object_config_projection
from repro.topology import path_tree, random_tree

#: Acceptance floor for array/object steps/sec at the gate size.
#: Env-overridable for constrained runners (same idiom as
#: KERNEL_SPEEDUP_FLOOR); measured ~45x on a dev container.
ARRAY_SPEEDUP_FLOOR = float(os.environ.get("ARRAY_SPEEDUP_FLOOR", "10"))

#: The gate scenario's size (acceptance criterion: >= 10x at n >= 4096).
GATE_N = 10_000


def make_object_engine(n, seed=1):
    """The bench matrix's selfstab tree scenario, object kernel."""
    tree = random_tree(n, seed=seed)
    params = KLParams(k=2, l=4, n=n)
    apps = [SaturatedWorkload(1 + p % 2, cs_duration=2) for p in range(n)]
    return build_selfstab_engine(
        tree, params, apps, RandomScheduler(n, seed=seed), init="tokens"
    )


@pytest.mark.slow
def test_gate_scenario_equivalence():
    """Identical configurations at the acceptance threshold size (the
    speedup ratio below presumes this)."""
    n = 4096
    _messages._uid_counter = itertools.count(1)
    obj = make_object_engine(n)
    obj.run(20_000)
    _messages._uid_counter = itertools.count(1)
    arr = ArrayEngine.from_engine(make_object_engine(n))
    arr.run(20_000)
    assert arr.config_snapshot() == object_config_projection(obj.save_state())


@pytest.mark.slow
def test_array_speedup_and_artifact(report, merge_into_artifact):
    """>= 10x steps/sec vs the object kernel at n=10^4; merges the
    measured gate numbers into the BENCH_kernel.json artifact."""
    steps = int(os.environ.get("BENCH_ARRAY_STEPS", "40000"))
    obj = make_object_engine(GATE_N)
    arr = ArrayEngine.from_engine(make_object_engine(GATE_N))
    obj.run(5_000)
    arr.run(5_000)
    best_obj = best_arr = 0.0
    # interleave the timed windows so machine drift hits both kernels
    # symmetrically (the TestKernelVsPreRefactor protocol)
    for _ in range(5):
        t0 = time.perf_counter()
        obj.run(steps)
        best_obj = max(best_obj, steps / (time.perf_counter() - t0))
        t0 = time.perf_counter()
        arr.run(steps)
        best_arr = max(best_arr, steps / (time.perf_counter() - t0))
    ratio = best_arr / best_obj

    report(
        "KERNEL — struct-of-arrays backend vs object kernel "
        f"(selfstab random tree, n={GATE_N:,})",
        ["kernel", "steps/sec", "speedup"],
        [
            ("object", f"{best_obj:,.0f}", "1.0x"),
            ("array", f"{best_arr:,.0f}", f"{ratio:.1f}x"),
        ],
    )

    # Fold the gate numbers into the artifact the kernel gate wrote
    # earlier in this run (partial runs simply leave it alone).
    merge_into_artifact("BENCH_KERNEL_OUT", "array_gate", {
        "scenario": f"selfstab-tree-n{GATE_N}",
        "speedup_floor": ARRAY_SPEEDUP_FLOOR,
        "object_steps_per_sec": best_obj,
        "array_steps_per_sec": best_arr,
        "array_speedup_vs_object": ratio,
    })

    assert ratio >= ARRAY_SPEEDUP_FLOOR, (
        f"array {best_arr:,.0f} steps/s vs object {best_obj:,.0f} "
        f"steps/s = {ratio:.2f}x (floor {ARRAY_SPEEDUP_FLOOR}x)"
    )


@pytest.mark.slow
def test_million_process_smoke():
    """n=10^6 from scratch: builds without an object engine, runs, and
    stays linear in memory (the quadratic-blowup tripwire)."""
    n = int(os.environ.get("ARRAY_SMOKE_N", "1000000"))
    tree = path_tree(n)
    eng = ArrayEngine.from_scratch(
        tree, KLParams(k=2, l=4, n=n),
        variant="selfstab",
        scheduler=RandomScheduler(n, seed=1),
        workload="saturated", cs_duration=2, init="tokens",
    )
    eng.run(50_000)
    assert eng.now == 50_000
    assert eng.n == n
    try:
        import resource
    except ImportError:  # non-POSIX runner: the run itself is the smoke
        return
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ~1.2 GB observed at n=10^6; 4 GB catches an accidental O(n^2)
    # (or per-object) regression while tolerating allocator noise.
    assert peak_kb < 4_000_000 * (n / 1_000_000 if n >= 1_000_000 else 1), (
        f"peak RSS {peak_kb / 1e6:.2f} GB at n={n:,}"
    )
