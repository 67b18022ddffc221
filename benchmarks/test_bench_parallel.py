"""Parallel campaign runner: correctness probe + wall-clock speedup floor.

The campaign runner's contract is twofold: results are byte-identical
to the serial run at any worker count, and sharding actually buys
wall-clock time on multi-core hardware.  This bench checks both on the
fuzz campaign (the workload named by the acceptance criteria): a
mid-size priority-variant instance far beyond exhaustive reach, fuzzed
serially and with 4 workers on the identical walk set.

The speedup assertion (>= 1.5x at 4 workers) only runs when at least 4
CPUs are actually available to this process — on a 1-core container
4 forked workers time-slice one core and the floor is unmeetable by
construction, which says nothing about the runner.  The identity
assertion runs everywhere.
"""

import os
import time

import pytest

from repro import KLParams, SaturatedWorkload
from repro.analysis import fuzz, safety_ok
from repro.analysis.parallel import fork_available
from repro.core.priority import build_priority_engine
from repro.topology import random_tree

#: acceptance floor: 4 workers must cut wall-clock by at least this
MIN_SPEEDUP = 1.5
WORKERS = 4


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def fuzz_instance(n=14, seed=2):
    """Priority variant on a random 14-process tree: the fuzz regime."""
    tree = random_tree(n, seed=seed)
    params = KLParams(k=2, l=4, n=n)
    apps = [
        SaturatedWorkload(1 + p % 2, cs_duration=2) for p in range(n)
    ]
    return build_priority_engine(tree, params, apps), params


def campaign(eng, params, *, walks, depth, workers=None):
    def inv(e):
        return safety_ok(e, params) or "unsafe"

    t0 = time.perf_counter()
    res = fuzz(eng, inv, walks=walks, depth=depth, seed=0, workers=workers)
    return res, time.perf_counter() - t0


def fields(r):
    return (r.walks, r.depth, r.seed, r.steps_total, r.walk_lengths,
            r.violation, r.schedule)


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
def test_bench_parallel_fuzz(report):
    eng, params = fuzz_instance()

    # Correctness probe at every core count: identical campaign results.
    small_serial, _ = campaign(eng, params, walks=8, depth=200)
    small_par, _ = campaign(eng, params, walks=8, depth=200, workers=WORKERS)
    assert fields(small_par) == fields(small_serial)

    # Wall-clock measurement on a campaign big enough to amortize the
    # pool fork (~256k invariant-checked steps, a couple of seconds).
    walks, depth = 64, 4_000
    serial, t_serial = campaign(eng, params, walks=walks, depth=depth)
    par, t_par = campaign(
        eng, params, walks=walks, depth=depth, workers=WORKERS
    )
    assert fields(par) == fields(serial)
    assert serial.ok, "clean instance expected — fuzz found a violation"

    speedup = t_serial / max(t_par, 1e-9)
    cpus = available_cpus()
    report(
        f"PARALLEL — fuzz campaign, serial vs {WORKERS} workers "
        f"({cpus} CPUs visible)",
        ["walks x depth", "steps", "serial s", f"{WORKERS}w s", "speedup"],
        [(f"{walks} x {depth}", serial.steps_total, t_serial, t_par,
          f"{speedup:.2f}x")],
    )
    if cpus < WORKERS:
        pytest.skip(
            f"only {cpus} CPU(s) available; speedup floor needs {WORKERS}"
        )
    assert speedup >= MIN_SPEEDUP, (
        f"4-worker fuzz campaign only {speedup:.2f}x faster than serial "
        f"(floor {MIN_SPEEDUP}x on {cpus} CPUs)"
    )
