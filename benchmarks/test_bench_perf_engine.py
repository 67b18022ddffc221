"""Engine throughput benchmarks (regression guards for the substrate).

Not a paper experiment — these keep the simulator fast enough that the
T1/T2 sweeps stay laptop-scale, per the project's performance guidance
(profile first; the step loop and scheduler are the hot path).

Two layers:

* absolute floors (``test_bench_selfstab_steps`` & friends) so a gross
  regression fails loudly even on slow CI;
* a differential gate (``TestKernelVsPreRefactor``) holding the
  observer-free batched kernel at ≥ 2.5× the pre-refactor step loop
  (``legacy_engine.LegacyStepEngine``, a verbatim fossil) on the
  self-stabilizing ring scenario, after first proving the two loops
  execute byte-identical steps.  The measured matrix is written to the
  path named by ``BENCH_KERNEL_OUT`` (CI sets ``BENCH_kernel.json``) so
  the kernel's steps/sec trajectory accumulates run over run; without
  it the committed artifact is left alone.
"""

import itertools
import os
import time

import pytest

import repro.core.messages as _messages
from legacy_engine import legacy_view
from repro import KLParams, RandomScheduler, SaturatedWorkload
from repro.analysis.bench import run_kernel_bench, write_bench_json
from repro.baselines.ring import build_ring_engine
from repro.core.naive import build_naive_engine
from repro.core.selfstab import build_selfstab_engine
from repro.topology import random_tree

#: The differential gate's floor: batched kernel vs pre-refactor loop.
#: Env-overridable so constrained/noisy runners can tune it without a
#: code change (the ratio is differential and interleaved, but shared
#: hardware can still throttle asymmetrically).
KERNEL_SPEEDUP_FLOOR = float(os.environ.get("KERNEL_SPEEDUP_FLOOR", "2.5"))


def make_engine(n, variant="selfstab", seed=1):
    tree = random_tree(n, seed=seed)
    params = KLParams(k=2, l=4, n=n)
    apps = [SaturatedWorkload(1 + p % 2, cs_duration=2) for p in range(n)]
    build = build_selfstab_engine if variant == "selfstab" else build_naive_engine
    kwargs = {"init": "tokens"} if variant == "selfstab" else {}
    return build(tree, params, apps, RandomScheduler(n, seed=seed), **kwargs)


def make_ring_engine(n=16, seed=1):
    """The paper-baseline "selfstab ring" scenario of the kernel gate."""
    params = KLParams(k=2, l=4, n=n)
    apps = [SaturatedWorkload(1 + p % 2, cs_duration=2) for p in range(n)]
    return build_ring_engine(
        n, params, apps, RandomScheduler(n, seed=seed), init="tokens"
    )


@pytest.mark.parametrize("n", [16, 64])
def test_bench_selfstab_steps(benchmark, n):
    eng = make_engine(n)
    eng.run(5_000)  # warm: tokens in play
    benchmark.pedantic(eng.run, args=(20_000,), rounds=5, iterations=1)
    # coarse floor so a 10x regression fails loudly even on slow CI
    assert benchmark.stats["mean"] < 5.0


def test_bench_naive_steps(benchmark):
    eng = make_engine(32, variant="naive")
    eng.run(2_000)
    benchmark.pedantic(eng.run, args=(20_000,), rounds=5, iterations=1)
    assert benchmark.stats["mean"] < 5.0


def test_bench_scheduler_draws(benchmark):
    sched = RandomScheduler(64, seed=3)

    def draw_many():
        for t in range(10_000):
            sched.next_pid(t)

    benchmark.pedantic(draw_many, rounds=5, iterations=1)


def test_bench_scheduler_batch_draws(benchmark):
    """The kernel's batched draw path (one call per 4096 steps)."""
    sched = RandomScheduler(64, seed=3)

    def draw_many():
        drawn = 0
        while drawn < 10_000:
            drawn += len(sched.next_pids(drawn, min(4096, 10_000 - drawn)))

    benchmark.pedantic(draw_many, rounds=5, iterations=1)


@pytest.mark.slow
class TestKernelVsPreRefactor:
    """The kernel/observer split's measurable payoff, gated."""

    def test_legacy_loop_is_equivalent(self):
        """The fossil executes byte-identical steps (else the ratio lies)."""
        # token uids come from a process-global counter; reset before each
        # build+run pair so both executions mint identical oracle ids
        _messages._uid_counter = itertools.count(1)
        kernel = make_ring_engine()
        kernel.run(7_321)
        _messages._uid_counter = itertools.count(1)
        legacy = legacy_view(make_ring_engine())
        legacy.run(7_321)
        ks, ls = kernel.save_state(), legacy.save_state()
        for field in ks.__slots__:
            assert getattr(ks, field) == getattr(ls, field), field

    def test_kernel_speedup_and_artifact(self):
        """≥ 2.5× steps/sec vs the pre-refactor engine on the selfstab
        ring scenario; emits the BENCH_kernel.json matrix artifact."""
        steps = int(os.environ.get("BENCH_KERNEL_STEPS", "100000"))
        kernel = make_ring_engine()
        legacy = legacy_view(make_ring_engine())
        kernel.run(5_000)
        legacy.run(5_000)
        best_kernel = best_legacy = 0.0
        # interleave the timed windows so frequency scaling and other
        # machine drift hit both engines symmetrically; CPU time, so a
        # window in which another process preempts this one is not
        # charged for the wait
        for _ in range(5):
            t0 = time.process_time()
            legacy.run(steps)
            best_legacy = max(best_legacy, steps / (time.process_time() - t0))
            t0 = time.process_time()
            kernel.run(steps)
            best_kernel = max(best_kernel, steps / (time.process_time() - t0))
        ratio = best_kernel / best_legacy

        rows = run_kernel_bench(steps=steps, repeat=3)
        out = os.environ.get("BENCH_KERNEL_OUT")
        if out:
            write_bench_json(
                rows,
                out,
                extra={
                    "prerefactor_ring_steps_per_sec": best_legacy,
                    "kernel_ring_steps_per_sec": best_kernel,
                    "kernel_speedup_vs_prerefactor": ratio,
                },
            )
        assert ratio >= KERNEL_SPEEDUP_FLOOR, (
            f"kernel {best_kernel:,.0f} steps/s vs legacy "
            f"{best_legacy:,.0f} steps/s = {ratio:.2f}x "
            f"(floor {KERNEL_SPEEDUP_FLOOR}x)"
        )
