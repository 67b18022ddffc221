"""Throughput measurement (``repro bench`` and the CI perf gates).

Two suites, each accumulating a JSON artifact so the perf trajectory
lives in version control instead of one-off benchmark logs:

* **kernel** — steps/second of the observer-free stepping kernel across
  a matrix of variant × topology scenarios (``BENCH_kernel.json``).
* **explore** — explored configurations/second of the state-space
  engine (delta codec + packed digests) across a matrix of exhaustively
  explorable scenarios, BFS and DFS (``BENCH_explore.json``).

The same rows back the README's performance tables, the ``repro bench``
subcommand, and the regression gates
(``benchmarks/test_bench_perf_engine.py`` adds a differential ratio
against a fossil of the pre-kernel step loop;
``benchmarks/test_bench_explore.py`` gates the state-space turbo
against the retained tuple-digest + full-snapshot reference).

Timing protocol: build the scenario from its :class:`ScenarioSpec` and
take the best of ``repeat`` timed windows — best-of, not mean, because
the quantity of interest is attainable throughput, and transient
machine noise only ever subtracts from it.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

from ..spec.spec import ScenarioSpec
from ..spec.builder import ScenarioBuilder

__all__ = [
    "BenchRow",
    "ExploreBenchRow",
    "bench_engine",
    "bench_spec",
    "default_bench_matrix",
    "run_kernel_bench",
    "bench_explore_spec",
    "default_explore_matrix",
    "run_explore_bench",
    "write_bench_json",
    "host_fingerprint",
    "render_bench_table",
    "render_explore_table",
]

#: Default measured window per scenario (steps).
DEFAULT_STEPS = 150_000
#: Default warmup before the first timed window (steps).
DEFAULT_WARMUP = 5_000
#: Default timed repetitions (best is kept).
DEFAULT_REPEAT = 3

#: Artifact schema: bumped to 2 when ``host`` metadata, ``backend`` row
#: columns and ``schema_version`` itself were added.
BENCH_SCHEMA_VERSION = 2


@dataclass(slots=True)
class BenchRow:
    """One measured scenario."""

    scenario: str
    variant: str
    topology: str
    n: int
    steps: int
    steps_per_sec: float
    backend: str = "object"


def bench_engine(
    engine,
    *,
    steps: int = DEFAULT_STEPS,
    warmup: int = DEFAULT_WARMUP,
    repeat: int = DEFAULT_REPEAT,
) -> float:
    """Best observed steps/second of ``engine.run`` over ``repeat`` windows."""
    if steps < 1 or repeat < 1:
        raise ValueError("steps and repeat must be >= 1")
    engine.run(warmup)
    best = 0.0
    for _ in range(repeat):
        t0 = time.perf_counter()
        engine.run(steps)
        elapsed = time.perf_counter() - t0
        best = max(best, steps / elapsed)
    return best


def bench_spec(
    label: str,
    spec: ScenarioSpec,
    *,
    steps: int = DEFAULT_STEPS,
    warmup: int = DEFAULT_WARMUP,
    repeat: int = DEFAULT_REPEAT,
) -> BenchRow:
    """Build ``spec`` (observer-free) and measure its kernel throughput."""
    built = spec.without_observers().build()
    rate = bench_engine(
        built.engine, steps=steps, warmup=warmup, repeat=repeat
    )
    return BenchRow(
        scenario=label,
        variant=spec.variant,
        topology=spec.topology.kind,
        n=built.tree.n,
        steps=steps,
        steps_per_sec=rate,
        backend=spec.backend,
    )


def _scenario(
    variant: str, topology: str, n: int, seed: int = 1,
    backend: str = "object", **topo_args,
):
    builder = (
        ScenarioBuilder()
        .topology(
            topology,
            n=n,
            **({"seed": seed} if topology == "random" else topo_args),
        )
        .params(k=2, l=4)
        .workload("saturated", cs_duration=2)
        .scheduler("random", seed=seed)
        .seed(seed)
        .backend(backend)
    )
    if variant in ("selfstab", "ring"):
        builder.variant(variant, init="tokens")
    else:
        builder.variant(variant)
    return builder.spec()


def default_bench_matrix() -> list[tuple[str, ScenarioSpec]]:
    """The standard variant × topology matrix behind ``BENCH_kernel.json``.

    ``selfstab-ring-n16`` is the headline scenario the regression gate
    compares against the pre-kernel fossil; the rest track every
    registered token-circulation variant on representative topologies.
    The array rows track the struct-of-arrays backend: its n=64 twin of
    the object row, n=256 just past the switch from the dense run loop
    to the filtered one (``array_engine.FILTER_THRESHOLD``), and
    n=10^4/10^5, scales the object kernel cannot reach (plus one object
    row at n=10^4, the denominator of the array speedup gate in
    ``benchmarks/test_bench_array_engine.py``).
    """
    return [
        ("selfstab-ring-n16", _scenario("ring", "path", 16)),
        ("selfstab-tree-n16", _scenario("selfstab", "random", 16)),
        ("selfstab-tree-n64", _scenario("selfstab", "random", 64)),
        ("selfstab-tree-n64-array",
         _scenario("selfstab", "random", 64, backend="array")),
        ("selfstab-tree-n256-array",
         _scenario("selfstab", "random", 256, backend="array")),
        ("priority-tree-n16", _scenario("priority", "random", 16)),
        ("pusher-tree-n16", _scenario("pusher", "random", 16)),
        ("naive-path-n16", _scenario("naive", "path", 16)),
        ("selfstab-tree-n10000-object",
         _scenario("selfstab", "random", 10_000)),
        ("selfstab-tree-n10000-array",
         _scenario("selfstab", "random", 10_000, backend="array")),
        ("selfstab-tree-n100000-array",
         _scenario("selfstab", "random", 100_000, backend="array")),
    ]


def run_kernel_bench(
    matrix: Sequence[tuple[str, ScenarioSpec]] | None = None,
    *,
    steps: int = DEFAULT_STEPS,
    warmup: int = DEFAULT_WARMUP,
    repeat: int = DEFAULT_REPEAT,
    progress: Callable[[BenchRow], None] | None = None,
) -> list[BenchRow]:
    """Measure every scenario of ``matrix`` (default: the standard one)."""
    rows = []
    for label, spec in matrix if matrix is not None else default_bench_matrix():
        row = bench_spec(label, spec, steps=steps, warmup=warmup, repeat=repeat)
        if progress is not None:
            progress(row)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Explore suite: explored configurations/second of the state-space engine
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ExploreBenchRow:
    """One measured exploration scenario (delta codec + packed digests)."""

    scenario: str
    variant: str
    topology: str
    n: int
    strategy: str
    max_depth: int
    configurations: int
    transitions: int
    states_per_sec: float
    peak_seen_bytes: int
    backend: str = "object"


def bench_explore_spec(
    label: str,
    spec: ScenarioSpec,
    *,
    max_depth: int,
    max_configurations: int = 200_000,
    strategy: str = "bfs",
    repeat: int = DEFAULT_REPEAT,
) -> ExploreBenchRow:
    """Build ``spec`` and measure its exhaustive-exploration throughput.

    Runs the explorer (delta codec, packed digests: its only path)
    ``repeat`` times on a freshly built engine and keeps the best
    observed states/second — exploration is deterministic, so every
    repetition visits the identical space.
    """
    from .explore import explore

    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    built = spec.without_observers().build()
    best = None
    for _ in range(repeat):
        res = explore(
            built.engine,
            built.invariant,
            max_depth=max_depth,
            max_configurations=max_configurations,
            strategy=strategy,
        )
        if best is None or res.states_per_sec > best.states_per_sec:
            best = res
    return ExploreBenchRow(
        scenario=label,
        variant=spec.variant,
        topology=spec.topology.kind,
        n=built.tree.n,
        strategy=strategy,
        max_depth=max_depth,
        configurations=best.configurations,
        transitions=best.transitions,
        states_per_sec=best.states_per_sec,
        peak_seen_bytes=best.peak_seen_bytes,
        backend=spec.backend,
    )


def _explore_scenario(
    variant: str, topology: str, n: int, *, backend: str = "object", **topo_args
):
    """A time-independent (digest-sound) campaign spec for exploration."""
    return (
        ScenarioBuilder()
        .topology(topology, n=n, **topo_args)
        .params(k=2, l=2)
        .workload("saturated", cs_duration=0)
        .variant(variant)
        .backend(backend)
        .seed(1)
        .spec()
    )


def default_explore_matrix() -> list[tuple[str, ScenarioSpec, dict]]:
    """The standard scenario matrix behind ``BENCH_explore.json``.

    Every explorable variant on representative topologies, BFS plus one
    DFS deep-dive row; depth/cap bounds are sized so the whole suite
    stays in CI-smoke territory while still expanding thousands of
    configurations per row.
    """
    return [
        ("naive-path-n5-bfs", _explore_scenario("naive", "path", 5),
         {"max_depth": 10, "max_configurations": 3_000}),
        ("naive-star-n5-bfs", _explore_scenario("naive", "star", 5),
         {"max_depth": 10, "max_configurations": 3_000}),
        ("priority-path-n5-bfs", _explore_scenario("priority", "path", 5),
         {"max_depth": 9, "max_configurations": 3_000}),
        ("priority-path-n6-bfs", _explore_scenario("priority", "path", 6),
         {"max_depth": 8, "max_configurations": 3_000}),
        ("pusher-path-n5-bfs", _explore_scenario("pusher", "path", 5),
         {"max_depth": 9, "max_configurations": 3_000}),
        ("priority-path-n5-dfs", _explore_scenario("priority", "path", 5),
         {"max_depth": 24, "max_configurations": 3_000, "strategy": "dfs"}),
        # array-backend twins at n=6: same spaces as their object rows,
        # so the artifact shows the backend ratio on identical work
        ("priority-path-n6-bfs-array",
         _explore_scenario("priority", "path", 6, backend="array"),
         {"max_depth": 8, "max_configurations": 3_000}),
        ("selfstab-path-n6-bfs", _explore_scenario("selfstab", "path", 6),
         {"max_depth": 8, "max_configurations": 3_000}),
        ("selfstab-path-n6-bfs-array",
         _explore_scenario("selfstab", "path", 6, backend="array"),
         {"max_depth": 8, "max_configurations": 3_000}),
        # from-scratch n=8 smoke: depth-limited so the row stays in
        # CI-smoke territory while proving the array path scales up
        ("selfstab-path-n8-bfs-array-smoke",
         _explore_scenario("selfstab", "path", 8, backend="array"),
         {"max_depth": 6, "max_configurations": 4_000}),
    ]


def run_explore_bench(
    matrix: Sequence[tuple[str, ScenarioSpec, dict]] | None = None,
    *,
    repeat: int = DEFAULT_REPEAT,
    progress: Callable[[ExploreBenchRow], None] | None = None,
) -> list[ExploreBenchRow]:
    """Measure every scenario of ``matrix`` (default: the standard one)."""
    rows = []
    entries = matrix if matrix is not None else default_explore_matrix()
    for label, spec, opts in entries:
        row = bench_explore_spec(label, spec, repeat=repeat, **opts)
        if progress is not None:
            progress(row)
        rows.append(row)
    return rows


def host_fingerprint() -> dict:
    """The host metadata stamped into bench artifacts.

    Throughput numbers are only comparable on similar hardware, so
    every artifact records where it was measured.
    """
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def write_bench_json(
    rows: Sequence,
    path: str | Path,
    *,
    extra: dict | None = None,
    name: str = "kernel-steps-per-sec",
) -> None:
    """Write a bench artifact (``BENCH_kernel.json`` / ``BENCH_explore.json``)."""
    doc = {
        "benchmark": name,
        "schema_version": BENCH_SCHEMA_VERSION,
        "created_unix": int(time.time()),
        "python": sys.version.split()[0],
        "host": host_fingerprint(),
        "rows": [asdict(r) for r in rows],
    }
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def render_bench_table(rows: Sequence[BenchRow]) -> str:
    """Fixed-width table of the measured rows (CLI + README source)."""
    width = max(len(r.scenario) for r in rows)
    lines = [f"{'scenario'.ljust(width)}  {'variant':>9}  {'n':>4}  {'steps/sec':>12}"]
    for r in rows:
        lines.append(
            f"{r.scenario.ljust(width)}  {r.variant:>9}  {r.n:>4}  "
            f"{r.steps_per_sec:>12,.0f}"
        )
    return "\n".join(lines)


def render_explore_table(rows: Sequence[ExploreBenchRow]) -> str:
    """Fixed-width table of the explore suite (CLI + README source)."""
    width = max((len(r.scenario) for r in rows), default=len("scenario"))
    lines = [
        f"{'scenario'.ljust(width)}  {'variant':>9}  {'backend':>7}  "
        f"{'configs':>8}  {'states/sec':>11}  {'seen KiB':>9}"
    ]
    for r in rows:
        lines.append(
            f"{r.scenario.ljust(width)}  {r.variant:>9}  {r.backend:>7}  "
            f"{r.configurations:>8}  {r.states_per_sec:>11,.0f}  "
            f"{r.peak_seen_bytes / 1024:>9,.1f}"
        )
    return "\n".join(lines)
