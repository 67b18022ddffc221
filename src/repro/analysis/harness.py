"""One-call experiment runners shared by tests, examples, and benchmarks.

Two canonical experiment shapes:

* :func:`run_convergence` — start the self-stabilizing protocol in a
  seeded *arbitrary* configuration, run it, and locate the stabilization
  point (when the token population becomes and stays ``(ℓ, 1, 1)`` and
  safety stops being violated).
* :func:`run_waiting_time` — start legitimate, warm up until the
  controller has certified the population, then measure waiting times
  under a saturated workload and compare against Theorem 2's bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..apps.interface import Application
from ..apps.workloads import SaturatedWorkload
from ..core.params import KLParams
from ..core.selfstab import build_selfstab_engine
from ..sim.engine import Engine
from ..sim.faults import scramble_configuration
from ..sim.rng import derive_seed
from ..sim.scheduler import RandomScheduler, Scheduler
from ..spec.spec import ScenarioSpec
from ..topology.tree import OrientedTree
from .census import population_correct, take_census
from .invariants import safety_ok
from .metrics import RunMetrics, collect_metrics, waiting_time_bound

__all__ = [
    "ConvergenceResult",
    "run_convergence",
    "WaitingTimeResult",
    "run_waiting_time",
    "WarmupError",
    "stabilize",
    "convergence_sweep_runner",
    "waiting_sweep_runner",
    "convergence_spec_runner",
    "waiting_spec_runner",
]


#: Step budget of each :func:`stabilize` phase (the waiting-time warmup).
WARMUP_STEPS = 500_000


class WarmupError(RuntimeError):
    """The waiting-time warmup did not stabilize within its step budget."""


def _resolve_spec(spec: ScenarioSpec | Mapping[str, Any]) -> ScenarioSpec:
    """Accept a :class:`ScenarioSpec` or its compact dict form."""
    if isinstance(spec, ScenarioSpec):
        return spec
    return ScenarioSpec.from_dict(spec)


@dataclass(slots=True)
class ConvergenceResult:
    """Outcome of a convergence experiment."""

    converged: bool
    #: first sampled step from which the census stayed ``(ℓ, 1, 1)``
    stabilization_step: int | None
    #: first sampled step from which safety was never again violated
    safety_clean_from: int | None
    resets: int
    circulations: int
    steps: int
    final_census: tuple[int, int, int]

    @property
    def stabilized_fraction(self) -> float | None:
        """Fraction of the run spent stabilized (None if never)."""
        if self.stabilization_step is None or self.steps == 0:
            return None
        return 1.0 - self.stabilization_step / self.steps


def _first_suffix_true(samples: list[tuple[int, bool]]) -> int | None:
    """Earliest sampled step such that the flag holds at it and ever after."""
    start: int | None = None
    for step, ok in samples:
        if ok:
            if start is None:
                start = step
        else:
            start = None
    return start


def run_convergence(
    tree: OrientedTree | None = None,
    params: KLParams | None = None,
    *,
    seed: int = 0,
    max_steps: int = 200_000,
    sample_every: int | None = None,
    apps: list[Application | None] | None = None,
    scheduler: Scheduler | None = None,
    timeout_interval: int | None = None,
    scramble: bool = True,
    spec: ScenarioSpec | Mapping[str, Any] | None = None,
) -> ConvergenceResult:
    """Run the self-stabilizing protocol from an arbitrary configuration.

    Convergence is declared when the token population is correct at every
    sample of the final quarter of the run (an empirical stand-in for
    "forever"); the stabilization step is the earliest sample from which
    correctness held through the end.

    The scenario comes either from ``(tree, params, …)`` arguments or
    from a declarative ``spec`` (a :class:`~repro.spec.ScenarioSpec` or
    its dict form), which then governs the entire engine construction —
    ``seed``, ``apps``, ``scheduler``, ``timeout_interval`` and
    ``scramble`` are all ignored in that case (put them in the spec).
    """
    if spec is not None:
        built = _resolve_spec(spec).build()
        engine, tree, params = built.engine, built.tree, built.params
    elif tree is None or params is None:
        raise ValueError("run_convergence needs (tree, params) or spec=")
    else:
        if apps is None:
            apps = [
                SaturatedWorkload(need=min(1 + p % params.k, params.k), cs_duration=2)
                for p in range(tree.n)
            ]
        if scheduler is None:
            scheduler = RandomScheduler(tree.n, seed=derive_seed(seed, "sched"))
        engine = build_selfstab_engine(
            tree, params, apps, scheduler, timeout_interval=timeout_interval
        )
        if scramble:
            scramble_configuration(engine, params, derive_seed(seed, "faults"))
    if sample_every is None:
        sample_every = max(1, max_steps // 400)

    census_samples: list[tuple[int, bool]] = []
    safety_samples: list[tuple[int, bool]] = []
    while engine.now < max_steps:
        engine.run(min(sample_every, max_steps - engine.now))
        census_samples.append((engine.now, population_correct(engine, params)))
        safety_samples.append((engine.now, safety_ok(engine, params)))

    stab = _first_suffix_true(census_samples)
    clean = _first_suffix_true(safety_samples)
    converged = stab is not None and stab <= max_steps * 3 // 4
    root = engine.process(tree.root)
    return ConvergenceResult(
        converged=converged,
        stabilization_step=stab,
        safety_clean_from=clean,
        resets=getattr(root, "resets", 0),
        circulations=getattr(root, "circulations", 0),
        steps=engine.now,
        final_census=take_census(engine).as_tuple(),
    )


def stabilize(
    engine: Engine,
    params: KLParams,
    *,
    max_steps: int = WARMUP_STEPS,
    extra_circulations: int = 2,
) -> bool:
    """Run ``engine`` until the population is correct and the controller
    has completed ``extra_circulations`` more full circulations (so the
    root has *verified* the census).  Returns success."""
    root = next(p for p in engine.processes if getattr(p, "is_root", False))

    def settled(e: Engine) -> bool:
        return population_correct(e, params) and not getattr(root, "reset", False)

    if not engine.run_until(settled, max_steps, check_every=64):
        return False
    target = getattr(root, "circulations", 0) + extra_circulations
    return engine.run_until(
        lambda e: getattr(root, "circulations", 0) >= target and settled(e),
        max_steps,
        check_every=64,
    )


def _convergence_metrics(res: ConvergenceResult) -> dict[str, float]:
    """The sweep-table metric dict shared by both convergence runners."""
    return {
        "converged": float(res.converged),
        "stab_step": float(res.stabilization_step)
        if res.stabilization_step is not None else float("nan"),
        "resets": float(res.resets),
        "circulations": float(res.circulations),
    }


def _waiting_metrics(res: "WaitingTimeResult") -> dict[str, float]:
    """The sweep-table metric dict shared by both waiting-time runners."""
    return {
        "max_wait": float(res.max_waiting)
        if res.max_waiting is not None else float("nan"),
        "bound": float(res.bound),
        "within_bound": float(res.within_bound),
        "satisfied": float(res.metrics.satisfied),
        "msgs_per_cs": float(res.metrics.messages_per_cs),
    }


def convergence_sweep_runner(
    *, seed: int, tree: OrientedTree, params: KLParams, max_steps: int = 60_000
) -> dict[str, float]:
    """Sweep-cell adapter around :func:`run_convergence`.

    A module-level function (not a closure) so sweep cells built on it
    stay picklable under any multiprocessing start method — the shape
    :func:`repro.analysis.sweeps.run_sweep` and the ``sweep`` CLI
    subcommand feed to the parallel campaign runner.
    """
    res = run_convergence(tree, params, seed=seed, max_steps=max_steps)
    return _convergence_metrics(res)


def waiting_sweep_runner(
    *, seed: int, tree: OrientedTree, params: KLParams,
    measure_steps: int = 30_000,
) -> dict[str, float] | None:
    """Sweep-cell adapter around :func:`run_waiting_time`.

    Returns ``None`` (a missing sweep cell) when warmup fails to
    stabilize instead of aborting the whole campaign.
    """
    try:
        res = run_waiting_time(
            tree, params, seed=seed, measure_steps=measure_steps
        )
    except WarmupError:
        return None
    return _waiting_metrics(res)


def convergence_spec_runner(
    *, seed: int, spec: Mapping[str, Any], max_steps: int = 60_000
) -> dict[str, float]:
    """Spec-driven sweep-cell runner around :func:`run_convergence`.

    ``spec`` is a serialized :class:`~repro.spec.ScenarioSpec` (the
    compact dict a :class:`~repro.analysis.sweeps.SweepCell` carries and
    the parallel campaign runner ships to workers); the per-run ``seed``
    replaces the spec's master seed, so every scheduler/fault sub-stream
    derives exactly as in the non-spec runner.
    """
    s = _resolve_spec(spec).with_seed(seed)
    res = run_convergence(spec=s, max_steps=max_steps)
    return _convergence_metrics(res)


def waiting_spec_runner(
    *, seed: int, spec: Mapping[str, Any], measure_steps: int = 30_000
) -> dict[str, float] | None:
    """Spec-driven sweep-cell runner around :func:`run_waiting_time`.

    Returns ``None`` (a missing sweep cell) when warmup fails to
    stabilize instead of aborting the whole campaign.
    """
    s = _resolve_spec(spec).with_seed(seed)
    try:
        res = run_waiting_time(spec=s, measure_steps=measure_steps)
    except WarmupError:
        return None
    return _waiting_metrics(res)


@dataclass(slots=True)
class WaitingTimeResult:
    """Outcome of a waiting-time experiment."""

    metrics: RunMetrics
    bound: int
    n: int

    @property
    def max_waiting(self) -> int | None:
        """Worst observed waiting time (paper metric)."""
        return self.metrics.max_waiting_time

    @property
    def within_bound(self) -> bool:
        """True iff every observed waiting time respects Theorem 2."""
        w = self.metrics.max_waiting_time
        return w is None or w <= self.bound


def run_waiting_time(
    tree: OrientedTree | None = None,
    params: KLParams | None = None,
    *,
    seed: int = 0,
    measure_steps: int = 100_000,
    needs: list[int] | None = None,
    cs_duration: int = 1,
    scheduler: Scheduler | None = None,
    timeout_interval: int | None = None,
    spec: ScenarioSpec | Mapping[str, Any] | None = None,
) -> WaitingTimeResult:
    """Measure waiting times of a stabilized system under saturation.

    ``needs[p]`` is each process's per-request demand (default: everyone
    requests 1 unit, the worst-case regime of the Theorem 2 proof).
    With a declarative ``spec`` the entire engine construction comes
    from it instead — ``seed``, ``needs``, ``cs_duration``,
    ``scheduler`` and ``timeout_interval`` are all ignored (put them in
    the spec).  Raises :class:`WarmupError` when the warmup
    (:func:`stabilize`) does not settle within its budget.
    """
    if spec is not None:
        built = _resolve_spec(spec).build()
        engine, tree, params, apps = (
            built.engine, built.tree, built.params, built.apps,
        )
    elif tree is None or params is None:
        raise ValueError("run_waiting_time needs (tree, params) or spec=")
    else:
        if needs is None:
            needs = [1] * tree.n
        apps = [
            SaturatedWorkload(need=needs[p], cs_duration=cs_duration)
            for p in range(tree.n)
        ]
        if scheduler is None:
            scheduler = RandomScheduler(tree.n, seed=derive_seed(seed, "sched"))
        engine = build_selfstab_engine(
            tree, params, apps, scheduler,
            timeout_interval=timeout_interval, init="tokens",
        )
    if not stabilize(engine, params):
        raise WarmupError(
            f"system failed to stabilize during warmup: n={tree.n} did not "
            f"settle within the {WARMUP_STEPS:,}-step warmup budget "
            "(a circulation visits every process, so large n needs more "
            "steps); use a smaller n"
        )
    warmup_end = engine.now
    # The array backend keeps O(1) streaming aggregates instead of
    # per-request ledgers; its epoch mark replaces ``since_step``
    # filtering and yields the same RunMetrics fields.
    mark = getattr(engine, "mark_metrics_epoch", None)
    if mark is not None:
        mark()
    engine.run(measure_steps)
    if mark is not None:
        metrics = engine.run_metrics()
    else:
        metrics = collect_metrics(engine, apps, since_step=warmup_end)
    return WaitingTimeResult(
        metrics=metrics, bound=waiting_time_bound(params, tree.n), n=tree.n
    )
