"""One-call runners for the paper's two experiments, each taking a
:class:`~repro.spec.ScenarioSpec` as its one scenario input.

* :func:`run_convergence` (T1, Theorem 1) — run the spec from its
  start (a scramble fault makes it an arbitrary configuration) and
  locate the stabilization point: when the token population becomes
  and stays ``(ℓ, 1, 1)`` and safety stops being violated.
* :func:`run_waiting_time` (T2, Theorem 2) — start legitimate, warm up
  with :func:`stabilize` until the controller has certified the
  population, then :func:`measure` one window and compare the waiting
  times against Theorem 2's bound.

:func:`convergence_spec_runner` and :func:`waiting_spec_runner` adapt
both to sweep cells, which carry the serialized spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..apps.interface import Application
from ..core.params import KLParams
from ..sim.engine import Engine
from ..spec.registry import SpecError
from ..spec.spec import ScenarioSpec
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
    "measure",
    "convergence_spec_runner",
    "waiting_spec_runner",
]


#: Step budget of each :func:`stabilize` phase (the waiting-time warmup).
WARMUP_STEPS = 500_000

#: Full controller circulations :func:`stabilize` runs past a correct
#: population, so the root has *verified* the census.
VERIFY_CIRCULATIONS = 2


class WarmupError(RuntimeError):
    """The waiting-time warmup did not stabilize within its step budget."""

    @classmethod
    def unsettled(cls, n: int) -> "WarmupError":
        """The error for an ``n``-process warmup that spent its budget."""
        return cls(
            f"system failed to stabilize during warmup: n={n} did not "
            f"settle within the {WARMUP_STEPS:,}-step warmup budget "
            "(a circulation visits every process, so large n needs more "
            "steps); use a smaller n"
        )


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
    spec: ScenarioSpec, *, max_steps: int = 200_000
) -> ConvergenceResult:
    """Run ``spec``'s scenario for ``max_steps`` and locate stabilization.

    The census and safety are sampled 400 times over the run.
    Convergence is declared when the token population is correct at
    every sample of the final quarter of the run (an empirical stand-in
    for "forever"); the stabilization step is the earliest sample from
    which correctness held through the end.
    """
    built = spec.build()
    engine, tree, params = built.engine, built.tree, built.params
    window = max(1, max_steps // 400)

    census_samples: list[tuple[int, bool]] = []
    safety_samples: list[tuple[int, bool]] = []
    while engine.now < max_steps:
        engine.run(min(window, max_steps - engine.now))
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
    engine: Engine, params: KLParams, *, max_steps: int = WARMUP_STEPS
) -> bool:
    """Run ``engine`` until the population is correct and the controller
    has completed :data:`VERIFY_CIRCULATIONS` more full circulations (so
    the root has *verified* the census).  Returns success.

    Raises :class:`~repro.spec.SpecError`, before stepping, when the
    engine has no controller to wait for: no root process, or a root
    that counts no circulations (only the ``selfstab`` and ``ring``
    variants' roots do).
    """
    root = next(
        (p for p in engine.processes if getattr(p, "is_root", False)), None
    )
    if root is None or not hasattr(root, "circulations"):
        raise SpecError(
            "cannot stabilize: the warmup waits for the root controller's "
            "circulations, and this engine's variant has no controller; "
            "use the selfstab or ring variant"
        )

    def settled(e: Engine) -> bool:
        return population_correct(e, params) and not root.reset

    if not engine.run_until(settled, max_steps, check_every=64):
        return False
    target = root.circulations + VERIFY_CIRCULATIONS
    return engine.run_until(
        lambda e: root.circulations >= target and settled(e),
        max_steps,
        check_every=64,
    )


def measure(
    engine: Engine, apps: list[Application | None], steps: int
) -> RunMetrics:
    """Run ``engine`` ``steps`` more steps and return the metrics of the
    requests made in that window.

    The object backend filters its per-request ledgers by request step
    (``collect_metrics(..., since_step=)``); the array backend keeps
    O(1) streaming aggregates instead, and its epoch mark yields the
    same :class:`RunMetrics` fields.
    """
    start = engine.now
    mark = getattr(engine, "mark_metrics_epoch", None)
    if mark is not None:
        mark()
    engine.run(steps)
    if mark is not None:
        return engine.run_metrics()
    return collect_metrics(engine, apps, since_step=start)


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
    spec: ScenarioSpec, *, measure_steps: int = 100_000
) -> WaitingTimeResult:
    """Measure waiting times of ``spec``'s scenario once it has stabilized.

    Raises :class:`WarmupError` when the warmup (:func:`stabilize`) does
    not settle within its budget.
    """
    built = spec.build()
    engine, n, params = built.engine, built.tree.n, built.params
    if not stabilize(engine, params):
        raise WarmupError.unsettled(n)
    metrics = measure(engine, built.apps, measure_steps)
    return WaitingTimeResult(
        metrics=metrics, bound=waiting_time_bound(params, n), n=n
    )


def convergence_spec_runner(
    *, seed: int, spec: Mapping[str, Any], max_steps: int = 60_000
) -> dict[str, float]:
    """Sweep-cell runner around :func:`run_convergence`.

    ``spec`` is a serialized :class:`~repro.spec.ScenarioSpec` (the
    compact dict a :class:`~repro.analysis.sweeps.SweepCell` carries and
    the parallel campaign runner ships to workers); the per-run ``seed``
    replaces the spec's master seed, so every scheduler/fault sub-stream
    derives from it.
    """
    res = run_convergence(
        ScenarioSpec.from_dict(spec).with_seed(seed), max_steps=max_steps
    )
    return {
        "converged": float(res.converged),
        "stab_step": float(res.stabilization_step)
        if res.stabilization_step is not None else float("nan"),
        "resets": float(res.resets),
        "circulations": float(res.circulations),
    }


def waiting_spec_runner(
    *, seed: int, spec: Mapping[str, Any], measure_steps: int = 30_000
) -> dict[str, float] | None:
    """Sweep-cell runner around :func:`run_waiting_time`.

    Returns ``None`` (a missing sweep cell) when warmup fails to
    stabilize instead of aborting the whole campaign.
    """
    try:
        res = run_waiting_time(
            ScenarioSpec.from_dict(spec).with_seed(seed),
            measure_steps=measure_steps,
        )
    except WarmupError:
        return None
    return {
        "max_wait": float(res.max_waiting)
        if res.max_waiting is not None else float("nan"),
        "bound": float(res.bound),
        "within_bound": float(res.within_bound),
        "satisfied": float(res.metrics.satisfied),
        "msgs_per_cs": float(res.metrics.messages_per_cs),
    }
