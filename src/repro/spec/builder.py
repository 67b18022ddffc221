"""Fluent construction of :class:`~repro.spec.ScenarioSpec`.

The builder is sugar over the frozen spec — every method returns
``self`` so a scenario reads as one chained sentence, and
:meth:`ScenarioBuilder.spec` freezes the result::

    spec = (
        ScenarioBuilder()
        .variant("selfstab", init="tokens")
        .topology("random", n=12, seed=3)
        .params(k=2, l=4, cmax=2)
        .workload("saturated", cs_duration=3)
        .workload_for(3, "hog")
        .fault("scramble")
        .scheduler("random")
        .seed(7)
        .spec()
    )
    built = spec.build()          # or ScenarioBuilder().….build()
"""

from __future__ import annotations

from typing import Any

from .registry import SpecError
from .spec import (
    BuiltScenario,
    FairnessSpec,
    FaultSpec,
    ObserverSpec,
    ScenarioSpec,
    SchedulerSpec,
    TopologySpec,
    WorkloadSpec,
)

__all__ = ["ScenarioBuilder"]


class ScenarioBuilder:
    """Accumulates scenario components, then freezes a :class:`ScenarioSpec`."""

    def __init__(self) -> None:
        self._topology: TopologySpec | None = None
        self._variant = "selfstab"
        self._variant_options: dict[str, Any] = {}
        self._k = 1
        self._l = 1
        self._cmax = 4
        self._unbounded = False
        self._workload = WorkloadSpec("idle")
        self._overrides: dict[int, WorkloadSpec] = {}
        self._faults: list[FaultSpec] = []
        self._observers: list[ObserverSpec] = []
        self._scheduler = SchedulerSpec("round_robin")
        self._fairness: FairnessSpec | None = None
        self._seed = 0
        self._backend = "object"

    def variant(self, name: str, **options: Any) -> "ScenarioBuilder":
        """Choose the protocol variant; ``options`` reach its factory."""
        self._variant = name
        self._variant_options = dict(options)
        return self

    def topology(self, kind: str, **args: Any) -> "ScenarioBuilder":
        """Choose the tree family and its generator arguments."""
        self._topology = TopologySpec(kind, args)
        return self

    def params(
        self,
        *,
        k: int | None = None,
        l: int | None = None,
        cmax: int | None = None,
        unbounded_memory: bool | None = None,
    ) -> "ScenarioBuilder":
        """Set the (k, ℓ, CMAX) exclusion parameters."""
        if k is not None:
            self._k = k
        if l is not None:
            self._l = l
        if cmax is not None:
            self._cmax = cmax
        if unbounded_memory is not None:
            self._unbounded = unbounded_memory
        return self

    def workload(self, kind: str, **args: Any) -> "ScenarioBuilder":
        """Set the default workload applied to every process."""
        self._workload = WorkloadSpec(kind, args)
        return self

    def workload_for(self, pid: int, kind: str, **args: Any) -> "ScenarioBuilder":
        """Override the workload for one process."""
        self._overrides[int(pid)] = WorkloadSpec(kind, args)
        return self

    def fault(self, kind: str, **args: Any) -> "ScenarioBuilder":
        """Append a fault injection (applied in call order at build)."""
        self._faults.append(FaultSpec(kind, args))
        return self

    def observe(self, kind: str, **args: Any) -> "ScenarioBuilder":
        """Append a registered observer (attached in call order at build).

        Observers instrument the run without affecting it — e.g.
        ``.observe("trace")`` for event recording, or
        ``.observe("safety", every=64)`` for a continuous safety probe.
        """
        self._observers.append(ObserverSpec(kind, args))
        return self

    def scheduler(self, kind: str, **args: Any) -> "ScenarioBuilder":
        """Choose the scheduler (random/round_robin/weighted/scripted)."""
        self._scheduler = SchedulerSpec(kind, args)
        return self

    def fairness(self, kind: str) -> "ScenarioBuilder":
        """Pin the daemon assumption for ``--check liveness`` runs
        (weak/strong/unconditional; simulation ignores it)."""
        self._fairness = FairnessSpec(kind)
        return self

    def seed(self, seed: int) -> "ScenarioBuilder":
        """Set the master seed (scheduler/fault sub-seeds derive from it)."""
        self._seed = int(seed)
        return self

    def backend(self, name: str) -> "ScenarioBuilder":
        """Choose the kernel backend (``object`` or ``array``).

        ``array`` lowers the built engine into the struct-of-arrays
        kernel (:mod:`repro.sim.array_engine`) — same step semantics,
        flat-array state, batched scheduling.
        """
        self._backend = name
        return self

    def spec(self) -> ScenarioSpec:
        """Freeze the accumulated components into a :class:`ScenarioSpec`."""
        if self._topology is None:
            raise SpecError("ScenarioBuilder needs a topology(...) before spec()")
        return ScenarioSpec(
            topology=self._topology,
            variant=self._variant,
            k=self._k,
            l=self._l,
            cmax=self._cmax,
            unbounded_memory=self._unbounded,
            workload=self._workload,
            workload_overrides=tuple(sorted(self._overrides.items())),
            faults=tuple(self._faults),
            observers=tuple(self._observers),
            fairness=self._fairness,
            scheduler=self._scheduler,
            seed=self._seed,
            variant_options=self._variant_options,
            backend=self._backend,
        )

    def build(self) -> BuiltScenario:
        """Shorthand for ``.spec().build()``."""
        return self.spec().build()
