"""Declarative scenario layer: one serializable construction API.

``ScenarioSpec`` names a point in the experiment space as data;
``ScenarioBuilder`` assembles one fluently; the ``register_*``
decorators let every protocol variant, tree family, workload, fault
injector and named scenario self-register into the provider registries
that ``spec.build()`` and the CLI resolve against.
"""

from .builder import ScenarioBuilder
from .registry import (
    FAIRNESS,
    FAULTS,
    OBSERVERS,
    SCENARIOS,
    TOPOLOGIES,
    VARIANTS,
    WORKLOADS,
    Registry,
    RegistryEntry,
    SpecError,
    UnknownSpecKey,
    register_fairness,
    register_fault,
    register_observer,
    register_scenario,
    register_topology,
    register_variant,
    register_workload,
)
from .spec import (
    BuiltScenario,
    FairnessSpec,
    FaultSpec,
    KindSpec,
    ObserverSpec,
    ScenarioSpec,
    SchedulerSpec,
    TopologySpec,
    WorkloadSpec,
    parse_kind_args,
    scenario_spec,
)

__all__ = [
    "ScenarioBuilder",
    "ScenarioSpec",
    "BuiltScenario",
    "KindSpec",
    "TopologySpec",
    "WorkloadSpec",
    "FaultSpec",
    "ObserverSpec",
    "FairnessSpec",
    "SchedulerSpec",
    "scenario_spec",
    "parse_kind_args",
    "Registry",
    "RegistryEntry",
    "SpecError",
    "UnknownSpecKey",
    "VARIANTS",
    "TOPOLOGIES",
    "WORKLOADS",
    "FAULTS",
    "OBSERVERS",
    "SCENARIOS",
    "FAIRNESS",
    "register_variant",
    "register_topology",
    "register_workload",
    "register_fault",
    "register_observer",
    "register_scenario",
    "register_fairness",
]
