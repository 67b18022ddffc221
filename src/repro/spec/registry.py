"""Decorator-based provider registries for the declarative spec layer.

Every construction ingredient of a scenario — the protocol variant, the
tree topology, the per-process workload, the fault model, and whole
named scenarios — is a *provider*: a callable registered under a short
string key.  Providers self-register where they are defined (``core/``,
``topology/generators.py``, ``apps/workloads.py``, ``sim/faults.py``,
``scenarios.py``) via the ``@register_*`` decorators, so adding a new
variant or workload automatically makes it reachable from
:class:`~repro.spec.ScenarioSpec`, the CLI, and ``repro list``.

Lookups go through :meth:`Registry.get` / :meth:`Registry.entry`, which
raise :class:`UnknownSpecKey` naming every valid key — never a bare
``KeyError`` — and lazily import the provider modules first, so the
registries are fully populated no matter which corner of the package
was imported first.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "SpecError",
    "UnknownSpecKey",
    "RegistryEntry",
    "Registry",
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


class SpecError(ValueError):
    """A scenario spec is malformed or names an unknown provider."""


class UnknownSpecKey(SpecError):
    """Lookup of an unregistered key; carries the valid alternatives."""

    def __init__(
        self, kind: str, name: str, choices: list[str], plural: str | None = None
    ) -> None:
        self.kind = kind
        self.name = name
        self.choices = choices
        plural = plural or f"{kind}s"
        super().__init__(
            f"unknown {kind} {name!r}; valid {plural}: {', '.join(choices)}"
        )


@dataclass(frozen=True, slots=True)
class RegistryEntry:
    """One registered provider: the callable plus listing metadata."""

    name: str
    fn: Callable[..., Any]
    #: one-line description shown by ``repro list``
    doc: str
    #: provider-kind-specific flags (e.g. ``explorable`` for variants)
    meta: dict[str, Any] = field(default_factory=dict)


#: Modules whose import populates the registries.  Imported lazily on
#: first lookup so ``repro.spec`` never creates an import cycle with the
#: provider packages that import its decorators.
_PROVIDER_MODULES = (
    "repro.core.naive",
    "repro.core.pusher",
    "repro.core.priority",
    "repro.core.selfstab",
    "repro.baselines.central",
    "repro.baselines.ring",
    "repro.topology.generators",
    "repro.apps.workloads",
    "repro.sim.faults",
    "repro.sim.observers",
    "repro.analysis.invariants",
    "repro.analysis.census",
    "repro.analysis.liveness",
    "repro.scenarios",
)

_providers_loaded = False
_providers_loading = False


def _ensure_providers() -> None:
    global _providers_loaded, _providers_loading
    if _providers_loaded or _providers_loading:
        return
    # The loaded flag is only set once every import succeeded, so a
    # failed provider import is re-raised on the next lookup instead of
    # leaving the registries silently half-populated; the loading flag
    # guards against reentrancy while the imports themselves run.
    _providers_loading = True
    try:
        for mod in _PROVIDER_MODULES:
            importlib.import_module(mod)
        _providers_loaded = True
    finally:
        _providers_loading = False


class Registry:
    """A named mapping of provider keys to :class:`RegistryEntry`."""

    def __init__(self, kind: str, *, plural: str | None = None) -> None:
        self.kind = kind
        self.plural = plural or f"{kind}s"
        self._entries: dict[str, RegistryEntry] = {}

    def register(
        self, name: str, *, doc: str | None = None, **meta: Any
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator registering ``fn`` under ``name``.

        ``doc`` defaults to the first line of the provider's docstring;
        extra keyword arguments become the entry's ``meta`` mapping.
        The decorated callable is returned unchanged.
        """
        if name in self._entries:
            raise SpecError(f"duplicate {self.kind} registration {name!r}")

        def deco(fn: Callable[..., Any]) -> Callable[..., Any]:
            line = doc
            if line is None:
                line = (fn.__doc__ or "").strip().splitlines()[0:1]
                line = line[0] if line else ""
            self._entries[name] = RegistryEntry(name, fn, line, dict(meta))
            return fn

        return deco

    def entry(self, name: str) -> RegistryEntry:
        """Full entry for ``name``; :class:`UnknownSpecKey` if absent."""
        _ensure_providers()
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownSpecKey(
                self.kind, name, self.names(), self.plural
            ) from None

    def get(self, name: str) -> Callable[..., Any]:
        """Provider callable for ``name``; :class:`UnknownSpecKey` if absent."""
        return self.entry(name).fn

    def names(self) -> list[str]:
        """Sorted registered keys."""
        _ensure_providers()
        return sorted(self._entries)

    def entries(self) -> list[RegistryEntry]:
        """All entries, sorted by key."""
        _ensure_providers()
        return [self._entries[n] for n in self.names()]

    def __contains__(self, name: object) -> bool:
        _ensure_providers()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        _ensure_providers()
        return len(self._entries)


#: Protocol variants: ``fn(tree, params, apps, scheduler, **options)
#: -> Engine``.  Meta keys: ``expected_census`` (callable ``(census,
#: params) -> bool`` or ``None`` for safety-only invariants),
#: ``fuzzable``, ``explorable``.
VARIANTS = Registry("variant")

#: Tree families: ``fn(**args) -> OrientedTree``.
TOPOLOGIES = Registry("topology", plural="topologies")

#: Workload factories: ``fn(pid, params, **args) -> Application | None``.
WORKLOADS = Registry("workload")

#: Fault injectors: ``fn(engine, params, seed, **args) -> None``.
FAULTS = Registry("fault")

#: Observer factories: ``fn(params, **args) -> Observer``.
OBSERVERS = Registry("observer")

#: Named scenario presets: ``fn(**kwargs) -> ScenarioSpec``.
SCENARIOS = Registry("scenario")

#: Fairness constraints for liveness checking: ``fn(*, enabled_all,
#: enabled_any, taken, stepped_pids, all_pids) -> bool`` — True iff a
#: cycle with those move bitmasks is admissible under the constraint
#: (see :mod:`repro.analysis.liveness` for the mask conventions).
FAIRNESS = Registry("fairness", plural="fairness constraints")



def register_variant(
    name: str,
    *,
    doc: str | None = None,
    expected_census: Callable[..., bool] | None = None,
    fuzzable: bool = True,
    explorable: bool = True,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a protocol-variant engine factory.

    ``expected_census`` is the variant's legitimate token population
    (``None`` = the invariant checks safety only); ``fuzzable`` /
    ``explorable`` gate the ``fuzz`` and ``explore`` campaigns
    (exploration requires time-independent configurations, which the
    self-stabilizing timeout violates).
    """
    return VARIANTS.register(
        name,
        doc=doc,
        expected_census=expected_census,
        fuzzable=fuzzable,
        explorable=explorable,
    )


def register_topology(
    name: str, *, doc: str | None = None
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a tree-family generator."""
    return TOPOLOGIES.register(name, doc=doc)


def register_workload(
    name: str, *, doc: str | None = None
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a per-process workload factory."""
    return WORKLOADS.register(name, doc=doc)


def register_fault(
    name: str, *, doc: str | None = None
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a fault/corruption injector."""
    return FAULTS.register(name, doc=doc)


def register_observer(
    name: str, *, doc: str | None = None
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register an observer factory (pluggable engine instrumentation)."""
    return OBSERVERS.register(name, doc=doc)


def register_scenario(
    name: str, *, doc: str | None = None
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a named scenario preset returning a ``ScenarioSpec``."""
    return SCENARIOS.register(name, doc=doc)


def register_fairness(
    name: str, *, doc: str | None = None
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a fairness constraint (cycle-admissibility predicate)."""
    return FAIRNESS.register(name, doc=doc)

