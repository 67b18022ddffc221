"""Declarative, serializable scenario descriptions.

A :class:`ScenarioSpec` names one point in the paper's experiment space
— protocol variant × tree topology × (k, ℓ, CMAX) × per-process
workload × fault model × scheduler/seed — as plain *data*: frozen,
equality-comparable, picklable, and round-trippable through JSON
(:meth:`ScenarioSpec.to_json` / :meth:`ScenarioSpec.from_json`).

``spec.build()`` resolves every component through the provider
registries (:mod:`repro.spec.registry`) and returns a
:class:`BuiltScenario`: a ready :class:`~repro.sim.engine.Engine`, the
variant's safety/census invariant, and the concrete tree, params, apps
and scheduler.  Building the same spec twice yields byte-identical
runs — the property the campaign runners and the ``--spec`` /
``--dump-spec`` CLI manifests rely on.

Sub-specs (:class:`TopologySpec`, :class:`WorkloadSpec`,
:class:`FaultSpec`, :class:`SchedulerSpec`) share one shape — a
registry ``kind`` plus a keyword-argument mapping — and one compact
CLI string syntax, e.g. ``stochastic:p=0.3,max_need=2`` or
``caterpillar:spine=4,legs=2`` (parsed by :meth:`KindSpec.parse`).

Seed conventions (matching :mod:`repro.analysis.harness`):

* a ``random`` scheduler without an explicit ``seed`` argument draws
  from ``derive_seed(spec.seed, "sched")``;
* fault ``i`` without an explicit ``seed`` argument draws from
  ``derive_seed(spec.seed, "faults")`` for the first fault and
  ``derive_seed(spec.seed, "faults.i")`` for later ones;
* a workload factory that accepts a ``seed`` the spec does not pin
  receives ``derive_seed(spec.seed, "workload")`` (each factory then
  derives per-pid substreams from it).
"""

from __future__ import annotations

import functools
import inspect
import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..core.params import KLParams
from .registry import (
    FAIRNESS,
    FAULTS,
    OBSERVERS,
    TOPOLOGIES,
    VARIANTS,
    WORKLOADS,
    Registry,
    SpecError,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..apps.interface import Application
    from ..sim.engine import Engine
    from ..sim.observers import Observer
    from ..sim.scheduler import Scheduler
    from ..topology.tree import OrientedTree

__all__ = [
    "KindSpec",
    "TopologySpec",
    "WorkloadSpec",
    "FaultSpec",
    "ObserverSpec",
    "FairnessSpec",
    "SchedulerSpec",
    "ScenarioSpec",
    "BuiltScenario",
    "scenario_spec",
]

#: Schema version stamped into serialized specs.
SPEC_VERSION = 1

SCHEDULER_KINDS = ("random", "round_robin", "weighted", "scripted")


def _coerce_scalar(raw: str) -> Any:
    low = raw.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    if low in ("none", "null"):
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _coerce_item(raw: str) -> Any:
    if "/" in raw:
        return [_coerce_scalar(x) for x in raw.split("/")]
    return _coerce_scalar(raw)


def _coerce_value(raw: str) -> Any:
    """Parse a spec-string value: scalars, ``a/b/c`` lists, ``;``-rows."""
    if ";" in raw:
        return [_coerce_item(x) for x in raw.split(";")]
    return _coerce_item(raw)


def parse_kind_args(text: str) -> tuple[str, dict[str, Any]]:
    """Parse ``kind[:key=value,...]`` into ``(kind, args)``.

    Values coerce to int/float/bool/None when they look like one;
    ``a/b/c`` becomes a list and ``;`` separates list-of-list rows
    (e.g. ``scripted:script=0/2/3;10/1/2``).
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if not kind:
        raise SpecError(f"empty kind in spec string {text!r}")
    args: dict[str, Any] = {}
    for item in rest.split(",") if rest else []:
        item = item.strip()
        if not item:
            continue
        key, sep, raw = item.partition("=")
        if not sep or not key.strip():
            raise SpecError(
                f"bad argument {item!r} in spec string {text!r} "
                "(expected key=value)"
            )
        args[key.strip()] = _coerce_value(raw.strip())
    return kind, args


@functools.lru_cache(maxsize=256)
def _signature(fn: Callable[..., Any]) -> inspect.Signature | None:
    """``fn``'s signature, computed once per provider function.

    A build calls the workload provider once per pid; without the cache
    ``inspect.signature`` dominated the profile of large builds.
    ``None`` for a callable without an introspectable signature.
    """
    try:
        return inspect.signature(fn)
    except (TypeError, ValueError):  # pragma: no cover - builtins
        return None


def _call_provider(registry: Registry, kind: str, /, *args: Any, **kwargs: Any) -> Any:
    """Call a registered provider with spec-quality error reporting.

    Caller-argument mistakes (unknown/missing keyword) are detected by
    binding the provider's signature *before* the call and reported as a
    :class:`SpecError` showing that signature; a ``TypeError`` raised
    inside the provider therefore propagates as the genuine bug it is.
    ``ValueError`` from a provider is its input validation (tree sizes,
    probability bounds, …) and is re-raised as :class:`SpecError` with
    the original chained for debugging.
    """
    fn = registry.get(kind)
    sig = _signature(fn)
    if sig is not None:
        try:
            sig.bind(*args, **kwargs)
        except TypeError as exc:
            raise SpecError(
                f"bad arguments for {registry.kind} {kind!r}: {exc} "
                f"(provider signature: {kind}{sig})"
            ) from None
    try:
        return fn(*args, **kwargs)
    except SpecError:
        raise
    except ValueError as exc:
        raise SpecError(f"invalid {registry.kind} {kind!r}: {exc}") from exc


@dataclass(frozen=True, slots=True)
class KindSpec:
    """A registry key plus keyword arguments — the shared sub-spec shape."""

    kind: str
    args: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or not self.kind:
            raise SpecError(f"{type(self).__name__}.kind must be a non-empty string")
        object.__setattr__(self, "args", dict(self.args))

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready ``{"kind": ..., "args": {...}}`` mapping."""
        return {"kind": self.kind, "args": dict(self.args)}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "KindSpec":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        if not isinstance(d, Mapping):
            raise SpecError(f"{cls.__name__} must be a mapping, got {d!r}")
        extra = set(d) - {"kind", "args"}
        if extra:
            raise SpecError(f"unknown {cls.__name__} keys: {sorted(extra)}")
        if "kind" not in d:
            raise SpecError(f"{cls.__name__} needs a 'kind'")
        return cls(d["kind"], dict(d.get("args") or {}))

    @classmethod
    def parse(cls, text: str) -> "KindSpec":
        """Parse the ``kind[:key=value,...]`` CLI string syntax."""
        kind, args = parse_kind_args(text)
        return cls(kind, args)


@dataclass(frozen=True, slots=True)
class TopologySpec(KindSpec):
    """Names a registered tree family plus its generator arguments."""

    def build(self) -> "OrientedTree":
        """Construct the tree via the topology registry."""
        return _call_provider(TOPOLOGIES, self.kind, **self.args)


@dataclass(frozen=True, slots=True)
class WorkloadSpec(KindSpec):
    """Names a registered workload factory plus its arguments."""

    def build(
        self, pid: int, params: KLParams, *, default_seed: int | None = None
    ) -> "Application | None":
        """Instantiate this workload for process ``pid``.

        When the factory accepts a ``seed`` argument that the spec does
        not pin, ``default_seed`` (derived from the scenario's master
        seed) is injected — so stochastic workloads draw fresh streams
        per scenario seed instead of a fixed default.
        """
        args = dict(self.args)
        if default_seed is not None and "seed" not in args:
            sig = _signature(WORKLOADS.get(self.kind))
            if sig is not None and "seed" in sig.parameters:
                args["seed"] = default_seed
        return _call_provider(WORKLOADS, self.kind, pid, params, **args)


@dataclass(frozen=True, slots=True)
class FaultSpec(KindSpec):
    """Names a registered fault injector plus its arguments."""

    def apply(self, engine: "Engine", params: KLParams, default_seed: int) -> None:
        """Inject this fault into a freshly built ``engine``."""
        args = dict(self.args)
        seed = args.pop("seed", default_seed)
        _call_provider(FAULTS, self.kind, engine, params, seed, **args)


@dataclass(frozen=True, slots=True)
class ObserverSpec(KindSpec):
    """Names a registered observer factory plus its arguments.

    Observers are instrumentation, not simulation state: attaching them
    never changes an execution or its snapshots (the determinism suite
    holds ``save_state()`` byte-identical across stacks), so campaign
    runners are free to drop them (``repro ... --no-stats``, and the
    fuzz/explore kernels always do).
    """

    def build(self, params: KLParams) -> "Observer":
        """Instantiate this observer via the observer registry."""
        return _call_provider(OBSERVERS, self.kind, params, **self.args)


@dataclass(frozen=True, slots=True)
class FairnessSpec(KindSpec):
    """Names a registered fairness constraint for liveness checking.

    Part of a scenario manifest so a ``repro explore --check liveness``
    run replays under the same daemon assumption.  The registered
    constraints are pure cycle predicates and take no construction
    arguments — a non-empty ``args`` mapping is rejected at build time
    rather than silently ignored.
    """

    def build(self) -> Callable[..., bool]:
        """The cycle-admissibility predicate from the fairness registry."""
        fn = FAIRNESS.get(self.kind)
        if self.args:
            raise SpecError(
                f"fairness constraint {self.kind!r} takes no arguments "
                f"(got {sorted(self.args)})"
            )
        return fn


@dataclass(frozen=True, slots=True)
class SchedulerSpec(KindSpec):
    """Names a scheduler kind (not a registry: the four sim schedulers)."""

    def build(self, n: int, spec_seed: int) -> "Scheduler":
        """Instantiate the scheduler for an ``n``-process network."""
        from ..sim.rng import derive_seed
        from ..sim.scheduler import (
            RandomScheduler,
            RoundRobinScheduler,
            ScriptedScheduler,
            WeightedScheduler,
        )

        args = dict(self.args)
        if self.kind == "round_robin":
            if args:
                raise SpecError("round_robin scheduler takes no arguments")
            return RoundRobinScheduler(n)
        if self.kind == "random":
            seed = args.pop("seed", None)
            if seed is None:
                seed = derive_seed(spec_seed, "sched")
            if args:
                raise SpecError(f"unknown random scheduler arguments: {sorted(args)}")
            return RandomScheduler(n, seed=seed)
        if self.kind == "weighted":
            seed = args.pop("seed", None)
            if seed is None:
                seed = derive_seed(spec_seed, "sched")
            weights = args.pop("weights", None)
            if weights is None or args:
                raise SpecError("weighted scheduler needs exactly 'weights' (+ 'seed')")
            return WeightedScheduler(weights, seed=seed)
        if self.kind == "scripted":
            script = args.pop("script", [])
            if isinstance(script, int):
                script = [script]  # a lone pid from the CLI string syntax
            if args:
                raise SpecError(f"unknown scripted scheduler arguments: {sorted(args)}")
            return ScriptedScheduler(n, [int(p) for p in script])
        raise SpecError(
            f"unknown scheduler {self.kind!r}; "
            f"valid schedulers: {', '.join(SCHEDULER_KINDS)}"
        )


@dataclass(slots=True)
class BuiltScenario:
    """Everything ``ScenarioSpec.build()`` produced, ready to run."""

    spec: "ScenarioSpec"
    engine: "Engine"
    #: the variant's safety (+ token census) invariant, in the
    #: explore/fuzz convention: ``True`` = holds, ``str`` = violation
    invariant: Callable[["Engine"], bool | str]
    tree: "OrientedTree"
    params: KLParams
    apps: "list[Application | None]"
    scheduler: "Scheduler"
    #: observers built from ``spec.observers``, already attached to
    #: ``engine`` in spec order
    observers: "list[Observer]" = field(default_factory=list)


def _census_invariant(
    expected: Callable[..., bool] | None, params: KLParams, n: int
) -> Callable[["Engine"], bool | str]:
    """Safety + token-census invariant for one built scenario.

    Safety must hold for every variant; the census expectation only for
    controller-less ones (the self-stabilizing root may legitimately
    mint or flush tokens mid-recovery).  A single-process network has
    no channels and therefore no tokens — conservation is vacuous
    there, not violated.
    """
    from ..analysis.census import take_census
    from ..analysis.invariants import safety_ok

    def invariant(engine: "Engine") -> bool | str:
        if not safety_ok(engine, params):
            return "safety violated"
        if expected is not None and n > 1:
            census = take_census(engine)
            if not expected(census, params):
                return f"token census broken: {census.as_tuple()}"
        return True

    return invariant


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """One serializable point of the experiment space.

    ``workload`` applies to every process unless overridden per-pid via
    ``workload_overrides``; ``faults`` are applied, in order, to the
    freshly built engine; ``observers`` name registered instrumentation
    attached after the faults (attachment order = spec order);
    ``variant_options`` pass through to the variant's engine factory
    (e.g. ``init="tokens"``, ``seam``, ``timeout_interval`` for
    ``selfstab`` and the ``ring`` baseline); ``fairness`` names the
    daemon assumption liveness checking replays under (simulation
    ignores it).
    """

    topology: TopologySpec
    variant: str = "selfstab"
    k: int = 1
    l: int = 1
    cmax: int = 4
    unbounded_memory: bool = False
    workload: WorkloadSpec = field(default_factory=lambda: WorkloadSpec("idle"))
    workload_overrides: tuple[tuple[int, WorkloadSpec], ...] = ()
    faults: tuple[FaultSpec, ...] = ()
    observers: tuple[ObserverSpec, ...] = ()
    #: daemon assumption for ``--check liveness`` runs; ``None`` = the
    #: checker's default (``weak``).  Never affects a simulation run.
    fairness: FairnessSpec | None = None
    scheduler: SchedulerSpec = field(
        default_factory=lambda: SchedulerSpec("round_robin")
    )
    seed: int = 0
    variant_options: Mapping[str, Any] = field(default_factory=dict)
    #: kernel backend: ``"object"`` (the reference engine) or ``"array"``
    #: (the struct-of-arrays engine lowered from it; see
    #: :mod:`repro.sim.array_engine` for what it can't represent)
    backend: str = "object"

    def __post_init__(self) -> None:
        if self.backend not in ("object", "array"):
            raise SpecError(
                f"unknown backend {self.backend!r} (expected object|array)"
            )
        object.__setattr__(self, "variant_options", dict(self.variant_options))
        object.__setattr__(self, "faults", tuple(self.faults))
        object.__setattr__(self, "observers", tuple(self.observers))
        overrides = tuple(
            (int(pid), spec) for pid, spec in self.workload_overrides
        )
        object.__setattr__(self, "workload_overrides", overrides)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping; inverse of :meth:`from_dict`.

        ``observers`` is emitted only when non-empty and ``fairness``
        only when set, so manifests of scenarios without them are
        byte-identical to the earlier schema (the
        ``--dump-spec``/``--spec`` replay contract).
        """
        d = {
            "version": SPEC_VERSION,
            "variant": self.variant,
            "variant_options": dict(self.variant_options),
            "topology": self.topology.to_dict(),
            "k": self.k,
            "l": self.l,
            "cmax": self.cmax,
            "unbounded_memory": self.unbounded_memory,
            "workload": self.workload.to_dict(),
            "workload_overrides": {
                str(pid): spec.to_dict() for pid, spec in self.workload_overrides
            },
            "faults": [f.to_dict() for f in self.faults],
            "scheduler": self.scheduler.to_dict(),
            "seed": self.seed,
        }
        if self.observers:
            d["observers"] = [o.to_dict() for o in self.observers]
        if self.fairness is not None:
            d["fairness"] = self.fairness.to_dict()
        if self.backend != "object":
            d["backend"] = self.backend
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written JSON)."""
        if not isinstance(d, Mapping):
            raise SpecError(f"scenario spec must be a mapping, got {d!r}")
        known = {
            "version",
            "variant",
            "variant_options",
            "topology",
            "k",
            "l",
            "cmax",
            "unbounded_memory",
            "workload",
            "workload_overrides",
            "faults",
            "observers",
            "fairness",
            "scheduler",
            "seed",
            "backend",
        }
        extra = set(d) - known
        if extra:
            raise SpecError(f"unknown scenario spec keys: {sorted(extra)}")
        version = d.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise SpecError(f"unsupported spec version {version!r}")
        if "topology" not in d:
            raise SpecError("scenario spec needs a 'topology'")
        overrides = tuple(
            sorted(
                (int(pid), WorkloadSpec.from_dict(w))
                for pid, w in (d.get("workload_overrides") or {}).items()
            )
        )
        defaults = {f.name: f for f in cls.__dataclass_fields__.values()}
        return cls(
            topology=TopologySpec.from_dict(d["topology"]),
            variant=d.get("variant", defaults["variant"].default),
            k=int(d.get("k", 1)),
            l=int(d.get("l", 1)),
            cmax=int(d.get("cmax", 4)),
            unbounded_memory=bool(d.get("unbounded_memory", False)),
            workload=(
                WorkloadSpec.from_dict(d["workload"])
                if "workload" in d
                else WorkloadSpec("idle")
            ),
            workload_overrides=overrides,
            faults=tuple(FaultSpec.from_dict(f) for f in d.get("faults") or ()),
            observers=tuple(
                ObserverSpec.from_dict(o) for o in d.get("observers") or ()
            ),
            fairness=(
                FairnessSpec.from_dict(d["fairness"])
                if d.get("fairness") is not None
                else None
            ),
            scheduler=(
                SchedulerSpec.from_dict(d["scheduler"])
                if "scheduler" in d
                else SchedulerSpec("round_robin")
            ),
            seed=int(d.get("seed", 0)),
            variant_options=dict(d.get("variant_options") or {}),
            backend=d.get("backend", "object"),
        )

    def to_json(self, *, indent: int | None = None) -> str:
        """Serialize to a JSON document (the ``--dump-spec`` manifest)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a JSON document produced by :meth:`to_json`."""
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid spec JSON: {exc}") from None
        return cls.from_dict(d)

    # -- derivation ------------------------------------------------------
    def override(self, updates: Mapping[str, Any]) -> "ScenarioSpec":
        """New spec with dotted-path updates applied to the dict form.

        ``{"topology.args.n": 9, "seed": 3}`` replaces nested keys;
        assigning a mapping (e.g. ``{"topology": {...}}``) replaces the
        whole sub-tree.  This is the sweep grid's cell-derivation
        primitive.
        """
        d = self.to_dict()
        for path, value in updates.items():
            parts = path.split(".")
            cur: dict[str, Any] = d
            for part in parts[:-1]:
                nxt = cur.get(part)
                if not isinstance(nxt, dict):
                    nxt = {}
                    cur[part] = nxt
                cur = nxt
            cur[parts[-1]] = value
        return type(self).from_dict(d)

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """New spec differing only in the master seed."""
        return replace(self, seed=seed)

    def without_observers(self) -> "ScenarioSpec":
        """New spec with the observer stack dropped (the ``--no-stats``
        derivation; executions are identical either way, only the
        instrumentation disappears)."""
        return replace(self, observers=())

    # -- construction ----------------------------------------------------
    def build_topology(self) -> "OrientedTree":
        """Construct just the tree (cheap; used for labels and sizing)."""
        return self.topology.build()

    def build(self, *, trace: Any = None) -> BuiltScenario:
        """Resolve every registry provider and assemble a ready engine.

        Deterministic: building the same spec twice yields engines whose
        runs are byte-identical (the serialization round-trip tests and
        the ``--spec`` replay guarantee hang off this).
        """
        from ..sim.rng import derive_seed

        entry = VARIANTS.entry(self.variant)
        tree = self.topology.build()
        params = KLParams(
            k=self.k,
            l=self.l,
            n=tree.n,
            cmax=self.cmax,
            unbounded_memory=self.unbounded_memory,
        )
        overrides = dict(self.workload_overrides)
        bad = [pid for pid in overrides if not 0 <= pid < tree.n]
        if bad:
            raise SpecError(
                f"workload_overrides name out-of-range pids {sorted(bad)} "
                f"(n = {tree.n})"
            )
        workload_seed = derive_seed(self.seed, "workload")
        apps = [
            overrides.get(pid, self.workload).build(
                pid, params, default_seed=workload_seed
            )
            for pid in range(tree.n)
        ]
        scheduler = self.scheduler.build(tree.n, self.seed)
        engine = _call_provider(
            VARIANTS,
            self.variant,
            tree,
            params,
            apps,
            scheduler,
            trace=trace,
            **dict(self.variant_options),
        )
        for i, fault in enumerate(self.faults):
            tag = "faults" if i == 0 else f"faults.{i}"
            fault.apply(engine, params, derive_seed(self.seed, tag))
        if self.backend == "array":
            if self.observers or trace is not None:
                raise SpecError(
                    "backend='array' cannot attach observers or traces; "
                    "drop them or use backend='object'"
                )
            from ..sim.array_engine import ArrayEngine, LoweringError

            try:
                engine = ArrayEngine.from_engine(engine)
            except LoweringError as exc:
                raise SpecError(str(exc)) from exc
        built_observers = [o.build(params) for o in self.observers]
        for obs in built_observers:
            engine.add_observer(obs)
        invariant = _census_invariant(
            entry.meta.get("expected_census"), params, tree.n
        )
        return BuiltScenario(
            spec=self,
            engine=engine,
            invariant=invariant,
            tree=tree,
            params=params,
            apps=apps,
            scheduler=scheduler,
            observers=built_observers,
        )


def scenario_spec(name: str, **kwargs: Any) -> ScenarioSpec:
    """Instantiate a named scenario preset from the scenario registry."""
    from .registry import SCENARIOS

    spec = _call_provider(SCENARIOS, name, **kwargs)
    if not isinstance(spec, ScenarioSpec):
        raise SpecError(
            f"scenario {name!r} returned {type(spec).__name__}, "
            "expected a ScenarioSpec"
        )
    return spec
