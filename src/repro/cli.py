"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Run the self-stabilizing protocol on a chosen tree under a chosen
    workload and print service statistics.
``converge``
    Start from a seeded arbitrary configuration and report the
    stabilization point (experiment T1, one cell).
``wait``
    Measure waiting times against the Theorem 2 bound (experiment T2,
    one cell).
``figures``
    Reproduce the paper's Figs. 1–4 in the terminal.
``sweep``
    Run a convergence or waiting-time experiment over a grid of tree
    sizes × seeds and print the aggregated table (optionally with
    bootstrap confidence intervals).
``fuzz``
    Hunt for invariant-violating schedules with seeded random walks
    (swarm verification); prints a replayable pid schedule on failure.
``explore``
    Exhaustively enumerate every schedule of a small instance up to a
    depth bound and check safety/census invariants at each reachable
    configuration (model checking in miniature).  ``--check liveness``
    additionally hunts fair starving cycles (livelocks) and prints them
    as replayable move lists; ``--por`` prunes provably commuting
    interleavings (identical verdicts, far fewer transitions).
``list``
    Enumerate every registered variant, topology, workload, fault,
    observer, named scenario and fairness constraint with a one-line
    description.
``bench``
    Measure throughput across the standard scenario matrices and write
    the JSON artifact: ``--suite kernel`` (steps/sec,
    ``BENCH_kernel.json``, the default), ``--suite explore`` (explored
    states/sec, ``BENCH_explore.json``) or ``--suite all``.

Every scenario-taking command parses its flags into a declarative
:class:`~repro.spec.ScenarioSpec` and constructs the engine exclusively
through ``spec.build()``.  ``--dump-spec FILE`` writes that spec as a
JSON manifest (without running) and ``--spec FILE`` replays a manifest
exactly — the pair is the reproducibility contract.  ``--tree`` and
``--workload`` accept registry spec strings such as
``caterpillar:spine=4,legs=2`` or ``stochastic:p=0.3,max_need=2``
(``repro list`` shows all registered keys).

``sweep``, ``fuzz`` and ``explore`` accept ``--workers N`` to shard the
campaign across worker processes and ``--progress`` to print every
progress event the campaign emits on stderr (sweep and fuzz emit one
per shard at any worker count, a serial ``explore`` none).  Sweep and
fuzz results are identical at every worker count; ``explore --workers
N`` prints the serial counts whenever the search runs to closure or
the depth bound, stops early (violation, ``--max-configs``) at the end
of a level, and reports the summed per-shard seen-set memory.  A worker
that dies or raises ends the command with one ``error:`` line and exit
code 2.
Every command accepts ``--seed`` and is fully deterministic.

Long-running commands accept ``--no-stats``: the scenario's observer
stack (e.g. one declared in a ``--spec`` manifest) is dropped and the
run executes on the observer-free kernel.  Results are unchanged —
observers are instrumentation, never simulation state — only faster.
They also accept ``--backend array|object``: ``array`` lowers the
built scenario into the struct-of-arrays kernel
(:mod:`repro.sim.array_engine`) — identical step semantics proven by
the differential suite, flat-array state, batched scheduling — while
``object`` pins the per-process reference engine.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path
from typing import Callable, Sequence

from .analysis.harness import WARMUP_STEPS, WarmupError
from .analysis.parallel import CampaignError
from .spec import (
    FAIRNESS,
    FAULTS,
    OBSERVERS,
    SCENARIOS,
    TOPOLOGIES,
    VARIANTS,
    WORKLOADS,
    FairnessSpec,
    ScenarioSpec,
    SchedulerSpec,
    SpecError,
    TopologySpec,
    WorkloadSpec,
    parse_kind_args,
)

__all__ = ["main", "build_parser"]


# ----------------------------------------------------------------------
# Flag → spec translation
# ----------------------------------------------------------------------
def _topology_spec(tree_arg: str, n: int, seed: int) -> TopologySpec:
    """Translate a ``--tree`` value into a validated :class:`TopologySpec`.

    The value is a registry spec string (``kind[:key=value,...]``);
    generator arguments not given explicitly are filled from ``--n`` /
    ``--seed`` where the generator accepts them.  ``balanced`` without
    arguments keeps the historical CLI sizing (binary, height from n).
    """
    kind, args = parse_kind_args(tree_arg)
    provider = TOPOLOGIES.get(kind)  # raises UnknownSpecKey with choices
    if kind == "balanced" and not args:
        args = {"branching": 2, "height": max(n.bit_length() - 1, 1)}
    else:
        accepted = inspect.signature(provider).parameters
        if "n" in accepted and "n" not in args:
            args["n"] = n
        if "seed" in accepted and "seed" not in args:
            args["seed"] = seed
    return TopologySpec(kind, args)


def _workload_spec(text: str | None, default: WorkloadSpec) -> WorkloadSpec:
    """Translate a ``--workload`` value (or fall back to ``default``)."""
    if text is None:
        return default
    spec = WorkloadSpec.parse(text)
    WORKLOADS.get(spec.kind)  # validate early, with the full key listing
    return spec


def _variant_options(variant: str) -> dict:
    """Engine-factory options the historical CLI passed per variant."""
    VARIANTS.get(variant)  # validate early, with the full key listing
    if variant == "selfstab":
        # Clean campaigns start from the legitimate token placement; the
        # converge experiment overrides this by scrambling afterwards.
        return {"init": "tokens"}
    return {}


def _demo_spec(args: argparse.Namespace) -> ScenarioSpec:
    return ScenarioSpec(
        topology=_topology_spec(args.tree, args.n, args.seed),
        variant="selfstab",
        k=args.k,
        l=args.l,
        cmax=args.cmax,
        workload=_workload_spec(
            getattr(args, "workload", None),
            WorkloadSpec("saturated", {"cs_duration": 3}),
        ),
        scheduler=SchedulerSpec("random", {"seed": args.seed}),
        seed=args.seed,
    )


def _converge_spec(args: argparse.Namespace) -> ScenarioSpec:
    from .spec import FaultSpec

    return ScenarioSpec(
        topology=_topology_spec(args.tree, args.n, args.seed),
        variant="selfstab",
        k=args.k,
        l=args.l,
        cmax=args.cmax,
        workload=WorkloadSpec("saturated", {"cs_duration": 2}),
        faults=(FaultSpec("scramble"),),
        scheduler=SchedulerSpec("random"),
        seed=args.seed,
    )


def _wait_spec(args: argparse.Namespace) -> ScenarioSpec:
    return ScenarioSpec(
        topology=_topology_spec(args.tree, args.n, args.seed),
        variant="selfstab",
        k=args.k,
        l=args.l,
        cmax=args.cmax,
        workload=_workload_spec(
            getattr(args, "workload", None),
            WorkloadSpec("saturated", {"need": 1, "cs_duration": 1}),
        ),
        scheduler=SchedulerSpec("random"),
        seed=args.seed,
        variant_options={"init": "tokens"},
    )


def _campaign_spec(args: argparse.Namespace, *, cs_duration: int) -> ScenarioSpec:
    """Base spec for the fuzz/explore campaigns (clean start, any variant)."""
    return ScenarioSpec(
        topology=_topology_spec(args.tree, args.n, args.seed),
        variant=args.variant,
        k=args.k,
        l=args.l,
        cmax=args.cmax,
        workload=WorkloadSpec("saturated", {"cs_duration": cs_duration}),
        seed=args.seed,
        variant_options=_variant_options(args.variant),
    )


def _resolve_spec(
    args: argparse.Namespace, default: Callable[[], ScenarioSpec]
) -> ScenarioSpec:
    """The command's scenario: ``--spec``, ``--scenario``, or flags.

    Precedence: a ``--spec`` manifest wins, then a ``--scenario``
    registered preset (``name[:key=value,...]``), then the command's
    flag-built default.  ``--no-stats`` drops the resolved spec's
    observer stack — the run is byte-identical either way (observers
    never influence an execution), it just stays on the observer-free
    kernel.
    """
    if getattr(args, "spec", None):
        try:
            text = Path(args.spec).read_text()
        except OSError as exc:
            raise SpecError(f"cannot read spec file {args.spec!r}: {exc}") from None
        spec = ScenarioSpec.from_json(text)
    elif getattr(args, "scenario", None):
        from .spec import scenario_spec

        name, kwargs = parse_kind_args(args.scenario)
        spec = scenario_spec(name, **kwargs)
    else:
        spec = default()
    if getattr(args, "no_stats", False):
        spec = spec.without_observers()
    backend = getattr(args, "backend", None)
    if backend is not None and backend != spec.backend:
        from dataclasses import replace

        spec = replace(spec, backend=backend)
    return spec


def _dump_spec(args: argparse.Namespace, spec: ScenarioSpec) -> bool:
    """Honor ``--dump-spec``: write the manifest and skip the run."""
    target = getattr(args, "dump_spec", None)
    if not target:
        return False
    text = spec.to_json(indent=2) + "\n"
    if target == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(target).write_text(text)
        except OSError as exc:
            raise SpecError(f"cannot write spec file {target!r}: {exc}") from None
        print(f"wrote scenario spec to {target}", file=sys.stderr)
    return True


def _workload_time_dependence(w: WorkloadSpec) -> str | None:
    """Why ``w`` breaks exploration's digest soundness, or None if safe.

    ``canonical_digest`` excludes engine time, so exploration is only
    sound for time-independent applications (see analysis/explore.py).
    Conservative: kinds not known to be time-independent are rejected.
    """
    a = w.args
    if w.kind == "idle":
        return None
    if w.kind == "hog":
        return None if a.get("at", 0) == 0 else "hog needs at=0"
    if w.kind == "saturated":
        if a.get("cs_duration", 1) != 0 or a.get("think_time", 0) != 0:
            return "saturated needs cs_duration=0 and think_time=0"
        return None
    if w.kind == "oneshot":
        if a.get("cs_duration", 1) != 0 or a.get("at", 0) != 0:
            return "oneshot needs at=0 and cs_duration=0"
        return None
    if w.kind == "scripted":
        rows = a.get("script", [])
        if rows and not isinstance(rows[0], (list, tuple)):
            rows = [rows]
        if all(row[0] == 0 and row[2] == 0 for row in rows):
            return None
        return "scripted needs every row's at=0 and cs_duration=0"
    return f"workload {w.kind!r} is not known to be time-independent"


def _check_explore_spec(spec: ScenarioSpec) -> bool:
    """Reject manifests whose workloads would make exploration unsound."""
    workloads = [spec.workload] + [w for _, w in spec.workload_overrides]
    for w in workloads:
        why = _workload_time_dependence(w)
        if why is not None:
            print(
                f"error: exploration requires time-independent "
                f"applications (digests exclude engine time): {why}",
                file=sys.stderr,
            )
            return False
    return True


def _check_variant_capability(variant: str, flag: str, activity: str) -> bool:
    """True when ``variant`` supports the campaign; prints the error if not."""
    if VARIANTS.entry(variant).meta.get(flag) is not False:
        return True
    supported = ", ".join(
        n for n in VARIANTS.names()
        if VARIANTS.entry(n).meta.get(flag, True)
    )
    print(
        f"error: variant {variant!r} does not support {activity}; "
        f"supported variants: {supported}",
        file=sys.stderr,
    )
    return False


def _progress_printer(args: argparse.Namespace):
    """Shard-progress callback printing to stderr, or None when off."""
    if not getattr(args, "progress", False):
        return None

    def _print(ev) -> None:
        note = f": {ev.note}" if ev.note else ""
        print(
            f"[{ev.campaign}] shard {ev.shard + 1}/{ev.shards} "
            f"done ({ev.done}/{ev.total}){note}",
            file=sys.stderr,
        )

    return _print


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _add_common(
    p: argparse.ArgumentParser, *, workload: bool = False, steps: bool = False
) -> None:
    p.add_argument(
        "--tree", default="random",
        help="tree family spec string, e.g. paper, path, star, balanced, "
             "random, caterpillar:spine=4,legs=2 (see `repro list`; "
             "default: random)",
    )
    p.add_argument("--n", type=int, default=10, help="number of processes")
    p.add_argument("--k", type=int, default=2, help="max units per request")
    p.add_argument("--l", type=int, default=4, help="total resource units")
    p.add_argument("--cmax", type=int, default=2, help="initial channel garbage bound")
    p.add_argument("--seed", type=int, default=0, help="experiment seed")
    if steps:
        p.add_argument("--steps", type=_count, default=60_000, help="measured steps")
    if workload:
        p.add_argument(
            "--workload", default=None,
            help="workload spec string, e.g. saturated:cs_duration=3, "
                 "stochastic:p=0.3,max_need=2, scripted:script=0/2/3;9/1/2, "
                 "hog (see `repro list`)",
        )
    p.add_argument(
        "--spec", metavar="FILE", default=None,
        help="load the scenario from a JSON spec manifest "
             "(overrides the scenario flags)",
    )
    p.add_argument(
        "--scenario", metavar="NAME", default=None,
        help="start from a registered scenario preset, e.g. "
             "fig3-starvation or fig2-deadlock:variant=pusher "
             "(see `repro list`; overrides the scenario flags, "
             "--spec wins over both)",
    )
    p.add_argument(
        "--dump-spec", metavar="FILE", default=None,
        help="write the scenario spec as a JSON manifest ('-' for stdout) "
             "and exit without running",
    )
    p.add_argument(
        "--no-stats", action="store_true",
        help="drop the scenario's observer stack (run on the observer-free "
             "kernel; results are identical, just faster)",
    )
    p.add_argument(
        "--backend", choices=["object", "array"], default=None,
        help="kernel backend: object (reference) or array "
             "(struct-of-arrays, same semantics, no observers/traces; "
             "overrides the spec manifest's backend)",
    )


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer >= ``low``, checked while parsing, so
    an out-of-range count or bound exits 2 naming its flag."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}"
            )
        return value

    return parse


#: ``--workers``, ``--seeds``, ``--walks``, ``--depth``, ``--max-configs``,
#: ``--steps`` and ``--repeat``
_count = _at_least(1)
#: ``--max-depth``: depth 0 checks the start configuration alone
_depth_bound = _at_least(0)


def _add_campaign(
    p: argparse.ArgumentParser,
    workers_help: str = "worker processes for the campaign (default: 1, "
                        "in-process; any worker count yields identical "
                        "results)",
) -> None:
    """Flags shared by the campaign-style commands (sweep/fuzz/explore)."""
    p.add_argument("--workers", type=_count, default=None,
                   help=workers_help)
    p.add_argument(
        "--progress", action="store_true",
        help="report per-shard campaign progress on stderr",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Self-stabilizing k-out-of-l exclusion on tree networks "
                    "(Datta, Devismes, Horn, Larmore; IPPS 2009)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("demo", "run the protocol and print service statistics"),
        ("converge", "measure stabilization from an arbitrary configuration"),
        ("wait", "measure waiting times against the Theorem 2 bound"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_common(p, workload=name in ("demo", "wait"), steps=True)
    sub.add_parser("figures", help="reproduce the paper's figures in the terminal")
    sub.add_parser(
        "list",
        help="enumerate registered variants, topologies, workloads, "
             "faults and scenarios",
    )

    p = sub.add_parser(
        "sweep",
        help="aggregate an experiment over a grid of tree sizes x seeds",
    )
    _add_common(p, steps=True)
    p.add_argument(
        "--experiment", choices=["converge", "wait"], default=None,
        help="experiment per grid cell (default: converge; must be given "
             "explicitly with --spec, since a manifest describes the "
             "scenario rather than the experiment)",
    )
    p.add_argument(
        "--sizes", default="6,9,12",
        help="comma-separated tree sizes, one sweep cell each (default: 6,9,12)",
    )
    p.add_argument("--seeds", type=_count, default=3,
                   help="seeds per cell (default: 3)")
    p.add_argument("--ci", action="store_true",
                   help="print 95%% bootstrap confidence intervals")
    _add_campaign(p)

    p = sub.add_parser(
        "fuzz", help="fuzz schedules for invariant violations (swarm verification)"
    )
    _add_common(p)
    p.add_argument(
        "--variant", default="priority",
        help="protocol variant under test (default: priority; see `repro list`)",
    )
    p.add_argument("--walks", type=_count, default=64, help="independent random walks")
    p.add_argument("--depth", type=_count, default=400, help="steps per walk")
    _add_campaign(p)

    p = sub.add_parser(
        "bench",
        help="measure kernel or state-space throughput and write the "
             "JSON artifact",
    )
    p.add_argument(
        "--suite", choices=["kernel", "explore", "all"], default="kernel",
        help="what to measure: kernel steps/sec, explore states/sec, or "
             "both (default: kernel)",
    )
    p.add_argument(
        "--steps", type=_count, default=150_000,
        help="measured steps per kernel scenario (default: 150000)",
    )
    p.add_argument(
        "--repeat", type=_count, default=3,
        help="timed repetitions per scenario, best kept (default: 3)",
    )
    p.add_argument(
        "--out", metavar="FILE", default=None,
        help="JSON artifact path (default: BENCH_kernel.json / "
             "BENCH_explore.json per suite; '' to skip; only valid with "
             "a single suite)",
    )

    p = sub.add_parser(
        "explore",
        help="exhaustively check every schedule of a small instance",
    )
    _add_common(p)
    p.set_defaults(n=4, l=2)  # exhaustive search wants toy instances
    p.add_argument(
        "--variant", default="priority",
        help="protocol variant under test (default: priority; selfstab is "
             "excluded — its timeout makes configurations time-dependent)",
    )
    p.add_argument("--max-depth", type=_depth_bound, default=None,
                   help="schedule depth bound (default: 8; with --resume, "
                        "the checkpoint's value — raise it to deepen a "
                        "finished bounded campaign)")
    p.add_argument("--max-configs", type=_count, default=None,
                   help="configuration cap (default: 200000; with "
                        "--resume, the checkpoint's value)")
    p.add_argument(
        "--check", choices=["safety", "liveness"], default="safety",
        help="safety (default): invariants at every configuration; "
             "liveness: additionally hunt fair starving cycles "
             "(livelocks) with a lasso search, serial only",
    )
    p.add_argument(
        "--fairness", metavar="KIND", default=None,
        help="daemon assumption for --check liveness: weak (default), "
             "strong or unconditional (see `repro list`); recorded in "
             "--dump-spec manifests",
    )
    p.add_argument(
        "--por", action="store_true",
        help="sleep-set partial-order reduction: skip provably "
             "commuting schedule interleavings (disjoint process + "
             "channel footprints); identical configurations and "
             "verdicts, far fewer transitions; serial BFS/lasso only",
    )
    p.add_argument(
        "--distributed", action="store_true",
        help="owner-computes exploration at any --workers count, "
             "including 1: the seen-set is partitioned across shards, "
             "each the dedup authority for its digests (counts as for "
             "--workers; enables --mem-budget disk spill and "
             "--checkpoint/--resume)",
    )
    p.add_argument(
        "--mem-budget", metavar="BYTES", default=None,
        help="per-shard resident budget for the seen-set (suffixes k/M/G); "
             "over-budget shards spill sorted digest runs to disk "
             "(implies --distributed)",
    )
    p.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="write a resumable campaign checkpoint (manifest + shard "
             "files) into DIR every --checkpoint-every levels (implies "
             "--distributed)",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="K",
        help="levels between checkpoints (default: 1; with --resume, "
             "the checkpoint's value)",
    )
    p.add_argument(
        "--resume", metavar="DIR", default=None,
        help="resume a checkpointed campaign from DIR: the scenario and "
             "campaign parameters come from its manifest (scenario flags "
             "are ignored), and checkpointing continues into DIR",
    )
    _add_campaign(
        p,
        "owner-computes BFS shards (default: serial). Counts match the "
        "serial search at closure or the depth bound; an early stop "
        "(violation, --max-configs) finishes its level, so its counts "
        "can exceed serial's but never depend on the worker count; peak "
        "seen memory is the summed shard estimate",
    )
    return parser


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_demo(args: argparse.Namespace) -> int:
    from .analysis import measure, stabilize, take_census
    from .viz import render_tree

    spec = _resolve_spec(args, lambda: _demo_spec(args))
    if _dump_spec(args, spec):
        return 0
    built = spec.build()
    engine = built.engine
    print(render_tree(built.tree))
    if not stabilize(engine, built.params):
        raise WarmupError.unsettled(built.tree.n)
    t0 = engine.now
    m = measure(engine, built.apps, args.steps)
    print(f"stabilized at step {t0}; census {take_census(engine).as_tuple()}")
    print(f"{m.satisfied} requests satisfied in {args.steps} steps "
          f"({m.messages_per_cs:.2f} msgs/CS, "
          f"max wait {m.max_waiting_time})")
    return 0


def cmd_converge(args: argparse.Namespace) -> int:
    from .analysis import run_convergence

    spec = _resolve_spec(args, lambda: _converge_spec(args))
    if _dump_spec(args, spec):
        return 0
    res = run_convergence(spec, max_steps=args.steps)
    print(f"converged        : {res.converged}")
    print(f"stabilized at    : {res.stabilization_step}")
    print(f"safety clean from: {res.safety_clean_from}")
    print(f"resets           : {res.resets}")
    print(f"circulations     : {res.circulations}")
    print(f"final census     : {res.final_census}")
    return 0 if res.converged else 1


def cmd_wait(args: argparse.Namespace) -> int:
    from .analysis import run_waiting_time

    spec = _resolve_spec(args, lambda: _wait_spec(args))
    if _dump_spec(args, spec):
        return 0
    res = run_waiting_time(spec, measure_steps=args.steps)
    print(f"max waiting time : {res.max_waiting} (bound {res.bound})")
    print(f"within bound     : {res.within_bound}")
    print(f"satisfied        : {res.metrics.satisfied}")
    print(f"messages per CS  : {res.metrics.messages_per_cs:.2f}")
    return 0 if res.within_bound else 1


def cmd_figures(_: argparse.Namespace) -> int:
    from .scenarios import (
        run_fig1_circulation,
        run_fig2_deadlock,
        run_fig3_livelock,
    )
    from .viz import render_ring

    names = dict(enumerate("r a b c d e f g".split()))
    f1 = run_fig1_circulation()
    print("Fig.1/4 — virtual ring:", render_ring(f1["ring"], names))
    print("         simulated token path matches:", f1["match"])
    f2n = run_fig2_deadlock("naive")
    f2s = run_fig2_deadlock("selfstab")
    print(f"Fig.2   — naive: {'DEADLOCK' if f2n.deadlocked else 'ok'} "
          f"{f2n.rset_sizes}; selfstab recovers: {not f2s.deadlocked}")
    f3p = run_fig3_livelock("pusher")
    f3q = run_fig3_livelock("priority")
    print(f"Fig.3   — pusher: a starved={f3p.starved} "
          f"(r/a/b = {f3p.cs_r}/{f3p.cs_a}/{f3p.cs_b}); "
          f"priority: a served {f3q.cs_a} times")
    return 0


def cmd_list(_: argparse.Namespace) -> int:
    sections = (
        ("variants", VARIANTS),
        ("topologies", TOPOLOGIES),
        ("workloads", WORKLOADS),
        ("faults", FAULTS),
        ("observers", OBSERVERS),
        ("scenarios", SCENARIOS),
        ("fairness constraints", FAIRNESS),
    )
    for title, registry in sections:
        print(f"{title}:")
        entries = registry.entries()
        width = max((len(e.name) for e in entries), default=0)
        for e in entries:
            notes = []
            if e.meta.get("fuzzable") is False:
                notes.append("no fuzz")
            if e.meta.get("explorable") is False:
                notes.append("no explore")
            suffix = f"  [{', '.join(notes)}]" if notes else ""
            print(f"  {e.name.ljust(width)}  {e.doc}{suffix}")
        print()
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .analysis.bench import (
        render_bench_table,
        render_explore_table,
        run_explore_bench,
        run_kernel_bench,
        write_bench_json,
    )

    if args.suite == "all" and args.out is not None:
        print("--out is ambiguous with --suite all; run one suite per --out",
              file=sys.stderr)
        return 2
    if args.suite in ("kernel", "all"):
        rows = run_kernel_bench(
            steps=args.steps,
            repeat=args.repeat,
            progress=lambda row: print(
                f"[bench] {row.scenario}: {row.steps_per_sec:,.0f} steps/s",
                file=sys.stderr,
            ),
        )
        print(render_bench_table(rows))
        out = "BENCH_kernel.json" if args.out is None else args.out
        if out:
            write_bench_json(rows, out)
            print(f"wrote {out}", file=sys.stderr)
    if args.suite in ("explore", "all"):
        rows = run_explore_bench(
            repeat=args.repeat,
            progress=lambda row: print(
                f"[bench] {row.scenario}: {row.states_per_sec:,.0f} states/s",
                file=sys.stderr,
            ),
        )
        print(render_explore_table(rows))
        out = "BENCH_explore.json" if args.out is None else args.out
        if out:
            write_bench_json(rows, out, name="explore-states-per-sec")
            print(f"wrote {out}", file=sys.stderr)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis import (
        SweepCell,
        cell_cis,
        convergence_spec_runner,
        run_sweep,
        waiting_spec_runner,
    )

    if args.spec and args.experiment is None:
        # A manifest carries the scenario, not the campaign shape, and
        # several commands dump identically-shaped specs — guessing the
        # experiment here would silently run the wrong runner.
        print(
            "error: --experiment is required with --spec "
            "(the manifest describes the scenario, not which experiment "
            "to run over it)",
            file=sys.stderr,
        )
        return 2
    experiment = args.experiment or "converge"
    base = _resolve_spec(
        args,
        lambda: _converge_spec(args) if experiment == "converge"
        else _wait_spec(args),
    )
    if _dump_spec(args, base):
        return 0
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        print(f"bad --sizes value: {args.sizes!r}", file=sys.stderr)
        return 2
    if not sizes:
        print("need at least one size", file=sys.stderr)
        return 2
    if any(n < 1 for n in sizes):
        print(f"--sizes must be >= 1, got {args.sizes!r}", file=sys.stderr)
        return 2
    if experiment == "converge":
        runner, step_arg = convergence_spec_runner, "max_steps"
    else:
        runner, step_arg = waiting_spec_runner, "measure_steps"
    from_file = bool(args.spec)
    cells = []
    labels_seen = set()
    for n in sizes:
        if from_file:
            # Respect the manifest's topology family; resize it when the
            # generator takes an ``n`` argument, else keep it fixed.
            provider = TOPOLOGIES.get(base.topology.kind)
            if "n" in inspect.signature(provider).parameters:
                cell_spec = base.override({"topology.args.n": n})
            else:
                cell_spec = base
        else:
            tspec = _topology_spec(args.tree, n, args.seed)
            cell_spec = base.override({"topology": tspec.to_dict()})
        tree = cell_spec.build_topology()
        label = f"{cell_spec.topology.kind}-n{tree.n}"
        if label in labels_seen:
            # fixed-size families (paper; balanced rounds to powers of
            # two) can map several requested sizes to one tree — re-
            # running an identical cell would only duplicate rows/work.
            print(f"note: --sizes {n} duplicates cell {label}; skipped",
                  file=sys.stderr)
            continue
        labels_seen.add(label)
        cells.append(
            SweepCell(label, {step_arg: args.steps, "spec": cell_spec.to_dict()})
        )
    # Seed repetitions start from the manifest's seed (== args.seed on
    # the flags path) so a --spec replay reproduces the dumped sweep.
    seeds = [base.seed + i for i in range(args.seeds)]
    try:
        res = run_sweep(
            runner, cells, seeds,
            workers=args.workers, progress=_progress_printer(args),
        )
    except ValueError:
        # cells and seeds are non-empty, so this is "every run returned
        # None": the waiting-time runner's answer to a failed warmup
        if experiment != "wait":
            raise
        raise WarmupError(
            f"no run's warmup stabilized ({', '.join(c.label for c in cells)})"
            f" within the {WARMUP_STEPS:,}-step warmup budget (a circulation "
            "visits every process, so large n needs more steps); use smaller "
            "--sizes"
        ) from None
    print(f"experiment       : {experiment} "
          f"({len(cells)} cells x {len(seeds)} seeds, "
          f"workers {args.workers or 1})")
    widths = max(len(lbl) for lbl in res.labels)
    header = "cell".ljust(widths)
    for m in res.metrics:
        header += f"  {m:>12}"
    print(header)
    for i, row in enumerate(res.rows(*res.metrics)):
        line = row[0].ljust(widths)
        for v in row[1:]:
            line += f"  {v:>12.2f}"
        print(line)
    if args.ci:
        for m in res.metrics:
            print(f"95% CI for {m}:")
            for label, mean, lo, hi in cell_cis(res, m):
                print(f"  {label.ljust(widths)}  {mean:>10.2f}  "
                      f"[{lo:.2f}, {hi:.2f}]")
    return 0


#: commands whose campaign path runs on the array backend — named in
#: every backend-mismatch error so the fix is one flag away
_ARRAY_COMMANDS = "demo, converge, wait, sweep, bench, explore"


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .analysis import fuzz

    spec = _resolve_spec(args, lambda: _campaign_spec(args, cs_duration=2))
    if _dump_spec(args, spec):
        return 0
    if spec.backend == "array":
        raise SpecError(
            "fuzzing replays schedules through the object kernel; "
            f"backend='array' supports: {_ARRAY_COMMANDS} — rerun with "
            "--backend object"
        )
    if not _check_variant_capability(spec.variant, "fuzzable", "fuzzing"):
        return 2
    built = spec.build()
    params, tree = built.params, built.tree
    # The walk RNG keys off the manifest's seed (== args.seed on the
    # flags path) so a --spec replay reruns the exact same campaign.
    res = fuzz(
        built.engine, built.invariant, walks=args.walks, depth=args.depth,
        seed=spec.seed, workers=args.workers, progress=_progress_printer(args),
    )
    print(f"variant          : {spec.variant} (n={tree.n}, k={params.k}, l={params.l})")
    print(f"walks x depth    : {args.walks} x {args.depth} (seed {spec.seed})")
    print(f"steps executed   : {res.steps_total}")
    if res.ok:
        print("violation        : none found")
        return 0
    w, step, msg = res.violation
    print(f"violation        : walk {w}, step {step}: {msg}")
    print(f"replay schedule  : {res.schedule}")
    return 1


def _parse_size(text: str | None) -> int | None:
    """Parse a byte count with an optional k/M/G suffix (powers of 1024)."""
    if text is None:
        return None
    scale = 1
    suffix = text[-1:].lower()
    if suffix in ("k", "m", "g"):
        scale = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}[suffix]
        text = text[:-1]
    value = int(text) * scale
    if value < 1:
        raise ValueError(f"byte count must be >= 1, got {value}")
    return value


def cmd_explore(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .analysis import explore, format_moves

    # Option combinations no explorer runs are rejected by explore()
    # itself, as a SpecError; this flag only decides the disk line.
    distributed = (
        args.distributed
        or args.mem_budget is not None
        or args.checkpoint is not None
        or args.resume is not None
    )
    liveness = args.check == "liveness"
    try:
        mem_budget = _parse_size(args.mem_budget)
    except ValueError:
        print(f"bad --mem-budget value: {args.mem_budget!r}", file=sys.stderr)
        return 2
    if args.resume is not None:
        # The manifest is the authority on resume: it carries the
        # scenario (so scenario flags are ignored) and the campaign
        # parameters (overridable — raising --max-depth deepens a
        # finished bounded campaign).
        from .analysis.distributed import read_manifest

        manifest = read_manifest(args.resume)
        if manifest.get("spec") is None:
            print(
                "error: checkpoint manifest carries no scenario spec; "
                "it cannot be resumed from the CLI",
                file=sys.stderr,
            )
            return 2
        spec = ScenarioSpec.from_dict(manifest["spec"])
        max_depth, max_configs = args.max_depth, args.max_configs
        depth_bound = (manifest["campaign"]["max_depth"]
                       if max_depth is None else max_depth)
    else:
        # cs_duration=0 keeps applications time-independent, the digest
        # soundness requirement spelled out in analysis/explore.py.
        spec = _resolve_spec(args, lambda: _campaign_spec(args, cs_duration=0))
        if args.fairness is not None:
            # --fairness folds into the spec so --dump-spec manifests
            # replay liveness runs under the same daemon assumption.
            spec = replace(spec, fairness=FairnessSpec.parse(args.fairness))
        max_depth = 8 if args.max_depth is None else args.max_depth
        max_configs = 200_000 if args.max_configs is None else args.max_configs
        depth_bound = max_depth
    if _dump_spec(args, spec):
        return 0
    if not _check_variant_capability(
        spec.variant, "explorable",
        "exhaustive exploration (time-dependent configurations)",
    ):
        return 2
    if not _check_explore_spec(spec):
        return 2
    fairness = "weak"
    if spec.fairness is not None:
        spec.fairness.build()  # validate the kind (and the empty args)
        fairness = spec.fairness.kind
    built = spec.build()
    params, tree = built.params, built.tree
    res = explore(
        built.engine, built.invariant,
        max_depth=max_depth, max_configurations=max_configs,
        check=args.check, fairness=fairness,
        por=args.por,
        workers=args.workers, progress=_progress_printer(args),
        distributed=args.distributed, mem_budget=mem_budget, checkpoint_dir=args.checkpoint,
        checkpoint_every=args.checkpoint_every, resume_dir=args.resume,
        spec=spec,
    )
    # Wall-clock throughput goes to stderr: stdout stays byte-identical
    # across runs, worker counts and machines (the CI diff contract).
    print(f"[explore] throughput: {res.states_per_sec:,.0f} states/sec",
          file=sys.stderr)
    print(f"variant          : {spec.variant} (n={tree.n}, k={params.k}, l={params.l})")
    print(f"depth bound      : {depth_bound}")
    if liveness:
        print(f"check            : liveness ({fairness} fairness)")
    print(f"configurations   : {res.configurations}")
    print(f"transitions      : {res.transitions}")
    print(f"peak seen memory : {res.peak_seen_bytes:,} bytes "
          "(packed digests)")
    if distributed:
        # Resident vs. spilled split: the budget bounds the first, the
        # second is the sorted-run bytes on disk.
        print(f"peak disk memory : {res.peak_disk_bytes:,} bytes "
              "(spilled runs)")
    if liveness:
        # The lasso search is a DFS: per-depth discovery counts, not
        # BFS frontiers.
        print(f"depth histogram  : {res.frontier_sizes}")
    else:
        print(f"frontier sizes   : {res.frontier_sizes}")
    print(f"exhausted        : {res.exhausted}"
          + (" (invariant verified over ALL schedules)" if res.exhausted else ""))
    if res.ok:
        print("violation        : none found")
    else:
        depth, msg = res.violation
        print(f"violation        : depth {depth}: {msg}")
    if not liveness:
        return 0 if res.ok else 1
    lv = res.livelock
    if lv is None:
        print(
            "livelock         : none "
            + ("(starvation-freedom verified over ALL schedules)"
               if res.exhausted else "found within bounds")
        )
        return 0 if res.ok else 1
    print(f"livelock         : victims {list(lv.victims)} under "
          f"{lv.fairness} fairness")
    print(f"prefix           : {format_moves(lv.prefix)}")
    print(f"cycle            : {format_moves(lv.cycle)}")
    return 1


_COMMANDS = {
    "demo": cmd_demo,
    "converge": cmd_converge,
    "wait": cmd_wait,
    "figures": cmd_figures,
    "list": cmd_list,
    "bench": cmd_bench,
    "sweep": cmd_sweep,
    "fuzz": cmd_fuzz,
    "explore": cmd_explore,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SpecError, WarmupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CampaignError as exc:
        # the library's report on one line, minus its last line: the
        # pointer to CampaignError.failures, which a CLI user cannot reach
        report = str(exc).splitlines()[:-1]
        print("error: " + " ".join(ln.strip() for ln in report), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
