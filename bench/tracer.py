"""Spans for the benchmark's traced runs, recorded from outside the program.

:func:`install` wraps the public entry points of each layer where their
callers bind them (``harness`` imports ``population_correct`` by name,
so the wrapper goes into ``harness``).  Calls that happen per step or per
configuration are *tallied* (count, seconds and work units per parent
span) instead of recorded one by one, which keeps the overhead small.

A span records its name, id, parent id, pid, start and end.  Spans stay
in memory; the traced process writes them when the command returns.
Forked workers never run ``atexit`` hooks, so a worker appends its
spans and tallies to ``spans-<pid>.jsonl`` each time its outermost span
closes, and the first span of a worker takes the span open at the fork
as its parent.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    """Open-span stack, finished spans and tallies of one process.

    ``spans_dir`` receives the forked workers' ``spans-<pid>.jsonl``.
    """

    def __init__(self, spans_dir: Path) -> None:
        self.spans_dir = Path(spans_dir)
        self.pid = os.getpid()
        self.worker = False
        self.fork_parent: str | None = None
        self.seq = 0
        self.stack: list[tuple[str, str, str | None, float]] = []
        self.spans: list[dict] = []
        self.tallies: dict[tuple[str, str | None], list] = {}
        self.marks: list[tuple[float, str]] = []
        self.results: list[dict] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        if self.stack:
            self.fork_parent = self.stack[-1][1]
        self.pid = os.getpid()
        self.worker = True
        self.stack = []
        self.spans = []
        self.tallies = {}
        self.marks = []
        self.results = []

    def _parent(self) -> str | None:
        return self.stack[-1][1] if self.stack else self.fork_parent

    def begin(self, name: str) -> None:
        self.seq += 1
        self.stack.append((name, f"{self.pid}:{self.seq}", self._parent(), _clock()))

    def end(self) -> None:
        end = _clock()
        name, sid, parent, start = self.stack.pop()
        self.spans.append({"name": name, "id": sid, "parent": parent,
                           "pid": self.pid, "start": start, "end": end})
        if self.worker and not self.stack:
            self.flush()

    def tally(self, name: str, seconds: float, units: float) -> None:
        key = (name, self._parent())
        rec = self.tallies.get(key)
        if rec is None:
            self.tallies[key] = [1, seconds, units]
        else:
            rec[0] += 1
            rec[1] += seconds
            rec[2] += units

    def mark(self, note: str) -> None:
        self.marks.append((_clock(), note))

    def _records(self) -> list[dict]:
        out = [{"span": s} for s in self.spans]
        for (name, parent), (calls, seconds, units) in self.tallies.items():
            out.append({"tally": {"name": name, "parent": parent, "pid": self.pid,
                                  "calls": calls, "seconds": seconds,
                                  "units": units}})
        self.spans = []
        self.tallies = {}
        return out

    def flush(self) -> None:
        """Worker side: append this process's records to its own file."""
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spans_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            for rec in self._records():
                fh.write(json.dumps(rec) + "\n")

    def write(self, path: Path, **extra) -> None:
        """Parent side: merge own and worker records into one trace file."""
        spans, tallies = [], []
        records = self._records()
        for f in sorted(self.spans_dir.glob("spans-*.jsonl")):
            records += [json.loads(line) for line in f.read_text().splitlines()]
        for rec in records:
            if "span" in rec:
                spans.append(rec["span"])
            else:
                tallies.append(rec["tally"])
        doc = {"spans": spans, "tallies": tallies, "marks": self.marks,
               "results": self.results, **extra}
        Path(path).write_text(json.dumps(doc))


def _span(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()
    return wrapper


def _tally(tracer: Tracer, name: str, fn, steps: bool = False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            units = (args[1] if len(args) > 1 else kwargs["steps"]) if steps else 0
            tracer.tally(name, _clock() - t0, units)
    return wrapper


def traced_shard(payload, *args):
    """Shard function handed to ``parallel_map`` in place of the real one.

    Module level so the worker pool can pickle it by name; the tracer and
    the real function travel in the payload, which workers inherit
    through the fork.
    """
    tracer, fn, inner = payload
    tracer.begin("parallel.shard")
    try:
        return fn(inner, *args)
    finally:
        tracer.end()


_RESULT_FIELDS = ("configurations", "transitions", "exhausted", "violation",
                  "frontier_sizes", "peak_seen_bytes", "peak_disk_bytes")


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point (imports ``repro``)."""
    import repro.analysis as analysis
    from repro.analysis import harness, liveness, parallel
    from repro.analysis.distributed import owner, store
    from repro.sim.array_engine import ArrayEngine
    from repro.sim.engine import Engine
    from repro.spec.spec import ScenarioSpec

    build = ScenarioSpec.build

    def traced_build(self, *args, **kwargs):
        tracer.begin("spec.build")
        try:
            built = build(self, *args, **kwargs)
        finally:
            tracer.end()
        built.invariant = _tally(tracer, "explore.invariant", built.invariant)
        return built

    ScenarioSpec.build = traced_build
    ArrayEngine.from_engine = staticmethod(
        _span(tracer, "array_engine.lower", ArrayEngine.from_engine)
    )
    ArrayEngine.run = _tally(tracer, "array_engine.run", ArrayEngine.run, steps=True)
    Engine.run = _tally(tracer, "engine.run", Engine.run, steps=True)

    harness.population_correct = _tally(
        tracer, "invariants.census", harness.population_correct)
    harness.take_census = _tally(tracer, "invariants.census", harness.take_census)
    harness.safety_ok = _tally(tracer, "invariants.safety", harness.safety_ok)
    harness.stabilize = _span(tracer, "harness.stabilize", harness.stabilize)
    harness.run_convergence = _span(
        tracer, "harness.run_convergence", harness.run_convergence)
    analysis.run_waiting_time = _span(
        tracer, "harness.run_waiting_time", analysis.run_waiting_time)

    search = _span(tracer, "explore.search", analysis.explore)
    rerun = _span(tracer, "explore.rerun", analysis.explore)
    distributed_keys = ("distributed", "mem_budget", "partitioner",
                        "checkpoint_dir", "resume_dir")

    def traced_explore(engine, invariant, **kwargs):
        serial = not any(kwargs.get(k) for k in distributed_keys)
        if not serial and kwargs.get("progress") is None:
            kwargs["progress"] = lambda ev: tracer.mark(ev.note)
        res = search(engine, invariant, **kwargs)
        tracer.results.append({f: getattr(res, f) for f in _RESULT_FIELDS})
        if serial:
            # the warm half of the cold/warm pair: same engine, same call
            again = rerun(engine, invariant, **kwargs)
            tracer.results.append({f: getattr(again, f) for f in _RESULT_FIELDS})
        return res

    analysis.explore = traced_explore
    liveness.find_livelock = _span(tracer, "liveness.search", liveness.find_livelock)

    parallel_map = parallel.parallel_map

    def traced_map(campaign, fn, payload, shard_args, **kwargs):
        tracer.begin("parallel.map")
        try:
            return parallel_map(campaign, traced_shard, (tracer, fn, payload),
                                shard_args, **kwargs)
        finally:
            tracer.end()

    parallel.parallel_map = traced_map
    for method in ("spill", "compact", "checkpoint", "close"):
        setattr(store.ShardStore, method, _span(
            tracer, f"store.{method}", getattr(store.ShardStore, method)))
    owner.write_manifest = _span(tracer, "checkpoint.publish", owner.write_manifest)


# ----------------------------------------------------------------------
# Reading a trace
# ----------------------------------------------------------------------
def self_times(spans: list[dict], tallies: list[dict]) -> dict[str, float]:
    """Self time of every span: its duration minus the part of it covered
    by child spans (any process) and minus tallied calls made directly
    under it in its own process."""
    children: dict[str, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    tallied: dict[tuple[str, int], float] = {}
    for t in tallies:
        key = (t["parent"], t["pid"])
        tallied[key] = tallied.get(key, 0.0) + t["seconds"]
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered - tallied.get(
            (s["id"], s["pid"]), 0.0)
    return out


def _under(spans: list[dict], root_name: str) -> set[str]:
    """Ids of the spans named ``root_name`` and of all their descendants."""
    by_parent: dict[str, list[str]] = {}
    for s in spans:
        by_parent.setdefault(s["parent"], []).append(s["id"])
    todo = [s["id"] for s in spans if s["name"] == root_name]
    seen = set(todo)
    while todo:
        for child in by_parent.get(todo.pop(), ()):
            if child not in seen:
                seen.add(child)
                todo.append(child)
    return seen


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(trace: dict, wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced run whose command took ``wall``
    seconds (warm rerun excluded).  ``*_frac`` metrics are seconds of the
    layer per second of wall, summed over processes."""
    rerun = _under(trace["spans"], "explore.rerun")
    spans = [s for s in trace["spans"] if s["id"] not in rerun]
    tallies = [t for t in trace["tallies"] if t["parent"] not in rerun]
    own = self_times(spans, tallies)

    def incl(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def self_(name):
        return sum(own[s["id"]] for s in spans if s["name"] == name)

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def tally(name):
        rows = [t for t in tallies if t["name"] == name]
        return (sum(t["calls"] for t in rows), sum(t["seconds"] for t in rows),
                sum(t["units"] for t in rows))

    def durations(name):
        return [s["end"] - s["start"] for s in spans if s["name"] == name]

    def skew(values):
        return _ratio(max(values), statistics.median(values)) if values else 0.0

    results = trace["results"]
    first = results[0] if results else dict.fromkeys(_RESULT_FIELDS, 0)
    configs, transitions = first["configurations"], first["transitions"]
    a_calls, a_s, a_steps = tally("array_engine.run")
    e_calls, e_s, e_steps = tally("engine.run")
    c_calls, c_s, _ = tally("invariants.census")
    s_calls, s_s, _ = tally("invariants.safety")
    i_calls, i_s, _ = tally("explore.invariant")
    starts = [s["start"] for s in spans if s["name"] == "explore.search"]
    levels = [t for t, note in trace["marks"] if note.startswith("level:")]
    level_s = [b - a for a, b in zip(starts[:1] + levels, levels)]
    searched = incl("explore.search")
    rerun_s = sum(s["end"] - s["start"] for s in trace["spans"]
                  if s["name"] == "explore.rerun")
    m = {
        "cli.import_s": trace["import_s"],
        "spec.build_s": self_("spec.build"),
        "spec.build_calls": calls("spec.build"),
        "trace.wall_s": wall,
        "array_engine.lower_frac": incl("array_engine.lower") / wall,
        "array_engine.run_frac": a_s / wall,
        "array_engine.run_steps": a_steps,
        "array_engine.steps_per_s": _ratio(a_steps, a_s),
        "engine.run_frac": e_s / wall,
        "engine.run_calls": e_calls,
        "engine.run_steps": e_steps,
        "engine.steps_per_s": _ratio(e_steps, e_s),
        "invariants.census_calls": c_calls,
        "invariants.census_frac": c_s / wall,
        "invariants.safety_calls": s_calls,
        "invariants.safety_frac": s_s / wall,
        "harness.stabilize_frac": incl("harness.stabilize") / wall,
        "harness.run_convergence_frac": incl("harness.run_convergence") / wall,
        "explore.search_frac": searched / wall,
        "explore.self_frac": (self_("explore.search") + self_("liveness.search")) / wall,
        "explore.configs": configs,
        "explore.transitions": transitions,
        "explore.dup_frac": 1.0 - _ratio(configs, transitions) if transitions else 0.0,
        "explore.invariant_calls": i_calls,
        "explore.invariant_frac": i_s / wall,
        "explore.memo_verdict_frac": max(0.0, 1.0 - _ratio(i_calls, configs))
        if configs else 0.0,
        "explore.rerun_speedup": _ratio(searched, rerun_s),
        "explore.peak_seen_mb": first["peak_seen_bytes"] / 2**20,
        "owner.levels": len(levels),
        "owner.level_skew": skew(level_s),
        "store.peak_disk_mb": first["peak_disk_bytes"] / 2**20,
        "checkpoint.publish_calls": calls("checkpoint.publish"),
        "checkpoint.publish_frac": incl("checkpoint.publish") / wall,
        "parallel.shards": calls("parallel.shard"),
        "parallel.imbalance": skew(durations("parallel.shard")),
    }
    for op in ("spill", "compact", "checkpoint"):
        m[f"store.{op}_calls"] = calls(f"store.{op}")
        m[f"store.{op}_frac"] = incl(f"store.{op}") / wall
    return m


def rerun_mismatch(trace: dict) -> bool:
    """True when the warm rerun returned other counts than the search."""
    results = trace["results"]
    return len(results) == 2 and results[0] != results[1]
