"""Benchmark runner: fresh-process CLI runs, checked outputs, medians.

    python3 bench/run.py [--seed S] [--seconds T | --repeat R]
    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1

Without ``--workload`` every workload runs, first untraced, then traced.
For each workload the runner

1. writes the input: a ``--dump-spec`` manifest made from the seed;
2. untraced (``--trace 0``): runs ``python -m repro ... --spec FILE`` as
   fresh processes, one at a time, for ``T`` seconds (at least
   ``MIN_SAMPLES`` runs), each after a cold interpreter that only
   imports ``repro.cli`` and builds the manifest (``setup_s``; at least
   ``SETUP_PROBES`` of them);
3. traced (``--trace 1``): alternates untraced runs with runs of
   ``bench/trace_run.py``, which times the same command layer by layer;
4. checks every run's exit code and output against ``bench/expected``.

Every run is cold: a new interpreter with empty engine memos, which is
what a CLI user pays.  Subprocesses get ``PYTHONHASHSEED=0``,
``PYTHONPATH=src`` and ``TMPDIR`` inside the run directory
``bench/out/<run>/``, which also receives ``results.json`` (every sample,
the seed, the commit and the host) and ``trace-<workload>.json``.

A table goes to stderr; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of ``BENCHMARK.json`` untraced, its per-layer metrics traced;
with several workloads or both modes, keys are ``<workload>/<metric>``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer as tracing
from workloads import (
    BENCH,
    ROOT,
    SRC,
    WORKLOADS,
    Workload,
    checked_lines,
    expected_lines,
    matches,
)

SETUP_PROBES = 5
MIN_SAMPLES = 3
MIN_PAIRS = 2
#: a single CLI run taking longer than this is killed and counts as failed
TIMEOUT_S = 120

_SETUP = (
    "import sys, repro.cli\n"
    "from repro.spec import ScenarioSpec\n"
    "ScenarioSpec.from_json(open(sys.argv[1]).read()).build()\n"
)


@dataclass
class Sample:
    wall: float
    rss_mb: float
    code: int
    stdout: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_process(argv: list[str], log: Path, tmp: Path) -> Sample:
    """Run ``argv`` from the repo root; wall time from start to exit and
    the largest maximum RSS of any process in its tree (``wait4``)."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0",
           "TMPDIR": str(tmp)}
    with open(f"{log}.out", "w+") as out, open(f"{log}.err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        killer = threading.Timer(TIMEOUT_S, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # workers a crashed run left behind
        out.seek(0)
        return Sample(wall, usage.ru_maxrss / 1024, proc.returncode, out.read())


def _enough(done: list, started: float, seconds: float, repeat: int | None,
            minimum: int, cost) -> bool:
    """Stop when ``repeat`` runs are done, or when another typical run
    would overrun ``seconds`` (never before ``minimum`` runs)."""
    if repeat is not None:
        return len(done) >= repeat
    if len(done) < minimum:
        return False
    typical = statistics.median(cost(d) for d in done)
    return time.perf_counter() - started + typical > seconds


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if not values:
        return {"value": 0.0, "q1": 0.0, "q3": 0.0, "n": 0, "samples": []}
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


class WorkloadRun:
    """One workload at one seed: its input, its runs and their checks."""

    def __init__(self, w: Workload, seed: int, out_dir: Path,
                 expected: tuple[list[str], bool] | None = None) -> None:
        self.w = w
        self.dir = out_dir / w.name
        self.tmp = self.dir / "tmp"
        self.tmp.mkdir(parents=True)
        self.manifest = self.dir / "manifest.json"
        dump = run_process(
            [sys.executable, str(BENCH / "workloads.py"), w.name, str(seed),
             str(self.manifest)],
            self.dir / "dump-spec", self.tmp,
        )
        if dump.code != 0:
            raise RuntimeError(f"{w.name}: writing the input exited {dump.code}")
        self.expected, self.full = expected or expected_lines(w, seed)
        self.first: list[str] | None = None
        self.attempted = 0
        self.failed = 0
        self.seq = 0

    def _check(self, s: Sample, extra_ok: bool = True) -> None:
        """Count the run; it fails on a bad exit code, on output that
        differs from the expected lines or from the first run's."""
        lines = checked_lines(self.w, s.stdout)
        if self.first is None:
            self.first = lines
        ok = (extra_ok and s.code == 0 and lines == self.first
              and matches(self.w, s.stdout, self.expected, self.full))
        self.attempted += 1
        self.failed += not ok

    def _run(self, prefix: list[str], label: str) -> Sample:
        """One CLI run; ``prefix`` selects ``-m repro`` or the tracer."""
        self.seq += 1
        argv = [self.w.command, "--spec", str(self.manifest), *self.w.campaign]
        ckpt = self.tmp / f"checkpoint-{self.seq}"
        if self.w.checkpoint:
            argv += ["--checkpoint", str(ckpt)]
        try:
            return run_process([sys.executable, *prefix, *argv],
                               self.dir / f"{label}-{self.seq}", self.tmp)
        finally:
            shutil.rmtree(ckpt, ignore_errors=True)

    def setup_probe(self) -> float:
        self.seq += 1
        s = run_process([sys.executable, "-c", _SETUP, str(self.manifest)],
                        self.dir / f"setup-{self.seq}", self.tmp)
        self.attempted += 1
        self.failed += s.code != 0
        return s.wall

    def untraced(self, seconds: float, repeat: int | None,
                 probes: int = SETUP_PROBES) -> dict:
        # One probe before every timed run (at least ``probes``): spread
        # over the run, not in one burst, they see the same host load.
        setup: list[float] = []
        samples: list[Sample] = []
        started = time.perf_counter()
        while not _enough(samples, started, seconds, repeat, MIN_SAMPLES,
                          lambda s: s.wall):
            if probes:
                setup.append(self.setup_probe())
            s = self._run(["-m", "repro"], "run")
            self._check(s)
            samples.append(s)
        while len(setup) < probes:
            setup.append(self.setup_probe())
        work = []
        for s in samples:
            try:
                work.append(self.w.work(s.stdout) / s.wall)
            except ValueError:  # a failed run; already counted
                pass
        return {
            "wall_s": summary([s.wall for s in samples]),
            "setup_s": summary(setup),
            "work_per_s": summary(work),
            "peak_rss_mb": summary([s.rss_mb for s in samples]),
        }

    def traced(self, seconds: float, repeat: int | None,
               trace_copy: Path) -> dict:
        # (untraced wall, traced wall without the warm rerun, both runs' time)
        pairs: list[tuple[float, float, float]] = []
        layers: list[dict] = []
        started = time.perf_counter()
        while not _enough(pairs, started, seconds, repeat, MIN_PAIRS,
                          lambda p: p[2]):
            plain = self._run(["-m", "repro"], "run")
            self._check(plain)
            path = self.dir / f"trace-{self.seq + 1}.json"
            s = self._run([str(BENCH / "trace_run.py"), str(path), "--"], "traced")
            try:
                trace = json.loads(path.read_text())
            except (OSError, ValueError):
                self._check(s, extra_ok=False)
                pairs.append((plain.wall, s.wall, plain.wall + s.wall))
                continue
            self._check(s, extra_ok=not tracing.rerun_mismatch(trace))
            rerun = sum(x["end"] - x["start"] for x in trace["spans"]
                        if x["name"] == "explore.rerun")
            layers.append(tracing.layer_metrics(trace, s.wall - rerun))
            pairs.append((plain.wall, s.wall - rerun, plain.wall + s.wall))
            if not trace_copy.exists():
                shutil.copyfile(path, trace_copy)
        out = {name: summary([m[name] for m in layers]) for name in
               (layers[0] if layers else {})}
        overhead = (statistics.median(p[1] for p in pairs)
                    / statistics.median(p[0] for p in pairs) - 1.0)
        out["trace.overhead_frac"] = summary([overhead])
        return out

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _host() -> dict:
    u = platform.uname()
    return {"system": f"{u.system} {u.release}", "machine": u.machine,
            "cpus": os.cpu_count(), "python": platform.python_version()}


def _table(name: str, seed: int, res: dict, units: dict) -> str:
    lines = [f"{name} (seed {seed}): {res['attempted']} runs attempted, "
             f"{res['failed']} failed"]
    for section in ("end_to_end", "per_layer"):
        for metric, s in res.get(section, {}).items():
            lines.append(
                f"  {metric:<30} {units[metric]:>6}  median {s['value']:<12.6g}"
                f" q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} n={s['n']}"
            )
    return "\n".join(lines)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                   help="run one workload (default: all)")
    p.add_argument("--seed", type=int, default=0,
                   help="input seed (default 0; 1 is the holdout)")
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload and mode "
                        "(default: run_seconds of BENCHMARK.json)")
    p.add_argument("--repeat", type=int, default=None,
                   help="exact number of runs (pairs, traced) instead of "
                        "a time budget")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: end-to-end metrics only, 1: per-layer only "
                        "(default: both)")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    seconds = config["run_seconds"] if args.seconds is None else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [args.trace] if args.trace is not None else [0, 1]
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    out_dir = BENCH / "out" / f"{stamp}-s{args.seed}-{os.getpid()}"
    report = {"commit": _commit(), "host": _host(), "seed": args.seed,
              "seconds": seconds, "repeat": args.repeat, "modes": modes,
              "bounds": {m["name"]: m["bound"] for m in config["end_to_end"]},
              "workloads": {}}
    for name in names:
        run = WorkloadRun(WORKLOADS[name], args.seed, out_dir)
        res: dict = {}
        try:
            if 0 in modes:
                res["end_to_end"] = run.untraced(seconds, args.repeat)
            if 1 in modes:
                res["per_layer"] = run.traced(
                    seconds, args.repeat, out_dir / f"trace-{name}.json")
        finally:
            run.close()
        res.update(attempted=run.attempted, failed=run.failed)
        report["workloads"][name] = res
        print(_table(name, args.seed, res, units), file=sys.stderr)
    (out_dir / "results.json").write_text(json.dumps(report, indent=1))
    print(f"results: {out_dir / 'results.json'}", file=sys.stderr)
    print(json.dumps(result_line(report["workloads"], config)))
    return 0


def result_line(results: dict[str, dict], config: dict) -> dict:
    """The final JSON object; metric keys are prefixed ``<workload>/``
    unless one workload ran in one mode."""
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    prefix = sum(s in r for r in results.values()
                 for s in ("end_to_end", "per_layer")) > 1
    metrics = {}
    for name, res in results.items():
        for section in ("end_to_end", "per_layer"):
            if section not in res:
                continue
            for m in config[section]:
                key = f"{name}/{m['name']}" if prefix else m["name"]
                # missing only when every traced run failed, which
                # ``failed`` already reports
                got = res[section].get(m["name"], {"value": 0.0})
                metrics[key] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": attempted > 0 and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    raise SystemExit(main())
