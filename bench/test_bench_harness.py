"""Self-test of the benchmark harness on toy-sized workloads.

Runs each workload once at toy size, one traced run, and checks the
metric set against BENCHMARK.json, the output check, the self-time rule,
forked-worker spans and the regression verdicts of ``compare.py``.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import compare
import run
import tracer as tracing
from workloads import ROOT, WORKLOADS, toy

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_metric_is_emitted_with_its_unit(tmp_path):
    results = {}
    for name, w in WORKLOADS.items():
        # toys have no expected files: runs are only checked for exit code
        # and for agreeing with each other
        r = run.WorkloadRun(replace(toy(w), seed_free=()), 0, tmp_path,
                            expected=([], False))
        try:
            results[name] = {"end_to_end": r.untraced(0, 1, probes=1)}
            if name == "verify-owner-spill":
                results[name]["per_layer"] = r.traced(0, 1, tmp_path / "trace.json")
        finally:
            r.close()
        results[name].update(attempted=r.attempted, failed=r.failed)
    line = run.result_line(results, CONFIG)
    assert line["correct"] and line["failed"] == 0, line
    for name in WORKLOADS:
        for m in CONFIG["end_to_end"]:
            got = line["metrics"][f"{name}/{m['name']}"]
            assert got["unit"] == m["unit"] and got["value"] > 0, (name, m)
        assert set(results[name]["end_to_end"]) == {
            m["name"] for m in CONFIG["end_to_end"]}
    traced = results["verify-owner-spill"]["per_layer"]
    assert set(traced) == {m["name"] for m in CONFIG["per_layer"]}
    for m in CONFIG["per_layer"]:
        assert line["metrics"][f"verify-owner-spill/{m['name']}"]["unit"] == m["unit"]
    # spill, compaction and checkpoint spans run in forked shard owners
    assert traced["store.spill_calls"]["value"] > 0
    assert traced["store.checkpoint_calls"]["value"] > 0
    assert traced["owner.levels"]["value"] == 6


def test_a_doctored_count_line_fails_the_run(tmp_path):
    w = replace(toy(WORKLOADS["verify-owner-spill"]), seed_free=("configurations",))
    r = run.WorkloadRun(w, 0, tmp_path, expected=(["configurations   : 1"], False))
    try:
        r.untraced(0, 1, probes=0)
    finally:
        r.close()
    assert (r.attempted, r.failed) == (1, 1)


def test_self_time_subtracts_children_and_own_tallies():
    spans = [
        {"name": "a", "id": "1:1", "parent": None, "pid": 1, "start": 0.0, "end": 10.0},
        {"name": "b", "id": "1:2", "parent": "1:1", "pid": 1, "start": 1.0, "end": 4.0},
        {"name": "c", "id": "1:3", "parent": "1:2", "pid": 1, "start": 2.0, "end": 3.0},
        # a forked worker's span overlapping b: only its uncovered part counts
        {"name": "w", "id": "2:1", "parent": "1:1", "pid": 2, "start": 3.0, "end": 6.0},
    ]
    tallies = [
        {"name": "t", "parent": "1:1", "pid": 1, "calls": 4, "seconds": 0.5, "units": 0},
        # worker tallies never reduce a parent-process span
        {"name": "t", "parent": "1:1", "pid": 2, "calls": 9, "seconds": 2.0, "units": 0},
    ]
    own = tracing.self_times(spans, tallies)
    assert own == {"1:1": 10 - 5 - 0.5, "1:2": 3 - 1, "1:3": 1, "2:1": 3}


def test_forked_worker_spans_reach_the_trace(tmp_path):
    t = tracing.Tracer(tmp_path / "spans")
    t.begin("parent")
    pid = os.fork()
    if pid == 0:  # the worker: one outermost span, flushed when it closes
        t.begin("worker")
        t.tally("hot", 0.25, 3)
        t.end()
        os._exit(0)
    os.waitpid(pid, 0)
    t.end()
    t.write(tmp_path / "trace.json", import_s=0.0)
    trace = json.loads((tmp_path / "trace.json").read_text())
    parent = next(s for s in trace["spans"] if s["name"] == "parent")
    worker = next(s for s in trace["spans"] if s["name"] == "worker")
    assert worker["pid"] == pid and worker["parent"] == parent["id"]
    assert trace["tallies"] == [{"name": "hot", "parent": worker["id"], "pid": pid,
                                 "calls": 1, "seconds": 0.25, "units": 3}]


def test_compare_flags_regressions_and_noise():
    def res(samples, failed=0):
        s = sorted(samples)
        return {"seed": 0, "workloads": {"w": {
            "attempted": 10, "failed": failed,
            "end_to_end": {"wall_s": {"value": s[len(s) // 2], "q1": s[1],
                                      "q3": s[-2], "samples": s}}}}}

    base = res([1.00, 1.01, 1.02, 1.03, 1.04])
    verdicts = {}
    for label, cand in (("same", base), ("slow", res([1.30, 1.31, 1.32, 1.33, 1.34])),
                        ("noisy", res([0.5, 0.8, 1.0, 1.4, 1.9])),
                        ("failing", res([1.00, 1.01, 1.02, 1.03, 1.04], failed=1))):
        lines, ok = compare.compare(base, cand, CONFIG)
        verdicts[label] = (lines[1].split()[-1], ok)
    assert verdicts == {"same": ("ok", True), "slow": ("REGRESSION", False),
                        "noisy": ("unresolved", True), "failing": ("ok", False)}
