"""Compare two benchmark result files: ``python3 bench/compare.py A.json B.json``.

``A`` is the baseline (the parent commit), ``B`` the candidate; both are
``results.json`` files written by ``bench/run.py``.  For every workload
and end-to-end metric it prints both medians, their quartiles, the ratio
B/A and a verdict:

* ``ok``          B is no worse than A by more than the metric's bound;
* ``REGRESSION``  B is worse by more than the bound;
* ``unresolved``  either side's interquartile range exceeds the bound,
                  unless every run of B beats every run of A.

Deterministic per-layer counts (unit ``count``) of traced results must
match exactly.  Exits 1 on a regression, a count mismatch, or more
failed runs in B than in A (as a share of runs attempted).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spread(s: dict) -> float:
    return (s["q3"] - s["q1"]) / s["value"] if s["value"] else 0.0


def verdict(a: dict, b: dict, bound: float, lower_is_better: bool) -> str:
    if lower_is_better:
        worse = b["value"] > a["value"] * (1 + bound)
        always_better = max(b["samples"]) < min(a["samples"])
    else:
        worse = b["value"] < a["value"] * (1 - bound)
        always_better = min(b["samples"]) > max(a["samples"])
    if (_spread(a) > bound or _spread(b) > bound) and not always_better:
        return "unresolved"
    return "REGRESSION" if worse else "ok"


def compare(a: dict, b: dict, config: dict) -> tuple[list[str], bool]:
    """Report lines and whether B passes against baseline A."""
    better = {m["name"]: m["better"] for m in config["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    lines = [f"{'workload':<22} {'metric':<14} {'A median':>11} {'A q1-q3':>23} "
             f"{'B median':>11} {'B q1-q3':>23} {'B/A':>7}  verdict"]
    ok = True
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, sa in wa.get("end_to_end", {}).items():
            sb = wb.get("end_to_end", {}).get(metric)
            if sb is None:
                continue
            v = verdict(sa, sb, bounds[metric], better[metric] == "lower")
            ok &= v != "REGRESSION"
            ratio = sb["value"] / sa["value"] if sa["value"] else float("nan")
            lines.append(
                f"{name:<22} {metric:<14} {sa['value']:>11.5g} "
                f"{sa['q1']:>11.5g}-{sa['q3']:<11.5g} {sb['value']:>11.5g} "
                f"{sb['q1']:>11.5g}-{sb['q3']:<11.5g} {ratio:>7.3f}  {v}"
            )
        for metric, sa in wa.get("per_layer", {}).items():
            sb = wb.get("per_layer", {}).get(metric)
            if units.get(metric) == "count" and sb is not None \
                    and sa["value"] != sb["value"]:
                ok = False
                lines.append(f"{name:<22} {metric}: count {sa['value']} -> "
                             f"{sb['value']}  MISMATCH")
        fa = wa["failed"] / max(wa["attempted"], 1)
        fb = wb["failed"] / max(wb["attempted"], 1)
        if fb > fa:
            ok = False
            lines.append(f"{name:<22} failed runs: {fa:.3f} -> {fb:.3f}  REGRESSION")
    return lines, ok


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    if a["seed"] != b["seed"]:
        print(f"error: seeds differ ({a['seed']} vs {b['seed']}); inputs and "
              "counts are only comparable at one seed", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, ok = compare(a, b, config)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
