"""Regenerate ``bench/expected/``: ``python3 bench/make_expected.py``.

Each file is the checked output of the workload's *reference* run on the
seed's manifest: the object backend for ``simulate-wait-array``, the
serial object-backend explorer for ``verify-owner-spill`` and one
worker for ``campaign-converge``.  Every benchmark run is then
diffed against a different code path than the one it times.  Workloads
whose output is the same for every seed get one file (checked here on
seeds 0 and 1); the others get one file for seed 0 and one for the
holdout seed 1.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from run import run_process
from workloads import BENCH, EXPECTED, WORKLOADS, checked_lines


def reference_lines(w, seed: int, tmp: Path) -> list[str]:
    manifest = tmp / f"{w.name}-{seed}.json"
    for argv in ([sys.executable, str(BENCH / "workloads.py"), w.name, str(seed),
                  str(manifest)],
                 [sys.executable, "-m", "repro", w.command, "--spec", str(manifest),
                  *w.reference]):
        s = run_process(argv, tmp / "log", tmp)
        if s.code != 0:
            raise SystemExit(f"{w.name} seed {seed}: {argv[1:]} exited {s.code}")
    return checked_lines(w, s.stdout)


def main() -> int:
    EXPECTED.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=EXPECTED.parent) as d:
        for w in WORKLOADS.values():
            lines = {seed: reference_lines(w, seed, Path(d)) for seed in (0, 1)}
            if w.all_seeds:
                if lines[0] != lines[1]:
                    raise SystemExit(f"{w.name}: output differs between seeds")
                files = {f"{w.name}.txt": lines[0]}
            else:
                files = {f"{w.name}-seed{s}.txt": lines[s] for s in (0, 1)}
            for name, text in files.items():
                (EXPECTED / name).write_text("\n".join(text) + "\n")
                print(f"wrote {EXPECTED / name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
