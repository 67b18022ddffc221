"""The benchmark's workloads: inputs made from a seed, how each runs, how
its output is checked.

Every workload is one ``python -m repro <command> --spec FILE ...`` CLI
invocation.  ``python bench/workloads.py NAME SEED FILE`` writes the
manifest ``FILE`` through the program's own ``--dump-spec``, from flags
this module derives from the seed, so the program receives only
generated inputs.  The campaign flags (depth bounds, step counts,
worker counts) are not part of a manifest and are fixed per workload.

Seeds and the explore workloads.  A seed cannot simply pick a fresh
random tree there: state-space size swings by 2x between trees of the
same size, which would swamp any code change.  Instead the seed picks a
*relabelled copy* of the seed-0 tree: the first ``random`` tree (topology
seed counted up from ``seed * _STRIDE``) with the same ordered shape and
the same ``pid % k`` at every node (the saturated workload's default
need is ``1 + pid % k``).  Digests, hash-set layout and shard ownership
change with the seed; the breadth-first state graph does not, so the
BFS workloads print identical counts for every seed and one expected
file covers them all.  The liveness search is depth-first, and its move
order follows pid order, so its transition count varies a little with
the labelling; its configuration cap binds, which fixes the work.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"

#: topology seeds searched for seed ``s`` start at ``s * _STRIDE``; a
#: match needs a few thousand draws, so ranges of different seeds never
#: meet
_STRIDE = 1_000_003


@dataclass(frozen=True)
class Workload:
    #: as in BENCHMARK.json, which also says why the workload is there
    name: str
    #: the ``repro`` subcommand
    command: str
    #: scenario flags, baked into the manifest by ``--dump-spec``
    scenario: tuple[str, ...]
    #: campaign flags passed next to ``--spec`` on every timed run
    campaign: tuple[str, ...]
    #: campaign flags of the independent run that produced the expected
    #: output (another backend, serial instead of sharded, ...)
    reference: tuple[str, ...]
    #: campaign flags of the toy-sized version the self-test runs
    toy: tuple[str, ...]
    #: what one run accomplishes: configurations, steps or runs
    work_unit: str
    #: explore workloads: the seed relabels the seed-0 tree (see module doc)
    relabel: bool = False
    #: the checked output is identical for every seed (one expected file)
    all_seeds: bool = False
    #: output lines (by prefix) identical for every seed; checked on seeds
    #: without an expected file of their own
    seed_free: tuple[str, ...] = ()
    #: output lines (by prefix) left out of the check
    ignore: tuple[str, ...] = ()
    #: every run gets a fresh ``--checkpoint`` directory
    checkpoint: bool = False

    def inputs(self, seed: int) -> list[str]:
        """Flags for ``--dump-spec``: the scenario made from ``seed``."""
        if not self.relabel:
            return [*self.scenario, "--seed", str(seed)]
        n, k = int(_flag(self.scenario, "--n")), int(_flag(self.scenario, "--k"))
        return [*self.scenario, "--tree", f"random:seed={relabel_seed(n, k, seed)}",
                "--seed", str(seed)]

    def work(self, stdout: str) -> float:
        """Units of work one run did, read from its output."""
        if self.work_unit == "configurations":
            return float(_field(stdout, r"^configurations\s*:\s*(\d+)"))
        if self.work_unit == "steps":
            return float(_flag(self.campaign, "--steps"))
        cells, seeds = _field(stdout, r"\((\d+) cells x (\d+) seeds")
        return float(int(cells) * int(seeds))


def _flag(flags: tuple[str, ...], name: str) -> str:
    return flags[flags.index(name) + 1]


def _field(text: str, pattern: str):
    m = re.search(pattern, text, re.MULTILINE)
    if m is None:
        raise ValueError(f"output has no line matching {pattern!r}")
    return m.group(1) if m.re.groups == 1 else m.groups()


WORKLOADS = {w.name: w for w in (
    Workload(
        name="verify-liveness-por",
        command="explore",
        scenario=("--variant", "pusher", "--n", "7", "--k", "2", "--l", "2"),
        campaign=("--check", "liveness", "--por", "--max-depth", "90",
                  "--max-configs", "12000"),
        reference=("--check", "liveness", "--por", "--max-depth", "90",
                   "--max-configs", "12000"),
        toy=("--check", "liveness", "--por", "--max-depth", "90",
             "--max-configs", "400"),
        work_unit="configurations",
        relabel=True,
        seed_free=("variant", "depth bound", "check", "configurations",
                   "peak seen memory", "exhausted", "violation", "livelock"),
    ),
    Workload(
        name="verify-owner-spill",
        command="explore",
        scenario=("--variant", "naive", "--n", "7", "--k", "2", "--l", "3",
                  "--backend", "array"),
        campaign=("--max-depth", "19", "--max-configs", "200000",
                  "--distributed", "--workers", "2", "--mem-budget", "64k"),
        reference=("--max-depth", "19", "--max-configs", "200000",
                   "--backend", "object"),
        toy=("--max-depth", "6", "--max-configs", "200000",
             "--distributed", "--workers", "2", "--mem-budget", "2k"),
        work_unit="configurations",
        relabel=True,
        all_seeds=True,
        # the serial reference has no shards: its seen-set estimate differs
        # and it prints no disk line
        ignore=("peak seen memory", "peak disk memory"),
        checkpoint=True,
    ),
    Workload(
        name="simulate-wait-array",
        command="wait",
        scenario=("--tree", "random", "--n", "40", "--backend", "array"),
        campaign=("--steps", "2000000"),
        reference=("--steps", "2000000", "--backend", "object"),
        toy=("--steps", "20000"),
        work_unit="steps",
        seed_free=("within bound",),
    ),
    Workload(
        name="campaign-converge",
        command="sweep",
        scenario=("--experiment", "converge", "--tree", "random"),
        campaign=("--experiment", "converge", "--sizes", "8,16,32,64",
                  "--seeds", "8", "--steps", "150000", "--workers", "2"),
        reference=("--experiment", "converge", "--sizes", "8,16,32,64",
                   "--seeds", "8", "--steps", "150000", "--workers", "1"),
        toy=("--experiment", "converge", "--sizes", "4,6", "--seeds", "2",
             "--steps", "50000", "--workers", "2"),
        work_unit="runs",
        seed_free=("cell",),
        # the header echoes the worker count, which the reference changes
        ignore=("experiment",),
    ),
)}


def toy(w: Workload) -> Workload:
    """The toy-sized version of ``w`` (same layers, a fraction of a second)."""
    return replace(w, campaign=w.toy, reference=w.toy)


def relabel_seed(n: int, k: int, seed: int) -> int:
    """Topology seed of the ``random`` tree that relabels the seed-0 tree."""
    from repro.topology.generators import random_tree

    def shape(tree, v):
        kids = "".join(shape(tree, c) for c in tree.children[v])
        return f"{v % k}({kids})"

    reference = random_tree(n, 0)
    target = shape(reference, reference.root)
    t = seed * _STRIDE
    while True:
        tree = random_tree(n, t)
        if shape(tree, tree.root) == target:
            return t
        t += 1


def checked_lines(w: Workload, stdout: str) -> list[str]:
    """The output lines the check compares."""
    return [
        line for line in stdout.splitlines()
        if line.strip() and not line.startswith(w.ignore)
    ]


def expected_lines(w: Workload, seed: int) -> tuple[list[str], bool]:
    """``(lines, full)``: the expected output for ``seed``.

    ``full`` means every checked line must match; otherwise only the
    lines starting with one of ``w.seed_free`` (taken from the seed-0
    file, since they are the same for every seed) are compared.
    """
    own = EXPECTED / (f"{w.name}.txt" if w.all_seeds else f"{w.name}-seed{seed}.txt")
    if own.is_file():
        return own.read_text().splitlines(), True
    base = (EXPECTED / f"{w.name}-seed0.txt").read_text().splitlines()
    return [line for line in base if line.startswith(w.seed_free)], False


def matches(w: Workload, stdout: str, expected: list[str], full: bool) -> bool:
    """True iff ``stdout`` agrees with the expected lines."""
    lines = checked_lines(w, stdout)
    if not full:
        lines = [line for line in lines if line.startswith(w.seed_free)]
    return lines == expected


def main(argv: list[str]) -> int:
    """``NAME SEED FILE``: write the workload's manifest for ``SEED``.

    A subprocess of its own because it imports ``repro``: Linux charges
    the spawning process's peak RSS to every child's ``ru_maxrss``, so
    ``run.py`` itself must stay small.
    """
    name, seed, path = argv
    sys.path.insert(0, str(SRC))
    import repro.cli

    w = WORKLOADS[name]
    return repro.cli.main([w.command, *w.inputs(int(seed)), "--dump-spec", path])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
