"""Benchmark-suite helpers: experiment tables printed past pytest capture."""

import json
import os
from pathlib import Path

import pytest

#: repository root — the committed BENCH_*.json artifacts live here
REPO_ROOT = Path(__file__).resolve().parent.parent


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


@pytest.fixture
def report(capsys):
    """Print an experiment table so it survives pytest's capture.

    Usage: ``report(title, headers, rows)`` — also returns the formatted
    text so callers can assert on it.
    """

    def _report(title, headers, rows):
        widths = [
            max(len(str(h)), *(len(_fmt(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(headers)
        ]
        lines = ["", "=" * 72, title, "=" * 72]
        lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in rows:
            lines.append("  ".join(_fmt(v).ljust(w) for v, w in zip(r, widths)))
        text = "\n".join(lines)
        with capsys.disabled():
            print(text)
        return text

    return _report


@pytest.fixture
def merge_into_artifact():
    """Fold a gate's measured block into this run's ``BENCH_*.json``.

    Usage: ``merge_into_artifact("BENCH_KERNEL_OUT", "array_gate", block)``.
    Artifacts are written only where the environment variable names one
    (the CI kernel-bench job sets ``BENCH_KERNEL_OUT`` and
    ``BENCH_EXPLORE_OUT``), and a block is merged only into an artifact
    the matrix test of the same run wrote.  A plain tier-1 run therefore
    never rewrites the committed ``BENCH_*.json`` baselines.
    """

    def _merge(env, key, block):
        out = os.environ.get(env)
        if not out or not os.path.exists(out):
            return
        path = Path(out)
        doc = json.loads(path.read_text())
        doc[key] = block
        path.write_text(json.dumps(doc, indent=2) + "\n")

    return _merge


@pytest.fixture
def bench_baseline():
    """Load a committed ``BENCH_*.json`` artifact from the repo root.

    Usage: ``bench_baseline("BENCH_explore.json")`` — returns the parsed
    mapping.  A fresh clone, a CI artifact-regen run, or a corrupted
    checkout may not have a readable artifact; those are not benchmark
    regressions, so the requesting test is *skipped* with a message
    saying how to regenerate, never failed.
    """

    def _load(name):
        path = REPO_ROOT / name
        if not path.exists():
            pytest.skip(
                f"committed baseline {name} not found at {path}; "
                f"regenerate it with `python -m repro bench` or by "
                f"running the bench suite from the repo root"
            )
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            pytest.skip(
                f"committed baseline {name} is unreadable ({exc}); "
                f"regenerate it with `python -m repro bench`"
            )

    return _load
