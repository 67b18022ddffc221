"""Parameter-sweep utilities with numpy aggregation.

The benchmark harness and downstream users run the same experiment over
grids of (tree, k, ℓ, seed).  These helpers structure that: a sweep is a
list of cells, each repeated over seeds, aggregated into mean/std/min/max
arrays — vectorized with numpy per the project's performance guidance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from . import parallel

if TYPE_CHECKING:  # pragma: no cover
    from ..spec.spec import ScenarioSpec

__all__ = ["SweepCell", "SweepResult", "run_sweep", "spec_grid"]


@dataclass(frozen=True, slots=True)
class SweepCell:
    """One grid point: a label plus keyword arguments for the runner.

    Spec-driven sweeps additionally carry ``spec`` — a serialized
    :class:`~repro.spec.ScenarioSpec` override mapping for this cell —
    which :meth:`run` forwards to the runner as the ``spec`` keyword.
    The dict form is deliberate: it is compact, picklable, and exactly
    what the parallel campaign runner ships to worker processes.
    """

    label: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    spec: Mapping[str, Any] | None = None

    def run(self, runner: Callable[..., Any], *, seed: int) -> Any:
        """Evaluate this cell: ``runner(seed=…, **kwargs[, spec=…])``."""
        kw = dict(self.kwargs)
        if self.spec is not None:
            kw["spec"] = self.spec
        return runner(seed=seed, **kw)


def spec_grid(
    base: "ScenarioSpec",
    overrides: Sequence[tuple[str, Mapping[str, Any]]],
    *,
    kwargs: Mapping[str, Any] | None = None,
) -> list[SweepCell]:
    """Derive one :class:`SweepCell` per ``(label, override-mapping)``.

    Each override is applied to ``base`` via
    :meth:`~repro.spec.ScenarioSpec.override` (dotted paths, e.g.
    ``{"topology.args.n": 9}``), and the resulting spec is stored in its
    serialized dict form.  ``kwargs`` are shared runner arguments (e.g.
    ``{"max_steps": 50_000}``).
    """
    return [
        SweepCell(label, dict(kwargs or {}), base.override(ov).to_dict())
        for label, ov in overrides
    ]


@dataclass(slots=True)
class SweepResult:
    """Aggregated sweep outcome.

    ``values[i, j]`` is metric value for cell ``i``, seed index ``j``;
    aggregation properties reduce over the seed axis.
    """

    labels: list[str]
    metrics: list[str]
    #: raw values, shape (cells, seeds, metrics); NaN = missing
    values: np.ndarray

    def _axis(self, metric: str) -> int:
        try:
            return self.metrics.index(metric)
        except ValueError:
            raise KeyError(f"unknown metric {metric!r}") from None

    def _reduce(self, fn: Callable, metric: str) -> np.ndarray:
        """``fn`` over the seeds of each cell that has a value; NaN for a
        cell with none (numpy would warn on its empty slice)."""
        col = self.values[:, :, self._axis(metric)]
        out = np.full(len(col), np.nan)
        some = ~np.isnan(col).all(axis=1)
        out[some] = fn(col[some], axis=1)
        return out

    def mean(self, metric: str) -> np.ndarray:
        """Per-cell mean over seeds (NaN-aware)."""
        return self._reduce(np.nanmean, metric)

    def std(self, metric: str) -> np.ndarray:
        """Per-cell standard deviation over seeds."""
        return self._reduce(np.nanstd, metric)

    def max(self, metric: str) -> np.ndarray:
        """Per-cell maximum over seeds."""
        return self._reduce(np.nanmax, metric)

    def min(self, metric: str) -> np.ndarray:
        """Per-cell minimum over seeds."""
        return self._reduce(np.nanmin, metric)

    def rows(self, *metrics: str, agg: str = "mean") -> list[tuple]:
        """Table rows ``(label, value…)`` with the chosen aggregation."""
        fn = {"mean": self.mean, "std": self.std, "max": self.max, "min": self.min}[agg]
        cols = [fn(m) for m in metrics]
        return [
            (label, *(float(c[i]) for c in cols))
            for i, label in enumerate(self.labels)
        ]

    def as_dict(self) -> dict[str, dict[str, float]]:
        """``{label: {metric: mean}}`` convenience view."""
        return {
            label: {m: float(self.mean(m)[i]) for m in self.metrics}
            for i, label in enumerate(self.labels)
        }


def _sweep_shard(payload, lo: int, hi: int) -> list:
    """Evaluate grid points ``lo..hi`` (flat cell-major index) of a sweep.

    Cells dispatch through :meth:`SweepCell.run`, so spec-driven cells
    reach workers as compact serialized :class:`~repro.spec.ScenarioSpec`
    mappings and the engine is constructed in-worker via
    ``ScenarioSpec.build()``.
    """
    runner, cells, seeds = payload
    out = []
    for flat in range(lo, hi):
        i, j = divmod(flat, len(seeds))
        out.append(cells[i].run(runner, seed=seeds[j]))
    return out


def run_sweep(
    runner: Callable[..., Mapping[str, float] | None],
    cells: Sequence[SweepCell],
    seeds: Iterable[int],
    *,
    metrics: Sequence[str] | None = None,
    workers: int | None = None,
    progress: Callable | None = None,
) -> SweepResult:
    """Run ``runner(seed=…, **cell.kwargs)`` over the grid and aggregate.

    The runner returns a mapping of metric name → value for one run (or
    ``None`` to record a missing cell/seed).  ``metrics`` fixes the
    metric order; by default it is inferred from the first non-``None``
    result in cell-major order (later unknown keys are ignored, missing
    keys become NaN).

    The flat ``(cell, seed)`` grid is split into contiguous shards that
    :func:`repro.analysis.parallel.parallel_map` runs on ``workers``
    processes (default 1, which runs in-process and forks nothing).
    Results come back in grid order, so the aggregated result is
    identical at every worker count.  ``progress`` receives one
    :class:`~repro.analysis.parallel.ShardProgress` event per shard, and
    a runner that raises fails the sweep as a
    :class:`~repro.analysis.parallel.CampaignError`.
    """
    cells = list(cells)
    seeds = list(seeds)
    if not cells:
        raise ValueError("sweep needs at least one cell")
    if not seeds:
        raise ValueError("sweep needs at least one seed")
    workers = workers or 1
    total = len(cells) * len(seeds)
    ranges = parallel._shard_ranges(total, workers * 4)
    shards = parallel.parallel_map(
        "sweep",
        _sweep_shard,
        (runner, cells, seeds),
        ranges,
        workers=workers,
        progress=progress,
        # flat (cell, seed) runs, 1-based and inclusive
        note=lambda s, out: f"runs {ranges[s][0] + 1}-{ranges[s][1]} of {total} done",
    )
    flat = [out for shard in shards for out in shard]
    inferred = list(metrics) if metrics is not None else next(
        (list(out.keys()) for out in flat if out is not None), None
    )
    if inferred is None:
        raise ValueError("every run returned None; no metrics to aggregate")
    values = np.full((len(cells), len(seeds), len(inferred)), np.nan)
    for pos, out in enumerate(flat):
        if out is None:
            continue
        i, j = divmod(pos, len(seeds))
        for m, name in enumerate(inferred):
            if name in out and out[name] is not None:
                values[i, j, m] = float(out[name])
    return SweepResult(
        labels=[c.label for c in cells], metrics=inferred, values=values
    )
