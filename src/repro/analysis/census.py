"""Global token accounting (the oracle's view of a configuration).

The paper's legitimacy argument revolves around the token *census*: at
any instant the number of resource tokens equals the sum of the ``RSet``
sizes plus the free resource tokens in channels; priority tokens equal
the processes with ``Prio ≠ ⊥`` plus free ones; pusher tokens are always
free.  A configuration has the *expected population* when the census is
exactly ``(ℓ, 1, 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.params import KLParams
from ..sim.engine import Engine
from ..sim.observers import Observer
from ..spec.registry import register_observer

__all__ = ["TokenCensus", "take_census", "population_correct", "CensusObserver"]


@dataclass(frozen=True, slots=True)
class TokenCensus:
    """Instantaneous token population."""

    free_res: int
    reserved_res: int
    free_prio: int
    held_prio: int
    push: int

    @property
    def res(self) -> int:
        """Total resource tokens (free + reserved)."""
        return self.free_res + self.reserved_res

    @property
    def prio(self) -> int:
        """Total priority tokens (free + held)."""
        return self.free_prio + self.held_prio

    def as_tuple(self) -> tuple[int, int, int]:
        """``(resource, pusher, priority)`` totals."""
        return (self.res, self.push, self.prio)


def take_census(engine: Engine) -> TokenCensus:
    """Count every token in the system right now."""
    native = getattr(engine, "census_counts", None)
    if native is not None:
        # the array backend counts straight off its columns and rings
        # (same numbers, no per-process facade objects)
        return TokenCensus(*native())
    free = engine.network.free_token_counts()
    reserved = 0
    held_prio = 0
    for proc in engine.processes:
        reserved += len(proc.reserved_tokens())
        if proc.holds_priority():
            held_prio += 1
    return TokenCensus(
        free_res=free["ResT"],
        reserved_res=reserved,
        free_prio=free["PrioT"],
        held_prio=held_prio,
        push=free["PushT"],
    )


def population_correct(engine: Engine, params: KLParams) -> bool:
    """True iff the census is exactly ℓ resource, 1 pusher, 1 priority token."""
    c = take_census(engine)
    return c.res == params.l and c.push == 1 and c.prio == 1


class CensusObserver(Observer):
    """Periodic token-census sampler as an engine observer.

    Every ``every`` steps the full census is taken and stored as
    ``(step, (resource, pusher, priority))``; :meth:`correct_from`
    gives the earliest sampled step from which the population was
    correct through the end — the same suffix criterion the
    convergence harness applies to its own samples.
    """

    def __init__(self, params: KLParams, *, every: int = 64) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.params = params
        self.every = every
        self.samples: list[tuple[int, tuple[int, int, int]]] = []
        self._engine: Engine | None = None

    def on_attach(self, engine: Engine) -> None:
        self._engine = engine

    def on_detach(self, engine: Engine) -> None:
        self._engine = None

    def on_step(self, now: int, pid: int) -> None:
        if (now + 1) % self.every == 0:
            self.samples.append(
                (now + 1, take_census(self._engine).as_tuple())
            )

    def correct_from(self) -> int | None:
        """Earliest sampled step from which the census stayed correct."""
        expected = (self.params.l, 1, 1)
        start: int | None = None
        for step, census in self.samples:
            if census == expected:
                if start is None:
                    start = step
            else:
                start = None
        return start


@register_observer(
    "census", doc="periodic token-census sampler (every=N steps, default 64)"
)
def _census_observer(params: KLParams, *, every: int = 64) -> CensusObserver:
    return CensusObserver(params, every=every)
