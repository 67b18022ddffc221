"""Baseline S11 — centralized (permission-based) k-out-of-ℓ allocation.

A non-self-stabilizing reference point in the style of Raynal's
distributed k-out-of-M solution reduced to a coordinator: the root keeps
the free-unit count; clients send ``CReq(origin, need)`` up the tree,
the root grants in a FIFO-with-skipping discipline (it serves the oldest
request that fits, so small requests are not blocked behind a large one
— matching the (k,ℓ)-liveness flavor of the token protocols), and
clients return units with ``CRel`` on leaving their critical section.

All traffic is routed hop-by-hop over the tree's channels so message
counts are comparable with the token-based protocols.  The coordinator
state is *not* protected against transient faults; bench A3 uses this
both as a throughput reference and as a foil for the self-stabilization
claims (a scrambled coordinator can strand the whole system).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..apps.interface import Application
from ..core.base import IN, OUT, REQ
from ..core.messages import Message
from ..core.params import KLParams
from ..sim.engine import Engine
from ..sim.network import Network
from ..sim.process import Process
from ..sim.scheduler import Scheduler
from ..spec.registry import register_variant
from ..topology.tree import OrientedTree

__all__ = [
    "CReq",
    "CGrant",
    "CRel",
    "CentralCoordinator",
    "CentralClient",
    "build_central_engine",
]


@dataclass(frozen=True, slots=True)
class CReq(Message):
    """Request for ``need`` units by process ``origin`` (routed upward)."""

    origin: int = 0
    need: int = 0


@dataclass(frozen=True, slots=True)
class CGrant(Message):
    """Grant of ``units`` units to process ``dest`` (routed downward)."""

    dest: int = 0
    units: int = 0


@dataclass(frozen=True, slots=True)
class CRel(Message):
    """Release of ``units`` units back to the coordinator (routed upward)."""

    units: int = 0


def _routing_tables(tree: OrientedTree) -> list[dict[int, int]]:
    """``tables[p][dest]`` = channel label at ``p`` toward ``dest``."""
    tables: list[dict[int, int]] = [dict() for _ in range(tree.n)]
    for p in range(tree.n):
        for c in tree.children[p]:
            lbl = tree.label_of(p, c)
            for d in tree.subtree(c):
                tables[p][d] = lbl
    return tables


class CentralClient(Process):
    """Leaf-logic client: request up, enter on grant, release on exit."""

    def __init__(
        self,
        pid: int,
        degree: int,
        params: KLParams,
        app: Application | None,
        route: dict[int, int],
    ) -> None:
        super().__init__(pid, degree)
        self.params = params
        self.app = app
        self.route = route
        self.state = OUT
        self.need = 0
        self.granted = 0

    # -- relaying ---------------------------------------------------------
    def _relay_up(self, msg: Message) -> None:
        self.send(0, msg)

    def _relay_down(self, dest: int, msg: Message) -> None:
        self.send(self.route[dest], msg)

    def on_message(self, q: int, msg: Message) -> None:
        if isinstance(msg, (CReq, CRel)):
            self._relay_up(msg)
        elif isinstance(msg, CGrant):
            if msg.dest == self.pid:
                self.granted = msg.units
            else:
                self._relay_down(msg.dest, msg)
        # anything else: dropped

    # -- local actions ------------------------------------------------------
    def on_local(self) -> None:
        now = self.ctx.now
        if self.state == OUT and self.app is not None:
            need = self.app.maybe_request(now)
            if need is not None:
                self.need = max(0, min(need, self.params.k))
                self.state = REQ
                self.app.notify_request(now, self.need)
                self.ctx.bump("request")
                self._relay_up(CReq(origin=self.pid, need=self.need))
        if self.state == REQ and self.granted >= self.need:
            self.state = IN
            self.ctx.bump("enter_cs")
            if self.app is not None:
                self.app.on_enter_cs(now)
        if self.state == IN and (self.app is None or self.app.release_cs(now)):
            self._relay_up(CRel(units=self.granted))
            self.granted = 0
            self.state = OUT
            self.ctx.bump("exit_cs")
            if self.app is not None:
                self.app.on_exit_cs(now)

    # -- state codec ----------------------------------------------------------
    def snapshot(self) -> tuple:
        return (self.state, self.need, self.granted)

    def restore(self, snap: tuple) -> None:
        self.state, self.need, self.granted = snap

    # -- oracle hooks ---------------------------------------------------------
    def reserved_tokens(self) -> list[tuple[int, int]]:
        # Unit identity is synthesized from pid: the coordinator model
        # has no per-unit tokens; uniqueness checks are not meaningful.
        return [(0, -(self.pid * self.params.l + i + 1)) for i in range(self.granted)]

    def scramble(self, rng: np.random.Generator) -> None:
        """Transient fault: arbitrary State/Need/granted."""
        self.state = (OUT, REQ, IN)[rng.integers(0, 3)]
        self.need = int(rng.integers(0, self.params.k + 1))
        self.granted = int(rng.integers(0, self.params.k + 1))

    def state_summary(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "state": self.state,
            "need": self.need,
            "granted": self.granted,
        }


class CentralCoordinator(CentralClient):
    """The root: free-unit ledger plus oldest-fit grant queue."""

    def __init__(
        self,
        pid: int,
        degree: int,
        params: KLParams,
        app: Application | None,
        route: dict[int, int],
    ) -> None:
        super().__init__(pid, degree, params, app, route)
        self.free = params.l
        self.queue: deque[tuple[int, int]] = deque()  # (origin, need)

    # -- coordinator message handling ----------------------------------------
    def on_message(self, q: int, msg: Message) -> None:
        if isinstance(msg, CReq):
            self.queue.append((msg.origin, msg.need))
        elif isinstance(msg, CRel):
            self.free = min(self.free + msg.units, self.params.l)
        elif isinstance(msg, CGrant):
            self._relay_down(msg.dest, msg)

    def _try_grant(self) -> None:
        """Serve the oldest queued request that fits the free pool."""
        for i, (origin, need) in enumerate(self.queue):
            if need <= self.free:
                del self.queue[i]
                self.free -= need
                if origin == self.pid:
                    self.granted = need
                else:
                    self._relay_down(origin, CGrant(dest=origin, units=need))
                return

    # -- local actions ------------------------------------------------------------
    def on_local(self) -> None:
        now = self.ctx.now
        if self.state == OUT and self.app is not None:
            need = self.app.maybe_request(now)
            if need is not None:
                self.need = max(0, min(need, self.params.k))
                self.state = REQ
                self.app.notify_request(now, self.need)
                self.ctx.bump("request")
                self.queue.append((self.pid, self.need))
        self._try_grant()
        if self.state == REQ and self.granted >= self.need:
            self.state = IN
            self.ctx.bump("enter_cs")
            if self.app is not None:
                self.app.on_enter_cs(now)
        if self.state == IN and (self.app is None or self.app.release_cs(now)):
            self.free = min(self.free + self.granted, self.params.l)
            self.granted = 0
            self.state = OUT
            self.ctx.bump("exit_cs")
            if self.app is not None:
                self.app.on_exit_cs(now)

    def snapshot(self) -> tuple:
        return (super().snapshot(), self.free, tuple(self.queue))

    def restore(self, snap: tuple) -> None:
        base, self.free, queue = snap
        super().restore(base)
        self.queue = deque(queue)

    def scramble(self, rng: np.random.Generator) -> None:
        super().scramble(rng)
        self.free = int(rng.integers(0, self.params.l + 1))
        self.queue.clear()

    def state_summary(self) -> dict[str, Any]:
        s = super().state_summary()
        s["free"] = self.free
        s["queued"] = len(self.queue)
        return s


@register_variant(
    "central",
    doc="centralized-coordinator baseline (message routing over the tree)",
    # The baseline has no circulating tokens and no scramble support, so
    # neither the census invariant nor the fuzz/explore campaigns apply.
    expected_census=None,
    fuzzable=False,
    explorable=False,
)
def build_central_engine(
    tree: OrientedTree,
    params: KLParams,
    apps: list[Application | None],
    scheduler: Scheduler | None = None,
) -> Engine:
    """Engine running the centralized allocator with the root as coordinator."""
    if len(apps) != tree.n:
        raise ValueError("one application slot per process required")
    routes = _routing_tables(tree)
    procs: list[CentralClient] = []
    for p in range(tree.n):
        if p == tree.root:
            procs.append(
                CentralCoordinator(p, tree.degree(p), params, apps[p], routes[p])
            )
        else:
            procs.append(
                CentralClient(p, tree.degree(p), params, apps[p], routes[p])
            )
    return Engine(network=Network.from_tree(tree), processes=procs, scheduler=scheduler)
