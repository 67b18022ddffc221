"""Variant 3 — the correct non-fault-tolerant protocol (+ priority token).

One ``PrioT`` message circulates; a process with an unsatisfied request
that receives it *holds* it (``Prio`` stores the arrival channel) until
its request is satisfied, and while holding it is immune to the pusher.
This breaks the Fig. 3 livelock: the starved requester eventually
receives the priority token, after which the pusher works *for* it by
evicting everyone else's reservations until its demand is met.

This is the complete protocol of §3 minus the controller — correct from
a legitimate initial configuration, but with no defense against
transient faults.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..apps.interface import Application
from ..sim.engine import Engine
from ..sim.network import Network
from ..sim.scheduler import Scheduler
from ..spec.registry import register_variant
from ..topology.tree import OrientedTree
from .base import REQ
from .messages import Message, PrioT, PushT, ResT, fresh_uid
from .params import KLParams
from .pusher import PusherProcess

__all__ = ["PriorityProcess", "build_priority_engine"]


def _expected_census(census, params: KLParams) -> bool:
    """Legitimate population: exactly (ℓ resource, 1 pusher, 1 priority)."""
    return census.as_tuple() == (params.l, 1, 1)


class PriorityProcess(PusherProcess):
    """Pusher variant extended with the priority token (paper lines 25–31, 73–76)."""

    def __init__(
        self,
        pid: int,
        degree: int,
        params: KLParams,
        app: Application | None = None,
        *,
        is_root: bool = False,
    ) -> None:
        super().__init__(pid, degree, params, app, is_root=is_root)
        #: ``Prio ∈ {⊥, 0, …, Δp−1}`` — arrival channel of the held priority token.
        self.prio: int | None = None
        self._prio_uid: int = 0

    def holds_priority(self) -> bool:
        return self.prio is not None

    # ------------------------------------------------------------------
    def _handle_priot(self, q: int, msg: PrioT) -> None:
        """Paper lines 25–31 (Alg. 2) / 35–41 (Alg. 1)."""
        if self.prio is None:
            self._count_prio_absorbed(q)
            self.prio = q
            self._prio_uid = msg.uid
            self.ctx.record("hold_prio", q)
        else:
            self._count_prio_forward(q)
            self.send(q + 1, msg)

    def _local_prio_release(self) -> None:
        """Paper lines 73–76 (Alg. 2) / 92–98 (Alg. 1).

        Forward the held priority token unless this process is a
        requester whose request is still unsatisfied.  (Called from the
        tail of :meth:`TokenProcessBase.on_local`.)
        """
        if self.prio is not None and (
            self.state != REQ or len(self.rset) >= self.need
        ):
            self._count_prio_release(self.prio)
            self.send(self.prio + 1, PrioT(uid=self._prio_uid))
            self.prio = None
            self.ctx.record("release_prio")

    def on_message(self, q: int, msg: Message) -> None:
        if isinstance(msg, ResT):
            self._handle_rest(q, msg)
        elif isinstance(msg, PushT):
            self._handle_pusht(q, msg)
        elif isinstance(msg, PrioT):
            self._handle_priot(q, msg)

    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        return (super().snapshot(), self.prio, self._prio_uid)

    def restore(self, snap: tuple) -> None:
        base, self.prio, self._prio_uid = snap
        super().restore(base)

    # ------------------------------------------------------------------
    def scramble(self, rng: np.random.Generator) -> None:
        super().scramble(rng)
        if self.degree and rng.random() < 0.5:
            self.prio = int(rng.integers(0, self.degree))
            self._prio_uid = fresh_uid()
        else:
            self.prio = None

    def state_summary(self) -> dict[str, Any]:
        s = super().state_summary()
        s["prio"] = self.prio
        return s


@register_variant(
    "priority",
    doc="ℓ tokens + pusher + priority; the correct non-fault-tolerant protocol",
    expected_census=_expected_census,
)
def build_priority_engine(
    tree: OrientedTree,
    params: KLParams,
    apps: list[Application | None],
    scheduler: Scheduler | None = None,
) -> Engine:
    """Engine with ℓ resource tokens, one pusher and one priority token."""
    if len(apps) != tree.n:
        raise ValueError("one application slot per process required")
    network = Network.from_tree(tree)
    procs = [
        PriorityProcess(p, tree.degree(p), params, apps[p], is_root=(p == tree.root))
        for p in range(tree.n)
    ]
    engine = Engine(network, procs, scheduler)
    if tree.n > 1:
        ch = network.out_channel(tree.root, 0)
        for _ in range(params.l):
            ch.push_initial(ResT())
        ch.push_initial(PushT())
        ch.push_initial(PrioT())
    return engine
