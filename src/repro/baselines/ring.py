"""Baseline S10 — self-stabilizing k-out-of-ℓ exclusion on oriented rings.

The related work the paper positions against (Datta, Hadid & Villain,
*"A new self-stabilizing k-out-of-ℓ exclusion algorithm on rings"* /
*"A self-stabilizing token-based k-out-of-ℓ exclusion algorithm"*,
2003): ℓ resource tokens, a pusher, and a priority token circulate a
unidirectional ring with a distinguished root, and a counter-flushing
controller regulates the population — the mechanism the tree paper
generalizes via the virtual ring.

Implementation notes:

* Channel label 0 is the predecessor, label 1 the successor, so the
  paper's DFS forwarding rule "receive on ``q`` → send on ``q+1``"
  *specializes* to plain successor forwarding; the token-handling
  machinery of :class:`repro.core.priority.PriorityProcess` is reused
  unchanged.
* The controller is a ring counter-flush: the root stamps ``myC``,
  non-roots adopt-and-forward new stamps (forwarding stale duplicates
  uncounted, which prevents deadlock after a mid-ring loss), and the
  root runs the same census/repair as the tree root with the ring seam
  at its predecessor channel.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..apps.interface import Application
from ..core.messages import Ctrl, Message, PrioT, PushT, ResT
from ..core.params import KLParams
from ..core.priority import PriorityProcess
from ..sim.engine import Engine
from ..sim.network import Network
from ..sim.scheduler import Scheduler
from ..spec.registry import register_variant

__all__ = ["RingRoot", "RingProcess", "build_ring_engine", "ring_myc_modulus"]

#: Predecessor/successor channel labels on the ring.
PRED, SUCC = 0, 1


def ring_myc_modulus(params: KLParams) -> int:
    """Counter-flushing domain for the ring: > n(CMAX+1) stale values."""
    return max(params.n * (params.cmax + 1) + 1, 2)


class _RingTokenMixin:
    """Canonicalize token handling to the ring's single direction.

    On a unidirectional ring the original algorithm keeps no per-token
    channel labels — a reservation is just a count and every forward goes
    to the successor.  Reusing the tree machinery would otherwise let a
    fault-corrupted label (or garbage in a backward channel) send tokens
    *backward*, where the census cannot see them; treating every arrival
    as predecessor-side restores the ring semantics.
    """

    def _handle_rest(self, q, msg):  # type: ignore[override]
        super()._handle_rest(PRED, msg)

    def _handle_pusht(self, q, msg):  # type: ignore[override]
        super()._handle_pusht(PRED, msg)

    def _handle_priot(self, q, msg):  # type: ignore[override]
        super()._handle_priot(PRED, msg)

    def scramble(self, rng):  # type: ignore[override]
        super().scramble(rng)
        self.rset = [(PRED, uid) for _, uid in self.rset]
        if self.prio is not None:
            self.prio = PRED


class RingProcess(_RingTokenMixin, PriorityProcess):
    """Non-root ring process: token relay plus counter-flush forwarding."""

    def __init__(
        self,
        pid: int,
        degree: int,
        params: KLParams,
        app: Application | None = None,
    ) -> None:
        super().__init__(pid, degree, params, app, is_root=False)
        self.myc = 0

    def on_message(self, q: int, msg: Message) -> None:
        if isinstance(msg, Ctrl):
            self._handle_ctrl(q, msg)
        else:
            super().on_message(q, msg)

    def _handle_ctrl(self, q: int, m: Ctrl) -> None:
        if q != PRED:
            return
        if m.c != self.myc:
            self.myc = m.c
            if m.r:
                self.rset = []
                self.prio = None
            pt = self.params.clamp_pt(m.pt + self.rset_count(PRED))
            ppr = m.ppr
            if self.prio == PRED:
                ppr = self.params.clamp_small(ppr + 1)
            self.send(SUCC, Ctrl(c=self.myc, r=m.r, pt=pt, ppr=ppr))
        else:
            # Stale duplicate: relay uncounted so a token lost further
            # around the ring can still be replaced by a root resend.
            self.send(SUCC, m)

    def snapshot(self) -> tuple:
        return (super().snapshot(), self.myc)

    def restore(self, snap: tuple) -> None:
        base, self.myc = snap
        super().restore(base)

    def scramble(self, rng: np.random.Generator) -> None:
        super().scramble(rng)
        self.myc = int(rng.integers(0, ring_myc_modulus(self.params)))

    def state_summary(self) -> dict[str, Any]:
        s = super().state_summary()
        s["myc"] = self.myc
        return s


class RingRoot(_RingTokenMixin, PriorityProcess):
    """Ring root: census at every controller return, repair, timeout."""

    def __init__(
        self,
        pid: int,
        degree: int,
        params: KLParams,
        app: Application | None = None,
    ) -> None:
        super().__init__(pid, degree, params, app, is_root=True)
        self.myc = 0
        self.reset = False
        self.stoken = 0
        self.sprio = 0
        self.spush = 0
        self.circulations = 0
        self.resets = 0

    # -- seam: tokens complete a loop when they arrive from the predecessor
    def _count_rest_absorbed(self, q: int) -> None:
        if q == PRED:
            self.stoken = self.params.clamp_pt(self.stoken + 1)

    def _count_rest_forward(self, q: int) -> None:
        if q == PRED:
            self.stoken = self.params.clamp_pt(self.stoken + 1)

    def _count_push_forward(self, q: int) -> None:
        if q == PRED:
            self.spush = self.params.clamp_small(self.spush + 1)

    def _count_prio_absorbed(self, q: int) -> None:
        if q == PRED:
            self.sprio = self.params.clamp_small(self.sprio + 1)

    def _count_prio_forward(self, q: int) -> None:
        if q == PRED:
            self.sprio = self.params.clamp_small(self.sprio + 1)

    # -- dispatch (tokens dropped during a reset, as at the tree root)
    def on_message(self, q: int, msg: Message) -> None:
        if isinstance(msg, ResT):
            if not self.reset:
                self._handle_rest(q, msg)
        elif isinstance(msg, PushT):
            if not self.reset:
                self._handle_pusht(q, msg)
        elif isinstance(msg, PrioT):
            if not self.reset:
                self._handle_priot(q, msg)
        elif isinstance(msg, Ctrl):
            self._handle_ctrl(q, msg)

    def _handle_ctrl(self, q: int, m: Ctrl) -> None:
        if q != PRED or m.c != self.myc:
            return  # stale or misrouted: dropped at the root
        # A circulation just completed: census, repair, relaunch.
        self.circulations += 1
        self.myc = (self.myc + 1) % ring_myc_modulus(self.params)
        pt, ppr = m.pt, m.ppr
        self.reset = (
            pt + self.stoken > self.params.l
            or ppr + self.sprio > 1
            or self.spush > 1
        )
        if self.reset:
            self.resets += 1
            self.rset = []
            self.prio = None
            self.ctx.bump("reset")
        else:
            if ppr + self.sprio < 1:
                self.send(SUCC, PrioT())
                self.ctx.bump("create_prio")
            missing = self.params.l - min(pt + self.stoken, self.params.l)
            for _ in range(missing):
                self.send(SUCC, ResT())
                self.ctx.bump("create_rest")
            if self.spush < 1:
                self.send(SUCC, PushT())
                self.ctx.bump("create_push")
        self.stoken = 0
        self.sprio = 0
        self.spush = 0
        # Held-over tokens at the root sit at the ring seam: they are
        # passed by the new controller immediately (cf. the tree root's
        # wrap-time |RSet| count).
        pt0 = self.params.clamp_pt(self.rset_count(PRED))
        ppr0 = 1 if self.prio == PRED else 0
        self.send(SUCC, Ctrl(c=self.myc, r=self.reset, pt=pt0, ppr=ppr0))
        self.ctx.restart_timer()

    def on_local(self) -> None:
        super().on_local()
        if self.degree and self.ctx.timeout():
            self.send(SUCC, Ctrl(c=self.myc, r=self.reset, pt=0, ppr=0))
            self.ctx.restart_timer()
            self.ctx.bump("timeout")

    def snapshot(self) -> tuple:
        return (
            super().snapshot(),
            self.myc,
            self.reset,
            self.stoken,
            self.sprio,
            self.spush,
            self.circulations,
            self.resets,
        )

    def restore(self, snap: tuple) -> None:
        (
            base,
            self.myc,
            self.reset,
            self.stoken,
            self.sprio,
            self.spush,
            self.circulations,
            self.resets,
        ) = snap
        super().restore(base)

    def scramble(self, rng: np.random.Generator) -> None:
        super().scramble(rng)
        self.myc = int(rng.integers(0, ring_myc_modulus(self.params)))
        self.reset = bool(rng.integers(0, 2))
        self.stoken = int(rng.integers(0, self.params.pt_cap + 1))
        self.sprio = int(rng.integers(0, self.params.small_cap + 1))
        self.spush = int(rng.integers(0, self.params.small_cap + 1))

    def state_summary(self) -> dict[str, Any]:
        s = super().state_summary()
        s.update(
            myc=self.myc,
            reset=self.reset,
            stoken=self.stoken,
            sprio=self.sprio,
            spush=self.spush,
        )
        return s


@register_variant(
    "ring",
    doc="oriented-ring baseline; only the tree's size is used (n-process ring)",
    expected_census=None,
    fuzzable=False,
    explorable=False,
)
def _ring_variant(
    tree,
    params: KLParams,
    apps: list[Application | None],
    scheduler: Scheduler | None = None,
    *,
    timeout_interval: int | None = None,
    init: str = "empty",
) -> Engine:
    """Spec adapter: run the ring baseline on a ring of ``tree.n`` processes.

    The options are spelled out (rather than forwarded as ``**kwargs``)
    so a spec naming an unknown ``variant_options`` key fails with the
    registry's bad-argument :class:`~repro.spec.SpecError` — which lists
    this signature, i.e. the valid options — instead of a raw
    ``TypeError`` from deep inside the builder.
    """
    return build_ring_engine(
        tree.n,
        params,
        apps,
        scheduler,
        timeout_interval=timeout_interval,
        init=init,
    )


def build_ring_engine(
    n: int,
    params: KLParams,
    apps: list[Application | None],
    scheduler: Scheduler | None = None,
    *,
    timeout_interval: int | None = None,
    init: str = "empty",
) -> Engine:
    """Engine running the ring baseline on an ``n``-process oriented ring.

    ``init="empty"`` (default) lets the controller create the tokens;
    ``init="tokens"`` pre-places ℓ + pusher + priority in the root's
    successor channel.
    """
    if len(apps) != n:
        raise ValueError("one application slot per process required")
    if init not in ("empty", "tokens"):
        raise ValueError(f"unknown init mode {init!r}")
    network = Network.ring(n)
    procs: list[PriorityProcess] = []
    for p in range(n):
        deg = network.degree(p)
        if p == 0:
            procs.append(RingRoot(p, deg, params, apps[p]))
        else:
            procs.append(RingProcess(p, deg, params, apps[p]))
    if timeout_interval is None:
        timeout_interval = 4 * n * n + 64
    engine = Engine(network, procs, scheduler, timeout_interval=timeout_interval)
    if init == "tokens" and n > 1:
        ch = network.out_channel(0, SUCC)
        for _ in range(params.l):
            ch.push_initial(ResT())
        ch.push_initial(PushT())
        ch.push_initial(PrioT())
    return engine
