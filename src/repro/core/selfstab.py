"""The self-stabilizing k-out-of-ℓ exclusion protocol (Algorithms 1 & 2).

This is the paper's primary contribution: the priority-variant protocol
augmented with a *controller* — a counter-flushing DFS control token
(``⟨ctrl, C, R, PT, PPr⟩``) that

* performs a self-stabilizing depth-first traversal of the tree
  (Varghese counter flushing with the bounded counter
  ``myC ∈ [0 .. 2(n−1)(CMAX+1)]`` and the successor pointer ``Succ``);
* counts the resource/priority/pusher tokens during its traversal —
  tokens it *passes* (held in ``RSet``/``Prio`` of visited processes on
  the arrival channel) accumulate in the message fields ``PT``/``PPr``,
  and tokens that complete a full loop of the virtual ring are counted
  at the root in ``SToken``/``SPrio``/``SPush``;
* lets the root *repair* the population at the end of each circulation:
  create the deficit, or set the ``Reset`` flag and flush every token
  from the network before recreating exactly ℓ + 1 + 1 of them.

All counters saturate (``PT, SToken ≤ ℓ+1``; ``PPr, SPrio, SPush ≤ 2``),
which is what makes bounded memory sufficient: the root only ever needs
to know "too many" or the exact deficit.

Faithfulness notes (documented in DESIGN.md and EXPERIMENTS.md):

* The pusher-release guard uses ``Prio = ⊥`` (see
  :mod:`repro.core.pusher`).
* The root's seam accounting (when ``SToken``/``SPrio`` are incremented
  for tokens completing a loop of the virtual ring) supports two modes —
  the default ``"consistent"`` mode, under which the census is exact and
  the system is quiescent after stabilization, and the ``"literal"``
  mode transcribing the arXiv listing verbatim, under which a token
  reserved or released by a *requesting root* at the ring seam is
  occasionally miscounted, producing spurious token creations and resets
  that the protocol then repairs.  See :class:`SelfStabRoot` for the
  case analysis.
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
from .messages import Ctrl, Message, PrioT, PushT, ResT
from .params import KLParams
from .priority import PriorityProcess

__all__ = ["SelfStabRoot", "SelfStabProcess", "build_selfstab_engine"]


class SelfStabRoot(PriorityProcess):
    """Algorithm 1 — code for the root ``r``."""

    def __init__(
        self,
        pid: int,
        degree: int,
        params: KLParams,
        app: Application | None = None,
        *,
        seam: str = "consistent",
    ) -> None:
        super().__init__(pid, degree, params, app, is_root=True)
        if seam not in ("consistent", "literal"):
            raise ValueError(f"unknown seam accounting mode {seam!r}")
        self.seam = seam
        self.myc: int = 0
        self.succ: int = 0
        self.reset: bool = False
        self.stoken: int = 0
        self.sprio: int = 0
        self.spush: int = 0
        #: completed controller circulations (instrumentation only)
        self.circulations: int = 0
        #: resets triggered (instrumentation only)
        self.resets: int = 0

    # ------------------------------------------------------------------
    # Seam counting hooks.
    #
    # The ring "seam" is the root's channel pair (arrive on Δr−1, leave
    # on 0); SToken/SPrio/SPush count tokens completing a loop there.
    # Two accounting modes:
    #
    # * ``"consistent"`` — count a token the moment it *arrives* from
    #   channel Δr−1, whether it is then forwarded or reserved, and never
    #   at release.  Combined with the wrap-time ``PT += |RSet|_{Δr−1}``
    #   this counts every token exactly once per circulation, making the
    #   census exact (Lemmas 3–5) and eliminating spurious repairs.
    # * ``"literal"`` — the arXiv listing verbatim: count on forward
    #   (line 14) and on release (lines 84, 93), never on absorption, and
    #   no count when forwarding a priority token (line 39).  A token
    #   reserved by a requesting root as it completes its loop is then
    #   missed (undercount → root creates an extra token), and one held
    #   across the wrap and released later is counted twice (overcount →
    #   spurious reset).  Both are repaired within two circulations, so
    #   the protocol still converges in practice but oscillates; bench A2
    #   quantifies this.
    # ------------------------------------------------------------------
    def _at_seam(self, label: int) -> bool:
        return label == self.degree - 1

    def _count_rest_absorbed(self, q: int) -> None:
        if self.seam == "consistent" and self._at_seam(q):
            self.stoken = self.params.clamp_pt(self.stoken + 1)

    def _count_rest_forward(self, q: int) -> None:
        if self._at_seam(q):
            self.stoken = self.params.clamp_pt(self.stoken + 1)

    def _count_rest_release(self, lbl: int) -> None:
        if self.seam == "literal" and self._at_seam(lbl):
            self.stoken = self.params.clamp_pt(self.stoken + 1)

    def _count_push_forward(self, q: int) -> None:
        if self._at_seam(q):
            self.spush = self.params.clamp_small(self.spush + 1)

    def _count_prio_absorbed(self, q: int) -> None:
        if self.seam == "consistent" and self._at_seam(q):
            self.sprio = self.params.clamp_small(self.sprio + 1)

    def _count_prio_forward(self, q: int) -> None:
        if self.seam == "consistent" and self._at_seam(q):
            self.sprio = self.params.clamp_small(self.sprio + 1)

    def _count_prio_release(self, lbl: int) -> None:
        if self.seam == "literal" and self._at_seam(lbl):
            self.sprio = self.params.clamp_small(self.sprio + 1)

    # ------------------------------------------------------------------
    # Message dispatch: token kinds are ignored entirely while resetting
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Controller (paper lines 42–76 of Algorithm 1)
    # ------------------------------------------------------------------
    def _handle_ctrl(self, q: int, m: Ctrl) -> None:
        if q != self.succ or self.myc != m.c:
            return  # invalid: ignored (not retransmitted) at the root
        self.succ = (self.succ + 1) % self.degree
        pt, ppr = m.pt, m.ppr
        if self.succ == 0:
            # The token just finished a full circulation: census & repair.
            self.myc = (self.myc + 1) % self.params.myc_modulus
            self.circulations += 1
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
                self.ctx.record(
                    "reset",
                    {
                        "pt": pt,
                        "stoken": self.stoken,
                        "ppr": ppr,
                        "sprio": self.sprio,
                        "spush": self.spush,
                    },
                )
            else:
                if ppr + self.sprio < 1:
                    self.send(0, PrioT())
                    self.ctx.bump("create_prio")
                while pt + self.stoken < self.params.l:
                    self.send(0, ResT())
                    self.stoken = self.params.clamp_pt(self.stoken + 1)
                    self.ctx.bump("create_rest")
                if self.spush < 1:
                    self.send(0, PushT())
                    self.ctx.bump("create_push")
            self.stoken = 0
            self.sprio = 0
            self.spush = 0
            pt = 0
            ppr = 0
        pt = self.params.clamp_pt(pt + self.rset_count(q))
        if self.prio == q:
            ppr = self.params.clamp_small(ppr + 1)
        self.send(self.succ, Ctrl(c=self.myc, r=self.reset, pt=pt, ppr=ppr))
        self.ctx.restart_timer()

    # ------------------------------------------------------------------
    # Loop tail: base tail + priority release + timeout (lines 99–102)
    # ------------------------------------------------------------------
    def on_local(self) -> None:
        super().on_local()
        if self.degree and self.ctx.timeout():
            self.send(self.succ, Ctrl(c=self.myc, r=self.reset, pt=0, ppr=0))
            self.ctx.restart_timer()
            self.ctx.bump("timeout")
            self.ctx.record("timeout", self.succ)

    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        return (
            super().snapshot(),
            self.myc,
            self.succ,
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
            self.succ,
            self.reset,
            self.stoken,
            self.sprio,
            self.spush,
            self.circulations,
            self.resets,
        ) = snap
        super().restore(base)

    # ------------------------------------------------------------------
    def scramble(self, rng: np.random.Generator) -> None:
        super().scramble(rng)
        self.myc = int(rng.integers(0, self.params.garbage_myc_bound))
        self.succ = int(rng.integers(0, max(self.degree, 1)))
        self.reset = bool(rng.integers(0, 2))
        self.stoken = int(rng.integers(0, self.params.pt_cap + 1))
        self.sprio = int(rng.integers(0, self.params.small_cap + 1))
        self.spush = int(rng.integers(0, self.params.small_cap + 1))

    def state_summary(self) -> dict[str, Any]:
        s = super().state_summary()
        s.update(
            myc=self.myc,
            succ=self.succ,
            reset=self.reset,
            stoken=self.stoken,
            sprio=self.sprio,
            spush=self.spush,
        )
        return s


class SelfStabProcess(PriorityProcess):
    """Algorithm 2 — code for every non-root process ``p``."""

    def __init__(
        self,
        pid: int,
        degree: int,
        params: KLParams,
        app: Application | None = None,
    ) -> None:
        super().__init__(pid, degree, params, app, is_root=False)
        self.myc: int = 0
        self.succ: int = 0

    def on_message(self, q: int, msg: Message) -> None:
        if isinstance(msg, Ctrl):
            self._handle_ctrl(q, msg)
        else:
            super().on_message(q, msg)

    # ------------------------------------------------------------------
    # Controller (paper lines 32–60 of Algorithm 2)
    # ------------------------------------------------------------------
    def _handle_ctrl(self, q: int, m: Ctrl) -> None:
        ok = False
        if q == self.succ and self.myc == m.c and self.succ != 0:
            self.succ = (self.succ + 1) % self.degree
            ok = True
            if m.r:
                self.rset = []
                self.prio = None
        if q == 0:
            ok = True
            if self.myc != m.c:
                self.succ = min(1, self.degree - 1)
                if m.r:
                    self.rset = []
                    self.prio = None
            self.myc = m.c
        if ok:
            pt = self.params.clamp_pt(m.pt + self.rset_count(q))
            ppr = m.ppr
            if self.prio == q:
                ppr = self.params.clamp_small(ppr + 1)
            self.send(self.succ, Ctrl(c=self.myc, r=m.r, pt=pt, ppr=ppr))
        # otherwise: invalid and not from the parent — ignored.

    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        return (super().snapshot(), self.myc, self.succ)

    def restore(self, snap: tuple) -> None:
        base, self.myc, self.succ = snap
        super().restore(base)

    # ------------------------------------------------------------------
    def scramble(self, rng: np.random.Generator) -> None:
        super().scramble(rng)
        self.myc = int(rng.integers(0, self.params.garbage_myc_bound))
        self.succ = int(rng.integers(0, max(self.degree, 1)))

    def state_summary(self) -> dict[str, Any]:
        s = super().state_summary()
        s.update(myc=self.myc, succ=self.succ)
        return s


@register_variant(
    "selfstab",
    doc="priority protocol + counter-flushing controller (the paper's Alg. 1-2)",
    # The controller may legitimately mint or flush tokens mid-recovery,
    # so only safety is invariant; exploration is excluded because the
    # root's timeout makes configurations time-dependent.
    expected_census=None,
    explorable=False,
)
def build_selfstab_engine(
    tree: OrientedTree,
    params: KLParams,
    apps: list[Application | None],
    scheduler: Scheduler | None = None,
    *,
    timeout_interval: int | None = None,
    init: str = "empty",
    seam: str = "consistent",
) -> Engine:
    """Engine running the self-stabilizing protocol.

    ``init`` selects the starting configuration:

    * ``"empty"`` (default) — no tokens anywhere; the root's timeout
      bootstraps the controller, whose first completed census counts
      zero of everything and creates exactly ℓ resource tokens, one
      pusher and one priority token.
    * ``"tokens"`` — ℓ + 1 + 1 tokens pre-placed in the root's outgoing
      channel 0 (a legitimate-looking start that skips the build-up).

    ``seam`` selects the root's seam-accounting mode (``"consistent"``
    or ``"literal"``; see :class:`SelfStabRoot`).

    Arbitrary (faulty) initial configurations are produced by
    :func:`repro.sim.faults.scramble_configuration` on top of either.
    """
    if len(apps) != tree.n:
        raise ValueError("one application slot per process required")
    if init not in ("empty", "tokens"):
        raise ValueError(f"unknown init mode {init!r}")
    network = Network.from_tree(tree)
    procs: list[PriorityProcess] = []
    for p in range(tree.n):
        if p == tree.root:
            procs.append(SelfStabRoot(p, tree.degree(p), params, apps[p], seam=seam))
        else:
            procs.append(SelfStabProcess(p, tree.degree(p), params, apps[p]))
    engine = Engine(network, procs, scheduler, timeout_interval=timeout_interval)
    if init == "tokens" and tree.n > 1:
        ch = network.out_channel(tree.root, 0)
        for _ in range(params.l):
            ch.push_initial(ResT())
        ch.push_initial(PushT())
        ch.push_initial(PrioT())
    return engine
