"""Variant 2 — naive circulation plus the *pusher* token.

One ``PushT`` message permanently circulates the virtual ring.  When a
process that is neither in its critical section nor enabled to enter it
(and, in later variants, does not hold the priority token) receives the
pusher, it releases all reserved resource tokens before retransmitting
the pusher.  This eliminates the Fig. 2 deadlock.

It is still not a correct protocol: the pusher can perpetually rob the
same requester, producing the livelock of paper Fig. 3 (experiment F3).

Note on the guard: the algorithm listing in the arXiv PDF renders the
first conjunct of the release guard as ``Prio ≠ ⊥``, but the prose
("a process that holds the priority token does **not** release its
reserved resource tokens when it receives the pusher", §3) and the proof
of Lemma 10 require ``Prio = ⊥``.  We implement the prose; see
DESIGN.md and EXPERIMENTS.md.
"""

from __future__ import annotations

from ..apps.interface import Application
from ..sim.engine import Engine
from ..sim.network import Network
from ..sim.scheduler import Scheduler
from ..spec.registry import register_variant
from ..topology.tree import OrientedTree
from .base import IN, REQ, TokenProcessBase
from .messages import Message, PushT, ResT
from .params import KLParams

__all__ = ["PusherProcess", "build_pusher_engine"]


def _expected_census(census, params: KLParams) -> bool:
    """Legitimate population: ℓ resource tokens plus exactly one pusher."""
    return census.res == params.l and census.push == 1


class PusherProcess(TokenProcessBase):
    """Naive variant extended with pusher handling (paper lines 16–24 of Alg. 2).

    The class attribute :attr:`pusher_guard` selects the release guard's
    first conjunct: ``"prose"`` (default) exempts the priority holder
    (``Prio = ⊥`` — what the prose and Lemma 10 require), ``"listing"``
    transcribes the arXiv listing verbatim (``Prio ≠ ⊥``), under which
    *only* the priority holder is robbed — the livelock the priority
    token exists to break comes back.  Kept as an executable erratum;
    see ``tests/core/test_guard_ablation.py``.
    """

    #: "prose" (Prio = ⊥ exempts the holder) or "listing" (Prio ≠ ⊥).
    #: A class attribute, not per-process state — the snapshot/restore
    #: codec is inherited unchanged from ``TokenProcessBase``.
    pusher_guard: str = "prose"

    def _pusher_forces_release(self) -> bool:
        """True iff receiving the pusher must release the reserved tokens."""
        enabled = self.state == REQ and len(self.rset) >= self.need
        if self.pusher_guard == "listing":
            prio_clause = self.holds_priority()
        else:
            prio_clause = not self.holds_priority()
        return prio_clause and not enabled and self.state != IN

    def _handle_pusht(self, q: int, msg: PushT) -> None:
        if self._pusher_forces_release():
            self.ctx.record("pushed", len(self.rset))
            self._release_rset()
        self._count_push_forward(q)
        self.send(q + 1, msg)

    def on_message(self, q: int, msg: Message) -> None:
        if isinstance(msg, ResT):
            self._handle_rest(q, msg)
        elif isinstance(msg, PushT):
            self._handle_pusht(q, msg)
        # other kinds: dropped (not part of this variant)


@register_variant(
    "pusher",
    doc="ℓ tokens + pusher; deadlock-free but can livelock/starve (Fig. 3)",
    expected_census=_expected_census,
)
def build_pusher_engine(
    tree: OrientedTree,
    params: KLParams,
    apps: list[Application | None],
    scheduler: Scheduler | None = None,
) -> Engine:
    """Engine with ℓ resource tokens and one pusher started at the root."""
    if len(apps) != tree.n:
        raise ValueError("one application slot per process required")
    network = Network.from_tree(tree)
    procs = [
        PusherProcess(p, tree.degree(p), params, apps[p], is_root=(p == tree.root))
        for p in range(tree.n)
    ]
    engine = Engine(network, procs, scheduler)
    if tree.n > 1:
        ch = network.out_channel(tree.root, 0)
        for _ in range(params.l):
            ch.push_initial(ResT())
        ch.push_initial(PushT())
    return engine
