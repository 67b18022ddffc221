"""Variant 1 — the "naive" protocol: bare ℓ-token circulation.

ℓ resource tokens circulate the virtual ring in DFS order; a requester
collects every token it receives until ``|RSet| ≥ Need``, enters its
critical section, and releases the tokens afterwards.

This protocol satisfies safety but **not** liveness: if concurrent
requesters collectively reserve all ℓ tokens while each still needs
more, nobody ever enters the CS (paper Fig. 2).  It exists to make that
failure reproducible (experiment F2) and as the base layer of the
step-by-step construction.
"""

from __future__ import annotations

from ..apps.interface import Application
from ..sim.engine import Engine
from ..sim.network import Network
from ..sim.scheduler import Scheduler
from ..topology.tree import OrientedTree
from ..spec.registry import register_variant
from .messages import ResT
from .params import KLParams
from .base import TokenProcessBase

__all__ = ["NaiveProcess", "build_naive_engine"]


def _expected_census(census, params: KLParams) -> bool:
    """Legitimate population: exactly ℓ resource tokens, nothing else."""
    return census.res == params.l


class NaiveProcess(TokenProcessBase):
    """Naive variant: only ``ResT`` messages exist; all are handled by the base.

    The snapshot/restore codec is likewise fully inherited: the naive
    process carries exactly the base ``(State, Need, RSet)`` state, so
    ``TokenProcessBase.snapshot`` already encodes everything.
    """


@register_variant(
    "naive",
    doc="bare ℓ-token circulation; safe but deadlocks under contention (Fig. 2)",
    expected_census=_expected_census,
)
def build_naive_engine(
    tree: OrientedTree,
    params: KLParams,
    apps: list[Application | None],
    scheduler: Scheduler | None = None,
) -> Engine:
    """Engine running the naive protocol with ℓ tokens started at the root.

    The ℓ resource tokens are injected into the root's outgoing channel 0
    — the position from which a token "starts a circulation".
    """
    if len(apps) != tree.n:
        raise ValueError("one application slot per process required")
    network = Network.from_tree(tree)
    procs = [
        NaiveProcess(
            p, tree.degree(p), params, apps[p], is_root=(p == tree.root)
        )
        for p in range(tree.n)
    ]
    engine = Engine(network, procs, scheduler)
    if tree.n > 1:
        ch = network.out_channel(tree.root, 0)
        for _ in range(params.l):
            ch.push_initial(ResT())
    return engine
