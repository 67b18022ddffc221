"""S12 — the §5 extension: k-out-of-ℓ exclusion on arbitrary rooted graphs.

The paper: "extension to general rooted networks is trivial; it consists
of running the protocol concurrently with a spanning tree construction."
This module realizes that collateral composition:

* **Layer 1 — spanning tree.**  A self-stabilizing BFS construction in
  the message-passing model: every process periodically beacons
  ``⟨dist, parent⟩`` to all physical neighbors; a non-root adopts
  ``dist = 1 + min(neighbor dists)`` (lowest channel breaking ties) and
  the root pins ``dist = 0``.  Distances are capped at ``n``, so a
  corrupted small distance is flushed within ``n`` beacon rounds
  (the classic bounded-distance argument).
* **Layer 2 — exclusion.**  The unmodified Algorithms 1 & 2 logic from
  :mod:`repro.core.selfstab`, running over *virtual channels*: the
  ordered list ``[parent] + sorted(children)`` of the current tree
  neighborhood (so virtual channel 0 is the parent, as the oriented-tree
  model requires).  Tokens from non-tree neighbors are dropped; when the
  local tree neighborhood changes, the exclusion state is clamped into
  the new domain — both perturbations look like transient faults to
  layer 2, which recovers by Theorem 1 once layer 1 has stabilized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..apps.interface import Application
from ..sim.engine import Engine
from ..sim.network import Network
from ..sim.process import Process
from ..sim.scheduler import Scheduler
from ..topology.graphs import Graph
from .messages import Message
from .params import KLParams
from .selfstab import SelfStabProcess, SelfStabRoot

__all__ = ["Beacon", "ComposedNode", "build_composed_engine", "spanning_tree_of"]


@dataclass(frozen=True, slots=True)
class Beacon(Message):
    """Spanning-tree layer beacon: the sender's distance and parent claim."""

    dist: int = 0
    parent: int = -1


class _VirtualContext:
    """Context shim translating the exclusion layer's virtual channels."""

    __slots__ = ("node",)

    def __init__(self, node: "ComposedNode") -> None:
        self.node = node

    def send(self, pid: int, vlabel: int, msg: Message) -> None:
        self.node._send_virtual(vlabel, msg)

    @property
    def engine(self):
        """The real engine (the flattened loop tail reads time and
        observer hooks through ``ctx.engine``)."""
        return self.node.ctx.engine

    @property
    def now(self) -> int:
        return self.node.ctx.now

    def restart_timer(self) -> None:
        self.node.ctx.restart_timer()

    def timeout(self) -> bool:
        return self.node.ctx.timeout()

    def bump(self, kind: str) -> int:
        return self.node.ctx.bump(kind)

    def record(self, kind: str, detail=None) -> None:
        self.node.ctx.record(kind, detail)


class ComposedNode(Process):
    """One process running both layers over the physical channels."""

    def __init__(
        self,
        pid: int,
        degree: int,
        neighbors: tuple[int, ...],
        params: KLParams,
        app: Application | None,
        *,
        is_root: bool,
        beacon_every: int = 8,
    ) -> None:
        super().__init__(pid, degree)
        self.params = params
        #: exposed so the engine attaches it (waiting-time bookkeeping)
        self.app = app
        self.is_root = is_root
        self.neighbors = neighbors
        self.beacon_every = beacon_every
        #: distance cap = n (any corrupted value flushes in ≤ n rounds)
        self.dist: int = 0 if is_root else params.n
        #: last heard ⟨dist, parent⟩ per physical channel label
        self.heard: list[tuple[int, int]] = [(params.n, -1)] * degree
        self.parent_label: int | None = None
        self._local_steps = 0
        #: virtual → physical channel label map of the exclusion layer
        self.vmap: list[int] = []
        excl_cls = SelfStabRoot if is_root else SelfStabProcess
        self.excl = excl_cls(pid, 1, params, app)
        self.excl.bind(_VirtualContext(self))
        self._recompute_tree()

    # ------------------------------------------------------------------
    # Layer 1 — spanning tree
    # ------------------------------------------------------------------
    def _recompute_tree(self) -> None:
        if self.is_root:
            self.dist = 0
            self.parent_label = None
        elif self.degree:
            best = min(range(self.degree), key=lambda i: (self.heard[i][0], i))
            self.dist = min(self.heard[best][0] + 1, self.params.n)
            self.parent_label = best if self.dist < self.params.n else None
        children = [
            i
            for i in range(self.degree)
            if self.heard[i][1] == self.pid and i != self.parent_label
        ]
        new_vmap = ([] if self.parent_label is None else [self.parent_label]) + children
        if self.is_root:
            new_vmap = children
        if new_vmap != self.vmap:
            self.vmap = new_vmap
            self._clamp_exclusion_state()

    def _clamp_exclusion_state(self) -> None:
        """Topology change: force layer-2 state into the new domain.

        Out-of-range channel labels are clamped, which layer 2 sees as a
        transient fault and repairs via its own stabilization.
        """
        e = self.excl
        deg = max(len(self.vmap), 1)
        e.degree = deg
        e.succ %= deg
        e.rset = [(lbl % deg, uid) for lbl, uid in e.rset]
        if e.prio is not None:
            e.prio %= deg

    def _send_virtual(self, vlabel: int, msg: Message) -> None:
        if self.vmap:
            self.send(self.vmap[vlabel % len(self.vmap)], msg)
        # With no tree neighbors yet, layer-2 sends vanish (a fault
        # layer 2 tolerates).

    def _virtual_label(self, phys: int) -> int | None:
        try:
            return self.vmap.index(phys)
        except ValueError:
            return None

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def on_message(self, q: int, msg: Message) -> None:
        if isinstance(msg, Beacon):
            self.heard[q] = (
                min(max(msg.dist, 0), self.params.n),
                msg.parent,
            )
            self._recompute_tree()
            return
        v = self._virtual_label(q)
        if v is not None and self.vmap:
            self.excl.on_message(v, msg)
        # exclusion traffic from non-tree neighbors is dropped

    def on_local(self) -> None:
        self._local_steps += 1
        if self.degree and self._local_steps % self.beacon_every == 0:
            claimed = (
                self.neighbors[self.parent_label]
                if self.parent_label is not None
                else -1
            )
            for lbl in range(self.degree):
                self.send(lbl, Beacon(dist=self.dist, parent=claimed))
        self.excl.on_local()

    # ------------------------------------------------------------------
    # Oracle / fault hooks (delegate to the exclusion layer)
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Exclusion-layer State (for the safety oracle)."""
        return self.excl.state

    def rset_size(self) -> int:
        """|RSet| of the exclusion layer."""
        return len(self.excl.rset)

    def reserved_tokens(self) -> list[tuple[int, int]]:
        return self.excl.reserved_tokens()

    def holds_priority(self) -> bool:
        return self.excl.holds_priority()

    def snapshot(self) -> tuple:
        """Encode both layers: tree view, virtual map, exclusion state.

        ``excl.degree`` is included explicitly — topology changes clamp
        it (:meth:`_clamp_exclusion_state`), so unlike plain processes it
        is mutable here.
        """
        return (
            self.dist,
            tuple(self.heard),
            self.parent_label,
            self._local_steps,
            tuple(self.vmap),
            self.excl.degree,
            self.excl.snapshot(),
        )

    def restore(self, snap: tuple) -> None:
        (
            self.dist,
            heard,
            self.parent_label,
            self._local_steps,
            vmap,
            excl_degree,
            excl_snap,
        ) = snap
        self.heard = list(heard)
        self.vmap = list(vmap)
        self.excl.degree = excl_degree
        self.excl.restore(excl_snap)

    def scramble(self, rng: np.random.Generator) -> None:
        """Corrupt both layers."""
        self.dist = 0 if self.is_root else int(rng.integers(0, self.params.n + 1))
        self.heard = [
            (int(rng.integers(0, self.params.n + 1)), int(rng.integers(-1, self.params.n)))
            for _ in range(self.degree)
        ]
        self._recompute_tree()
        self.excl.scramble(rng)
        self._clamp_exclusion_state()

    def state_summary(self) -> dict[str, Any]:
        s = self.excl.state_summary()
        s.update(dist=self.dist, vmap=list(self.vmap))
        return s


def spanning_tree_of(engine: Engine) -> dict[int, int | None]:
    """Current parent map of the spanning-tree layer (physical pids)."""
    out: dict[int, int | None] = {}
    for proc in engine.processes:
        if proc.parent_label is None:
            out[proc.pid] = None
        else:
            out[proc.pid] = proc.neighbors[proc.parent_label]
    return out


def build_composed_engine(
    graph: Graph,
    params: KLParams,
    apps: list[Application | None],
    scheduler: Scheduler | None = None,
    *,
    root: int = 0,
    timeout_interval: int | None = None,
    beacon_every: int = 8,
) -> Engine:
    """Engine running the composed protocol on an arbitrary connected graph."""
    if len(apps) != graph.n:
        raise ValueError("one application slot per process required")
    if not graph.is_connected():
        raise ValueError("graph must be connected")
    network = Network(graph.labels)
    procs = [
        ComposedNode(
            p,
            graph.degree(p),
            graph.labels[p],
            params,
            apps[p],
            is_root=(p == root),
            beacon_every=beacon_every,
        )
        for p in range(graph.n)
    ]
    if timeout_interval is None:
        ring_len = max(2 * (graph.n - 1), 1)
        timeout_interval = 6 * ring_len * graph.n + 64
    return Engine(network, procs, scheduler, timeout_interval=timeout_interval)
