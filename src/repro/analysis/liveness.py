"""Livelock detection: fair starving cycles, found as replayable lassos.

The paper's central claims are *liveness* properties — the protocol
converges under fairness, and no process that requests the resource
starves — which per-configuration safety invariants cannot falsify.
This module closes that gap: :func:`find_livelock` runs a lasso search
(a DFS with an explicit stack and an on-stack digest map) over the same
delta-codec state space :func:`repro.analysis.explore.explore` uses,
and evaluates every back edge as a candidate *livelock*:

    a cycle, admissible under the chosen fairness constraint, in which
    some process is requesting at **every** configuration of the cycle
    yet never enters its critical section on **any** edge of it.

The starvation test is per-victim and per-edge on purpose.  In the
paper's Fig. 3 livelock the system as a whole makes plenty of progress
— two processes enter their critical sections forever — while the
middle process starves; and conversely a process may pass *through* its
critical section within a single step (``on_local`` falls straight
through Req → In → Out), so "was in ``Req`` at both endpoints" is not
evidence of starvation.  The airtight criterion is the engine's CS
counter: only the stepped process can enter the CS during an edge, so
an edge starves ``p`` unless it stepped ``p`` *and* bumped
``total_cs_entries``.

Fairness semantics (move granularity)
-------------------------------------
A *move* is one daemon choice ``(pid, channel)`` — exactly the branch
unit of exploration.  Per cycle configuration the *enabled* moves are
every receive from a pending channel plus every silent move that
actually changes the configuration; per cycle edge the *taken* move is
known.  The registered constraints (``repro list`` shows them):

* ``weak`` (default) — every move enabled at **every** configuration of
  the cycle must be taken on some edge.  A cycle that forever ignores a
  continuously-pending message is dismissed as unfair; this matches the
  paper's fair-daemon assumption and still convicts true livelocks,
  where the starving token circulates without helping the victim.
* ``strong`` — every move enabled at **some** configuration must be
  taken: a stronger daemon obligation, dismissing more cycles, so a
  ``strong`` livelock is also a ``weak`` one.
* ``unconditional`` — every process must step on the cycle (and the
  weak condition holds): the paper's model where all processes run
  forever.  Note a *deadlocked* starving state (no enabled moves at
  all) shows up as a single-configuration cycle via its clean self-loop
  edge; ``weak``/``strong`` convict it, ``unconditional`` does not
  (its one edge steps one process) — starvation-by-silence needs only
  the weaker daemons.

Why moves and not processes: process-level fairness lets the daemon
starve anyone trivially — schedule the victim only for silent no-op
steps while its token rots in a channel — so every variant would
"livelock".  Move granularity is what makes the verdicts meaningful.

Witnesses replay
----------------
A found lasso is returned as a :class:`LivelockWitness` carrying the
prefix and cycle as concrete ``(pid, channel)`` move lists.
:meth:`LivelockWitness.replay` installs them on a fork of the original
engine via a channel-scripted
:class:`~repro.sim.scheduler.ScriptedScheduler` and runs the ordinary
:meth:`Engine.step` path — the same replay route fuzz counterexamples
take — so the livelock can be watched, instrumented, and asserted on
outside the explorer.

Partial-order reduction interplay
---------------------------------
With ``por=True`` the DFS inherits the explorer's sleep sets, restricted
to receive moves — silent moves are always executed, so the
enabled-silent accounting above stays exact.  The restriction is the
search's own: it stores each state's sleep mask with the receive bits
only (``exp.recv_mid_mask``), and the full search (``por=False``)
stores 0, so it sleeps nothing and no duplicate record needs a child
state.  Reduction prunes redundant *edges*; the visited configuration
set is unchanged (wake-up re-expansion on sleep-mask shrink, exactly as
in safety BFS).  The differential suite pins POR and full searches to
identical verdicts on every fixture.

Like all exploration, the search assumes time-independent workloads
(the CLI enforces this); digests exclude engine time, so a "cycle" is a
cycle of configurations, not of clock values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from ..sim.engine import Engine
from ..sim.scheduler import ScriptedScheduler
from ..spec.registry import FAIRNESS, register_fairness
from .explore import (
    ExplorationResult,
    _check,
    _DeltaExpander,
    _seen_bytes,
)

__all__ = [
    "LivelockWitness",
    "find_livelock",
    "format_moves",
]


@register_fairness("weak", doc="every continuously-enabled move is taken")
def weak_fairness(
    *, enabled_all: int, enabled_any: int, taken: int,
    stepped_pids: int, all_pids: int,
) -> bool:
    """A cycle is weakly fair iff no move stays enabled at every
    configuration of the cycle without ever being taken."""
    return (enabled_all & ~taken) == 0


@register_fairness("strong", doc="every somewhere-enabled move is taken")
def strong_fairness(
    *, enabled_all: int, enabled_any: int, taken: int,
    stepped_pids: int, all_pids: int,
) -> bool:
    """A cycle is strongly fair iff every move enabled at *some*
    configuration of the cycle is taken on some edge."""
    return (enabled_any & ~taken) == 0


@register_fairness(
    "unconditional", doc="every process steps, plus the weak condition"
)
def unconditional_fairness(
    *, enabled_all: int, enabled_any: int, taken: int,
    stepped_pids: int, all_pids: int,
) -> bool:
    """The paper's model: all processes run forever (every pid steps on
    the cycle) and continuously-pending work is served (weak)."""
    return stepped_pids == all_pids and (enabled_all & ~taken) == 0


@dataclass(slots=True)
class LivelockWitness:
    """A fair starving lasso, as concrete replayable daemon moves.

    ``prefix`` drives the engine from its initial configuration to the
    cycle's entry configuration; ``cycle`` returns to it.  Channels use
    the :meth:`Engine.step_pid` convention (label ≥ 0 receive, ``-1``
    silent).
    """

    #: moves from the initial configuration to the cycle entry
    prefix: list[tuple[int, int]]
    #: moves of the starving cycle (entry configuration back to itself)
    cycle: list[tuple[int, int]]
    #: pids requesting at every cycle configuration, never entering CS
    victims: tuple[int, ...]
    #: the fairness constraint the cycle was admitted under
    fairness: str = "weak"
    #: packed digest of the cycle-entry configuration (diagnostics)
    entry_digest: bytes | None = field(default=None, repr=False)

    def as_script(
        self, cycles: int = 1
    ) -> tuple[list[int], list[int | None]]:
        """``(pids, channels)`` for a channel-scripted scheduler:
        the prefix followed by ``cycles`` turns of the cycle."""
        moves = self.prefix + self.cycle * cycles
        return [m[0] for m in moves], [m[1] for m in moves]

    def replay(self, engine: Engine, cycles: int = 1) -> Engine:
        """Replay the lasso on a fork of ``engine`` (input untouched).

        Installs the witness as a channel-scripted
        :class:`~repro.sim.scheduler.ScriptedScheduler` and runs the
        prefix plus ``cycles`` turns of the cycle through the normal
        :meth:`Engine.step` path, returning the fork inside the
        starving cycle.
        """
        pids, chans = self.as_script(cycles)
        replay = engine.fork()
        replay.scheduler = ScriptedScheduler(replay.n, pids, channels=chans)
        replay.run(len(pids))
        return replay

    def describe(self) -> str:
        """One-line human summary (the CLI prints this)."""
        return (
            f"livelock under {self.fairness} fairness: "
            f"victims {list(self.victims)}, "
            f"prefix {len(self.prefix)} moves, "
            f"cycle {len(self.cycle)} moves"
        )


def _move_token(pid: int, chan: int) -> str:
    return f"{pid}" if chan == -1 else f"{pid}:{chan}"


def format_moves(moves: list[tuple[int, int]]) -> str:
    """Stable textual form of a move list: ``pid`` for a silent step,
    ``pid:chan`` for a receive — what the CLI prints."""
    return " ".join(_move_token(p, c) for p, c in moves)


def find_livelock(
    engine: Engine,
    invariant: Callable[[Engine], bool | str | None],
    *,
    max_depth: int = 12,
    max_configurations: int = 200_000,
    por: bool = False,
    fairness: str = "weak",
) -> ExplorationResult:
    """Search every schedule for a fair starving cycle (see module doc).

    Same bounds and invariant convention as
    :func:`~repro.analysis.explore.explore` (safety is still checked at
    every newly discovered configuration and reported via
    ``violation``); the extra outcome is the result's ``livelock``
    field.  ``exhausted=True`` means the bounded search closed the
    reachable set without finding one — together with ``violation is
    None`` that is the ``converged`` verdict.

    The search evaluates every DFS back edge as a cycle candidate.
    With global deduplication a specific fair cycle can evade the one
    DFS tree the search builds (a cross edge into an already-explored
    region is not re-walked), so ``livelock=None`` on a non-exhausted
    search is *absence of evidence* only; the hand-verified fixtures in
    the test suite pin both verdict directions.
    """
    if fairness not in FAIRNESS:
        FAIRNESS.entry(fairness)  # raises UnknownSpecKey with choices
    fairness_fn = FAIRNESS.get(fairness)
    work = engine.fork()
    work.clear_observers()
    bad = _check(invariant, work, 0)
    if bad is not None:
        return ExplorationResult(1, 0, False, bad, [1])
    t0 = time.perf_counter()
    exp = _DeltaExpander(work, invariant)
    root_digest, parts = exp.root()
    n = exp.nprocs
    all_pids = (1 << n) - 1
    # the sleep bits a state keeps (module doc): receive moves under
    # POR, none in the full search, so no full-search record can wake
    keep = exp.recv_mid_mask if por else 0
    seen: dict = {root_digest: 0}
    per_depth = [0] * (max_depth + 1)
    transitions = 0
    truncated = False

    # Frame layout (list for in-place idx mutation):
    # [digest, records, idx, enabled_mask, req_mask,
    #  in_move, in_midbit, in_pid, in_entered, prev_onstack]
    def make_frame(
        dig, state, state_parts, sleep_override, in_move, in_midbit,
        in_pid, in_entered,
    ):
        sleep = seen[dig] if sleep_override is None else sleep_override
        records, recv_mask, req = exp.expand_por(
            state, state_parts, dig, sleep, seen
        )
        enabled = recv_mask
        for rec in records:
            # a silent move that changes the configuration counts as
            # enabled work; a digest-preserving one is pure stutter
            if rec[2] == -1 and rec[3] != dig:
                enabled |= rec[0]
        return [
            dig, records, 0, enabled, req,
            in_move, in_midbit, in_pid, in_entered, None,
        ]

    def finish(exhausted, violation, livelock=None):
        last = max(
            (d for d in range(max_depth + 1) if per_depth[d]), default=0
        )
        res = ExplorationResult(
            len(seen), transitions, exhausted, violation,
            per_depth[1 : last + 1],
            peak_seen_bytes=_seen_bytes(seen),
            livelock=livelock,
        )
        elapsed = time.perf_counter() - t0
        res.states_per_sec = res.configurations / max(elapsed, 1e-9)
        return res

    if len(seen) >= max_configurations:
        # a cap the root alone meets: nothing is expanded
        return finish(False, None)
    root = work.save_state()
    stack = [make_frame(root_digest, root, parts, None, None, 0, -1, False)]
    onstack: dict = {root_digest: 0}

    def evaluate_cycle(entry_idx, closing_midbit, closing_pid,
                       closing_chan, closing_entered):
        frames = stack[entry_idx:]
        req_and = all_pids
        enabled_all = -1
        enabled_any = 0
        for f in frames:
            req_and &= f[4]
            enabled_all &= f[3]
            enabled_any |= f[3]
        if req_and == 0:
            return None
        taken = closing_midbit
        stepped = 1 << closing_pid
        victims = req_and
        if closing_entered:
            victims &= ~(1 << closing_pid)
        for f in frames[1:]:
            taken |= f[6]
            stepped |= 1 << f[7]
            if f[8]:
                victims &= ~(1 << f[7])
        if victims == 0:
            return None
        if not fairness_fn(
            enabled_all=enabled_all & exp.all_moves_mask,
            enabled_any=enabled_any,
            taken=taken,
            stepped_pids=stepped,
            all_pids=all_pids,
        ):
            return None
        prefix = [f[5] for f in stack[1 : entry_idx + 1]]
        cycle = [f[5] for f in frames[1:]]
        cycle.append((closing_pid, closing_chan))
        vic = tuple(p for p in range(n) if victims & (1 << p))
        entry = stack[entry_idx][0]
        return LivelockWitness(
            prefix, cycle, vic, fairness,
            entry if isinstance(entry, bytes) else None,
        )

    while stack:
        frame = stack[-1]
        records = frame[1]
        idx = frame[2]
        if idx >= len(records):
            stack.pop()
            d = frame[0]
            if frame[9] is None:
                if onstack.get(d) == len(stack):
                    del onstack[d]
            else:
                onstack[d] = frame[9]
            continue
        frame[2] = idx + 1
        midbit, pid, chan, d, verdict, child, cparts, csleep, entered = (
            records[idx]
        )
        transitions += 1
        entry_idx = onstack.get(d)
        if entry_idx is not None:
            witness = evaluate_cycle(entry_idx, midbit, pid, chan, entered)
            if witness is not None:
                return finish(False, None, witness)
        stored = seen.get(d)
        if stored is None:
            seen[d] = csleep & keep
            depth = len(stack)
            per_depth[min(depth, max_depth)] += 1
            if verdict is not None:
                return finish(False, (depth, verdict))
            if len(seen) >= max_configurations:
                return finish(False, None)
            if depth >= max_depth:
                truncated = True
                continue
            prev = onstack.get(d)
            onstack[d] = len(stack)
            child_frame = make_frame(
                d, child, cparts, None, (pid, chan), midbit, pid, entered
            )
            child_frame[9] = prev
            stack.append(child_frame)
        else:
            merged = stored & csleep
            if merged != stored:
                seen[d] = merged
                if len(stack) < max_depth:
                    # wake-up: re-expand executing only the woken moves
                    woken = stored & ~csleep
                    prev = onstack.get(d)
                    onstack[d] = len(stack)
                    wake = make_frame(
                        d, child, cparts,
                        exp.all_moves_mask & ~woken,
                        (pid, chan), midbit, pid, entered,
                    )
                    wake[9] = prev
                    stack.append(wake)
                else:
                    truncated = True
    return finish(not truncated, None)
