"""Token trajectories: follow individual tokens through a traced run.

The oracle's uids make each physical token trackable.  Given a traced
execution, these helpers reconstruct where every token traveled, how
long its circulations took, and where it waited — the microscopic view
behind the waiting-time results (e.g. the pusher's lap time bounds how
long a reservation can be hogged).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.messages import PrioT, PushT, ResT, Token
from ..sim.trace import Trace

__all__ = ["TokenVisit", "TokenTrajectory", "track_tokens", "lap_times"]


@dataclass(frozen=True, slots=True)
class TokenVisit:
    """One reception of a token: time, receiving process, arrival channel."""

    now: int
    pid: int
    channel: int


@dataclass(slots=True)
class TokenTrajectory:
    """The visit sequence of one token uid."""

    uid: int
    kind: str
    visits: list[TokenVisit]

    def pids(self) -> list[int]:
        """Visited processes in order."""
        return [v.pid for v in self.visits]

    def visit_count(self, pid: int) -> int:
        """How many times the token was received by ``pid``."""
        return sum(1 for v in self.visits if v.pid == pid)

    def dwell_times(self) -> list[int]:
        """Steps between consecutive receptions (transit + holding)."""
        return [
            b.now - a.now for a, b in zip(self.visits, self.visits[1:])
        ]

    def max_dwell(self) -> int | None:
        """Longest gap between receptions (longest reservation/transit)."""
        d = self.dwell_times()
        return max(d) if d else None


def track_tokens(
    trace: Trace, kinds: tuple[type[Token], ...] = (ResT, PushT, PrioT)
) -> dict[int, TokenTrajectory]:
    """Reconstruct every token's trajectory from a trace's recv events.

    The trace must have been recording during the run (attached with
    ``engine.add_observer(TraceObserver(trace))``).  Tokens whose uid
    changes are impossible — the protocol preserves uids through
    reservation and release — so each uid yields one contiguous
    trajectory.
    """
    out: dict[int, TokenTrajectory] = {}
    for ev in trace.of_kind("recv"):
        label, msg = ev.detail
        if isinstance(msg, kinds):
            traj = out.get(msg.uid)
            if traj is None:
                traj = TokenTrajectory(uid=msg.uid, kind=msg.type_name(), visits=[])
                out[msg.uid] = traj
            traj.visits.append(TokenVisit(now=ev.now, pid=ev.pid, channel=label))
    return out


def lap_times(traj: TokenTrajectory, seam_pid: int) -> list[int]:
    """Steps between consecutive arrivals at ``seam_pid`` (full laps).

    For a stabilized system, a resource token's lap times bound how fast
    it can serve requests around the virtual ring; the pusher's lap time
    is the paper's eviction period.
    """
    arrivals = [v.now for v in traj.visits if v.pid == seam_pid]
    return [b - a for a, b in zip(arrivals, arrivals[1:])]
