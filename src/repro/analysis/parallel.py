"""Multi-core campaigns: the one worker pool and the shard map on it.

Everything in :mod:`repro.analysis` is deterministic per seed, and the
sweep and fuzz campaign shapes — a parameter sweep, a
swarm-verification fuzz run — are embarrassingly parallel.  This module
shards them across worker *processes* (the GIL rules out threads for
pure-python stepping) while keeping one hard guarantee:

    **the merged result is byte-identical at every worker count**, any
    shard size, and any worker finish order.

The worker pool
---------------
:class:`WorkerPool` is the only place the package starts processes.  It
forks ``W`` workers once (the ``fork`` start method, the default on
Linux), so they inherit the parent's memory image at fork time:
engines, invariant closures and application objects never cross the
process boundary going *in*.  Each worker builds its request handler
from that inherited state, then answers requests on its own duplex pipe
until it reads ``None`` or EOF.  With one worker the handler runs
in-process and nothing is forked; ``workers > 1`` needs ``fork``.  It
has two clients:

* :func:`parallel_map`, the one path of every sweep
  (:func:`repro.analysis.sweeps.run_sweep`) and fuzz
  (:func:`repro.analysis.fuzz.fuzz`) campaign, at every worker count:
  each shard (an index range from :func:`_shard_ranges`) goes to the
  next idle worker, and workers ship back compact picklable records —
  metric dicts for sweeps, ``(walk, step, message, schedule)`` tuples
  for fuzz;
* the owner-computes explorer (:mod:`repro.analysis.distributed`),
  whose workers each own a shard of the seen-set for a whole campaign.

Failure rule, at every worker count: a handler that raises reports its
traceback, and a worker that dies — killed from outside, out of memory
— reports "worker exited without replying" as soon as its pipe reaches
EOF.  Either way the campaign raises :class:`CampaignError` naming the
failed shards and joins every worker first; nothing waits on a dead
process.  A normal end or an early stop sends no signal: idle workers
read ``None``, busy ones finish their request, find the pipe closed and
exit.  Only an interruption (Ctrl-C, a raising callback) terminates
workers, which is safe because no two workers share a pipe or a lock.
If the parent dies, every worker reads EOF and exits.

Deterministic merging: shard ranges are contiguous and concatenate back
to the full index space, and :func:`parallel_map` hands results back in
shard order, so a campaign's merge sees the records in one order no
matter how many workers produced them.  Every campaign accepts a
``progress`` callback receiving one :class:`ShardProgress` event per
shard (the CLI renders these on stderr).
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Iterable, Sequence

__all__ = [
    "ShardProgress",
    "WorkerFailure",
    "CampaignError",
    "WorkerPool",
    "fork_available",
    "parallel_map",
]


@dataclass(frozen=True, slots=True)
class ShardProgress:
    """One progress event: shard ``shard`` of ``shards`` finished.

    ``done``/``total`` count handled vs. scheduled shards, and ``note``
    carries a campaign-specific human-readable detail ("walks 32-47 of
    64: clean", "depth 3: 211 states").
    """

    campaign: str
    shard: int
    shards: int
    done: int
    total: int
    note: str = ""


@dataclass(frozen=True, slots=True)
class WorkerFailure:
    """A worker exception or death, captured per shard."""

    shard: int
    error: str
    traceback: str


class CampaignError(RuntimeError):
    """Raised when one or more worker shards failed.

    Carries every captured :class:`WorkerFailure` so a campaign over
    hundreds of shards reports all failures at once instead of the
    first one the pool happened to surface.
    """

    def __init__(self, campaign: str, failures: Sequence[WorkerFailure]):
        self.campaign = campaign
        self.failures = list(failures)
        lines = [f"{len(self.failures)} worker shard(s) failed in {campaign!r}:"]
        for f in self.failures:
            first = f.error.strip().splitlines()[0] if f.error.strip() else "?"
            lines.append(f"  shard {f.shard}: {first}")
        lines.append("(full tracebacks in CampaignError.failures)")
        super().__init__("\n".join(lines))


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _answer(
    handler: Callable[[Any], Any], rank: int, request: Any
) -> tuple[bool, Any]:
    """``(True, reply)``, or ``(False, WorkerFailure)`` if the handler raised."""
    try:
        return True, handler(request)
    except Exception as exc:  # noqa: BLE001 — re-raised in parent as CampaignError
        return False, WorkerFailure(
            rank, f"{type(exc).__name__}: {exc}", traceback.format_exc()
        )


def _close(handler: Callable[[Any], Any]) -> None:
    close = getattr(handler, "close", None)
    if close is not None:
        close()


def _serve(make_handler, rank: int, conn, parent_ends: list) -> None:
    """A forked worker: answer requests on ``conn`` until ``None`` or EOF."""
    # The fork copied the parent's end of this worker's pipe and of every
    # earlier worker's.  Held here, they keep each pipe open after a
    # parent crash, so orphaned workers would wait for a message forever
    # instead of seeing EOF and exiting.
    for end in parent_ends:
        end.close()
    handler = make_handler(rank)
    try:
        while (request := conn.recv()) is not None:
            conn.send(_answer(handler, rank, request))
    except (EOFError, OSError, KeyboardInterrupt):
        return  # parent gone, pipe closed under a busy worker, or Ctrl-C
    _close(handler)


class WorkerPool:
    """``workers`` request handlers, addressed by rank, forked once.

    Each forked worker calls ``make_handler(rank)`` on the state it
    inherited through the fork and answers every request with
    ``handler(request)``; requests and replies must pickle, the handler
    need not.  A handler with a ``close()`` method has it called when its
    worker is told to stop.  With ``workers == 1`` the handler is built
    and run in-process.

    :meth:`recv` returns ``(True, reply)`` or ``(False,
    WorkerFailure)``.  A dead worker is reported, never waited on: its
    rank joins :attr:`lost`, and every later :meth:`recv` from it fails.
    """

    def __init__(
        self, make_handler: Callable[[int], Callable[[Any], Any]], workers: int
    ) -> None:
        self.workers = workers
        self.conns: list = []
        self.procs: list = []
        #: rank -> the failure of its dead worker
        self.lost: dict[int, WorkerFailure] = {}
        self._local: Callable[[Any], Any] | None = None
        self._request: Any = None
        if workers == 1:
            self._local = make_handler(0)
            return
        if not fork_available():  # pragma: no cover - non-POSIX
            raise RuntimeError(
                f"workers={workers} needs the 'fork' start method, which "
                "this platform lacks; run with workers=1"
            )
        ctx = multiprocessing.get_context("fork")
        try:
            for rank in range(workers):
                parent_end, child_end = ctx.Pipe(duplex=True)
                self.conns.append(parent_end)
                proc = ctx.Process(
                    target=_serve,
                    args=(make_handler, rank, child_end, list(self.conns)),
                    daemon=True,
                )
                proc.start()
                child_end.close()
                self.procs.append(proc)
        except BaseException:
            self.terminate()
            raise

    def send(self, rank: int, request: Any) -> None:
        """Send ``request`` to worker ``rank``.  An unreachable worker is
        recorded and reported by the next :meth:`recv`, so a caller
        gathering from several ranks still hears from every other one."""
        if self._local is not None:
            self._request = request
            return
        try:
            self.conns[rank].send(request)
        except OSError as exc:
            self.lost[rank] = WorkerFailure(
                rank, f"worker unreachable: {type(exc).__name__}: {exc}", ""
            )

    def recv(self, rank: int) -> tuple[bool, Any]:
        """Worker ``rank``'s reply to its last request (blocks)."""
        if self._local is not None:
            request, self._request = self._request, None
            return _answer(self._local, 0, request)
        if rank not in self.lost:
            try:
                return self.conns[rank].recv()
            except (EOFError, OSError):
                self.lost[rank] = WorkerFailure(
                    rank, "worker exited without replying", ""
                )
        return False, self.lost[rank]

    def ready(self, ranks: Iterable[int]) -> list[int]:
        """The ranks among ``ranks`` whose :meth:`recv` will not block;
        waits until there is at least one.  A dead worker is ready: its
        pipe is at EOF, or its last send already failed."""
        ranks = list(ranks)
        if self._local is not None:
            return ranks
        lost = [r for r in ranks if r in self.lost]
        if lost:
            return lost
        by_conn = {self.conns[r]: r for r in ranks}
        return [by_conn[c] for c in wait(list(by_conn))]

    def close(self) -> None:
        """Stop every worker without a signal and join it: an idle one
        reads ``None`` and closes its handler, a busy one finishes its
        request, finds the pipe closed and exits."""
        if self._local is not None:
            _close(self._local)
        for conn in self.conns:
            try:
                conn.send(None)
            except OSError:
                pass  # already dead
            conn.close()
        for proc in self.procs:
            proc.join()

    def terminate(self) -> None:
        """Interruption path: kill every worker now and join it.  Safe
        here, unlike a queue-based pool's: no two workers share a pipe or
        a lock that a killed one could leave held."""
        for proc in self.procs:
            proc.terminate()
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.join()


def parallel_map(
    campaign: str,
    fn: Callable[..., Any],
    payload: Any,
    shard_args: Sequence[tuple],
    *,
    workers: int,
    progress: Callable[[ShardProgress], None] | None = None,
    note: Callable[[int, Any], str] | None = None,
    stop: Callable[[Any], bool] | None = None,
) -> list[Any]:
    """Run ``fn(payload, *shard_args[i])`` for every shard on a
    :class:`WorkerPool` of ``workers`` processes (one runs in-process).

    ``fn`` and ``payload`` are inherited by workers through the fork
    (never pickled); ``shard_args`` and each shard's return value must
    pickle.  Each shard goes to the next idle worker, but results,
    progress events and ``stop`` are handled **in shard order**, so the
    results come back in shard order and ``stop`` sees the sequence one
    worker would produce.  ``stop(result)`` may end the campaign early: later shards
    are ``None`` (used by the fuzz campaign to stop once the minimal
    violating shard is in); none is started after it, and those already
    running finish and are discarded.

    A shard whose ``fn`` raised, or whose worker died, is a
    :class:`WorkerFailure`; all of them are raised together as one
    :class:`CampaignError` once the running shards are in.  A dead
    worker also ends the dispatch of new shards.
    """
    n = len(shard_args)
    results: list[Any] = [None] * n
    failures: list[WorkerFailure] = []
    pool = WorkerPool(
        lambda rank: lambda args: fn(payload, *args), max(1, min(workers, n))
    )
    idle = list(range(pool.workers))
    running: dict[int, int] = {}  # rank -> shard
    replies: dict[int, tuple[bool, Any]] = {}  # shard -> reply not yet handled
    sent = handled = 0
    dispatch, stopped = True, False
    try:
        while handled < n and not stopped:
            while dispatch and idle and sent < n:
                rank = idle.pop()
                running[rank] = sent
                pool.send(rank, shard_args[sent])
                sent += 1
            if not running:
                break  # a worker died: every shard sent has been handled
            for rank in pool.ready(running):
                replies[running.pop(rank)] = pool.recv(rank)
                if rank in pool.lost:
                    dispatch = False
                else:
                    idle.append(rank)
            # Shard order: when `stop` fires on a shard, every earlier
            # shard has already been handled clean, so stopping can only
            # discard later (larger-index) work — this is what makes
            # early fuzz cancellation minimal-walk-safe.
            while handled in replies and not stopped:
                shard = handled
                ok, out = replies.pop(shard)
                handled += 1
                if ok:
                    results[shard] = out
                else:
                    failures.append(WorkerFailure(shard, out.error, out.traceback))
                if progress is not None:
                    detail = out.error if not ok else (
                        note(shard, out) if note is not None else ""
                    )
                    progress(ShardProgress(campaign, shard, n, handled, n, detail))
                stopped = ok and stop is not None and bool(stop(out))
    except BaseException:
        pool.terminate()
        raise
    pool.close()
    if failures:
        raise CampaignError(campaign, failures)
    return results


def _shard_ranges(total: int, shards: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into at most ``shards`` contiguous ranges.

    Ranges are balanced to within one element and concatenate, in
    order, back to ``range(total)`` — the property every campaign's
    deterministic merge relies on.
    """
    shards = max(1, min(shards, total))
    base, extra = divmod(total, shards)
    out = []
    lo = 0
    for s in range(shards):
        hi = lo + base + (1 if s < extra else 0)
        out.append((lo, hi))
        lo = hi
    return out
