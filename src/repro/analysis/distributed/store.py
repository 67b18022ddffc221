"""Disk-backed shard of the distributed seen-set.

A :class:`ShardStore` holds one worker's shard of the explored-state
digest set.  Digests live in a plain ``set`` until the shard exceeds its
memory budget; the set is then flushed as a *sorted run* — a file of
concatenated 16-byte digests in lexicographic order — and membership
for spilled digests becomes: probe an in-memory prefix-bit filter, and
only on a filter hit probe the mmapped runs, newest first (a
breadth-first search meets its duplicates soon after their first copy).
Each run keeps a resident *fence* list, the first digest of every
64-digest block, so a probe is one ``bisect`` over the fences and one
aligned ``find`` in a 1 KiB block of the run.  Runs are immutable once
written; when too many accumulate they are merged into one by a
streaming k-way merge (runs are pairwise disjoint because membership is
checked before every insert, so the merge needs no dedup pass).

File lifecycle is checkpoint-aware: with ``defer_delete`` set,
compaction retires superseded run files to a pending list instead of
unlinking them, and :meth:`gc` deletes them later — the distributed
explorer calls it only after the next checkpoint manifest has been
atomically published, so a crash between compaction and checkpoint
leaves every file the *previous* manifest references intact.
"""

from __future__ import annotations

import heapq
import os
import shutil
import sys
import tempfile
from bisect import bisect_right
from typing import Iterable, Iterator

__all__ = ["DIGEST_SIZE", "ShardStore"]

DIGEST_SIZE = 16

#: Amortized resident cost of one digest in a python set (hash-table
#: slot + bytes object); the spill threshold is ``mem_budget`` divided
#: by this, so the budget bounds the *resident* shard footprint.
_DIGEST_COST = 72

#: ``sys.getsizeof`` of one 16-byte digest object — the same per-entry
#: estimate ``_seen_bytes`` uses for the serial explorer's seen-set.
_DIGEST_SIZEOF = sys.getsizeof(b"\x00" * DIGEST_SIZE)

_DEFAULT_FILTER_BITS = 1 << 20
_DEFAULT_MAX_RUNS = 8

#: bytes in one fenced block of a run: 64 digests, 1 KiB
_BLOCK_BYTES = 64 * DIGEST_SIZE


class _Run:
    """One immutable sorted run file, mmapped, with resident fences."""

    __slots__ = ("path", "count", "fences", "_file", "_map")

    def __init__(self, path: str) -> None:
        self.path = path
        self._file = open(path, "rb")
        try:
            import mmap

            self._map = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except Exception:
            self._file.close()
            raise
        size = len(self._map)
        if size % DIGEST_SIZE:
            self.close()
            raise ValueError(f"corrupt run file {path!r}: {size} bytes")
        self.count = size // DIGEST_SIZE
        m = self._map
        #: first digest of every block, in order (so sorted)
        self.fences = [
            m[o : o + DIGEST_SIZE] for o in range(0, size, _BLOCK_BYTES)
        ]

    def __contains__(self, digest: bytes) -> bool:
        block = bisect_right(self.fences, digest) - 1
        if block < 0:
            return False
        lo = block * _BLOCK_BYTES
        m = self._map
        pos = m.find(digest, lo, lo + _BLOCK_BYTES)
        # a match that straddles two stored digests is no match
        while pos > 0 and pos % DIGEST_SIZE:
            pos = m.find(digest, pos + 1, lo + _BLOCK_BYTES)
        return pos >= 0

    def __iter__(self) -> Iterator[bytes]:
        m = self._map
        for i in range(self.count):
            yield m[i * DIGEST_SIZE : i * DIGEST_SIZE + DIGEST_SIZE]

    def close(self) -> None:
        self._map.close()
        self._file.close()


def _chunks(digests: Iterable[bytes], size: int = 4096) -> Iterator[bytes]:
    """``digests`` joined ``size`` at a time, for streaming writes."""
    buf: list[bytes] = []
    for digest in digests:
        buf.append(digest)
        if len(buf) >= size:
            yield b"".join(buf)
            buf.clear()
    yield b"".join(buf)


def _write_run(path: str, chunks: Iterable[bytes]) -> None:
    """Write a new run file from ``chunks``.

    A failed write (a full disk, typically) deletes the partial file —
    no store or manifest references it yet — and re-raises the
    ``OSError`` with its errno, naming the shard directory and the fix.
    """
    try:
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        try:
            os.unlink(path)
        except OSError:
            pass
        directory = os.path.dirname(path)
        raise OSError(
            exc.errno,
            f"{exc.strerror or exc} while writing spill run "
            f"{os.path.basename(path)} in shard directory {directory!r}; "
            "free space there, or raise the memory budget (--mem-budget) "
            "so the shard spills less",
        ) from exc


class ShardStore:
    """One shard of the seen-set: RAM set + sorted on-disk runs.

    ``mem_budget`` is the target resident size in bytes for this shard
    (``None`` = unbounded, never spills).  ``spill_dir`` is where run
    files go; a private temp directory is created lazily (and removed on
    :meth:`close`) when no directory is given.
    """

    __slots__ = (
        "_ram",
        "_spill_at",
        "_dir",
        "_own_dir",
        "_filter",
        "_filter_bits",
        "_mask",
        "_runs",
        "_seq",
        "_retired",
        "_max_runs",
        "_ram_blob",
        "defer_delete",
    )

    def __init__(
        self,
        *,
        mem_budget: int | None = None,
        spill_dir: str | None = None,
        filter_bits: int = _DEFAULT_FILTER_BITS,
        max_runs: int = _DEFAULT_MAX_RUNS,
    ) -> None:
        if mem_budget is not None and mem_budget < 1:
            raise ValueError(f"mem_budget must be positive, got {mem_budget}")
        if filter_bits < 8 or filter_bits & (filter_bits - 1):
            raise ValueError(f"filter_bits must be a power of two >= 8: {filter_bits}")
        self._ram: set[bytes] = set()
        self._spill_at = (
            None if mem_budget is None else max(16, mem_budget // _DIGEST_COST)
        )
        self._dir = spill_dir
        self._own_dir = False
        self._filter: bytearray | None = None
        self._filter_bits = filter_bits
        self._mask = filter_bits - 1
        self._runs: list[_Run] = []
        self._seq = 0
        self._retired: list[str] = []
        self._max_runs = max(2, max_runs)
        self._ram_blob: str | None = None
        self.defer_delete = False

    # -- membership ---------------------------------------------------

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._ram or self.spilled(digest)

    @property
    def ram(self) -> set[bytes]:
        """The resident (unspilled) digests, read-only to callers: one
        set object for the store's lifetime, which spills clear in place."""
        return self._ram

    def spilled(self, digest: bytes) -> bool:
        """True iff ``digest`` is in one of the spilled runs."""
        if not self._runs:
            return False
        bit = int.from_bytes(digest[:4], "little") & self._mask
        if not self._filter[bit >> 3] & (1 << (bit & 7)):
            return False
        return any(digest in run for run in reversed(self._runs))

    def add(self, digest: bytes) -> bool:
        """Insert ``digest`` if new; True iff it was not already present."""
        if digest in self:
            return False
        self._ram.add(digest)
        if self._spill_at is not None and len(self._ram) >= self._spill_at:
            self.spill()
        return True

    def __len__(self) -> int:
        return len(self._ram) + sum(run.count for run in self._runs)

    # -- accounting ---------------------------------------------------

    def mem_bytes(self) -> int:
        """Resident estimate: RAM set + filter + per-run handles and fences."""
        total = sys.getsizeof(self._ram) + len(self._ram) * _DIGEST_SIZEOF
        if self._filter is not None:
            total += sys.getsizeof(self._filter)
        # mmapped run pages are reclaimable, so count only the handles
        # and the fence lists
        for run in self._runs:
            total += 128 + sys.getsizeof(run.fences)
            total += len(run.fences) * _DIGEST_SIZEOF
        return total

    def disk_bytes(self) -> int:
        return sum(run.count for run in self._runs) * DIGEST_SIZE

    @property
    def run_count(self) -> int:
        return len(self._runs)

    # -- spill / compaction -------------------------------------------

    def _ensure_dir(self) -> str:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix="repro-shard-")
            self._own_dir = True
        else:
            os.makedirs(self._dir, exist_ok=True)
        return self._dir

    def _mark(self, digest: bytes) -> None:
        bit = int.from_bytes(digest[:4], "little") & self._mask
        self._filter[bit >> 3] |= 1 << (bit & 7)

    def _attach_run(self, path: str) -> None:
        if self._filter is None:
            self._filter = bytearray(self._filter_bits >> 3)
        self._runs.append(_Run(path))

    def spill(self) -> None:
        """Flush the RAM set to a new sorted run (no-op when empty)."""
        if not self._ram:
            return
        directory = self._ensure_dir()
        if self._filter is None:
            self._filter = bytearray(self._filter_bits >> 3)
        path = os.path.join(directory, f"run-{self._seq:06d}.bin")
        self._seq += 1
        ordered = sorted(self._ram)
        _write_run(path, [b"".join(ordered)])
        for digest in ordered:
            self._mark(digest)
        self._ram.clear()
        self._attach_run(path)
        if len(self._runs) > self._max_runs:
            self.compact()

    def compact(self) -> None:
        """Merge all runs into one (runs are disjoint: pure k-way merge)."""
        if len(self._runs) < 2:
            return
        directory = self._ensure_dir()
        path = os.path.join(directory, f"run-{self._seq:06d}.bin")
        self._seq += 1
        _write_run(path, _chunks(heapq.merge(*self._runs)))
        old = self._runs
        self._runs = []
        for run in old:
            run.close()
            if self.defer_delete:
                self._retired.append(run.path)
            else:
                os.unlink(run.path)
        self._attach_run(path)

    def gc(self) -> None:
        """Delete files retired by compaction or superseded checkpoint
        blobs (called only at checkpoint-safe points)."""
        for path in self._retired:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        self._retired.clear()

    # -- checkpoint / restore -----------------------------------------

    def checkpoint(self, directory: str, *, tag: int) -> dict:
        """Snapshot into ``directory``; returns a manifest fragment.

        Run files already under ``directory`` are referenced in place
        (the explorer points ``spill_dir`` at the checkpoint directory
        exactly so spills need no copy); runs elsewhere are copied in.
        All names in the fragment are basenames relative to
        ``directory``.

        ``tag`` versions the RAM blob (``ram-<tag>.bin``): each
        checkpoint epoch writes a *fresh* file instead of clobbering the
        previous one, so a crash after this write but before the new
        manifest is published leaves the blob the old manifest
        references intact.  The superseded blob is retired like a
        compacted run — deleted on :meth:`gc`, i.e. only after the next
        manifest publish when ``defer_delete`` is set.
        """
        os.makedirs(directory, exist_ok=True)
        runs: list[dict] = []
        for run in self._runs:
            name = os.path.basename(run.path)
            target = os.path.join(directory, name)
            if os.path.abspath(target) != os.path.abspath(run.path):
                shutil.copyfile(run.path, target)
            runs.append({"file": name, "count": run.count})
        ram_name = f"ram-{int(tag):06d}.bin"
        tmp = os.path.join(directory, ram_name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(b"".join(sorted(self._ram)))
        os.replace(tmp, os.path.join(directory, ram_name))
        prev = self._ram_blob
        self._ram_blob = os.path.join(directory, ram_name)
        if prev is not None and os.path.abspath(prev) != os.path.abspath(
            self._ram_blob
        ):
            if self.defer_delete:
                self._retired.append(prev)
            else:
                try:
                    os.unlink(prev)
                except FileNotFoundError:
                    pass
        return {
            "count": len(self),
            "ram": ram_name,
            "ram_count": len(self._ram),
            "runs": runs,
        }

    @classmethod
    def restore(
        cls,
        directory: str,
        fragment: dict,
        *,
        mem_budget: int | None = None,
        filter_bits: int = _DEFAULT_FILTER_BITS,
        max_runs: int = _DEFAULT_MAX_RUNS,
    ) -> "ShardStore":
        """Rebuild a store from a :meth:`checkpoint` fragment.

        The prefix filter is rebuilt by one sequential scan of the run
        files; future spills continue in ``directory`` with sequence
        numbers above every restored run (stale files from a crashed
        later epoch are simply never referenced, and their names are
        reused/truncated if sequencing catches up).  A fragment the
        files disagree with raises ``ValueError`` after closing every
        run the restore had opened.
        """
        store = cls(
            mem_budget=mem_budget,
            spill_dir=directory,
            filter_bits=filter_bits,
            max_runs=max_runs,
        )
        try:
            store._ram_blob = os.path.join(directory, fragment["ram"])
            with open(store._ram_blob, "rb") as fh:
                blob = fh.read()
            if len(blob) % DIGEST_SIZE:
                raise ValueError(f"corrupt ram blob in {directory!r}")
            store._ram = {
                blob[i : i + DIGEST_SIZE]
                for i in range(0, len(blob), DIGEST_SIZE)
            }
            seq = 0
            for entry in fragment["runs"]:
                path = os.path.join(directory, entry["file"])
                store._attach_run(path)
                run = store._runs[-1]
                if run.count != entry["count"]:
                    raise ValueError(
                        f"run {path!r} has {run.count} digests, "
                        f"manifest says {entry['count']}"
                    )
                for digest in run:
                    store._mark(digest)
                stem = os.path.splitext(entry["file"])[0]
                try:
                    seq = max(seq, int(stem.rsplit("-", 1)[1]) + 1)
                except (IndexError, ValueError):
                    pass
            store._seq = seq
            if fragment.get("count") not in (None, len(store)):
                raise ValueError(
                    f"shard in {directory!r} holds {len(store)} digests, "
                    f"manifest says {fragment['count']}"
                )
        except BaseException:
            # a rejected checkpoint leaves no run file or mapping open
            store.close()
            raise
        return store

    def close(self) -> None:
        for run in self._runs:
            run.close()
        self._runs.clear()
        if self._own_dir and self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None
            self._own_dir = False
