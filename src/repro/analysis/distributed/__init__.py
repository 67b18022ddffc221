"""Owner-computes distributed exploration with disk-backed seen-set shards.

The subsystem splits into four pieces:

* :mod:`.partition` — :func:`owner_of`, the fixed map from packed
  digests to owning shards (ownership invariant: exactly one owner);
* :mod:`.store` — :class:`ShardStore`, one shard of the seen-set with a
  memory budget, sorted spill runs, a prefix-bit filter and mmapped
  runs probed through resident fence lists;
* :mod:`.owner` — :func:`explore_owner`, the digest-first
  (expand/claim/build/adopt) level-synchronous protocol where workers
  are their shards' dedup authorities and the parent merges only
  counts and verdicts;
* :mod:`.checkpoint` — the versioned campaign manifest behind
  ``repro explore --checkpoint/--resume``.

Entry point for callers: :func:`repro.analysis.explore.explore` with
``distributed=True`` (or a ``mem_budget`` / ``checkpoint_dir`` /
``resume_dir``), which routes here.
"""

from .checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    manifest_path,
    read_manifest,
    write_manifest,
)
from .owner import explore_owner
from .partition import owner_of
from .store import DIGEST_SIZE, ShardStore

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "DIGEST_SIZE",
    "ShardStore",
    "explore_owner",
    "manifest_path",
    "owner_of",
    "read_manifest",
    "write_manifest",
]
