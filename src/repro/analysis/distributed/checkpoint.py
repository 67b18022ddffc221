"""Versioned campaign checkpoints for distributed exploration.

A checkpoint directory holds everything needed to resume a campaign
from the end of the last completed level:

``manifest.json``
    the document below — written *last*, via temp-file + atomic rename,
    so a manifest on disk always references a complete, consistent file
    set (a kill mid-checkpoint leaves the previous manifest intact).
``shard<r>/ram-NNNNNN.bin``
    shard ``r``'s resident digests, sorted, 16 bytes each.
``shard<r>/run-NNNNNN.bin``
    shard ``r``'s immutable sorted spill runs.
``shard<r>/frontier-NNNNNN.pkl``
    pickled list of the shard's frontier ``EngineState``s — the states
    it will expand at level ``progress.level + 1``.

``NNNNNN`` in a RAM blob or frontier pickle name is the level it was
written at: each checkpoint writes fresh ones, never overwriting the
files the last published manifest names.

Manifest schema (``schema_version`` 1)::

    {
      "kind": "repro-explore-checkpoint",
      "schema_version": 1,
      "created_unix": <float>,
      "spec": <ScenarioSpec.to_dict() | null>,
      "campaign": {
        "max_depth": int, "max_configurations": int,
        "workers": int, "mem_budget": int | null,
        "checkpoint_every": int, "backend": "object" | "array"
      },
      "progress": {
        "level": int,              # last fully merged BFS level
        "configurations": int, "transitions": int,
        "frontier_sizes": [int, ...],
        "peak_seen_bytes": int, "peak_disk_bytes": int,
        "violation": [depth, message] | null,
        "exhausted": bool, "complete": bool
      },
      "shards": [
        {"rank": int, "dir": "shard<r>", "count": int,
         "ram": "ram-NNNNNN.bin", "ram_count": int,
         "runs": [{"file": str, "count": int}, ...],
         "frontier": "frontier-NNNNNN.pkl", "frontier_len": int}, ...
      ]
    }

``workers`` and ``backend`` are structural — the shard files only mean
anything under the ownership map and digest encoding that wrote them —
so resume rejects a mismatch; ``max_depth`` / ``max_configurations`` /
``mem_budget`` are operational and may be overridden to extend or
re-budget a campaign.  The ownership map is fixed (``topbits``, see
:mod:`.partition`), so new manifests carry neither the ``partitioner``
name nor its arguments.  An older manifest that does still resumes when
it names ``topbits``; any other name is a :class:`CheckpointError`.
"""

from __future__ import annotations

import json
import os
import time

from ...spec.registry import SpecError

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "manifest_path",
    "read_manifest",
    "write_manifest",
]

CHECKPOINT_SCHEMA_VERSION = 1
_KIND = "repro-explore-checkpoint"


class CheckpointError(SpecError):
    """A checkpoint directory is missing, malformed, or incompatible."""


def manifest_path(directory: str) -> str:
    return os.path.join(directory, "manifest.json")


def write_manifest(directory: str, doc: dict) -> None:
    """Atomically publish ``doc`` as ``directory``'s manifest."""
    doc = dict(doc)
    doc["kind"] = _KIND
    doc["schema_version"] = CHECKPOINT_SCHEMA_VERSION
    doc["created_unix"] = time.time()
    os.makedirs(directory, exist_ok=True)
    path = manifest_path(directory)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def read_manifest(directory: str) -> dict:
    """Load and validate ``directory``'s manifest."""
    path = manifest_path(directory)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint manifest at {path!r}") from None
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"unreadable checkpoint manifest {path!r}: {exc}")
    if doc.get("kind") != _KIND:
        raise CheckpointError(f"{path!r} is not an explore checkpoint manifest")
    version = doc.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint schema_version {version!r} unsupported "
            f"(this build reads version {CHECKPOINT_SCHEMA_VERSION})"
        )
    for key in ("campaign", "progress", "shards"):
        if key not in doc:
            raise CheckpointError(f"checkpoint manifest missing {key!r} section")
    return doc
