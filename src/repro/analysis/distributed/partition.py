"""Digest-space partitioning: who owns a packed digest.

Owner-computes exploration shards the ``seen`` set by digest: each
worker is the sole authority for membership of the digests it owns, so
dedup needs no central coordinator.  :func:`owner_of` binds the one
ownership map, ``topbits``, to a shard count.

The ownership invariant — every digest owned by exactly one shard — is
what makes the protocol's dedup exact: a child state is routed to the
one worker whose shard decides whether it is new.  Any total
deterministic function of the digest bytes satisfies it; this one is
fixed because a checkpoint's shard files only mean something under the
map that wrote them.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["owner_of"]


def owner_of(shards: int) -> Callable[[bytes], int]:
    """The map from a 16-byte digest to its owning shard: the top 8
    digest bytes as a big-endian integer, modulo ``shards``.

    blake2b output is uniform, so this balances shards to within
    statistical noise for any shard count that fits in a machine word.
    """
    if shards == 1:
        return lambda digest: 0

    def owner(digest: bytes) -> int:
        return int.from_bytes(digest[:8], "big") % shards

    return owner
