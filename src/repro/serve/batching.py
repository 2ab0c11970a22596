"""Request/response types and micro-batch coalescing.

The serving layer speaks *canonical block text* rather than in-memory
:class:`~repro.isa.basic_block.BasicBlock` objects: text is what a compiler
autotuner or a network client naturally sends, it is cheap to ship across
process boundaries, and it doubles as the cache key of the models' encode
caches.

Coalescing merges the blocks of many heterogeneous requests into a stream of
size-bounded micro-batches.  A request with 100 blocks and three requests
with one block each become, at ``max_batch_size=64``, two batches of 64 and
39 blocks — each batch remembers which (request, position) every block came
from so responses can be reassembled exactly.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.serve.types import PredictionRequest

__all__ = [
    "MicroBatch",
    "coalesce_requests",
    "coalesce_requests_by_ring",
    "coalesce_requests_by_router",
    "shard_key",
]


@dataclass(frozen=True)
class MicroBatch:
    """A size-bounded batch of blocks drawn from one or more requests.

    Attributes:
        block_texts: The blocks of this batch, in batch order.
        origins: ``(request_index, position)`` of every block, aligned with
            ``block_texts``; ``request_index`` refers to the submission's
            request list and ``position`` to the block's index within that
            request.
    """

    block_texts: Tuple[str, ...]
    origins: Tuple[Tuple[int, int], ...]

    @property
    def num_blocks(self) -> int:
        return len(self.block_texts)


def coalesce_requests(
    requests: Sequence[PredictionRequest], max_batch_size: int
) -> List[MicroBatch]:
    """Merges the blocks of ``requests`` into size-bounded micro-batches.

    Blocks keep their submission order (request order, then block order), so
    small requests arriving together share batches and large requests are
    split.  Empty requests contribute nothing.

    Args:
        requests: The requests of one submission.
        max_batch_size: Upper bound on the blocks per micro-batch.

    Returns:
        Micro-batches covering every block exactly once.
    """
    if max_batch_size < 1:
        raise ValueError("max_batch_size must be positive")
    texts: List[str] = []
    origins: List[Tuple[int, int]] = []
    for request_index, request in enumerate(requests):
        for position, text in enumerate(request.block_texts):
            texts.append(text)
            origins.append((request_index, position))
    batches: List[MicroBatch] = []
    for start in range(0, len(texts), max_batch_size):
        stop = start + max_batch_size
        batches.append(
            MicroBatch(
                block_texts=tuple(texts[start:stop]),
                origins=tuple(origins[start:stop]),
            )
        )
    return batches


def shard_key(block_text: str) -> int:
    """Stable shard key of a block's canonical text.

    CRC32 rather than :func:`hash`: Python's string hash is salted per
    process, so it would scatter the same block to different workers across
    service restarts (and between the parent and respawned workers).  The
    key only has to be stable and well-mixed, not cryptographic.
    """
    return zlib.crc32(block_text.encode("utf-8"))


def _coalesce_by_owner(
    requests: Sequence[PredictionRequest],
    max_batch_size: int,
    owner_of,
) -> List[Tuple[int, MicroBatch]]:
    """Groups every block by ``owner_of(text)``, then chunks per owner.

    The shared core of the ring and router coalescing strategies: blocks keep
    their submission order within each owner, and each owner's run is
    split into micro-batches of at most ``max_batch_size``.  Owners with
    no blocks contribute no pairs; pairs come out in ascending owner
    order.
    """
    if max_batch_size < 1:
        raise ValueError("max_batch_size must be positive")
    owner_texts: Dict[int, List[str]] = {}
    owner_origins: Dict[int, List[Tuple[int, int]]] = {}
    for request_index, request in enumerate(requests):
        for position, text in enumerate(request.block_texts):
            owner = owner_of(text)
            owner_texts.setdefault(owner, []).append(text)
            owner_origins.setdefault(owner, []).append((request_index, position))
    assignments: List[Tuple[int, MicroBatch]] = []
    for owner in sorted(owner_texts):
        texts, origins = owner_texts[owner], owner_origins[owner]
        for start in range(0, len(texts), max_batch_size):
            stop = start + max_batch_size
            assignments.append(
                (
                    owner,
                    MicroBatch(
                        block_texts=tuple(texts[start:stop]),
                        origins=tuple(origins[start:stop]),
                    ),
                )
            )
    return assignments


def coalesce_requests_by_ring(
    requests: Sequence[PredictionRequest],
    max_batch_size: int,
    ring,
) -> List[Tuple[int, MicroBatch]]:
    """Merges requests into per-worker micro-batches routed by a hash ring.

    Every block is routed to ``ring.owner(shard_key(text))`` — a
    :class:`repro.serve.ring.HashRing` over the pool's live worker ids.
    Routing depends only on the block text and the ring topology, so a
    given block lands on the same worker no matter which request carries
    it, cache affinity is preserved while the worker count stays put, and
    only ~1/N of the key space moves when it changes.

    Args:
        requests: The requests of one submission.
        max_batch_size: Upper bound on the blocks per micro-batch.
        ring: The pool's consistent hash ring (must have at least one node).

    Returns:
        ``(worker_id, micro_batch)`` pairs covering every block exactly
        once, grouped per worker in ascending worker-id order; workers with
        no blocks contribute no pairs.
    """
    if not len(ring):
        raise ValueError("the ring has no workers to route to")
    return _coalesce_by_owner(
        requests, max_batch_size, lambda text: ring.owner(shard_key(text))
    )


def coalesce_requests_by_router(
    requests: Sequence[PredictionRequest],
    max_batch_size: int,
    router,
) -> List[Tuple[int, MicroBatch]]:
    """Like :func:`coalesce_requests_by_ring`, but hot keys spread out.

    Routes every block through a
    :class:`repro.serve.ring.HotKeyRouter`: cold keys go to their single
    ring owner exactly as before, while keys the router's tracker has
    classified hot round-robin across their replica set.  The router
    observes every block it routes, so hotness tracking needs no separate
    pass over the traffic.

    Args:
        requests: The requests of one submission.
        max_batch_size: Upper bound on the blocks per micro-batch.
        router: The service's hot-key router (wraps the pool's live ring).

    Returns:
        ``(worker_id, micro_batch)`` pairs covering every block exactly
        once, grouped per worker in ascending worker-id order.
    """
    if not len(router.ring):
        raise ValueError("the ring has no workers to route to")
    return _coalesce_by_owner(requests, max_batch_size, router.route_text)
