"""Paged KV block manager: allocation, prefix cache, LRU eviction.

Completed requests leave their sealed blocks resident but unpinned, so cache
occupancy persists after completion; that is what makes filler-then-burst
schedules build real memory pressure.

Blocks come and go in runs.  One call allocates a run of a chain's new
blocks, adopts the cached blocks of a prompt's leading hashes, or releases a
chain.  What stays per block is what the order of blocks decides: once the
free list runs dry, each further block of a run evicts the least recently
released block before it is sealed.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field


@dataclass(slots=True)
class KvBlock:
    block_id: int
    owner_request_id: str
    adapter: str
    content_hash: int | None = None
    ref_count: int = 1


@dataclass
class BlockManager:
    total: int
    blocks: dict[int, KvBlock] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._free: deque[int] = deque(range(self.total))
        self._hash_index: dict[int, int] = {}
        self._lru: OrderedDict[int, None] = OrderedDict()  # unpinned resident blocks

    @property
    def occupancy(self) -> float:
        return len(self.blocks) / self.total

    def allocate_run(self, owner: str, adapter: str, hashes) -> tuple[list[int], list, list[KvBlock]]:
        """A new block per hash, sealed under it unless None: (block ids, their hashes, evicted blocks).

        The free list is taken first; the blocks evicted make room, in order,
        for the last of the run.  The run stops short at the first block
        nothing can be evicted for, and ``hashes`` is not read past that
        block.  Each block is sealed before the next eviction: when a victim
        carries a hash of the run, that order decides which id the hash index
        keeps.
        """
        free, blocks, index = self._free, self.blocks, self._hash_index
        ids, sealed, victims = [], [], []
        for content_hash in hashes:
            if free:
                block_id = free.popleft()
            elif self._lru:
                victims.append(self.drop(next(iter(self._lru))))
                block_id = free.popleft()
            else:
                break
            blocks[block_id] = KvBlock(block_id, owner, adapter, content_hash)
            if content_hash is not None:
                # First writer wins; duplicate content computed concurrently
                # stays live under its own id but is not hash-addressable.
                index.setdefault(content_hash, block_id)
            ids.append(block_id)
            sealed.append(content_hash)
        return ids, sealed, victims

    def adopt(self, hashes) -> tuple[list[int], list[int]]:
        """Pin the cached blocks of the leading ``hashes``: (their ids, their hashes).

        The run stops at the first hash not indexed; ``hashes`` is not read past it.
        """
        index, blocks, lru = self._hash_index, self.blocks, self._lru
        ids, adopted = [], []
        for content_hash in hashes:
            block_id = index.get(content_hash)
            if block_id is None:
                break
            blocks[block_id].ref_count += 1
            lru.pop(block_id, None)
            ids.append(block_id)
            adopted.append(content_hash)
        return ids, adopted

    def release(self, block_ids) -> None:
        """Unpin a run of blocks; those no request holds any more join the LRU in run order."""
        blocks, lru = self.blocks, self._lru
        for block_id in block_ids:
            block = blocks[block_id]
            block.ref_count -= 1
            if block.ref_count <= 0:
                lru[block_id] = None

    def seal(self, block_id: int, content_hash: int) -> None:
        self.blocks[block_id].content_hash = content_hash
        self._hash_index.setdefault(content_hash, block_id)

    def pin(self, block_id: int) -> None:
        self.blocks[block_id].ref_count += 1
        self._lru.pop(block_id, None)

    def drop(self, block_id: int) -> KvBlock:
        """Remove a block and return its id to the free list; the caller emits its free or evict event."""
        block = self.blocks.pop(block_id)
        if self._hash_index.get(block.content_hash) == block_id:
            del self._hash_index[block.content_hash]
        self._lru.pop(block_id, None)
        self._free.append(block_id)
        return block
