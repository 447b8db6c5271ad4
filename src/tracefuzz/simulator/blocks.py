"""Paged KV block manager: allocation, prefix cache, LRU eviction.

Completed requests leave their sealed blocks resident but unpinned, so cache
occupancy persists after completion; that is what makes filler-then-burst
schedules build real memory pressure.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field


@dataclass
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

    def lookup(self, content_hash: int) -> int | None:
        return self._hash_index.get(content_hash)

    def allocate(self, owner: str, adapter: str) -> tuple[int | None, KvBlock | None]:
        """Returns (block_id, evicted LRU block or None); block_id None when nothing is evictable."""
        victim = None
        if not self._free:
            if not self._lru:
                return None, None
            victim = self.drop(next(iter(self._lru)))
        block_id = self._free.popleft()
        self.blocks[block_id] = KvBlock(block_id, owner, adapter)
        return block_id, victim

    def seal(self, block_id: int, content_hash: int) -> None:
        block = self.blocks[block_id]
        block.content_hash = content_hash
        # First writer wins; duplicate content computed concurrently stays live
        # under its own id but is not hash-addressable.
        self._hash_index.setdefault(content_hash, block_id)

    def pin(self, block_id: int) -> None:
        self.blocks[block_id].ref_count += 1
        self._lru.pop(block_id, None)

    def unpin(self, block_id: int) -> None:
        block = self.blocks[block_id]
        block.ref_count -= 1
        if block.ref_count <= 0:
            self._lru[block_id] = None

    def drop(self, block_id: int) -> KvBlock:
        """Remove a block and return its id to the free list; the caller emits its free or evict event."""
        block = self.blocks.pop(block_id)
        if self._hash_index.get(block.content_hash) == block_id:
            del self._hash_index[block.content_hash]
        self._lru.pop(block_id, None)
        self._free.append(block_id)
        return block
