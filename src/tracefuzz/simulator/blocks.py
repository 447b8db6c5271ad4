"""Paged KV block manager: allocation, prefix cache, LRU eviction.

Completed requests leave their sealed blocks resident but unpinned, so cache
occupancy persists after completion; that is what makes filler-then-burst
schedules build real memory pressure.
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

    def lookup(self, content_hash: int) -> int | None:
        return self._hash_index.get(content_hash)

    def allocate_run(self, owner: str, adapter: str, hashes) -> list[tuple[KvBlock | None, KvBlock | None]]:
        """(new block, evicted LRU block or None) per hash, each block sealed under its hash unless None.

        The run ends with (None, None) at the first block nothing can be evicted for; ``hashes`` is not
        read past it.  Each block is sealed before the next eviction: when a victim carries a hash of the
        run, that order decides which id the hash index keeps.
        """
        run = []
        free, lru, index = self._free, self._lru, self._hash_index
        for content_hash in hashes:
            victim = None
            if not free:
                if not lru:
                    run.append((None, None))
                    break
                victim = self.drop(next(iter(lru)))
            block_id = free.popleft()
            block = self.blocks[block_id] = KvBlock(block_id, owner, adapter, content_hash)
            if content_hash is not None:
                # First writer wins; duplicate content computed concurrently
                # stays live under its own id but is not hash-addressable.
                index.setdefault(content_hash, block_id)
            run.append((block, victim))
        return run

    def seal(self, block_id: int, content_hash: int) -> None:
        self.blocks[block_id].content_hash = content_hash
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
