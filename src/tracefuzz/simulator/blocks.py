"""Paged KV block manager: allocation, prefix cache, LRU eviction.

Completed requests leave their sealed blocks resident but unpinned, so cache
occupancy persists after completion; that is what makes filler-then-burst
schedules build real memory pressure.

The pool is an array of block slots addressed by block id, as paged serving
engines keep it: one list per field, ``owner``, ``content_hash`` and
``ref_count``, each indexed by id.  A held slot's owner is the (request id,
adapter) pair of the run that allocated it, shared by every block of that
run; a free slot's owner is None.  No Python object is made per block.  Ids
are handed out as a first-in, first-out list of every id would hand them
out: those never allocated, in ascending order, then the freed ones in the
order they were freed.  So the slot lists only grow as far as the highest id
allocated, and a core keeps one pool for its life, which a reset clears in
place without walking the ids.

Blocks come and go in runs.  One call allocates a run of a chain's new
blocks, adopts the cached blocks of a prompt's leading hashes, or releases a
chain.  The part of a run that never-allocated and freed ids cover is stored
in C-level passes over the slot lists.  What stays per block is what the
order of blocks decides: once no id is free, each further block of a run
evicts the least recently released block before it is sealed.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import islice, repeat, starmap


def _drain(iterator) -> None:
    """Run an iterator of side effects to its end in C."""
    deque(iterator, maxlen=0)


class BlockManager:
    __slots__ = ("total", "owner", "content_hash", "ref_count", "_unused", "_free", "_hash_index", "_lru")

    def __init__(self, total: int):
        self.total = total
        self.owner: list[tuple[str, str] | None] = []
        self.content_hash: list[int | None] = []
        self.ref_count: list[int] = []
        self._unused = 0  # this id and every later one have not been allocated since the last clear
        self._free: deque[int] = deque()  # freed ids, in the order they were freed
        self._hash_index: dict[int, int] = {}
        self._lru: OrderedDict[int, None] = OrderedDict()  # unpinned resident blocks

    def clear(self) -> None:
        """Free every block in place.

        A core clears its pool on every reset.  The lists stay the objects
        they were: new ones would be scanned again by the garbage collector's
        next collection of its youngest generation.
        """
        self.owner.clear()
        self.content_hash.clear()
        self.ref_count.clear()
        self._unused = 0
        self._free.clear()
        self._hash_index.clear()
        self._lru.clear()

    @property
    def occupancy(self) -> float:
        return (self._unused - len(self._free)) / self.total

    def allocate(self, owner: tuple[str, str], content_hash: int | None):
        """One new block for the (request id, adapter) pair ``owner``, sealed under ``content_hash``
        unless None: (its id, the evicted block's (hash, owner), or None while an id is free);
        None if nothing can be evicted."""
        block_id, victim = self._unused, None
        if block_id < self.total:
            self._unused = block_id + 1
            self.owner.append(owner)
            self.content_hash.append(content_hash)
            self.ref_count.append(1)
        else:
            if not self._free:
                if not self._lru:
                    return None
                victim = self.drop(next(iter(self._lru)))
            block_id = self._free.popleft()
            self.owner[block_id] = owner
            self.content_hash[block_id] = content_hash
            self.ref_count[block_id] = 1
        if content_hash is not None:
            # First writer wins; duplicate content computed concurrently
            # stays live under its own id but is not hash-addressable.
            self._hash_index.setdefault(content_hash, block_id)
        return block_id, victim

    def allocate_run(self, owner: str, adapter: str, hashes) -> tuple[list[int], list[int], list]:
        """A new block per hash, sealed under it: (block ids, their hashes, the evicted blocks' (hash, owner)).

        Every hash of a run is an int; an unsealed block is allocated alone.
        Free ids are taken first; the blocks evicted make room, in order, for
        the last of the run, and each evicted block's id is the id of the
        block allocated in its place.  The run stops short at the first block
        nothing can be evicted for, and ``hashes`` is not read past that
        block.  Each block is sealed before the next eviction: when a victim
        carries a hash of the run, that order decides which id the hash index
        keeps.
        """
        hashes, pair = iter(hashes), (owner, adapter)
        free, start = self._free, self._unused
        sealed = list(islice(hashes, self.total - start + len(free)))
        self._unused = stop = min(self.total, start + len(sealed))
        ids = list(range(start, stop))
        self.owner.extend(repeat(pair, stop - start))
        self.content_hash.extend(islice(sealed, stop - start))
        self.ref_count.extend(repeat(1, stop - start))
        if len(sealed) > len(ids):
            reused = list(starmap(free.popleft, repeat((), len(sealed) - len(ids))))
            _drain(map(self.owner.__setitem__, reused, repeat(pair)))
            _drain(map(self.content_hash.__setitem__, reused, islice(sealed, len(ids), None)))
            _drain(map(self.ref_count.__setitem__, reused, repeat(1)))
            ids += reused
        index = self._hash_index
        _drain(map(index.setdefault, sealed, ids))
        # Left over only once no id is free: each block takes the id of the LRU head it evicts.
        owners, content_hashes, ref_count, lru = self.owner, self.content_hash, self.ref_count, self._lru
        victims = []
        for content_hash in hashes:
            if not lru:
                break
            block_id = lru.popitem(last=False)[0]
            victim_hash = content_hashes[block_id]
            victims.append((victim_hash, owners[block_id]))
            if index.get(victim_hash) == block_id:
                del index[victim_hash]
            owners[block_id] = pair
            content_hashes[block_id] = content_hash
            ref_count[block_id] = 1
            index.setdefault(content_hash, block_id)
            ids.append(block_id)
            sealed.append(content_hash)
        return ids, sealed, victims

    def adopt(self, hashes) -> tuple[list[int], list[int]]:
        """Pin the cached blocks of the leading ``hashes``: (their ids, their hashes).

        The run stops at the first hash not indexed; ``hashes`` is not read past it.
        """
        index, ref_count, lru = self._hash_index, self.ref_count, self._lru
        ids, adopted = [], []
        for content_hash in hashes:
            block_id = index.get(content_hash)
            if block_id is None:
                break
            ref_count[block_id] += 1
            lru.pop(block_id, None)
            ids.append(block_id)
            adopted.append(content_hash)
        return ids, adopted

    def release(self, block_ids) -> None:
        """Unpin a run of blocks; those no request holds any more join the LRU in run order."""
        ref_count, lru = self.ref_count, self._lru
        for block_id in block_ids:
            ref_count[block_id] -= 1
            if ref_count[block_id] <= 0:
                lru[block_id] = None

    def seal(self, block_id: int, content_hash: int) -> None:
        self.content_hash[block_id] = content_hash
        self._hash_index.setdefault(content_hash, block_id)

    def pin(self, block_id: int) -> None:
        self.ref_count[block_id] += 1
        self._lru.pop(block_id, None)

    def drop(self, block_id: int) -> tuple[int | None, tuple[str, str]]:
        """Free a block and return its id to the free list: (its hash, its owner pair), for the
        caller's free or evict event."""
        owner = self.owner[block_id]
        self.owner[block_id] = None
        content_hash = self.content_hash[block_id]
        if self._hash_index.get(content_hash) == block_id:
            del self._hash_index[content_hash]
        self._lru.pop(block_id, None)
        self._free.append(block_id)
        return content_hash, owner
