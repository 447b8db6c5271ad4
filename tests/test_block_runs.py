"""Run allocation against block-at-a-time allocation.

``BlockAtATimeCore`` keeps the simulator as it handled KV blocks before they
were handled in runs: ``_advance_prefill``, ``_append_token`` and
``_allocate_block`` as they were before prefill blocks were allocated in
runs, ``_init_request`` and ``_release_blocks`` as they were before prefix
hits were adopted and chains released as runs, and ``_maybe_stale_grab`` as
it was before the pool became per-slot lists, all verbatim but for the
prompt's block hashes and digests, derived from their ``stable_u64``
definitions.  Its block manager is a standalone verbatim copy of the one
that kept a ``KvBlock`` per block in a dict, with ``lookup``, the one-block
``allocate`` and ``unpin``, no run methods, and a ``clear`` for the core's
reset.
``RunCore`` is ``SimCore`` with probes, and repeats every client call on a
block-at-a-time twin.  The rules of ``BlockMachine``
(tests/test_block_invariants.py) drive the pair through submit, same-tick
bursts, cancel, disconnect, expire, advance and reset, clean and with F1 and
F3 armed.  After every rule both cores must hold the same KV events,
snapshots, outputs, logprob records, statuses, eviction count, block tables
and block-manager state: each held block's owner, adapter, hash and ref
count, the free order, the LRU order and the hash index.  Each arm asserts
the paths it reached: F1 stale grabs and the runs hashed after them,
preemption inside a run, prefill chunks that end mid-block, ``n > 1``,
evictions inside a run, runs split across free and evicted blocks and prefix
hits adopted as one run.

Three fixed schedules reach what random schedules on small pools do not: a
run evicts the indexed twin of one of its own earlier blocks, so sealing
every block of a run after its evictions would leave a different hash index
(a three-block pool checks the same order inside an evicting tail);
4096-token prompts with eight completions on the default 2048-block pool,
the scale of the benchmark's fillers; and a stale grab followed by prefix
hits past it.  A fourth counts the block hashes of a run after a stale grab
that is cut short, and a fifth offers a stale grab a block evicted on the
same tick.  The last two count the objects a run leaves alive, as the pool
makes none per block, and check that a reset clears the pool in place.
"""

import gc
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass, field

from hypothesis.stateful import invariant, run_state_machine_as_test

import tracefuzz.simulator.engine as engine
from test_block_invariants import ARM_BUDGET, ARMS, BlockMachine, HeldBlock, free_ids, held_blocks, tokens
from tracefuzz.adapter import KvEvent, KvRun
from tracefuzz.hashing import stable_u64
from tracefuzz.simulator.blocks import BlockManager
from tracefuzz.simulator.config import SimConfig
from tracefuzz.simulator.decode import init_digest
from tracefuzz.simulator.engine import DECODE, PREFILL, SimCore, SimRequest, _Chain

# What every arm must reach, beyond the KV paths BlockMachine itself notes.
RUN_PATHS = {
    "eviction inside a run", "preempt inside a run", "chunk ends mid-block", "n > 1",
    "run split across free and evicted blocks", "prefix hits adopted as one run",
}


@dataclass(slots=True)
class KvBlock:
    block_id: int
    owner_request_id: str
    adapter: str
    content_hash: int | None = None
    ref_count: int = 1


@dataclass
class BlockAtATimeManager:
    """The block manager as it kept a ``KvBlock`` per block in a dict, and looked up, allocated and
    unpinned one block per call."""

    total: int
    blocks: dict[int, KvBlock] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._free: deque[int] = deque(range(self.total))
        self._hash_index: dict[int, int] = {}
        self._lru: OrderedDict[int, None] = OrderedDict()  # unpinned resident blocks

    @property
    def occupancy(self) -> float:
        return len(self.blocks) / self.total

    def clear(self) -> None:
        """Free every block, as the core's reset asks of its pool."""
        self.blocks.clear()
        self.__post_init__()

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

    def unpin(self, block_id: int) -> None:
        block = self.blocks[block_id]
        block.ref_count -= 1
        if block.ref_count <= 0:
            self._lru[block_id] = None

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


def stable_chain(adapter: str, block: int, prompt) -> tuple[int, ...]:
    """The chained hashes of the prompt's full blocks, each its ``stable_u64`` definition."""
    chain_hash, hashes = 0, []
    for start in range(0, len(prompt) - block + 1, block):
        chain_hash = stable_u64("blk", chain_hash, adapter, *prompt[start : start + block])
        hashes.append(chain_hash)
    return tuple(hashes)


class BlockAtATimeCore(SimCore):
    """The core as it handled blocks before runs, over the dict manager; the six methods after
    ``__init__`` are verbatim but for ``_init_request`` deriving the prompt's block hashes and
    digests from their ``stable_u64`` definitions, and ``_emit`` logs each block's event as a run of one."""

    def __init__(self, config):
        super().__init__(config)
        self.blocks = BlockAtATimeManager(config.total_kv_blocks)

    def _advance_prefill(self, req, budget: int) -> int:
        cfg = self.config
        remaining = len(req.prompt) - req.prefill_pos
        chunk = min(cfg.chunked_prefill_limit, remaining, budget)
        if chunk <= 0:
            return budget
        end = req.prefill_pos + chunk
        chain0 = req.chains[0]
        pos = req.prefill_pos
        while pos < end:
            if chain0.fill == 0 and end - pos >= cfg.block_size_tokens:
                sealed = self._block_hash(req, chain0, len(chain0.blocks), req.prompt[pos : pos + cfg.block_size_tokens])
                if not self._allocate_block(req, chain0, sealed):
                    return 0  # preempted
                pos += cfg.block_size_tokens
            else:
                if not self._append_token(req, chain0, req.prompt[pos]):
                    return 0
                pos += 1
        req.prefill_pos = pos
        budget -= chunk
        if req.prefill_pos >= len(req.prompt):
            req.state = DECODE
            self._decode_step(req)  # first token lands on the prefill-completion tick
        return budget

    def _append_token(self, req, chain, token: int) -> bool:
        if chain.fill == 0 and not self._allocate_block(req, chain, None):
            return False
        chain.buffer.append(token)
        chain.fill += 1
        if chain.fill == self.config.block_size_tokens:
            sealed = self._block_hash(req, chain, len(chain.blocks) - 1, chain.buffer)
            self.blocks.seal(chain.blocks[-1], sealed)
            chain.hashes[-1] = sealed
            chain.chain_hash = sealed
            chain.fill = 0
            chain.buffer = []
        return True

    def _allocate_block(self, req, chain, sealed: int | None) -> bool:
        """Append a new block to the chain, sealed as ``sealed`` unless None; False if ``req`` was preempted."""
        block_id, victim = self.blocks.allocate(req.rid, req.adapter)
        if victim is not None:
            self._evictions_this_tick += 1
            self._emit("evict", victim.block_id, victim.content_hash, victim.owner_request_id, victim.adapter)
        if block_id is None:
            self._preempt(req)
            return False
        chain.blocks.append(block_id)
        chain.hashes.append(sealed)
        if sealed is not None:
            self.blocks.seal(block_id, sealed)
            chain.chain_hash = sealed
        self._emit("alloc", block_id, sealed, req.rid, req.adapter)
        return True

    def _init_request(self, req: SimRequest) -> None:
        cfg = self.config
        block = cfg.block_size_tokens
        req.chains = [_Chain() for _ in range(req.n_completions)]
        chain0 = req.chains[0]
        req.block_hashes = stable_chain(req.adapter, block, req.prompt)

        # Prefix-cache walk over full leading blocks of the prompt.  The final
        # prompt token is always computed, never served from cache, so at
        # least one prefill step remains for every admitted request.
        pos = 0
        contaminated_at: int | None = None
        contaminated_span: tuple[int, ...] | None = None
        while pos + block <= len(req.prompt) - 1:
            next_hash = self._block_hash(req, chain0, len(chain0.blocks), req.prompt[pos : pos + block])
            hit = self.blocks.lookup(next_hash)
            if hit is not None:
                self.blocks.pin(hit)
                chain0.blocks.append(hit)
                chain0.hashes.append(next_hash)
                chain0.chain_hash = next_hash
                pos += block
                self._emit("prefix_hit", hit, next_hash, req.rid, req.adapter)
                continue
            grabbed = self._maybe_stale_grab(req, len(chain0.blocks))
            if grabbed is not None:
                grab_block, grab_hash = grabbed
                self.blocks.pin(grab_block)
                chain0.blocks.append(grab_block)
                chain0.hashes.append(grab_hash)
                chain0.chain_hash = grab_hash if grab_hash is not None else next_hash
                req.contaminated = True
                contaminated_at = pos
                contaminated_span = tuple(
                    stable_u64("stale", self.config.seed, self.tick, len(self._admitted_this_tick), j)
                    % cfg.vocab_size
                    for j in range(block)
                )
                self._emit("reuse", grab_block, grab_hash, req.rid, req.adapter)
                pos += block
                continue
            break
        req.prefill_pos = pos

        if contaminated_span is not None:
            effective = req.prompt[:contaminated_at] + contaminated_span + req.prompt[contaminated_at + block :]
        for c in range(req.n_completions):
            digest = init_digest(cfg.seed, req.request_seed, req.adapter, c)
            if contaminated_span is None:
                req.digests.append(stable_u64("prompt", digest, *req.prompt))
            else:
                req.digests.append(stable_u64("prompt", digest, *effective))
            req.outputs.append([])
            req.records.append([])

    def _maybe_stale_grab(self, req: SimRequest, index: int):
        """Stale-KV fault: adopt a co-scheduled neighbour's block unverified."""
        f1 = self._f1
        if f1 is None or req.contaminated:
            return None
        if self.blocks.occupancy <= f1.occupancy_threshold or self._evictions_this_tick == 0:
            return None
        if index == 0:
            # The race needs an agreed-upon chain head; a root block is always
            # looked up against an empty chain and never grabbed.
            return None
        for trigger in self._admitted_this_tick:
            if trigger.rid == req.rid or not trigger.chains:
                continue
            table = trigger.chains[0]
            if len(table.blocks) <= index:
                continue
            mine = req.chains[0]
            if len(mine.blocks) < index or table.blocks[index - 1] != mine.blocks[index - 1]:
                continue
            if table.blocks[index] not in self.blocks.blocks:
                # A trigger that completed this tick keeps its table after a later run evicted the block.
                continue
            return table.blocks[index], table.hashes[index]
        return None

    def _release_blocks(self, req: SimRequest, teardown: bool) -> None:
        """Unpin every block the request's chains hold; teardown frees those it allocated and alone holds."""
        for chain in req.chains:
            for block_id in chain.blocks:
                block = self.blocks.blocks[block_id]
                if teardown and block.owner_request_id == req.rid and block.ref_count == 1:
                    self.blocks.drop(block_id)
                    self._emit("free", block_id, block.content_hash, req.rid, req.adapter)
                else:
                    self.blocks.unpin(block_id)

    def _emit(self, kind: str, block_id: int, block_hash, owner: str, adapter: str) -> None:
        """Log one block's event, as a run of one."""
        self.kv_log.append(KvRun.of(KvEvent(self.clock_ms, kind, block_id, block_hash, owner, adapter)))


class ProbedManager(BlockManager):
    """The run allocator, noting the run paths it takes into ``reached``."""

    reached: set

    def allocate_run(self, owner, adapter, hashes):
        read = []

        def reading():
            for content_hash in hashes:
                read.append(content_hash)
                yield content_hash

        ids, sealed, victims = run = super().allocate_run(owner, adapter, reading())
        if len(read) > len(ids) >= 1:
            self.reached.add("preempt inside a run")
        if len(read) > 1 and victims:
            self.reached.add("eviction inside a run")
        if len(ids) > len(victims) > 0:
            self.reached.add("run split across free and evicted blocks")
        first_evicting = len(ids) - len(victims)
        for k, (victim_hash, _) in enumerate(victims):
            if victim_hash in set(sealed[: first_evicting + k]):
                self.reached.add("victim hashed like an earlier block of its run")
        return run

    def adopt(self, hashes):
        ids, adopted = run = super().adopt(hashes)
        if len(ids) > 1:
            self.reached.add("prefix hits adopted as one run")
        return run


class RunCore(SimCore):
    """``SimCore`` with probes; every client call is repeated on ``twin``, a block-at-a-time core."""

    def __init__(self, config, reached: set):
        self.reached = reached
        self.twin = BlockAtATimeCore(config)
        super().__init__(config)
        self.blocks = ProbedManager(config.total_kv_blocks)
        self.blocks.reached = reached

    def reset(self) -> None:
        super().reset()
        self.twin.reset()

    def submit(self, *args, **kwargs):
        self.twin.submit(*args, **kwargs)
        return super().submit(*args, **kwargs)

    def cancel(self, rid: str, disconnect: bool = False) -> None:
        self.twin.cancel(rid, disconnect)
        super().cancel(rid, disconnect)

    def expire(self, rid: str) -> None:
        self.twin.expire(rid)
        super().expire(rid)

    def advance(self, clock_ms) -> None:
        self.twin.advance(clock_ms)
        super().advance(clock_ms)

    def _init_request(self, req) -> None:
        super()._init_request(req)
        if req.n_completions > 1:
            self.reached.add("n > 1")

    def _run_hashes(self, req, chain, pos, count):
        if req.contaminated:
            self.reached.add("run after a stale grab")
        return super()._run_hashes(req, chain, pos, count)

    def _advance_prefill(self, req, budget: int) -> int:
        budget = super()._advance_prefill(req, budget)
        if req.state == PREFILL and req.chains and req.chains[0].fill:
            self.reached.add("chunk ends mid-block")
        return budget


def state_of(core: SimCore) -> tuple:
    """Everything a client or an oracle can see of the core, and its block-manager state: each held
    block as a ``HeldBlock``, the free order, the LRU order and the hash index."""
    manager = core.blocks
    if isinstance(manager, BlockAtATimeManager):
        held = {block_id: HeldBlock(block.owner_request_id, block.adapter, block.content_hash, block.ref_count)
                for block_id, block in manager.blocks.items()}
        free = list(manager._free)
    else:
        held, free = held_blocks(manager), free_ids(manager)
    requests = [
        (rid, req.state, req.status, req.prefill_pos, req.contaminated, req.finished_ms,
         req.outputs, req.records, req.token_stamps, req.digests,
         [(chain.blocks, chain.hashes, chain.fill, chain.chain_hash) for chain in req.chains])
        for rid, req in core.requests.items()
    ]
    return (
        core.clock_ms, core.tick, core.crashed, core.crash_evidence, core._evictions_this_tick,
        core.kv_events, core.snapshots, requests,
        held, free, list(manager._lru), manager._hash_index,
    )


class RunMachine(BlockMachine):
    def new_core(self, config) -> SimCore:
        return RunCore(config, self.reached)

    @invariant()
    def cores_agree(self):
        assert state_of(self.core) == state_of(self.core.twin)


def run_arm(arm: str) -> set[str]:
    machine = type(f"RunMachine_{arm}", (RunMachine,), {"faults": ARMS[arm], "reached": set()})
    run_state_machine_as_test(machine, settings=ARM_BUDGET)
    return machine.reached


def test_runs_match_blocks_on_a_clean_engine():
    assert RUN_PATHS <= run_arm("clean")


def test_runs_match_blocks_under_stale_kv_reuse():
    assert RUN_PATHS | {"reuse", "run after a stale grab"} <= run_arm("f1")


def test_runs_match_blocks_through_adapter_drift_crashes():
    assert RUN_PATHS | {"crash"} <= run_arm("f3")


def test_a_run_may_evict_the_indexed_twin_of_its_own_block():
    # Three same-prefix requests on six blocks: a later run of the first
    # evicts the cached copy of a block it sealed earlier in the same run.
    machine = type("RunMachine_fixed", (RunMachine,), {"faults": (), "reached": set()})()
    machine.start(kv_blocks=6, prefill_limit=8)
    machine.burst(tag=2, prefix_len=12, adapter="lora_b", members=[(5, 3, 1), (1, 2, 2), (8, 1, 1)], then_ms=0)
    machine.cores_agree()
    machine.advance(ms=150)
    machine.cores_agree()
    machine.accounting_holds()
    assert "victim hashed like an earlier block of its run" in machine.reached


def test_an_evicting_tail_seals_each_block_before_its_next_eviction():
    # Every block of the second run evicts the LRU head; its first block is
    # hashed like the third victim, which is still indexed when the block is
    # sealed, so the index keeps the victim's id until that eviction drops it.
    manager = BlockManager(3)
    ids, _, _ = manager.allocate_run("old", "BASE", [10, 11, 12])
    manager.release(ids)
    ids, sealed, victims = manager.allocate_run("new", "BASE", [12, 13, 14])
    assert (ids, sealed) == ([0, 1, 2], [12, 13, 14])
    assert victims == [(10, ("old", "BASE")), (11, ("old", "BASE")), (12, ("old", "BASE"))]
    assert manager._hash_index == {13: 1, 14: 2}
    assert not manager._lru and not manager._free


def test_runs_match_blocks_at_benchmark_scale():
    # 4096-token prompts with eight completions on the default 2048-block
    # pool, as the benchmark's fillers run: six fill the pool with cached
    # blocks, a prompt sharing 3000 tokens with the first adopts its cached
    # prefix as one run and allocates from its first miss on, two more runs
    # split across the last free blocks and evicted ones, and a burst of
    # eight cannot fit and preempts inside runs.
    reached = set()
    core = RunCore(SimConfig(seed=3), reached)

    def submit(rid, prompt):
        assert core.submit(rid, prompt, "BASE", 20, 8, 0, None, core.clock_ms) is None
        assert state_of(core) == state_of(core.twin)

    def advance(ms):
        core.advance_to(core.clock_ms + ms)
        assert state_of(core) == state_of(core.twin)

    for k in range(6):
        submit(f"fill{k}", tokens(k, 4096))
    advance(60)
    submit("hit", tokens(0, 3000) + tokens(9, 1096))
    advance(40)
    submit("split0", tokens(10, 4096))
    submit("split1", tokens(11, 4096))
    advance(60)
    for k in range(8):
        submit(f"burst{k}", tokens(20 + k, 4096))
    advance(400)

    kinds = [event.kind for event in core.kv_events if event.owner_request_id == "hit"]
    assert kinds[:188] == ["prefix_hit"] * 187 + ["alloc"]
    assert all(req.status == "completed" for req in core.requests.values())
    assert {"prefix hits adopted as one run", "run split across free and evicted blocks",
            "eviction inside a run", "preempt inside a run"} <= reached


def test_the_prefix_hits_past_a_stale_grab_are_adopted_as_one_run():
    # T and R share blocks 0, 2 and 3 but not 1, and are admitted on a tick
    # that evicts: R hits block 0, grabs T's block 1, and then hashes its own
    # block 2 after T's block 1, which is T's block 2, so it hits twice more.
    config = SimConfig(block_size_tokens=4, total_kv_blocks=8, max_batch_tokens=24, chunked_prefill_limit=24,
                       adapters=("BASE",), near_tie_gap=0.05, seed=7, faults=ARMS["f1"])
    core = RunCore(config, set())

    def submit(rid, prompt):
        assert core.submit(rid, prompt, "BASE", 1, 1, 0, None, core.clock_ms) is None
        assert state_of(core) == state_of(core.twin)

    def advance(ms):
        core.advance_to(core.clock_ms + ms)
        assert state_of(core) == state_of(core.twin)

    submit("fill", tokens(5, 12))
    advance(100)
    submit("T", tokens(1, 4) + [9] * 4 + tokens(3, 8) + [1])
    submit("R", tokens(1, 4) + tokens(2, 4) + tokens(3, 8) + [2])
    advance(100)

    kinds = [event.kind for event in core.kv_events if event.owner_request_id == "R"]
    assert kinds[:5] == ["prefix_hit", "reuse", "prefix_hit", "prefix_hit", "alloc"]
    assert core.requests["R"].contaminated


class CutRunCore(SimCore):
    """Notes (blocks in the run, blocks allocated, "blk" hashes taken) of each stream-0 run after a
    stale grab that is preempted inside the run; ``hashed["blk"]`` counts the engine's block hashes."""

    def __init__(self, config, hashed: Counter):
        self.hashed = hashed
        self.cut_runs = []
        super().__init__(config)

    def _allocate_blocks(self, req, chain, hashes, count):
        if not (req.contaminated and chain is req.chains[0]):
            return super()._allocate_blocks(req, chain, hashes, count)
        hashed, held = self.hashed["blk"], len(chain.blocks)
        if super()._allocate_blocks(req, chain, hashes, count):
            return True
        if len(chain.blocks) > held:
            self.cut_runs.append((count, len(chain.blocks) - held, self.hashed["blk"] - hashed))
        return False


def test_a_run_cut_short_after_a_stale_grab_hashes_nothing_past_its_end(monkeypatch):
    hashed = Counter()

    def counting(*args):
        hashed["blk"] += 1
        return block_hash(*args)

    block_hash = engine.block_hash
    monkeypatch.setattr(engine, "block_hash", counting)
    machine = type("CutRunMachine", (BlockMachine,), {"faults": ARMS["f1"], "reached": set(),
                                                       "new_core": lambda self, config: CutRunCore(config, hashed)})()
    machine.start(kv_blocks=8, prefill_limit=24)
    # Found by searching random bursts: a contaminated request's prompt run is preempted after its first block.
    for prefix_len, members, then_ms in (
        (8, [(1, 6, 2), (5, 3, 2), (1, 4, 1), (1, 5, 2)], 2),
        (12, [(14, 3, 1), (4, 1, 2), (4, 5, 1), (12, 6, 2)], 4),
    ):
        machine.burst(tag=0, prefix_len=prefix_len, adapter="BASE", members=members, then_ms=then_ms)
    machine.advance(ms=150)
    machine.accounting_holds()

    cut_runs = machine.core.cut_runs
    assert any(count > allocated + 1 for count, allocated, _ in cut_runs), "no run was cut short before its last block"
    # Every block allocated was hashed, and so was the one nothing could be evicted for; none after it.
    assert all(hashes == allocated + 1 for _, allocated, hashes in cut_runs)


def test_a_stale_grab_never_adopts_a_block_evicted_on_the_same_tick():
    # Found by searching random bursts: trigger r2 completes on the tick it is
    # admitted and keeps its table [2, 5], r3's run evicts block 5, and r4,
    # which shares block 2, would then grab and pin the freed block 5.
    machine = type("StaleGrabMachine", (RunMachine,), {"faults": ARMS["f1"], "reached": set()})()
    machine.start(kv_blocks=8, prefill_limit=12)
    machine.burst(tag=0, prefix_len=8, adapter="lora_a", members=[(12, 6, 1), (6, 3, 2)], then_ms=7)
    machine.burst(tag=0, prefix_len=4, adapter="BASE", members=[(3, 1, 1), (4, 3, 2), (13, 4, 2)], then_ms=5)
    machine.advance(ms=150)
    machine.cores_agree()
    machine.accounting_holds()
    assert all(req.status == "completed" for req in machine.core.requests.values())


def test_a_run_makes_no_object_per_block():
    # With the collector off, len(gc.get_objects()) counts every container a call leaves alive.
    def growth(size: int) -> tuple[int, int]:
        manager = BlockManager(2 * size)
        kept = []
        before = len(gc.get_objects())
        kept.append(manager.allocate_run("r", "BASE", range(1000, 1000 + size)))
        allocated = len(gc.get_objects())
        manager.release(kept[0][0])
        kept.append(manager.allocate_run("s", "lora_a", range(2000, 2000 + size)))
        return allocated - before, len(gc.get_objects()) - allocated

    enabled = gc.isenabled()
    gc.disable()
    try:
        one, many = growth(1), growth(128)
    finally:
        if enabled:
            gc.enable()
    assert many == one
    assert max(one) <= 8


def test_a_reset_clears_the_pool_in_place():
    # New per-slot lists on every reset would each be scanned by the next young-generation collection.
    core = SimCore(SimConfig(block_size_tokens=4, total_kv_blocks=16, adapters=("BASE",)))
    assert core.submit("r", tokens(1, 30), "BASE", 4, 2, 0, None, 0) is None
    core.advance_to(20)
    assert core.submit("s", tokens(2, 30), "BASE", 8, 1, 0, None, 20) is None
    core.advance_to(22)
    core.cancel("s")  # frees the blocks only it held
    manager = core.blocks
    lists = manager.owner, manager.content_hash, manager.ref_count
    assert held_blocks(manager) and manager._free and manager._hash_index and manager._lru
    core.reset()
    assert core.blocks is manager
    assert all(a is b for a, b in zip(lists, (manager.owner, manager.content_hash, manager.ref_count)))
    assert held_blocks(manager) == {} and not manager._hash_index and not manager._lru
    assert free_ids(manager) == list(range(16))
