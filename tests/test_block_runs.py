"""Run allocation against block-at-a-time allocation.

``BlockAtATimeCore`` keeps the simulator as it allocated before prefill
blocks were allocated in runs: ``_advance_prefill``, ``_append_token`` and
``_allocate_block`` verbatim, over a block manager with the one-block
``allocate`` verbatim.  ``RunCore`` is ``SimCore`` with probes, and repeats
every client call on a block-at-a-time twin.  The rules of ``BlockMachine``
(tests/test_block_invariants.py) drive the pair through submit, same-tick
bursts, cancel, disconnect, expire, advance and reset, clean and with F1 and
F3 armed.  After every rule both cores must hold the same KV events,
snapshots, outputs, logprob records, statuses, eviction count, block tables
and block-manager state.  Each arm asserts the paths it reached: F1 stale
grabs and the runs hashed after them, preemption inside a run, prefill
chunks that end mid-block, ``n > 1`` and evictions inside a run.

One fixed schedule reaches what random schedules rarely do: a run evicts the
indexed twin of one of its own earlier blocks, so sealing every block of a run
after its evictions would leave a different hash index.
"""

from hypothesis.stateful import invariant, run_state_machine_as_test

from test_block_invariants import ARM_BUDGET, ARMS, BlockMachine
from tracefuzz.simulator.blocks import BlockManager, KvBlock
from tracefuzz.simulator.engine import DECODE, PREFILL, SimCore

# What every arm must reach, beyond the KV paths BlockMachine itself notes.
RUN_PATHS = {"eviction inside a run", "preempt inside a run", "chunk ends mid-block", "n > 1"}


class BlockAtATimeManager(BlockManager):
    """The block manager as it allocated one block per call."""

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

    def allocate_run(self, owner, adapter, hashes):
        raise AssertionError("the block-at-a-time core allocates one block per call")


class BlockAtATimeCore(SimCore):
    """The core as it allocated before runs; the three methods below are verbatim."""

    def reset(self) -> None:
        super().reset()
        self.blocks = BlockAtATimeManager(self.config.total_kv_blocks)

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


class ProbedManager(BlockManager):
    """The run allocator, noting the run paths it takes into ``reached``."""

    reached: set

    def allocate_run(self, owner, adapter, hashes):
        run = super().allocate_run(owner, adapter, hashes)
        if len(run) > 1:
            if run[-1] == (None, None):
                self.reached.add("preempt inside a run")
            if any(victim is not None for _, victim in run):
                self.reached.add("eviction inside a run")
        for p, (_, victim) in enumerate(run):
            if victim is not None and victim.content_hash in {block.content_hash for block, _ in run[:p]}:
                self.reached.add("victim hashed like an earlier block of its run")
        return run


class RunCore(SimCore):
    """``SimCore`` with probes; every client call is repeated on ``twin``, a block-at-a-time core."""

    def __init__(self, config, reached: set):
        self.reached = reached
        self.twin = BlockAtATimeCore(config)
        super().__init__(config)

    def reset(self) -> None:
        super().reset()
        self.blocks = ProbedManager(self.config.total_kv_blocks)
        self.blocks.reached = self.reached
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

    def advance_to(self, clock_ms) -> None:
        self.twin.advance_to(clock_ms)
        super().advance_to(clock_ms)

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
    """Everything a client or an oracle can see of the core, and its block-manager state."""
    manager = core.blocks
    requests = [
        (rid, req.state, req.status, req.prefill_pos, req.contaminated, req.finished_ms,
         req.outputs, req.records, req.token_stamps, req.digests,
         [(chain.blocks, chain.hashes, chain.fill, chain.chain_hash) for chain in req.chains])
        for rid, req in core.requests.items()
    ]
    return (
        core.clock_ms, core.tick, core.crashed, core.crash_evidence, core._evictions_this_tick,
        core.kv_events, core.snapshots, requests,
        manager.blocks, list(manager._free), list(manager._lru), manager._hash_index,
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
