"""The simulator's paged-KV accounting, checked after every step of a state machine.

A Hypothesis ``RuleBasedStateMachine`` drives one ``SimCore`` through
submit, same-tick bursts of shared-prefix prompts, cancel, disconnect,
expire, advance and reset, on small pools: blocks of 4 tokens, 6 to 64 of
them.  After every rule ``check_invariants`` holds the core to its block
accounting, read from the pool's per-slot lists, and to its KV log: no run
lists a block twice, and the runs fold to the held blocks the per-block
events do.  Four arms run it: a clean
engine, and engines with stale KV reuse (F1), an engine stall (F2) and
adapter drift (F3) armed at low knobs.  F1 may break one rule only, the
stream-0 prompt hashes of the requests it contaminates; the accounting holds
under F1, through F2 stalls and through F3 crashes.  A core stops only
through ``_crash`` with the signature planted for a fault armed on it, so
only F3 crashes, and only F1 contaminates.  Each arm asserts that it reached
the KV paths the invariants speak about.
"""

from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule, run_state_machine_as_test

from tracefuzz.adapter import KvLedger, KvRun
from tracefuzz.hashing import stable_u64
from tracefuzz.simulator.config import FaultFamily, FaultSpec, SimConfig
from tracefuzz.simulator.engine import WAITING, SimCore

BLOCK = 4
ADAPTERS = ("BASE", "lora_a", "lora_b")
ABORTED = ("cancelled", "disconnected", "timeout")
ARMS = {
    "clean": (),
    "f1": (FaultSpec(FaultFamily.STALE_KV_REUSE, occupancy_threshold=0.3),),
    "f2": (FaultSpec(FaultFamily.ENGINE_STALL, n_completions_threshold=2, stall_ms=3),),
    "f3": (FaultSpec(FaultFamily.ADAPTER_DRIFT, occupancy_threshold=0.2, shape_mix_min=2,
                     adapter_mix_min=2, burst_min=2, crash_delay_ticks=2),),
}
# The crash signature each fault plants; a core with none of these armed never crashes.
PLANTED_CRASHES = {FaultFamily.ADAPTER_DRIFT: "running-adapters-not-subset-loaded"}
# What every arm must reach: each KV event kind the invariants account for, and preemption.
REACHED_BY_ALL = {"alloc", "evict", "free", "prefix_hit", "preempt"}
ARM_BUDGET = settings(max_examples=60, stateful_step_count=30, derandomize=True, database=None, deadline=None)


@lru_cache(maxsize=None)
def prompt_hashes(adapter: str, prompt: tuple[int, ...]) -> tuple[int, ...]:
    """The chained hashes of the prompt's full blocks, hashed directly, not read from the engine's memo."""
    chain_hash, hashes = 0, []
    for pos in range(0, len(prompt) - BLOCK + 1, BLOCK):
        chain_hash = stable_u64("blk", chain_hash, adapter, *prompt[pos : pos + BLOCK])
        hashes.append(chain_hash)
    return tuple(hashes)


class HeldBlock(NamedTuple):
    owner_request_id: str
    adapter: str
    content_hash: int | None
    ref_count: int


def held_blocks(manager) -> dict[int, HeldBlock]:
    """The pool's held slots, by block id."""
    return {
        block_id: HeldBlock(*owner, manager.content_hash[block_id], manager.ref_count[block_id])
        for block_id, owner in enumerate(manager.owner)
        if owner is not None
    }


def free_ids(manager) -> list[int]:
    """The pool's free ids, in the order it hands them out: those never allocated, then those freed."""
    return [*range(manager._unused, manager.total), *manager._free]


def check_invariants(core: SimCore) -> None:
    """Assert the core's block accounting and request queues."""
    manager = core.blocks
    live = held_blocks(manager)
    assert sorted([*live, *free_ids(manager)]) == list(range(manager.total)), "held and free must partition the pool"
    assert manager.occupancy == len(live) / manager.total, "occupancy must count the held blocks"
    for content_hash, block_id in manager._hash_index.items():
        assert block_id in live and live[block_id].content_hash == content_hash, "hash index names a stale block"
    assert set(manager._lru) == {bid for bid, block in live.items() if block.ref_count == 0}, "LRU != unpinned"

    unfinished = [req for req in core.requests.values() if not req.done]
    holders = Counter(bid for req in unfinished for bid in {bid for chain in req.chains for bid in chain.blocks})
    assert holders.keys() <= live.keys(), "an unfinished request holds a freed block"
    assert {bid: block.ref_count for bid, block in live.items()} == {bid: holders[bid] for bid in live}
    queued = [req.rid for req in core.waiting + core.running]
    assert sorted(queued) == sorted(req.rid for req in unfinished), "queues must hold exactly the unfinished requests"

    assert all(len(set(run.block_ids)) == len(run.block_ids) for run in core.kv_log), "a run lists a block twice"
    aborted = [rid for rid, req in core.requests.items() if req.status in ABORTED]
    if aborted:
        held = KvLedger.of(map(KvRun.of, core.kv_events)).held_blocks
        assert KvLedger.of(core.kv_log).held_blocks == held, "the fold over the runs must hold what the events do"
        for rid in aborted:
            assert not held.get(rid), f"{core.requests[rid].status} request {rid} still holds {sorted(held[rid])}"
    for req in core.requests.values():
        if req.chains and not req.contaminated:
            assert stream0_hashes_hold(req), f"request {req.rid} sealed prompt blocks under the wrong hashes"


def stream0_hashes_hold(req) -> bool:
    """Stream 0 carries the prompt's directly hashed chain; only the block being filled is unsealed."""
    expected = prompt_hashes(req.adapter, req.prompt)
    hashes = req.chains[0].hashes
    return all(
        block_hash == expected[index] or (block_hash is None and index == len(hashes) - 1)
        for index, block_hash in enumerate(hashes[: len(expected)])
    )


def tokens(tag: int, length: int) -> list[int]:
    return [(tag * 131 + i * 7 + 3) % 1024 for i in range(length)]


class BlockMachine(RuleBasedStateMachine):
    """One core under random client traffic; ``faults`` and ``reached`` are set per arm."""

    faults: tuple
    reached: set

    @initialize(kv_blocks=st.sampled_from((6, 8, 10, 16, 32, 64)), prefill_limit=st.sampled_from((8, 12, 24)))
    def start(self, kv_blocks, prefill_limit):
        config = SimConfig(
            block_size_tokens=BLOCK,
            total_kv_blocks=kv_blocks,
            max_batch_tokens=24,
            chunked_prefill_limit=prefill_limit,
            adapters=ADAPTERS,
            near_tie_gap=0.05,
            seed=7,
            faults=self.faults,
        )
        self.core = self.new_core(config)
        self.sent = 0

    def new_core(self, config: SimConfig) -> SimCore:
        return SimCore(config)

    def send(self, prefix: list[int], suffix_len: int, adapter: str, max_tokens: int, n: int) -> None:
        rid = f"r{self.sent}"
        prompt = prefix + tokens(self.sent + 3, suffix_len) or [7]
        self.core.submit(rid, prompt, adapter, max_tokens, n, self.sent % 3, None, self.core.clock_ms)
        self.sent += 1

    def advance_by(self, ms: int) -> None:
        self.core.advance_to(self.core.clock_ms + ms)

    @rule(
        tag=st.integers(0, 2),
        prefix_len=st.sampled_from((0, 8, 16)),
        suffix_len=st.integers(0, 14),
        adapter=st.sampled_from(ADAPTERS),
        max_tokens=st.integers(1, 6),
        n=st.integers(1, 3),
        then_ms=st.integers(0, 8),
    )
    def submit(self, tag, prefix_len, suffix_len, adapter, max_tokens, n, then_ms):
        self.send(tokens(tag, prefix_len), suffix_len, adapter, max_tokens, n)
        self.advance_by(then_ms)

    # F1 needs this: requests admitted on one tick that share leading blocks and differ after them.
    @rule(
        tag=st.integers(0, 2),
        prefix_len=st.sampled_from((4, 8, 12)),
        adapter=st.sampled_from(ADAPTERS),
        members=st.lists(st.tuples(st.integers(1, 14), st.integers(1, 6), st.integers(1, 2)), min_size=2, max_size=4),
        then_ms=st.integers(0, 8),
    )
    def burst(self, tag, prefix_len, adapter, members, then_ms):
        for suffix_len, max_tokens, n in members:
            self.send(tokens(tag, prefix_len), suffix_len, adapter, max_tokens, n)
        self.advance_by(then_ms)

    @precondition(lambda self: self.core.in_flight())
    @rule(kind=st.sampled_from(("cancel", "disconnect", "expire")), pick=st.integers(0, 20))
    def abort(self, kind, pick):
        in_flight = self.core.in_flight()
        rid = in_flight[pick % len(in_flight)].rid
        if kind == "expire":
            self.core.expire(rid)
        else:
            self.core.cancel(rid, disconnect=kind == "disconnect")

    @rule(ms=st.one_of(st.integers(1, 30), st.just(150)))
    def advance(self, ms):
        self.advance_by(ms)

    @precondition(lambda self: self.core.kv_events or self.core.crashed)
    @rule()
    def reset(self):
        self.note_reached()
        self.core.reset()

    def note_reached(self) -> None:
        core = self.core
        self.reached.update(event.kind for event in core.kv_events)
        # A preempted request waits again with its admitted_tick kept, and each
        # admission after its first counts once more.
        admitted = [req for req in core.requests.values() if req.admitted_tick is not None]
        if core.admission_counter > len(admitted) or any(req.state == WAITING for req in admitted):
            self.reached.add("preempt")
        if core.crashed:
            self.reached.add("crash")
        if core.clock_ms != core.tick * core.config.tick_ms:
            self.reached.add("stall")
        if any(req.contaminated and req.chains and not stream0_hashes_hold(req) for req in core.requests.values()):
            self.reached.add("contaminated prompt hashes")

    @invariant()
    def accounting_holds(self):
        core = self.core
        check_invariants(core)
        families = {fault.family for fault in self.faults}
        assert core.crashed == (core.crash_evidence is not None), "a core stops only through _crash"
        if core.crashed:
            planted = {PLANTED_CRASHES[family] for family in families & PLANTED_CRASHES.keys()}
            assert core.crash_evidence["signature"] in planted, f"unplanted crash {core.crash_evidence}"
        if FaultFamily.STALE_KV_REUSE not in families:
            assert not any(req.contaminated for req in core.requests.values())
        self.note_reached()


def run_arm(arm: str) -> set[str]:
    """Run the machine on one arm's engine; returns the paths it reached."""
    machine = type(f"BlockMachine_{arm}", (BlockMachine,), {"faults": ARMS[arm], "reached": set()})
    run_state_machine_as_test(machine, settings=ARM_BUDGET)
    return machine.reached


def test_clean_engine_keeps_its_block_accounting():
    assert REACHED_BY_ALL <= run_arm("clean")


def test_stale_kv_reuse_breaks_only_the_contaminated_prompt_hashes():
    assert REACHED_BY_ALL | {"reuse", "contaminated prompt hashes"} <= run_arm("f1")


def test_engine_stalls_keep_the_block_accounting():
    assert REACHED_BY_ALL | {"stall"} <= run_arm("f2")


def test_adapter_drift_crashes_keep_the_block_accounting():
    assert REACHED_BY_ALL | {"crash"} <= run_arm("f3")
