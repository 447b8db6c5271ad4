"""The prompt memos in ``SimCore`` against direct hashing.

``DirectCore`` keeps the memo-free ``_init_request`` verbatim and hashes
every block it seals directly, so its prefix walk, its runs of prefill
blocks, the blocks it seals token by token and its prompt digests bypass
both memos.  Random schedules
of submit, cancel and advance drive it and the memoized core alike and must
leave the same KV events, snapshots, outputs, logprob records and statuses.  The schedules reach F1 stale grabs
(contaminated requests), preemption with recompute (few KV blocks), prompt
blocks sealed token by token (a prefill chunk that ends mid-block), ``n > 1``
and one prompt under two adapters.
"""

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from tracefuzz.adapter import KvEvent, KvRun
from tracefuzz.hashing import stable_u64
from tracefuzz.simulator.config import FaultFamily, FaultSpec, SimConfig
from tracefuzz.simulator.decode import init_digest
from tracefuzz.simulator import engine
from tracefuzz.simulator.engine import PROMPT_MEMO_SIZE, SimCore, _Chain, _PromptMemo

F1 = (FaultSpec(FaultFamily.STALE_KV_REUSE, occupancy_threshold=0.3),)


class PerBlockLog:
    """``_emit``, with which the memo-free walk logs each block's event, as a run of one."""

    def _emit(self, kind: str, block_id: int, block_hash, owner: str, adapter: str) -> None:
        self.kv_log.append(KvRun.of(KvEvent(self.clock_ms, kind, block_id, block_hash, owner, adapter)))


class DirectCore(PerBlockLog, SimCore):
    """The core as it hashed before the memos: every block and digest hashed directly.

    ``_init_request`` is the memo-free version, verbatim but for reading the
    hash index directly where it called ``BlockManager.lookup``, now gone.
    """

    def _block_hash(self, req, chain, index, span) -> int:
        return stable_u64("blk", chain.chain_hash, req.adapter, *span)

    def _run_hashes(self, req, chain, pos, count):
        chain_hash, block = chain.chain_hash, self.config.block_size_tokens
        for start in range(pos, pos + count * block, block):
            chain_hash = stable_u64("blk", chain_hash, req.adapter, *req.prompt[start : start + block])
            yield chain_hash

    def _init_request(self, req) -> None:
        cfg = self.config
        block = cfg.block_size_tokens
        req.chains = [_Chain() for _ in range(req.n_completions)]
        chain0 = req.chains[0]

        chain_hash = 0
        pos = 0
        contaminated_at: int | None = None
        contaminated_span: tuple[int, ...] | None = None
        while pos + block <= len(req.prompt) - 1:
            span = req.prompt[pos : pos + block]
            next_hash = stable_u64("blk", chain_hash, req.adapter, *span)
            hit = self.blocks._hash_index.get(next_hash)
            if hit is not None:
                self.blocks.pin(hit)
                chain0.blocks.append(hit)
                chain0.hashes.append(next_hash)
                chain_hash = next_hash
                pos += block
                self._emit("prefix_hit", hit, next_hash, req.rid, req.adapter)
                continue
            grabbed = self._maybe_stale_grab(req, len(chain0.blocks))
            if grabbed is not None:
                grab_block, grab_hash = grabbed
                self.blocks.pin(grab_block)
                chain0.blocks.append(grab_block)
                chain0.hashes.append(grab_hash)
                chain_hash = grab_hash if grab_hash is not None else next_hash
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
        chain0.chain_hash = chain_hash
        req.prefill_pos = pos

        effective = list(req.prompt)
        if contaminated_span is not None:
            effective[contaminated_at : contaminated_at + block] = contaminated_span
        for c in range(req.n_completions):
            digest = init_digest(cfg.seed, req.request_seed, req.adapter, c)
            digest = stable_u64("prompt", digest, *effective)
            req.digests.append(digest)
            req.outputs.append([])
            req.records.append([])


class ProbedCore(SimCore):
    """The memoized core, counting the paths a schedule reaches."""

    def __init__(self, config):
        self.reached = Counter()
        super().__init__(config)

    def _init_request(self, req) -> None:
        super()._init_request(req)
        if req.contaminated:
            self.reached["stale grab"] += 1

    def _preempt(self, req) -> None:
        self.reached["preempt"] += 1
        super()._preempt(req)

    def _run_hashes(self, req, chain, pos, count):
        if req.contaminated:
            self.reached["prompt run after a grab"] += 1
        return super()._run_hashes(req, chain, pos, count)

    def _adopt(self, req, chain, hashes) -> None:
        if req.contaminated:
            self.reached["prefix walk after a grab"] += 1
        super()._adopt(req, chain, hashes)

    def _block_hash(self, req, chain, index, span) -> int:
        if chain.fill and chain is req.chains[0] and index < len(req.block_hashes):
            self.reached["prompt block sealed by token"] += 1
        return super()._block_hash(req, chain, index, span)


def prompt(tag: int, length: int) -> list[int]:
    return [(tag * 131 + i * 7 + 3) % 1024 for i in range(length)]


def config_for(kv_blocks: int, prefill_limit: int, f1: bool) -> SimConfig:
    return SimConfig(
        block_size_tokens=8,
        total_kv_blocks=kv_blocks,
        max_batch_tokens=64,
        chunked_prefill_limit=prefill_limit,
        near_tie_gap=0.05,
        seed=13,
        faults=F1 if f1 else (),
    )


def play(core: SimCore, schedule) -> list[str]:
    rids: list[str] = []
    for op in [*schedule, ("advance", 2_000)]:
        kind = op[0]
        if kind == "submit":
            for prefix_tag, prefix_len, suffix_tag, suffix_len, adapter, max_tokens, n, logprobs in op[1]:
                rid = f"r{len(rids)}"
                tokens = prompt(prefix_tag, prefix_len) + prompt(suffix_tag + 3, suffix_len) or [7]
                core.submit(rid, tokens, adapter, max_tokens, n, len(rids) % 3, logprobs, core.clock_ms)
                rids.append(rid)
        elif kind == "advance":
            core.advance_to(core.clock_ms + op[1])
        elif rids:
            core.cancel(rids[op[1] % len(rids)], disconnect=kind == "disconnect")
    return rids


def finished(core, rid):
    req = core.requests[rid]
    return req.status, req.finished_ms, req.outputs, req.records, req.token_stamps


request_plans = st.tuples(
    st.integers(0, 1),  # prefix tag: equal tags share their leading blocks
    st.sampled_from((0, 8, 16, 24)),  # prefix length
    st.integers(0, 2),  # suffix tag: few, so whole prompts recur
    st.sampled_from((0, 5, 13, 24)),  # suffix length
    st.sampled_from(("BASE", "lora_a")),
    st.integers(1, 5),  # max_tokens
    st.integers(1, 3),  # n_completions
    st.sampled_from((None, 2)),  # logprobs
)
# Requests arrive in groups at one instant, so they share admission ticks.
submits = st.tuples(st.just("submit"), st.lists(request_plans, min_size=1, max_size=4))
aborts = st.tuples(st.sampled_from(("cancel", "disconnect")), st.integers(0, 20))
advances = st.tuples(st.just("advance"), st.integers(0, 30))
schedules = st.lists(st.one_of(submits, aborts, advances), max_size=12)

# Fills the cache with one prompt family, then admits two requests that share
# its first block and differ after it: the second grabs the first's freshly
# sealed second block and seals the rest of its prompt after the grab.
STALE_GRAB = [
    ("submit", [(0, 24, 0, 24, "BASE", 2, 1, None)]),
    ("advance", 30),
    ("submit", [(1, 8, 1, 24, "BASE", 3, 2, 2), (1, 8, 2, 24, "BASE", 3, 1, None)]),
    ("advance", 30),
    ("submit", [(1, 8, 1, 24, "lora_a", 3, 1, None), (1, 8, 1, 24, "BASE", 2, 1, 2)]),
]
# Six 37-token prompts in a pool of ten blocks: requests preempt one another
# and are recomputed, and 20-token prefill chunks end mid-block.
PREEMPTION = [
    ("submit", [(0, 24, 1, 13, "BASE", 5, 2, 2), (0, 24, 2, 13, "lora_a", 5, 1, None),
                (1, 24, 1, 13, "BASE", 5, 3, None)]),
    ("advance", 3),
    ("submit", [(0, 24, 1, 13, "lora_a", 5, 1, 2), (1, 24, 2, 13, "BASE", 4, 1, None),
                (0, 24, 1, 13, "BASE", 4, 2, None)]),
]


@settings(max_examples=150, deadline=None)
@given(
    schedule=schedules,
    kv_blocks=st.sampled_from((10, 24, 64)),
    prefill_limit=st.sampled_from((12, 20, 64)),
    f1=st.booleans(),
)
@example(schedule=STALE_GRAB, kv_blocks=10, prefill_limit=64, f1=True)
@example(schedule=PREEMPTION, kv_blocks=10, prefill_limit=20, f1=False)
@example(schedule=PREEMPTION, kv_blocks=10, prefill_limit=20, f1=True)
def test_memoized_core_matches_direct_hashing(schedule, kv_blocks, prefill_limit, f1):
    config = config_for(kv_blocks, prefill_limit, f1)
    memoized, direct = SimCore(config), DirectCore(config)
    rids = play(memoized, schedule)
    assert play(direct, schedule) == rids
    assert memoized.kv_events == direct.kv_events
    assert memoized.snapshots == direct.snapshots
    assert [finished(memoized, r) for r in rids] == [finished(direct, r) for r in rids]


def test_every_override_names_a_simcore_method():
    # After a rename, an override would be dead code and DirectCore the memoized core itself.
    for core in (DirectCore, ProbedCore):
        overrides = [name for name, value in vars(core).items() if callable(value) and not name.startswith("__")]
        assert overrides and all(callable(getattr(SimCore, name, None)) for name in overrides), core


def test_the_examples_reach_every_path():
    grab = ProbedCore(config_for(10, 64, True))
    play(grab, STALE_GRAB)
    assert grab.reached["stale grab"] and grab.reached["prefix walk after a grab"]
    assert grab.reached["prompt run after a grab"]
    assert any(event.kind == "reuse" and event.block_hash is not None for event in grab.kv_events)
    preempt = ProbedCore(config_for(10, 20, False))
    play(preempt, PREEMPTION)
    assert preempt.reached["preempt"] and preempt.reached["prompt block sealed by token"]


def test_memo_is_keyed_by_adapter_and_block_size():
    tokens = tuple(prompt(5, 70))

    def direct(adapter, block_size):
        chain_hash, hashes = 0, []
        for pos in range(0, len(tokens) - block_size + 1, block_size):
            chain_hash = stable_u64("blk", chain_hash, adapter, *tokens[pos : pos + block_size])
            hashes.append(chain_hash)
        return tuple(hashes)

    # One memo serves one core, whose block size never changes: it keeps a chain per adapter.
    chains = {key: _PromptMemo(tokens).block_hashes(*key) for key in (("BASE", 8), ("BASE", 16), ("lora_a", 8))}
    assert len(set(chains.values())) == 3
    for (adapter, block_size), chain in chains.items():
        assert chain == direct(adapter, block_size)
        assert len(chain) == len(tokens) // block_size
    memo = _PromptMemo(tokens)
    assert [memo.block_hashes(adapter, 8) for adapter in ("BASE", "lora_a")] == [chains["BASE", 8], chains["lora_a", 8]]
    assert memo.digest(9) == stable_u64("prompt", 9, *tokens)
    assert memo.digest(10) != memo.digest(9)


def test_memos_stay_within_their_bound():
    tokens = tuple(prompt(3, 20))
    memo = _PromptMemo(tokens)
    for digest in range(PROMPT_MEMO_SIZE + 10):
        memo.digest(digest)
    assert len(memo._digests) == PROMPT_MEMO_SIZE
    assert list(memo._digests) == list(range(10, PROMPT_MEMO_SIZE + 10))  # the oldest were dropped first

    core = SimCore(config_for(64, 64, False))
    for i in range(PROMPT_MEMO_SIZE + 10):
        assert core.submit(f"r{i}", (i, *prompt(i, 20)), "BASE", 1, 1, i, None, core.clock_ms) is None
        core.advance_to(core.clock_ms + 20)
    assert len(core._prompt_memo) == PROMPT_MEMO_SIZE


def test_an_admission_encodes_its_prompt_once(monkeypatch):
    # A fresh core derives the block hashes and all eight digests from one
    # encoding of the prompt, and its memo keeps none once the admission ends.
    tokens = tuple(prompt(23, 2_100))
    encodings = []

    def counted(encoder):
        def wrapper(parts):
            if len(parts) > 16:  # longer than a block: an encoding for the prompt itself
                encodings.append(encoder.__name__)
            return encoder(parts)

        return wrapper

    monkeypatch.setattr(engine, "encode_ints", counted(engine.encode_ints))
    monkeypatch.setattr(engine, "encode_parts", counted(engine.encode_parts))
    core = SimCore(SimConfig(seed=13))
    assert core.submit("a", tokens, "BASE", 2, 8, 4, None, 0) is None
    core.advance_to(50)
    req = core.requests["a"]
    assert req.status == "completed" and len(req.digests) == 8
    assert encodings == ["encode_ints"]
    memo = core._prompt_memo[id(tokens)]
    assert memo.code is None

    chain_hash, hashes = 0, []
    for pos in range(0, len(tokens) - 15, 16):
        chain_hash = stable_u64("blk", chain_hash, "BASE", *tokens[pos : pos + 16])
        hashes.append(chain_hash)
    assert req.block_hashes == tuple(hashes)
    digests = [init_digest(13, 4, "BASE", c) for c in range(8)]
    assert list(map(memo.digest, digests)) == [stable_u64("prompt", digest, *tokens) for digest in digests]
    assert encodings == ["encode_ints"]  # the digests above were read back, not derived again

    core.reset()  # the memo is derived from the prompt alone, so a reset keeps it
    assert core.submit("b", tokens, "BASE", 2, 8, 4, None, 0) is None
    core.advance_to(50)
    assert core._prompt_memo[id(tokens)] is memo
    assert core.requests["b"].digests == req.digests and core.requests["b"].block_hashes == req.block_hashes
    assert encodings == ["encode_ints"]
