"""Continuous-batching scheduler core with injectable serving faults.

Virtual time only: one step() call advances the clock by tick_ms (plus any
injected engine-loop descheduling), and advance_to() skips idle stretches in
one move.  All state transitions are pure functions of the submission
sequence and the config, so identical schedules replay bit-identically.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

from ..adapter import KvEvent
from ..hashing import chain_digest, stable_u64
from .blocks import BlockManager
from .config import FaultFamily, FaultSpec, SimConfig
from .decode import init_digest, pseudo_decode

WAITING = "waiting"
PREFILL = "prefill"
DECODE = "decode"
DONE = "done"

# Condition bits for the adapter-drift fault, in spec order.
COND_OCCUPANCY = 1
COND_SHAPE_MIX = 2
COND_ADAPTER_MIX = 4
COND_LOAD_BURST = 8
ALL_CONDITIONS = COND_OCCUPANCY | COND_SHAPE_MIX | COND_ADAPTER_MIX | COND_LOAD_BURST

# Engines with F3 unarmed still record the condition mask, at the default knobs.
_UNARMED_F3 = FaultSpec(FaultFamily.ADAPTER_DRIFT)

# Distinct keys kept by each prompt memo below; a campaign step sees a few
# dozen.  The prompts they hold are mostly the very tuples
# trace.PROMPT_CACHE_SIZE already keeps.
PROMPT_MEMO_SIZE = 128


@lru_cache(maxsize=PROMPT_MEMO_SIZE)
def prompt_block_hashes(adapter: str, block_size: int, prompt: tuple[int, ...]) -> tuple[int, ...]:
    """The chained hashes of the prompt's full blocks, as stream 0 seals them.

    They depend on nothing else until a stale grab contaminates the chain, so
    every admission of the prompt under this adapter and block size shares them.
    """
    chain_hash = 0
    hashes = []
    for pos in range(0, len(prompt) - block_size + 1, block_size):
        chain_hash = stable_u64("blk", chain_hash, adapter, *prompt[pos : pos + block_size])
        hashes.append(chain_hash)
    return tuple(hashes)


@lru_cache(maxsize=PROMPT_MEMO_SIZE)
def prompt_digest(digest: int, prompt: tuple[int, ...]) -> int:
    """A completion's context digest after an uncontaminated prompt."""
    return stable_u64("prompt", digest, *prompt)


@dataclass
class _Chain:
    """One stream's KV block chain (stream 0 carries the prompt blocks)."""

    blocks: list[int] = field(default_factory=list)
    hashes: list = field(default_factory=list)
    fill: int = 0
    buffer: list[int] = field(default_factory=list)
    chain_hash: int = 0


@dataclass
class SimRequest:
    rid: str
    prompt: tuple[int, ...]
    adapter: str
    max_tokens: int
    n_completions: int
    request_seed: int
    logprobs: int | None
    submitted_ms: int
    salt: int
    block_hashes: tuple[int, ...] = ()  # prompt_block_hashes, looked up at admission
    state: str = WAITING
    prefill_pos: int = 0
    admitted_tick: int | None = None
    first_token_ms: int | None = None
    finished_ms: int | None = None
    status: str | None = None
    contaminated: bool = False
    chains: list[_Chain] = field(default_factory=list)
    digests: list[int] = field(default_factory=list)
    outputs: list[list[int]] = field(default_factory=list)
    records: list[list] = field(default_factory=list)
    token_stamps: list[int] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.state == DONE


class SimCore:
    """The engine, and the in-process endpoint handle the execution adapter drives."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.canonical_decode = False
        self._f1 = config.fault(FaultFamily.STALE_KV_REUSE)
        self._f2 = config.fault(FaultFamily.ENGINE_STALL)
        self._f3 = config.fault(FaultFamily.ADAPTER_DRIFT)
        self.reset()

    def reset(self) -> None:
        """Restore a fresh engine in place, crashed or not; the decode mode is kept."""
        self.clock_ms = 0
        self.tick = 0
        self.blocks = BlockManager(self.config.total_kv_blocks)
        self.waiting: list[SimRequest] = []
        self.running: list[SimRequest] = []
        self.requests: dict[str, SimRequest] = {}
        self.loaded_adapters: set[str] = {"BASE"}
        self.loading: dict[str, int] = {}  # adapter -> ready tick
        self.running_adapters: set[str] = set()
        self.kv_events: list[KvEvent] = []
        self.snapshots: dict[str, list] = {}
        self.crashed = False
        self.crash_evidence: dict | None = None
        self.admission_counter = 0
        self.f3_observed_masks: set[int] = set()
        self._drift_adapter: str | None = None
        self._drift_fire_tick: int | None = None
        self._submit_log: dict[str, deque] = {}
        self._evictions_this_tick = 0
        self._admitted_this_tick: list[SimRequest] = []

    # ------------------------------------------------------------------
    # Client surface

    def submit(
        self,
        rid: str,
        prompt,
        adapter: str,
        max_tokens: int,
        n_completions: int,
        request_seed: int | None,
        logprobs: int | None,
        dispatched_ms: int,
    ) -> str | None:
        """Queue a request; returns an error string for rejects, else None."""
        if self.crashed:
            return "engine down"
        if rid in self.requests:
            return f"duplicate request id {rid!r}"
        if adapter not in self.config.adapters:
            return f"unknown adapter {adapter!r}"
        prompt = tuple(prompt)
        n_completions = max(1, n_completions)
        # Stream 0 holds the prompt and its decode tokens, every other stream
        # its decode tokens.  A request that cannot fit an empty pool would be
        # preempted and re-admitted forever.
        block = self.config.block_size_tokens
        needed = -(-(len(prompt) + max_tokens) // block) + (n_completions - 1) * -(-max_tokens // block)
        if needed > self.config.total_kv_blocks:
            return f"request needs {needed} KV blocks, the pool holds {self.config.total_kv_blocks}"
        req = SimRequest(
            rid=rid,
            prompt=prompt,
            adapter=adapter,
            max_tokens=max_tokens,
            n_completions=n_completions,
            request_seed=request_seed if request_seed is not None else 0,
            logprobs=logprobs,
            submitted_ms=dispatched_ms,
            salt=0,
        )
        self.requests[rid] = req
        self.waiting.append(req)
        log = self._submit_log.setdefault(adapter, deque(maxlen=256))
        log.append(dispatched_ms)
        return None

    def cancel(self, rid: str, disconnect: bool = False) -> None:
        req = self.requests.get(rid)
        if req is None or req.done:
            return
        self._finish(req, "disconnected" if disconnect else "cancelled", teardown=True)

    def expire(self, rid: str) -> None:
        """Harness-side deadline: abort the request and mark it timed out."""
        req = self.requests.get(rid)
        if req is None or req.done:
            return
        self._finish(req, "timeout", teardown=True)

    def in_flight(self) -> list[SimRequest]:
        return self.waiting + self.running

    # ------------------------------------------------------------------
    # Tick loop

    def advance_to(self, clock_ms) -> None:
        """Run ticks until the clock reaches ``clock_ms`` or the engine crashes.

        While nothing is waiting, running or loading and no drift crash is
        pending, a tick can stall, load, admit or emit nothing and leaves the
        engine idle, so every later tick repeats its drift mask and invariant
        check.  Such an idle stretch steps its first tick and jumps the rest.
        A non-int clock or tick keeps stepping: repeated float additions are
        not one multiplication.
        """
        tick_ms = self.config.tick_ms
        while self.clock_ms < clock_ms and not self.crashed:
            idle = not (self.waiting or self.running or self.loading) and self._drift_fire_tick is None
            self.step()
            exact = type(self.clock_ms) is int and type(tick_ms) is int
            if idle and exact and not self.crashed and self.clock_ms < clock_ms:
                ticks = -((self.clock_ms - math.ceil(clock_ms)) // tick_ms)
                self.clock_ms += ticks * tick_ms
                self.tick += ticks

    def step(self) -> None:
        if self.crashed:
            return
        cfg = self.config
        if self._f2 is not None and any(
            r.n_completions >= self._f2.n_completions_threshold for r in self.in_flight()
        ):
            # Engine loop descheduled: wall time passes, no request progresses.
            self.clock_ms += self._f2.stall_ms
        self.clock_ms += cfg.tick_ms
        self.tick += 1
        self._evictions_this_tick = 0
        self._admitted_this_tick = []

        for adapter in [a for a, ready in self.loading.items() if self.tick >= ready]:
            del self.loading[adapter]
            self.loaded_adapters.add(adapter)

        self._evaluate_drift_conditions()
        if self._drift_fire_tick is not None and self.tick >= self._drift_fire_tick:
            self._crash(
                "running-adapters-not-subset-loaded",
                f"assertion failed: running adapter set must be a subset of loaded adapters "
                f"(adapter {self._drift_adapter!r} scheduled while load in flight)",
            )
            return

        budget = cfg.max_batch_tokens
        budget = self._decode_phase(budget)
        budget = self._prefill_phase(budget)
        self._admission_phase(budget)
        self.running_adapters = {r.adapter for r in self.running}
        self._check_scheduler_invariants()

    # ------------------------------------------------------------------
    # Fault machinery

    def _evaluate_drift_conditions(self) -> None:
        inflight = self.in_flight()
        mask = 0
        burst_adapter = None
        knobs = self._f3 or _UNARMED_F3
        if self.blocks.occupancy > knobs.occupancy_threshold:
            mask |= COND_OCCUPANCY
        lens = {len(r.prompt) for r in inflight}
        if len(lens) >= knobs.shape_mix_min and lens and max(lens) > self.config.chunked_prefill_limit:
            mask |= COND_SHAPE_MIX
        if len({r.adapter for r in inflight}) >= knobs.adapter_mix_min:
            mask |= COND_ADAPTER_MIX
        for adapter in sorted(self.loading):
            log = self._submit_log.get(adapter)
            if not log:
                continue
            recent = [t for t in log if t >= self.clock_ms - knobs.burst_window_ms]
            if len(recent) >= knobs.burst_min:
                mask |= COND_LOAD_BURST
                burst_adapter = adapter
                break
        self.f3_observed_masks.add(mask)
        if self._f3 is not None and mask == ALL_CONDITIONS and self._drift_fire_tick is None:
            self._drift_adapter = burst_adapter
            self._drift_fire_tick = self.tick + self._f3.crash_delay_ticks

    def _crash(self, signature: str, message: str) -> None:
        self.crashed = True
        self.crash_evidence = {"signature": signature, "message": message, "tick": self.tick, "clock_ms": self.clock_ms}

    def _check_scheduler_invariants(self) -> None:
        if self._drift_fire_tick is not None:
            return  # drift window: the buggy path has disabled its own check
        loras = {r.adapter for r in self.running if r.adapter != "BASE"}
        if not self.running_adapters <= self.loaded_adapters or len(loras) > self.config.max_loras_per_batch:
            self._crash("scheduler-invariant", "internal scheduler invariant violated outside a drift window")

    # ------------------------------------------------------------------
    # Phases

    def _decode_phase(self, budget: int) -> int:
        for req in list(self.running):
            if req.state != DECODE:
                continue
            cost = req.n_completions
            if budget < cost:
                continue
            budget -= cost
            self._decode_step(req)
        return budget

    def _prefill_phase(self, budget: int) -> int:
        for req in list(self.running):
            if req.state != PREFILL:
                continue
            budget = self._advance_prefill(req, budget)
        return budget

    def _admission_phase(self, budget: int) -> None:
        for req in list(self.waiting):
            if self.crashed:
                return
            if budget <= 0:
                break
            adapter = req.adapter
            if adapter not in self.loaded_adapters:
                drift_bypass = self._drift_fire_tick is not None and adapter == self._drift_adapter
                if not drift_bypass:
                    if adapter not in self.loading:
                        self.loading[adapter] = self.tick + self.config.adapter_load_ticks
                    continue
            loras = {r.adapter for r in self.running if r.adapter != "BASE"}
            if adapter != "BASE":
                loras.add(adapter)
            if len(loras) > self.config.max_loras_per_batch:
                continue
            self.waiting.remove(req)
            self.running.append(req)
            req.state = PREFILL
            req.admitted_tick = self.tick
            req.salt = 0 if self.canonical_decode else self.admission_counter + 1
            self.admission_counter += 1
            self._admitted_this_tick.append(req)
            self._init_request(req)
            budget = self._advance_prefill(req, budget)

    # ------------------------------------------------------------------
    # Request lifecycle internals

    def _init_request(self, req: SimRequest) -> None:
        cfg = self.config
        block = cfg.block_size_tokens
        req.chains = [_Chain() for _ in range(req.n_completions)]
        chain0 = req.chains[0]
        req.block_hashes = prompt_block_hashes(req.adapter, block, req.prompt)

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
                self.blocks.pin(hit, self.tick)
                chain0.blocks.append(hit)
                chain0.hashes.append(next_hash)
                chain0.chain_hash = next_hash
                pos += block
                self._emit("prefix_hit", hit, next_hash, req.rid, req.adapter)
                continue
            grabbed = self._maybe_stale_grab(req, len(chain0.blocks))
            if grabbed is not None:
                grab_block, grab_hash = grabbed
                self.blocks.pin(grab_block, self.tick)
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
                req.digests.append(prompt_digest(digest, req.prompt))
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
            return table.blocks[index], table.hashes[index]
        return None

    def _advance_prefill(self, req: SimRequest, budget: int) -> int:
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

    def _decode_step(self, req: SimRequest) -> None:
        cfg = self.config
        near_tie = cfg.near_tie_gap
        for c in range(req.n_completions):
            position = len(req.outputs[c])
            flip = False
            if near_tie is not None and req.salt != 0:
                flip = stable_u64("flip", req.digests[c], position, req.salt) % 2 == 1
            width = max(req.logprobs or 0, 2)
            token, ladder = pseudo_decode(
                req.digests[c], position, cfg.vocab_size, width, cfg.logprob_spread, near_tie, flip
            )
            req.outputs[c].append(token)
            if req.logprobs:
                req.records[c].append(ladder[: req.logprobs])
            req.digests[c] = chain_digest(req.digests[c], token)
            chain = req.chains[c]
            if not self._append_token(req, chain, token):
                return  # preempted mid-step; recomputation is deterministic
            if c == 0:
                req.token_stamps.append(self.clock_ms)
                if req.first_token_ms is None:
                    req.first_token_ms = self.clock_ms
        if all(len(out) >= req.max_tokens for out in req.outputs):
            self._finish(req, "completed", teardown=False)

    def _append_token(self, req: SimRequest, chain: _Chain, token: int) -> bool:
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

    def _allocate_block(self, req: SimRequest, chain: _Chain, sealed: int | None) -> bool:
        """Append a new block to the chain, sealed as ``sealed`` unless None; False if ``req`` was preempted."""
        block_id, victim = self.blocks.allocate(req.rid, req.adapter, self.tick)
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

    def _block_hash(self, req: SimRequest, chain: _Chain, index: int, span) -> int:
        """The sealed hash of ``span`` as block ``index`` of the chain, after ``chain.chain_hash``.

        A prompt block of an uncontaminated stream 0 reads the memoized chain;
        after a stale grab the chain continues from the grabbed hash, and
        other streams hold decode tokens, so those hash directly.
        """
        if index < len(req.block_hashes) and not req.contaminated and chain is req.chains[0]:
            return req.block_hashes[index]
        return stable_u64("blk", chain.chain_hash, req.adapter, *span)

    def _preempt(self, req: SimRequest) -> None:
        """KV exhaustion: drop this request's state and requeue it for recompute."""
        self._release_blocks(req, teardown=True)
        req.chains = []
        req.digests = []
        req.outputs = []
        req.records = []
        req.prefill_pos = 0
        req.contaminated = False
        req.state = WAITING
        self.running.remove(req)
        self.waiting.insert(0, req)

    def _release_blocks(self, req: SimRequest, teardown: bool) -> None:
        """Unpin every block the request's chains hold; teardown frees those it allocated and alone holds."""
        for chain in req.chains:
            for block_id in chain.blocks:
                block = self.blocks.blocks[block_id]
                if teardown and block.owner_request_id == req.rid and block.ref_count == 1:
                    self.blocks.drop(block_id)
                    self._emit("free", block_id, block.content_hash, req.rid, req.adapter)
                else:
                    self.blocks.unpin(block_id, self.tick)

    def _finish(self, req: SimRequest, status: str, teardown: bool) -> None:
        if req.chains:
            self.snapshots[req.rid] = [[bid, h] for bid, h in zip(req.chains[0].blocks, req.chains[0].hashes)]
        else:
            self.snapshots[req.rid] = []
        self._release_blocks(req, teardown)
        req.state = DONE
        req.status = status
        req.finished_ms = self.clock_ms
        if req in self.waiting:
            self.waiting.remove(req)
        if req in self.running:
            self.running.remove(req)

    def _emit(self, kind: str, block_id: int, block_hash, owner: str, adapter: str) -> None:
        self.kv_events.append(
            KvEvent(ts_ms=self.clock_ms, kind=kind, block_id=block_id, block_hash=block_hash, owner_request_id=owner, adapter=adapter)
        )
