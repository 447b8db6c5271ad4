"""Continuous-batching scheduler core with injectable serving faults.

Virtual time only: one step() call advances the clock by tick_ms (plus any
injected engine-loop descheduling).  advance() runs the next tick, or the
quiet stretch that starts there in one move: ticks in which every running
request only decodes, with nothing waiting or loading, no block opened or
sealed and no request finishing.  Each completion then reads its next
tokens from the decode memo as one slice, and an idle stretch is the case
with nothing running.  advance_to() and the adapter's drain both advance a
stretch at a time.  All state transitions are pure functions of the
submission sequence and the config, so identical schedules replay
bit-identically.

The determinism contract: what a core reports for an execution from a fresh
state depends only on its config, the trace, the corpus seed, the decode
mode and the request timeout.  The memos below change what a run costs,
never what it reports, and a SimCore subclass must keep it that way.  The
in-process transport (adapter._execute_virtual) leans on it.  A core keeps,
in ``last_run``, the inputs and report of the last execution that started
on it while ``fresh``: tick 0, no request, not crashed and no run owed.  On
a fresh core the same trace object with the same corpus seed, decode mode
and timeout is served a copy of that report, and the engine does not run.
The served run leaves the core at reset and owes its state
(``last_run.owed``): the next execution without a reset() in between first
runs it for real and drops its report, so it starts from the state the run
would have left.  reset() drops what is owed and keeps the last run.

Decode steps are memoized per core.  A completion's stream is fixed by its
context digest after the prompt (a stale grab's contaminated digest
included), its salt and its logprobs; vocabulary, spread and tie gap come
from the frozen config, and without a tie gap the salt is never read, so it
keys as 0.  Each stream keeps its (token, record, next digest) per position,
so a mutant, a stage-2 replay or a minimize candidate that admits the same
stream again reads its steps back instead of hashing them.  At most
DECODE_MEMO_STREAMS streams are kept, the least recently admitted dropped
first, and at most DECODE_MEMO_POSITIONS positions each; later tokens, and
streams asking for more than DECODE_MEMO_LOGPROBS logprobs, decode directly.
What the memo lacks decodes as one run per stretch (decode.decode_run),
which hashes only what the stream reads: each position's first candidate
and next context digest; its flip only with a tie gap and a non-zero salt;
the runner-up and later candidates only when the flip fires or logprobs are
asked for; and the top logprob only when they are.  A tick's decode step
reads a memoized position directly.
The memo is derived from the config and pure inputs alone, so reset() keeps
it.  It lives on the core, not in a module cache, because its entries grow
in place while a request decodes: cores serving in parallel must not share
them, and a core's own users are already serialized (SimHttpServer.lock).

An admission looks its prompt up once in a per-core memo keyed by the
prompt object, which keeps the prompt's block hashes per adapter and its
digest per completion's initial digest, derived from one encoding of the
prompt that the admission drops at its end.  So a re-admitted or replayed
prompt, the same tuple from trace's prompt cache, is neither hashed as a
dict key nor encoded again.

KV blocks are handled a run at a time.  A prefill chunk's full prompt blocks
are allocated as one run; a run of one block, which every decode block is,
takes a direct path that builds no lists.  An admission adopts the cached
blocks of its prompt's leading hashes as one run, up to the first miss, and
after a stale grab the blocks past it the same way; a completed request
releases each chain as one run.  Every entry of the KV log, ``kv_log``, is a
KvRun: an alloc run with the blocks its evicting tail evicted, a prefix-hit
run, a teardown's frees, and a stale grab's reuse as a run of one.  The log's
per-block view, ``kv_events``, puts each eviction before the allocation it
makes room for; each read expands the whole log.  The pool (blocks.py)
holds a block as one slot of per-field lists indexed by its id, so a
teardown and a stale grab's liveness test read a block's owner and ref count
from those lists.  A core keeps one pool, and reset() clears it in place.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import islice

from ..adapter import ExecutionReport, KvEvent, KvRun, kv_events_of
from ..hashing import INT_WIDTH, encode, encode_int, encode_ints, encode_parts, stable_u64, u64
from .blocks import BlockManager
from .config import FaultFamily, FaultSpec, SimConfig
from .decode import decode_run, init_digest

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

# Prompts kept by each core's prompt memo, and digests by each prompt's
# memo; a campaign step sees a few dozen.  The prompts they hold are mostly
# the very tuples trace.PROMPT_CACHE_SIZE already keeps.
PROMPT_MEMO_SIZE = 128
# Streams, positions per stream and logprobs per position kept by each
# core's decode memo.  The mutation palettes ask for at most 32 tokens and 5 logprobs.
DECODE_MEMO_STREAMS = 256
DECODE_MEMO_POSITIONS = 64
DECODE_MEMO_LOGPROBS = 8

_NEW = tuple.__new__  # a log entry built without a Python-level __new__ call
_BLK, _PROMPT = encode("blk"), encode("prompt")


def block_hash(chain_hash: int, adapter_code: bytes, span_code: bytes) -> int:
    """The sealed hash of a full block after ``chain_hash``: ``stable_u64("blk", chain_hash, adapter, *span)``,
    from the encodings of the adapter and of the span's tokens."""
    return u64(_BLK + encode_int(chain_hash) + adapter_code + span_code)


def chained_hashes(chain_hash: int, adapter: str, block_size: int, prompt, pos: int, count: int):
    """Lazily, the sealed hashes of ``count`` full blocks of ``prompt`` from ``pos`` on, after ``chain_hash``.

    Each block is encoded as it is hashed, so a run that stops at a miss encodes no block past it.
    """
    adapter_code = encode(adapter)
    for start in range(pos, pos + count * block_size, block_size):
        chain_hash = block_hash(chain_hash, adapter_code, encode_parts(prompt[start : start + block_size]))
        yield chain_hash


class _PromptMemo:
    """What admissions derive from one prompt object on one core: its block hashes by adapter and its
    digest by a completion's initial digest.

    Looked up by the prompt's id, once per admission, so no admission hashes
    the prompt tuple to find them.  The memo holds the prompt, so its id names
    no other object while the memo is kept.  What an admission lacks is
    derived from one encoding of the whole prompt (``encode_ints``), made at
    its first miss and dropped when the admission ends, so a kept memo holds
    no encoding: each full block hashes its slice of it, and each digest all
    of it behind the digest's header.
    """

    __slots__ = ("prompt", "code", "_block_hashes", "_digests")

    def __init__(self, prompt: tuple[int, ...]):
        self.prompt = prompt
        self.code: bytes | None = None  # encode_ints of the prompt while an admission derives from it
        self._block_hashes: dict[str, tuple[int, ...]] = {}
        self._digests: dict[int, int] = {}  # at most PROMPT_MEMO_SIZE, the oldest dropped first

    def encoding(self) -> bytes | None:
        """The admission's encode_ints of the prompt, made on first use."""
        if self.code is None:
            self.code = encode_ints(self.prompt)
        return self.code

    def block_hashes(self, adapter: str, block_size: int) -> tuple[int, ...]:
        """The chained hashes of the prompt's full blocks under ``adapter``; a core's block size never changes."""
        hashes = self._block_hashes.get(adapter)
        if hashes is None:
            code, count = self.encoding(), len(self.prompt) // block_size
            if code is None:  # some token is no int, so blocks differ in encoded length: encode each alone
                hashes = tuple(chained_hashes(0, adapter, block_size, self.prompt, 0, count))
            else:
                adapter_code, width = encode(adapter), block_size * INT_WIDTH
                chain_hash, hashes = 0, []
                for start in range(0, count * width, width):
                    chain_hash = block_hash(chain_hash, adapter_code, code[start : start + width])
                    hashes.append(chain_hash)
                hashes = tuple(hashes)
            self._block_hashes[adapter] = hashes
        return hashes

    def digest(self, digest: int) -> int:
        """The context digest after the prompt and ``digest``: ``stable_u64("prompt", digest, *prompt)``."""
        digests = self._digests
        value = digests.get(digest)
        if value is None:
            if len(digests) >= PROMPT_MEMO_SIZE:
                del digests[next(iter(digests))]
            # Fed in two parts, so no copy of the encoding is made; encode_parts when some token is no int.
            h = hashlib.blake2b(_PROMPT + encode_int(digest), digest_size=8)
            h.update(self.encoding() or encode_parts(self.prompt))
            value = digests[digest] = int.from_bytes(h.digest(), "little")
        return value


@dataclass
class _Chain:
    """One stream's KV block chain (stream 0 carries the prompt blocks)."""

    blocks: list[int] = field(default_factory=list)
    hashes: list = field(default_factory=list)
    fill: int = 0
    buffer: list[int] = field(default_factory=list)
    chain_hash: int = 0


@dataclass(slots=True)
class LastRun:
    """The last execution the adapter started on a fresh core: its inputs (trace, corpus seed, canonical
    decode, request timeout) and its report, and whether a served copy of it left the core owing its state."""

    inputs: tuple | None = None
    report: ExecutionReport | None = None
    owed: bool = False


@dataclass(eq=False)  # compared by identity: waiting.remove(req) takes this request, comparing no fields
class SimRequest:
    rid: str
    prompt: tuple[int, ...]
    adapter: str
    max_tokens: int
    n_completions: int
    request_seed: int
    logprobs: int | None
    salt: int
    block_hashes: tuple[int, ...] = ()  # the prompt memo's block hashes, looked up at admission
    state: str = WAITING
    prefill_pos: int = 0
    admitted_tick: int | None = None
    finished_ms: int | None = None
    status: str | None = None
    contaminated: bool = False
    chains: list[_Chain] = field(default_factory=list)
    digests: list[int] = field(default_factory=list)
    outputs: list[list[int]] = field(default_factory=list)
    records: list[list] = field(default_factory=list)
    steps: list[list] = field(default_factory=list)  # each stream's decode memo entry, looked up at position 0
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
        self._decode_memo: dict[tuple, list] = {}
        self._prompt_memo: dict[int, _PromptMemo] = {}  # by id(prompt)
        self.blocks = BlockManager(config.total_kv_blocks)
        # The kept run and its owed flag share one attribute: CPython 3.11 keeps at most 29 of a class's
        # instance attributes inline, SimCore has 27, and a 30th moves every core's attributes into a
        # dict, which slowed short-near-tie by about 3 %.
        self.last_run = LastRun()
        self.reset()

    def reset(self) -> None:
        """Restore a fresh engine in place, crashed or not; the decode mode, the decode memo and the last
        run are kept, an owed run is dropped, and the KV pool is cleared in place."""
        self.last_run.owed = False
        self.clock_ms = 0
        self.tick = 0
        self.blocks.clear()
        self.waiting: list[SimRequest] = []
        self.running: list[SimRequest] = []
        self.requests: dict[str, SimRequest] = {}
        self.loaded_adapters: set[str] = {"BASE"}
        self.loading: dict[str, int] = {}  # adapter -> ready tick
        self.kv_log: list[KvRun] = []
        self.snapshots: dict[str, list] = {}
        self.crashed = False
        self.crash_evidence: dict | None = None
        self.admission_counter = 0
        self.f3_observed_masks: set[int] = set()  # filled only with F3 armed
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
        if not prompt:
            # Prefill computes at least the final prompt token.
            return "empty prompt"
        if max_tokens < 1:
            return f"max_tokens must be at least 1, got {max_tokens}"
        if n_completions < 1:
            return f"n must be at least 1, got {n_completions}"
        if logprobs is not None and logprobs < 0:
            return f"logprobs must not be negative, got {logprobs}"
        # Stream 0 holds the prompt and its decode tokens, every other stream
        # its decode tokens.  A request that cannot fit an empty pool would be
        # preempted and re-admitted forever.
        block = self.config.block_size_tokens
        needed = -(-(len(prompt) + max_tokens) // block) + (n_completions - 1) * -(-max_tokens // block)
        if needed > self.config.total_kv_blocks:
            return f"request needs {needed} KV blocks, the pool holds {self.config.total_kv_blocks}"
        # Decoding draws that many distinct candidate tokens per step.
        if (logprobs or 0) > self.config.vocab_size:
            return f"logprobs {logprobs} exceeds the vocabulary of {self.config.vocab_size} tokens"
        req = SimRequest(
            rid=rid,
            prompt=prompt,
            adapter=adapter,
            max_tokens=max_tokens,
            n_completions=n_completions,
            request_seed=request_seed if request_seed is not None else 0,
            logprobs=logprobs,
            salt=0,
        )
        self.requests[rid] = req
        self.waiting.append(req)
        if self._f3 is not None:
            self._submit_log.setdefault(adapter, deque(maxlen=256)).append(dispatched_ms)
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

    @property
    def fresh(self) -> bool:
        """Whether the core is as reset() leaves it: tick 0, no request, not crashed and no run owed."""
        return not self.tick and not self.requests and not self.crashed and not self.last_run.owed

    @property
    def kv_events(self) -> list[KvEvent]:
        """The log's per-block events; each read expands the whole log."""
        return kv_events_of(self.kv_log)

    # ------------------------------------------------------------------
    # Tick loop

    def advance_to(self, clock_ms) -> None:
        """Run ticks until the clock reaches ``clock_ms`` or the engine crashes, each quiet stretch in one move."""
        while self.clock_ms < clock_ms and not self.crashed:
            self.advance(clock_ms)

    def advance(self, clock_ms) -> None:
        """Run the next tick, or the quiet stretch that starts here up to the first tick that reaches ``clock_ms``.

        A quiet tick only decodes: nothing is waiting or loading, no drift
        crash is pending, the scheduler invariant holds, and each running
        request decodes a token per completion within the batch budget, opens
        and seals no block and does not reach max_tokens.  Over such a stretch
        the in-flight set, the stall, the pool and so the drift mask stay as
        they are, so every tick repeats the first one's stall, mask and
        invariant check, and each completion's tokens are the next slice of
        its stream.  An idle stretch is the case with nothing running.  A
        non-int clock or tick keeps stepping: repeated float additions are not
        one multiplication.
        """
        ticks = self._quiet_ticks(clock_ms)
        if ticks > 0:
            self._run_quiet(ticks)
        else:
            self.step()

    def step(self) -> None:
        if self.crashed:
            return
        cfg = self.config
        if self._f2 is not None:
            self.clock_ms += self._stall_ms()
        self.clock_ms += cfg.tick_ms
        self.tick += 1
        self._evictions_this_tick = 0
        self._admitted_this_tick = []

        if self.loading:
            for adapter in [a for a, ready in self.loading.items() if self.tick >= ready]:
                del self.loading[adapter]
                self.loaded_adapters.add(adapter)

        if self._f3 is not None:
            self._evaluate_drift_conditions(self._f3)
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
        if self.waiting:
            self._admission_phase(budget)
        # In a drift window the buggy path has disabled its own check.
        if self._drift_fire_tick is None and not self._invariant_holds():
            self._crash("scheduler-invariant", "internal scheduler invariant violated outside a drift window")

    def _quiet_ticks(self, clock_ms) -> int:
        """How many ticks from here are quiet, up to the first that reaches ``clock_ms``; at most 0 if the next is not."""
        if self.waiting or self.loading or self._drift_fire_tick is not None:
            return 0
        cfg = self.config
        last = cfg.block_size_tokens - 1  # a token at this fill seals the block
        ticks, cost = math.inf, 0
        for req in self.running:
            if req.state != DECODE:
                return 0
            cost += req.n_completions
            ticks = min(ticks, req.max_tokens - 1 - len(req.outputs[0]))
            for chain in req.chains:
                if not chain.fill:  # the next token opens a block
                    return 0
                ticks = min(ticks, last - chain.fill)
        tick_ms = cfg.tick_ms + self._stall_ms()
        if ticks <= 0 or cost > cfg.max_batch_tokens or type(self.clock_ms) is not int or type(tick_ms) is not int:
            return 0
        return min(ticks, -((self.clock_ms - math.ceil(clock_ms)) // tick_ms)) if self._invariant_holds() else 0

    def _run_quiet(self, ticks: int) -> None:
        """Run ``ticks`` quiet ticks in one move, leaving the state that as many step() calls would leave."""
        tick_ms = self.config.tick_ms + self._stall_ms()
        if self._f3 is not None:
            self._evaluate_drift_conditions(self._f3)  # with nothing loading, the mask cannot fire
        start = self.clock_ms
        self.clock_ms += ticks * tick_ms
        self.tick += ticks
        self._evictions_this_tick = 0
        self._admitted_this_tick = []
        if not self.running:
            return
        stamps = list(range(start + tick_ms, self.clock_ms + 1, tick_ms))  # one int per tick, shared by every request
        for req in self.running:
            stamped = len(req.token_stamps) - len(req.outputs[0])  # a recompute re-decodes stamped positions
            for c in range(req.n_completions):
                tokens, records, digests = zip(*self._next_steps(req, c, ticks))
                req.outputs[c] += tokens
                if req.logprobs:
                    req.records[c] += records
                req.digests[c] = digests[-1]
                chain = req.chains[c]
                chain.buffer += tokens
                chain.fill += ticks
            req.token_stamps += stamps[stamped:] if stamped > 0 else stamps

    # ------------------------------------------------------------------
    # Fault machinery

    def _stall_ms(self) -> int:
        """The engine-stall fault's descheduling before the next tick: while a wide request is in flight, wall
        time passes and no request progresses."""
        f2 = self._f2
        if f2 is not None and any(r.n_completions >= f2.n_completions_threshold for r in self.in_flight()):
            return f2.stall_ms
        return 0

    def _evaluate_drift_conditions(self, knobs: FaultSpec) -> None:
        inflight = self.in_flight()
        mask = 0
        burst_adapter = None
        if self.blocks.occupancy > knobs.occupancy_threshold:
            mask |= COND_OCCUPANCY
        lens = {len(r.prompt) for r in inflight}
        if len(lens) >= knobs.shape_mix_min and lens and max(lens) > self.config.chunked_prefill_limit:
            mask |= COND_SHAPE_MIX
        if len({r.adapter for r in inflight}) >= knobs.adapter_mix_min:
            mask |= COND_ADAPTER_MIX
        for adapter in sorted(self.loading):
            # An adapter starts loading only for a waiting request, whose submit logged it.
            recent = [t for t in self._submit_log[adapter] if t >= self.clock_ms - knobs.burst_window_ms]
            if len(recent) >= knobs.burst_min:
                mask |= COND_LOAD_BURST
                burst_adapter = adapter
                break
        self.f3_observed_masks.add(mask)
        if mask == ALL_CONDITIONS and self._drift_fire_tick is None:
            self._drift_adapter = burst_adapter
            self._drift_fire_tick = self.tick + knobs.crash_delay_ticks

    def _crash(self, signature: str, message: str) -> None:
        self.crashed = True
        self.crash_evidence = {"signature": signature, "message": message, "tick": self.tick, "clock_ms": self.clock_ms}

    def _invariant_holds(self) -> bool:
        running_adapters = {r.adapter for r in self.running}
        loras = running_adapters - {"BASE"}
        return running_adapters <= self.loaded_adapters and len(loras) <= self.config.max_loras_per_batch

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
        memo = self._prompt_memo_of(req.prompt)
        req.block_hashes = memo.block_hashes(req.adapter, block)

        # Prefix-cache walk over full leading blocks of the prompt.  The final
        # prompt token is always computed, never served from cache, so at
        # least one prefill step remains for every admitted request.  Up to
        # the first miss the hits are adopted as one run.
        limit = (len(req.prompt) - 1) // block
        self._adopt(req, chain0, islice(req.block_hashes, limit))
        pos = len(chain0.blocks) * block
        effective = None  # the prompt as a stale grab leaves it
        grabbed = self._maybe_stale_grab(req, len(chain0.blocks)) if len(chain0.blocks) < limit else None
        if grabbed is not None:
            grab_block, grab_hash = grabbed
            self.blocks.pin(grab_block)
            chain0.chain_hash = grab_hash if grab_hash is not None else req.block_hashes[len(chain0.blocks)]
            chain0.blocks.append(grab_block)
            chain0.hashes.append(grab_hash)
            req.contaminated = True
            contaminated_span = tuple(
                stable_u64("stale", self.config.seed, self.tick, len(self._admitted_this_tick), j) % cfg.vocab_size
                for j in range(block)
            )
            effective = req.prompt[:pos] + contaminated_span + req.prompt[pos + block :]
            self.kv_log.append(_NEW(KvRun, (self.clock_ms, "reuse", (grab_block,), (grab_hash,), req.rid, req.adapter, ())))
            pos += block
            # The grab changes every later hash: they are hashed one at a time, up to the first miss.
            count = limit - len(chain0.blocks)
            self._adopt(req, chain0, chained_hashes(chain0.chain_hash, req.adapter, block, req.prompt, pos, count))
            pos = len(chain0.blocks) * block
        req.prefill_pos = pos

        for c in range(req.n_completions):
            digest = init_digest(cfg.seed, req.request_seed, req.adapter, c)
            if effective is None:
                req.digests.append(memo.digest(digest))
            else:
                req.digests.append(stable_u64("prompt", digest, *effective))
            req.outputs.append([])
            req.records.append([])
        memo.code = None

    def _prompt_memo_of(self, prompt: tuple[int, ...]) -> _PromptMemo:
        """The core's memo of ``prompt``; when PROMPT_MEMO_SIZE prompts are kept, the least recently
        admitted one is dropped first."""
        memos = self._prompt_memo
        memo = memos.pop(id(prompt), None)
        if memo is None:
            if len(memos) >= PROMPT_MEMO_SIZE:
                del memos[next(iter(memos))]
            memo = _PromptMemo(prompt)
        memos[id(prompt)] = memo
        return memo

    def _adopt(self, req: SimRequest, chain: _Chain, hashes) -> None:
        """Append the cached blocks of the leading ``hashes`` to the chain as one run, up to the first miss."""
        ids, adopted = self.blocks.adopt(hashes)
        if ids:
            chain.blocks += ids
            chain.hashes += adopted
            chain.chain_hash = adopted[-1]
            self.kv_log.append(_NEW(KvRun, (self.clock_ms, "prefix_hit", ids, adopted, req.rid, req.adapter, ())))

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
            if self.blocks.owner[table.blocks[index]] is None:
                # A trigger that completed this tick keeps its table after a later run evicted the block.
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
                count = (end - pos) // cfg.block_size_tokens  # every full block left in the chunk, in one run
                if not self._allocate_blocks(req, chain0, self._run_hashes(req, chain0, pos, count), count):
                    return 0  # preempted
                pos += count * cfg.block_size_tokens
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
        for c in range(req.n_completions):
            steps = self._stream(req, c)
            position = len(req.outputs[c])
            if position < len(steps):
                token, record, req.digests[c] = steps[position]
            else:
                token, record, req.digests[c] = self._decode(req, steps, req.digests[c], position, 1)[0]
            req.outputs[c].append(token)
            if record is not None:
                req.records[c].append(record)
            chain = req.chains[c]
            if not self._append_token(req, chain, token):
                return  # preempted mid-step; recomputation is deterministic
            # A recompute after a preemption re-decodes positions already stamped.
            if c == 0 and len(req.outputs[0]) > len(req.token_stamps):
                req.token_stamps.append(self.clock_ms)
        if all(len(out) >= req.max_tokens for out in req.outputs):
            self._finish(req, "completed", teardown=False)

    def _next_steps(self, req: SimRequest, c: int, count: int) -> list:
        """Completion ``c``'s next ``count`` decode steps, each (token, record, digest after it).

        What the stream's memo entry holds is read as one slice, and the steps
        past it decode as one run.
        """
        steps = self._stream(req, c)
        position = len(req.outputs[c])
        got = steps[position : position + count]
        if len(got) < count:
            digest = got[-1][2] if got else req.digests[c]
            got += self._decode(req, steps, digest, position + len(got), count - len(got))
        return got

    def _decode(self, req: SimRequest, steps: list, digest: int, position: int, count: int) -> list:
        """``count`` steps decoded as one run after ``digest`` from ``position`` on, past the end of the
        stream's memo entry ``steps``; those below DECODE_MEMO_POSITIONS are memoized."""
        cfg = self.config
        decoded = decode_run(digest, position, count, req.salt, cfg.vocab_size, cfg.logprob_spread,
                             cfg.near_tie_gap, req.logprobs)
        if position < DECODE_MEMO_POSITIONS:
            steps += decoded[: DECODE_MEMO_POSITIONS - position]
        return decoded

    def _stream(self, req: SimRequest, c: int) -> list:
        """Completion ``c``'s memo entry, looked up before its first token."""
        if not req.outputs[c]:
            req.steps.append(self._stream_steps(req, c))
        return req.steps[c]

    def _stream_steps(self, req: SimRequest, c: int) -> list:
        """The memo entry of completion ``c``'s stream, read before its first token; new ones start empty.

        The memo drops its least recently admitted stream when full.  A stream
        asking for more logprobs than DECODE_MEMO_LOGPROBS gets a list only the
        request holds: its records would outweigh the rest of the memo.
        """
        if (req.logprobs or 0) > DECODE_MEMO_LOGPROBS:
            return []
        key = (req.digests[c], req.salt if self.config.near_tie_gap is not None else 0, req.logprobs)
        memo = self._decode_memo
        steps = memo.pop(key, None)
        if steps is None:
            if len(memo) >= DECODE_MEMO_STREAMS:
                del memo[next(iter(memo))]
            steps = []
        memo[key] = steps
        return steps

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

    def _allocate_block(self, req: SimRequest, chain: _Chain, content_hash: int | None) -> bool:
        """Append one new block to the chain, sealed under ``content_hash`` unless None; False if
        ``req`` was preempted.  The block is logged as an alloc run of one, with the block it evicted."""
        allocated = self.blocks.allocate((req.rid, req.adapter), content_hash)
        if allocated is None:
            self._preempt(req)
            return False
        block_id, victim = allocated
        evicted = ()
        if victim is not None:
            self._evictions_this_tick += 1
            evicted = (victim,)
        self.kv_log.append(_NEW(KvRun, (self.clock_ms, "alloc", (block_id,), (content_hash,), req.rid, req.adapter, evicted)))
        chain.blocks.append(block_id)
        chain.hashes.append(content_hash)
        if content_hash is not None:
            chain.chain_hash = content_hash
        return True

    def _allocate_blocks(self, req: SimRequest, chain: _Chain, hashes, count: int) -> bool:
        """Append ``count`` new blocks to the chain, sealed under ``hashes``, as one run, logged as one KvRun.

        False if ``req`` was preempted.  A run of one block, as most are, takes the one-block path.
        """
        if count == 1:
            return self._allocate_block(req, chain, next(iter(hashes)))
        ids, sealed, victims = self.blocks.allocate_run(req.rid, req.adapter, hashes)
        if ids:
            chain.blocks += ids
            chain.hashes += sealed
            # The free blocks come first; each of the last len(victims) blocks evicted the block of its id.
            self.kv_log.append(_NEW(KvRun, (self.clock_ms, "alloc", ids, sealed, req.rid, req.adapter, victims)))
            self._evictions_this_tick += len(victims)
        if len(ids) < count:
            self._preempt(req)
            return False
        chain.chain_hash = sealed[-1]
        return True

    def _run_hashes(self, req: SimRequest, chain: _Chain, pos: int, count: int):
        """The sealed hashes of stream 0's ``count`` full prompt blocks from ``pos`` on: the memoized
        chain's, or after a stale grab hashed lazily, so a run that falls short hashes no block past it."""
        if not req.contaminated:
            index = len(chain.blocks)
            return req.block_hashes[index : index + count]
        return chained_hashes(chain.chain_hash, req.adapter, self.config.block_size_tokens, req.prompt, pos, count)

    def _block_hash(self, req: SimRequest, chain: _Chain, index: int, span) -> int:
        """The sealed hash of ``span`` as block ``index`` of the chain, after ``chain.chain_hash``.

        A prompt block of an uncontaminated stream 0 reads the memoized chain;
        after a stale grab the chain continues from the grabbed hash, and
        other streams hold decode tokens, so those hash directly.
        """
        if index < len(req.block_hashes) and not req.contaminated and chain is req.chains[0]:
            return req.block_hashes[index]
        return block_hash(chain.chain_hash, encode(req.adapter), encode_parts(span))

    def _preempt(self, req: SimRequest) -> None:
        """KV exhaustion: drop this request's state and requeue it for recompute."""
        self._release_blocks(req, teardown=True)
        req.chains = []
        req.digests = []
        req.outputs = []
        req.records = []
        req.steps = []
        req.prefill_pos = 0
        req.contaminated = False
        req.state = WAITING
        self.running.remove(req)
        self.waiting.insert(0, req)

    def _release_blocks(self, req: SimRequest, teardown: bool) -> None:
        """Unpin every block the request's chains hold, each chain as one run.

        Teardown goes block by block: it frees the blocks the request allocated and alone holds,
        logged as one free run in the order they were freed.
        """
        manager = self.blocks
        if not teardown:
            for chain in req.chains:
                manager.release(chain.blocks)
            return
        owner, ref_count = manager.owner, manager.ref_count
        freed, freed_hashes = [], []
        for chain in req.chains:
            for block_id in chain.blocks:
                if ref_count[block_id] == 1 and owner[block_id][0] == req.rid:
                    freed.append(block_id)
                    freed_hashes.append(manager.drop(block_id)[0])
                else:
                    manager.release((block_id,))
        if freed:
            self.kv_log.append(_NEW(KvRun, (self.clock_ms, "free", freed, freed_hashes, req.rid, req.adapter, ())))

    def _finish(self, req: SimRequest, status: str, teardown: bool) -> None:
        # Built once and shared by every report that holds it; nothing mutates a snapshot.
        self.snapshots[req.rid] = list(zip(req.chains[0].blocks, req.chains[0].hashes)) if req.chains else []
        self._release_blocks(req, teardown)
        req.state = DONE
        req.status = status
        req.finished_ms = self.clock_ms
        if req in self.waiting:
            self.waiting.remove(req)
        if req in self.running:
            self.running.remove(req)
