"""Execution adapter: dispatches a timed trace against a serving endpoint.

Two transports share one report shape: an in-process simulator driven in
virtual time (bit-exact, used by campaigns and acceptance runs) and a
wall-clock HTTP client for OpenAI-style completion endpoints.

A report's KV state is a log of KvRun entries on both transports: in-process
the trace's slice of the simulator's log, over HTTP the engine's per-block
stream read as runs of one.  The ledger folds the runs; the per-block events
are built from them only when something reads them.
"""

from __future__ import annotations

import json
import logging
import queue
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, islice, repeat
from typing import NamedTuple

from .trace import (DEFAULT_VOCAB_SIZE, EventKind, RequestSpec, TimedTrace, group_key, parse_prompt, prompt_for,
                    render_prompt, token_word, word_token)

LOG = logging.getLogger(__name__)

# A wall-clock dispatch later than this marks the report's schedule degraded.
SCHEDULE_TOLERANCE_MS = 5

KV_EVENT_KINDS = ("alloc", "free", "prefix_hit", "evict", "reuse")
KV_RELEASE_KINDS = ("free", "evict")
KV_ADOPTION_KINDS = ("prefix_hit", "reuse")
# The JSON types each KvEvent field may take; an absent block_hash is None.
_KV_FIELD_TYPES = {"ts_ms": {int}, "kind": {str}, "block_id": {int}, "block_hash": {int, type(None)},
                   "owner_request_id": {str}, "adapter": {str}}


class EndpointUnavailable(RuntimeError):
    """The endpoint refused service before the trace could be dispatched."""


class UnsupportedOperation(RuntimeError):
    """The endpoint does not implement the requested control surface."""


class EngineKind(str, Enum):
    SIMULATOR = "simulator"
    OPENAI = "generic-openai-compatible"


class KvEvent(NamedTuple):
    ts_ms: int
    kind: str
    block_id: int
    block_hash: int | None
    owner_request_id: str
    adapter: str

    def to_json_line(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True)

    @staticmethod
    def from_json_line(line: str) -> "KvEvent":
        """One event of an engine's stream; ValueError for a line that is not one."""
        doc = json.loads(line)
        if not isinstance(doc, dict) or any(type(doc.get(name)) not in types for name, types in _KV_FIELD_TYPES.items()):
            raise ValueError(f"not a kv event: {line!r}")
        if doc["kind"] not in KV_EVENT_KINDS:
            raise ValueError(f"unknown kv event kind {doc['kind']!r}")
        return KvEvent._make(doc.get(name) for name in KvEvent._fields)


# A run's events are built as tuple.__new__(KvEvent, fields) over the run:
# real KvEvent instances, without a Python-level __new__ call per block.
_NEW = tuple.__new__
_KV_EVENT = repeat(KvEvent)


class KvRun(NamedTuple):
    """One KV log entry: a run of blocks that one request allocated, adopted or released at one time.

    ``kind`` is one of KV_EVENT_KINDS, and the run holds at least one block
    and no block twice; each block reads as the event (ts_ms, kind, its id,
    its hash, owner, adapter).  ``evicted`` is empty but on an "alloc" run,
    where it holds, for the last ``len(evicted)`` blocks, the (hash, (owner,
    adapter)) of the block each one evicted; its id is the id of the block
    allocated in its place.  The sequences are never changed once logged.
    """

    ts_ms: int
    kind: str
    block_ids: list | tuple
    block_hashes: list | tuple
    owner_request_id: str
    adapter: str
    evicted: list | tuple

    @staticmethod
    def of(event: KvEvent) -> "KvRun":
        """The run of one that holds ``event``."""
        ts, kind, block, block_hash, owner, adapter = event
        return KvRun(ts, kind, (block,), (block_hash,), owner, adapter, ())

    def events(self) -> list[KvEvent]:
        """The run's per-block events, each eviction before the allocation it makes room for."""
        ts, kind, ids, hashes, owner, adapter, evicted = self
        if len(ids) == 1:  # most runs: built directly, without the iterators a longer run pays for
            event = _NEW(KvEvent, (ts, kind, ids[0], hashes[0], owner, adapter))
            if not evicted:
                return [event]
            ((victim_hash, (victim_owner, victim_adapter)),) = evicted
            return [_NEW(KvEvent, (ts, "evict", ids[0], victim_hash, victim_owner, victim_adapter)), event]
        events = map(_NEW, _KV_EVENT, zip(repeat(ts), repeat(kind), ids, hashes, repeat(owner), repeat(adapter)))
        if not evicted:
            return list(events)
        expanded = list(islice(events, len(ids) - len(evicted)))
        for (victim_hash, (victim_owner, victim_adapter)), alloc in zip(evicted, events):
            expanded.append(_NEW(KvEvent, (ts, "evict", alloc.block_id, victim_hash, victim_owner, victim_adapter)))
            expanded.append(alloc)
        return expanded


def kv_events_of(log) -> list[KvEvent]:
    """The per-block events of a KV log, in order."""
    return list(chain.from_iterable(map(KvRun.events, log)))


@dataclass(frozen=True)
class KvLedger:
    """What telemetry, novelty and the KV oracles read off one KV log.

    Built by one fold over the log's runs, and the held blocks, which only the
    leak check reads, by a second on first read.  Both give what a walk of
    the per-block events would: a run's blocks are distinct, so each is held
    or released alone; a run of n >= 2 blocks adds its kind to the kind
    sequence twice, which leaves its kinds and bigrams as they were; and an
    evicting tail adds (evict, alloc) for up to two of its blocks.  An alloc
    over a block that is still live leaves both allocators holding it; a
    release drops every holder; an adoption by a request other than the
    block's latest allocator makes the block shared cache property, which no
    allocator holds any more.
    """

    peak_held: int  # high-water mark of allocs minus releases
    kinds: frozenset
    bigrams: frozenset  # (kind, next kind) pairs in stream order
    alloc_counts: Counter  # stamp -> blocks allocated at it, stamps in the order the log first gives them
    cross_adapter: tuple  # (alloc event, adopting event) pairs whose adapters differ
    log: tuple = field(repr=False)

    @staticmethod
    def of(log) -> "KvLedger":
        log = tuple(log)
        held = peak = 0
        kinds: list[str] = []
        alloc_counts: Counter = Counter()
        latest_alloc: dict = {}  # block -> the run of its most recent alloc, until released
        cross_adapter = []
        for run in log:
            ts, kind, ids, hashes, owner, adapter, evicted = run
            if kind == "alloc":
                fresh = len(ids) - len(evicted)  # an evicting block releases one and allocates one
                if fresh:
                    kinds.append(kind)
                    if fresh > 1:
                        kinds.append(kind)
                if evicted:
                    kinds += ("evict", kind) * min(len(evicted), 2)
                held += fresh
                if held > peak:
                    peak = held
                alloc_counts[ts] += len(ids)
                for block in ids:
                    latest_alloc[block] = run
                continue
            kinds.append(kind)
            if len(ids) > 1:
                kinds.append(kind)
            if kind in KV_RELEASE_KINDS:
                held -= len(ids)
                for block in ids:
                    latest_alloc.pop(block, None)
            elif kind in KV_ADOPTION_KINDS:
                for block, block_hash in zip(ids, hashes):
                    alloc = latest_alloc.get(block)
                    if alloc is not None and alloc.adapter != adapter:
                        alloc_hash = alloc.block_hashes[alloc.block_ids.index(block)]
                        alloc_event = KvEvent(alloc.ts_ms, "alloc", block, alloc_hash, alloc.owner_request_id, alloc.adapter)
                        cross_adapter.append((alloc_event, KvEvent(ts, kind, block, block_hash, owner, adapter)))
        return KvLedger(
            peak_held=peak,
            kinds=frozenset(kinds),
            bigrams=frozenset(zip(kinds, kinds[1:])),
            alloc_counts=alloc_counts,
            cross_adapter=tuple(cross_adapter),
            log=log,
        )

    @cached_property
    def held_blocks(self) -> dict:
        """Allocator -> frozenset of the block ids it still holds, folded from the log's runs on first read."""
        latest_owner: dict[int, str] = {}  # block -> its most recent allocator, until released
        holders: dict[int, set[str]] = {}
        for _, kind, ids, _, owner, _, evicted in self.log:
            if kind == "alloc":
                for block in islice(ids, len(ids) - len(evicted), None):  # its eviction drops every holder
                    holders.pop(block, None)
                for block in ids:
                    latest_owner[block] = owner
                    holders.setdefault(block, set()).add(owner)
            elif kind in KV_RELEASE_KINDS:
                for block in ids:
                    latest_owner.pop(block, None)
                    holders.pop(block, None)
            elif kind in KV_ADOPTION_KINDS:
                for block in ids:
                    if latest_owner.get(block, owner) != owner:
                        holders.pop(block, None)
        by_owner: dict[str, set[int]] = {}
        for block, owners in holders.items():
            for owner in owners:
                by_owner.setdefault(owner, set()).add(block)
        return {owner: frozenset(blocks) for owner, blocks in by_owner.items()}


@dataclass
class RequestOutcome:
    request_id: str
    status: str  # completed | cancelled | disconnected | timeout | server_error, by request_outcome's rule
    # When the request left, in ms from the execution's epoch: in-process its Send's offset, over HTTP
    # when its thread posted it, which is later than the offset by the thread's lateness.
    dispatched_ms: int
    total_ms: int | None = None
    output_tokens: tuple = ()  # one token tuple per completion stream
    logprob_records: tuple | None = None  # per stream, per position: ((token, logprob), ...)
    token_stamps: tuple = ()  # arrival of each stream-0 token, in ms from the execution's epoch like dispatched_ms
    error: str | None = None
    aborted_ms: int | None = None  # when its first Cancel or Disconnect reached the engine; None if none did

    @property
    def ttft_ms(self) -> int | None:
        """Time to the first stream-0 token, read off its stamp; None when no token arrived."""
        return self.token_stamps[0] - self.dispatched_ms if self.token_stamps else None

    @property
    def end_ms(self) -> int:
        """When the request ended on the trace's clock; its dispatch when it never reported a total."""
        return self.dispatched_ms + (self.total_ms or 0)


def request_outcome(request_id: str, dispatched_ms: int, refusal: str | None = None, end: tuple | None = None,
                    control: EventKind | None = None, deadline: str = "no response", **record) -> RequestOutcome:
    """A Send's outcome, by the one rule for a request's end: the only place a RequestOutcome is built.

    1. A ``refusal`` stands, whatever the client did next: a ``submit`` error in-process (a Send to an engine
       already down is refused without one), a non-200 reply over HTTP, whose ``error`` string is the reason.
       The outcome is ``server_error`` with only the engine's reason and the dispatch time: no total, no tokens.
    2. Otherwise an ``end`` that the client heard from the engine, (status, error), stands: in-process always
       the engine's own status or a crash mid-request; over HTTP a ``[DONE]`` or a broken stream that the
       request's thread saw before its first Cancel or Disconnect was marked.
    3. Otherwise the client's first Cancel or Disconnect, ``control``, decides (``cancelled`` or
       ``disconnected``), then the client's deadline (``timeout``, with ``deadline`` as its error).  A Send
       that no thread answered is ``timeout``, "no response".

    ``record`` holds the rest of what the client saw: total_ms, the streams, their ladders, stamps, aborted_ms.
    """
    if refusal is not None:
        end, record = ("server_error", refusal), {}
    elif end is None and control is not None:
        end = ("cancelled" if control is EventKind.CANCEL else "disconnected"), None
    status, error = end or ("timeout", deadline)
    return RequestOutcome(request_id, status, dispatched_ms, error=error, **record)


@dataclass
class ExecutionReport:
    """What one trace, with prompts synthesized from one corpus seed, did on an engine."""

    trace: TimedTrace
    corpus_seed: int
    outcomes: dict[str, RequestOutcome]
    kv_log: tuple | None = ()  # KvRun entries; None when the engine serves no KV stream
    crash_evidence: dict | None = None  # None unless the engine crashed; then it always holds a "signature"
    wall_clock_span_ms: int = 0
    block_snapshots: dict = field(default_factory=dict)
    engine_info: dict = field(default_factory=dict)
    schedule_degraded: bool = False

    @property
    def server_crashed(self) -> bool:
        return self.crash_evidence is not None

    @property
    def trace_id(self) -> str:
        return self.trace.trace_id

    @cached_property
    def request_index(self) -> dict[str, RequestSpec]:
        """Request id -> the Send that issued it."""
        return self.trace.request_specs()

    @cached_property
    def kv_events(self) -> tuple[KvEvent, ...] | None:
        """The log's per-block events, built on first read; None when the engine serves no KV stream."""
        return None if self.kv_log is None else tuple(kv_events_of(self.kv_log))

    @cached_property
    def kv_ledger(self) -> KvLedger:
        """Built on first use, so reports nothing inspects never walk their log."""
        return KvLedger.of(self.kv_log or ())

    @cached_property
    def intervals(self) -> tuple[tuple[int, int | None, int], ...]:
        """(dispatch, first stream-0 token or None, end) of each outcome in outcome order, in ms from the
        execution's epoch; built on first read, for telemetry, novelty and stall detection."""
        return tuple((o.dispatched_ms, o.token_stamps[0] if o.token_stamps else None, o.end_ms)
                     for o in self.outcomes.values())

    @cached_property
    def snapshot_groups(self) -> dict[str, list[tuple[str, list]]]:
        """Group key -> (request id, block-hash sequence) of each completed request, in request-id order."""
        groups: dict[str, list[tuple[str, list]]] = {}
        for rid in sorted(self.block_snapshots):
            spec, outcome = self.request_index.get(rid), self.outcomes.get(rid)
            if spec is None or outcome is None or outcome.status != "completed":
                continue
            key = group_key(spec)
            if key is not None:
                groups.setdefault(key, []).append((rid, [entry[1] for entry in self.block_snapshots[rid]]))
        return groups


@dataclass
class EngineEndpoint:
    kind: EngineKind
    handle: object | None = None  # in-process simulator core
    base_url: str | None = None
    request_timeout_ms: int = 60_000

    def __post_init__(self) -> None:
        if self.kind is EngineKind.SIMULATOR and self.handle is None:
            raise ValueError("simulator endpoint requires an in-process handle")
        if self.kind is EngineKind.OPENAI and not self.base_url:
            raise ValueError("openai endpoint requires a base_url")


def completion_body(spec: RequestSpec, corpus_seed: int, vocab_size: int) -> dict:
    """The /v1/completions request body for one Send; always streamed, so tokens can be timed."""
    body = {
        "model": spec.adapter,
        "prompt": render_prompt(prompt_for(spec, corpus_seed, vocab_size)),
        "max_tokens": spec.sampling.max_tokens,
        "temperature": spec.sampling.temperature,
        "n": spec.sampling.n_completions,
        "stream": True,
    }
    if spec.sampling.seed is not None:
        body["seed"] = spec.sampling.seed
    if spec.sampling.logprobs is not None:
        body["logprobs"] = spec.sampling.logprobs
    return body


def completion_chunk(index: int, position: int, tokens, ladders) -> bytes:
    """One server-sent event of a completion stream: choice ``index``'s tokens from ``position`` on.

    The chunk is an OpenAI completions stream chunk with one choice, whose
    ``text`` holds the token words.  With ``ladders`` (one ((token, logprob),
    ...) per token, the token's own entry first, no token twice) it also
    carries OpenAI ``logprobs``; each ladder is a ``top_logprobs`` object
    keyed by token word in ladder order.
    """
    words = [token_word(tok) for tok in tokens]
    choice: dict = {"index": index, "text": (" " if position else "") + " ".join(words)}
    if ladders is not None:
        choice["logprobs"] = {
            "tokens": words,
            "token_logprobs": [ladder[0][1] for ladder in ladders],
            "top_logprobs": [{token_word(tok): lp for tok, lp in ladder} for ladder in ladders],
        }
    return b"data: " + json.dumps({"choices": [choice]}).encode("utf-8") + b"\n\n"


def read_completion_chunk(payload: bytes) -> tuple[int, tuple[int, ...], tuple | None]:
    """(choice index, tokens, ladders or None) of one stream chunk's JSON, as completion_chunk wrote them.

    A chunk without ``index`` is choice 0, and one without ``logprobs`` has
    no ladders.  Raises for a chunk that is not one: JSONDecodeError,
    IndexError for no choice, ValueError for a bad index, word or ladder.
    """
    choice = json.loads(payload)["choices"][0]
    index = choice.get("index", 0)
    if type(index) is not int or index < 0:
        raise ValueError(f"bad choice index {index!r}")
    tokens = parse_prompt(choice.get("text", ""))
    logprobs = choice.get("logprobs")
    if logprobs is None:
        return index, tokens, None
    ladders = tuple(tuple((word_token(word), lp) for word, lp in top.items()) for top in logprobs["top_logprobs"])
    if len(ladders) != len(tokens) or any(type(lp) not in (int, float) for ladder in ladders for _, lp in ladder):
        raise ValueError("logprobs do not give one ladder of numbers per token")
    return index, tokens, ladders


def execute(
    trace: TimedTrace,
    endpoint: EngineEndpoint,
    corpus_seed: int = 0,
    canonical_decode: bool = False,
) -> ExecutionReport:
    """Dispatch every event at its offset and collect one outcome per Send."""
    if endpoint.kind is EngineKind.SIMULATOR:
        return _execute_virtual(trace, endpoint, corpus_seed, canonical_decode)
    return _execute_wall(trace, endpoint, corpus_seed, canonical_decode)


def reset_server(endpoint: EngineEndpoint) -> None:
    if endpoint.kind is EngineKind.SIMULATOR:
        endpoint.handle.reset()
        return
    import requests

    resp = requests.post(endpoint.base_url.rstrip("/") + "/control/reset", timeout=10)
    if resp.status_code == 404:
        raise UnsupportedOperation("endpoint exposes no reset control")
    resp.raise_for_status()


def collect_kv_stream(endpoint: EngineEndpoint, since, epoch_ms) -> tuple[KvRun, ...] | None:
    """The endpoint's KV events from index ``since`` on, each a run of one, restamped from its clock at
    ``epoch_ms``; None when it serves none, when either value is not a non-negative int, or when a line is
    not an event from ``epoch_ms`` on."""
    import requests

    if not all(type(value) is int and value >= 0 for value in (since, epoch_ms)):
        return None
    resp = requests.get(endpoint.base_url.rstrip("/") + "/kv_events", params={"since": since}, timeout=10)
    if resp.status_code == 404:
        return None
    resp.raise_for_status()
    try:
        events = [KvEvent.from_json_line(line) for line in resp.text.splitlines() if line.strip()]
    except ValueError:
        return None
    if any(event.ts_ms < epoch_ms for event in events):
        return None
    return tuple(KvRun.of(event._replace(ts_ms=event.ts_ms - epoch_ms)) for event in events)


def engine_info(endpoint: EngineEndpoint) -> dict:
    """The endpoint's /control/info object; {} unless a 200 JSON object whose sizes, where given, are positive ints."""
    import requests

    try:
        resp = requests.get(endpoint.base_url.rstrip("/") + "/control/info", timeout=5)
    except requests.RequestException:
        return {}
    info = _json_object(resp) if resp.status_code == 200 else {}
    sizes = [info.get(key, 1) for key in ("vocab_size", "block_size_tokens")]
    return info if all(type(size) is int and size > 0 for size in sizes) else {}


def check_health(endpoint: EngineEndpoint) -> tuple[bool, dict]:
    """Whether the endpoint answers /health with a 200, and its /health document ({} unless a JSON object)."""
    import requests

    try:
        resp = requests.get(endpoint.base_url.rstrip("/") + "/health", timeout=5)
    except requests.RequestException:
        return False, {}
    return resp.status_code == 200, _json_object(resp)


def _json_object(resp) -> dict:
    """A reply's JSON object; {} for a body that is not one."""
    try:
        doc = resp.json()
    except ValueError:
        return {}
    return doc if isinstance(doc, dict) else {}


def _crash_evidence(health: dict) -> dict:
    """An unhealthy engine's crash evidence: its /health ``crash_evidence`` when that names a string
    signature, else a lost connection."""
    evidence = health.get("crash_evidence")
    if isinstance(evidence, dict) and type(evidence.get("signature")) is str:
        return evidence
    return {"signature": "connection-lost"}


# --------------------------------------------------------------------------
# Virtual-time execution against the in-process simulator.

def _execute_virtual(trace, endpoint, corpus_seed, canonical_decode) -> ExecutionReport:
    """Run the trace on the endpoint's core, or serve a copy of the report a fresh core kept for the same
    inputs; an owed run is run first (simulator/engine.py, the determinism contract)."""
    core = endpoint.handle
    last = core.last_run
    if last.owed:
        last.owed = False
        _run_virtual(core, *last.inputs)
    inputs = (trace, corpus_seed, canonical_decode, endpoint.request_timeout_ms)
    if not core.fresh:
        return _run_virtual(core, *inputs)
    if last.inputs is not None and last.inputs[0] is trace and last.inputs[1:] == inputs[1:]:
        last.owed = True
        return _copy_report(last.report)
    report = _run_virtual(core, *inputs)
    last.inputs, last.report = inputs, _copy_report(report)
    return report


def _copy_report(report: ExecutionReport) -> ExecutionReport:
    """An equal report with dicts of its own; what they hold, the log and the trace are shared."""
    evidence = report.crash_evidence
    return ExecutionReport(report.trace, report.corpus_seed, dict(report.outcomes), report.kv_log,
                           None if evidence is None else dict(evidence), report.wall_clock_span_ms,
                           dict(report.block_snapshots), dict(report.engine_info), report.schedule_degraded)


def _run_virtual(core, trace, corpus_seed, canonical_decode, timeout) -> ExecutionReport:
    if core.crashed:
        raise EndpointUnavailable("simulator endpoint is down")
    core.canonical_decode = canonical_decode
    # Offsets, dispatch times, stamps, KV timestamps and the span count from
    # the clock at entry, as _execute_wall counts them from its own entry;
    # KV events and snapshots are this trace's own.
    epoch = core.clock_ms
    first_kv_entry = len(core.kv_log)
    info = core.config.engine_info()
    vocab = info["vocab_size"]

    refused: dict[str, str] = {}  # rid -> why the engine refused its Send
    dispatched: dict[str, int] = {}  # rid -> core clock at dispatch
    aborted: dict[str, int] = {}  # rid -> when its first control ran, from the epoch
    for event in trace.events:
        core.advance_to(epoch + event.offset_ms)  # returns at once on a crashed engine
        if core.crashed:
            if event.kind is EventKind.SEND:
                refused[event.spec.request_id] = "engine down before dispatch"
            continue
        if event.kind is EventKind.SEND:
            spec = event.spec
            tokens = prompt_for(spec, corpus_seed, vocab)
            sampling = spec.sampling
            err = core.submit(rid=spec.request_id, prompt=tokens, adapter=spec.adapter, max_tokens=sampling.max_tokens,
                              n_completions=sampling.n_completions, request_seed=sampling.seed,
                              logprobs=sampling.logprobs, dispatched_ms=epoch + event.offset_ms)
            if err is not None:
                refused[spec.request_id] = err
            else:
                dispatched[spec.request_id] = epoch + event.offset_ms
        elif event.kind in (EventKind.CANCEL, EventKind.DISCONNECT):
            core.cancel(event.target, disconnect=event.kind is EventKind.DISCONNECT)
            aborted.setdefault(event.target, core.clock_ms - epoch)
        # Wait events are pure schedule spacing; nothing to dispatch.

    # Drain: run until every dispatched request is terminal or times out, a
    # quiet stretch at a time but never past the tick of the next deadline.
    while not core.crashed:
        in_flight = core.in_flight()
        overdue = [req.rid for req in in_flight if core.clock_ms - dispatched.get(req.rid, 0) >= timeout]
        for rid in overdue:
            core.expire(rid)
        if len(overdue) == len(in_flight):
            break
        core.advance(min(dispatched.get(req.rid, 0) for req in in_flight if not req.done) + timeout)

    outcomes: dict[str, RequestOutcome] = {}
    for event in trace.send_events():
        rid = event.spec.request_id
        sent_at = dispatched.get(rid)
        if sent_at is None:
            outcomes[rid] = request_outcome(rid, event.offset_ms, refusal=refused[rid])
            continue
        req = core.requests[rid]
        if req.status is None:  # still in flight at crash time
            outcomes[rid] = request_outcome(rid, sent_at - epoch, end=("server_error", "engine crashed mid-request"))
            continue
        outcomes[rid] = request_outcome(
            rid, sent_at - epoch, end=(req.status, None), aborted_ms=aborted.get(rid),
            total_ms=None if req.finished_ms is None else req.finished_ms - sent_at,
            output_tokens=tuple(tuple(s) for s in req.outputs),
            logprob_records=tuple(tuple(s) for s in req.records) if req.logprobs else None,
            token_stamps=tuple([stamp - epoch for stamp in req.token_stamps] if epoch else req.token_stamps),
        )

    kv_log = tuple(islice(core.kv_log, first_kv_entry, None))
    if epoch:
        kv_log = tuple([entry._replace(ts_ms=entry.ts_ms - epoch) for entry in kv_log])
    snapshots = {rid: snap for rid, snap in core.snapshots.items() if rid in dispatched}
    return ExecutionReport(trace, corpus_seed, outcomes, kv_log, core.crash_evidence, core.clock_ms - epoch, snapshots, info)


# --------------------------------------------------------------------------
# Wall-clock execution against an OpenAI-style HTTP endpoint.

def _execute_wall(trace, endpoint, corpus_seed, canonical_decode) -> ExecutionReport:
    import requests

    base = endpoint.base_url.rstrip("/")
    info = engine_info(endpoint)
    vocab = info.get("vocab_size", DEFAULT_VOCAB_SIZE)
    # Every execution sets the decode mode, so a pinned replay leaves no pin
    # behind for the next one; an engine without the control cannot be pinned.
    resp = requests.post(base + "/control/decode_mode", json={"canonical": canonical_decode}, timeout=5)
    if resp.status_code != 404:
        resp.raise_for_status()
    # The stream length and server clock just before the epoch, when the
    # engine gives them: the report holds its own KV events, stamped from that
    # clock plus the time from its reply to the epoch, which the engine's
    # clock ran through too.  The span counts from just before the read, so it
    # covers every stamp, while dispatch counts from the epoch after it, so
    # the read makes no Send late.
    origin = time.monotonic()
    healthy, health = check_health(endpoint)
    arrived = time.monotonic()
    if not healthy:
        raise EndpointUnavailable(f"no healthy endpoint at {base}")
    kv_since, kv_epoch_ms = health.get("kv_events", 0), health.get("clock_ms", 0)

    seen: dict[str, dict] = {}  # rid -> request_outcome's arguments from what its thread saw, but its control
    live: dict[str, requests.Response] = {}
    lock = threading.Lock()
    late = False  # whether the dispatch loop ran an event later than SCHEDULE_TOLERANCE_MS

    def run_request(rid: str, body: dict, gate: threading.Event) -> None:
        gate.wait()
        started = time.monotonic()
        dispatched_ms = int((started - epoch) * 1000)
        streams: list[list[int]] = [[] for _ in range(body["n"])]
        ladders: list[list] | None = [[] for _ in streams] if body.get("logprobs") else None
        stamps: list[int] = []
        refusal = end = ended = None  # end stays None past a timeout and past the abort's mark
        try:
            resp = requests.post(base + "/v1/completions", json=body, headers={"X-Request-Id": rid},
                                 stream=True, timeout=endpoint.request_timeout_ms / 1000)
            if resp.status_code != 200:
                reason = _json_object(resp).get("error")
                refusal = reason if isinstance(reason, str) else f"http {resp.status_code}"
            else:
                with lock:
                    live[rid] = resp
                    aborted_early = rid in aborted  # its abort fired before the response arrived
                if aborted_early:
                    resp.close()
                else:
                    # chunk_size=None reads each chunk of the stream as it arrives, not 512 bytes at a time.
                    for raw in resp.iter_lines(chunk_size=None):
                        if not raw or not raw.startswith(b"data: "):
                            continue
                        payload = raw[len(b"data: ") :]
                        chunk = None if payload == b"[DONE]" else read_completion_chunk(payload)
                        now = time.monotonic()
                        with lock:
                            if rid in aborted:
                                break  # the abort's mark ends what we record: the rest was buffered before our close
                            if chunk is None:
                                end, ended = ("completed", None), now
                                break
                            index, tokens, records = chunk
                            streams[index] += tokens
                            if ladders is not None:
                                ladders[index] += records or ()
                            if index == 0:
                                stamps += [dispatched_ms + int((now - started) * 1000)] * len(tokens)
                    else:
                        end = ("server_error", "stream ended before [DONE]")
        except requests.exceptions.Timeout:
            pass
        except Exception as exc:  # the thread's boundary: every Send gets one outcome
            LOG.debug("request %s ended by an error", rid, exc_info=True)
            end = ("server_error", f"{type(exc).__name__}: {exc}")
        total_ms = int(((ended or time.monotonic()) - started) * 1000)
        with lock:
            live.pop(rid, None)
            if ended is None and rid in aborted:
                end = None  # the stream broke after the abort's mark: closed from our side
            seen[rid] = dict(dispatched_ms=dispatched_ms, refusal=refusal, end=end, total_ms=total_ms,
                             output_tokens=tuple(map(tuple, streams)), token_stamps=tuple(stamps),
                             logprob_records=None if ladders is None else tuple(map(tuple, ladders)))

    closing: queue.SimpleQueue = queue.SimpleQueue()

    def closer() -> None:
        while (resp := closing.get()) is not None:
            try:
                resp.close()
            except Exception:  # the closer's boundary: the request thread reports the abort either way
                LOG.debug("closing an aborted response failed", exc_info=True)

    # Every thread starts before the epoch, so the dispatch loop only signals
    # them: Thread.start() waits until the new thread runs, and closing an
    # aborted response can take milliseconds, so either would make the next
    # event late.  The closer ends at the None queued after the last event.
    aborted: dict[str, tuple[EventKind, int]] = {}  # rid -> its first control and when it was marked, from the epoch
    gates: dict[int, threading.Event] = {}  # per Send, by its index in the trace
    threads: list[threading.Thread] = []
    for index, event in enumerate(trace.events):
        if event.kind is EventKind.SEND:
            gates[index] = threading.Event()
            body = completion_body(event.spec, corpus_seed, vocab)
            args = (event.spec.request_id, body, gates[index])
            threads.append(threading.Thread(target=run_request, args=args, daemon=True))
    for t in [threading.Thread(target=closer, daemon=True), *threads]:
        t.start()
    epoch = time.monotonic()
    if "clock_ms" in health and type(kv_epoch_ms) is int:  # the engine's clock at the epoch, estimated from below
        kv_epoch_ms += int((epoch - arrived) * 1000)
    for index, event in enumerate(trace.events):
        target = epoch + event.offset_ms / 1000.0
        delay = target - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        late |= int((time.monotonic() - target) * 1000) > SCHEDULE_TOLERANCE_MS
        if event.kind is EventKind.SEND:
            gates[index].set()
        elif event.kind in (EventKind.CANCEL, EventKind.DISCONNECT):
            with lock:
                aborted.setdefault(event.target, (event.kind, int((time.monotonic() - epoch) * 1000)))
                resp = live.get(event.target)
            if resp is not None:
                closing.put(resp)
    closing.put(None)

    # One deadline for all joins: hung streams share it rather than each waiting a full timeout.
    deadline = time.monotonic() + endpoint.request_timeout_ms / 1000 + 5
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    span = int((time.monotonic() - origin) * 1000)
    # A thread that outlived its join may still finish; it writes into the
    # shared dict, never into the report.
    with lock:
        answered = dict(seen)
    outcomes: dict[str, RequestOutcome] = {}
    for event in trace.send_events():
        rid = event.spec.request_id
        if rid not in answered:
            outcomes[rid] = request_outcome(rid, event.offset_ms)
            continue
        control, aborted_ms = aborted.get(rid, (None, None))
        outcomes[rid] = request_outcome(rid, control=control, aborted_ms=aborted_ms, deadline="client-side timeout",
                                        **answered[rid])

    kv_log = collect_kv_stream(endpoint, kv_since, kv_epoch_ms)
    healthy, health = check_health(endpoint)
    return ExecutionReport(trace, corpus_seed, outcomes, kv_log, None if healthy else _crash_evidence(health), span,
                           engine_info=info, schedule_degraded=late)
