"""Execution adapter: dispatches a timed trace against a serving endpoint.

Two transports share one report shape: an in-process simulator driven in
virtual time (bit-exact, used by campaigns and acceptance runs) and a
wall-clock HTTP client for OpenAI-style completion endpoints.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .trace import EventKind, RequestSpec, TimedTrace, parse_prompt, prompt_for, render_prompt

LOG = logging.getLogger(__name__)

KV_EVENT_KINDS = ("alloc", "free", "prefix_hit", "evict", "reuse")


class EndpointUnavailable(RuntimeError):
    """The endpoint refused service before the trace could be dispatched."""


class UnsupportedOperation(RuntimeError):
    """The endpoint does not implement the requested control surface."""


class EngineKind(str, Enum):
    SIMULATOR = "simulator"
    OPENAI = "generic-openai-compatible"


@dataclass(frozen=True)
class KvEvent:
    ts_ms: int
    kind: str
    block_id: int
    block_hash: int | None
    owner_request_id: str
    adapter: str

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "ts_ms": self.ts_ms,
                "kind": self.kind,
                "block_id": self.block_id,
                "block_hash": self.block_hash,
                "owner_request_id": self.owner_request_id,
                "adapter": self.adapter,
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json_line(line: str) -> "KvEvent":
        doc = json.loads(line)
        if doc["kind"] not in KV_EVENT_KINDS:
            raise ValueError(f"unknown kv event kind {doc['kind']!r}")
        return KvEvent(
            ts_ms=doc["ts_ms"],
            kind=doc["kind"],
            block_id=doc["block_id"],
            block_hash=doc.get("block_hash"),
            owner_request_id=doc["owner_request_id"],
            adapter=doc["adapter"],
        )


@dataclass(frozen=True)
class KvLedger:
    """What telemetry, novelty and the KV oracles read off one event stream.

    Built by a single pass in stream order.  Releases are free and evict,
    adoptions prefix_hit and reuse.  An alloc over a block that is still live
    leaves both allocators holding it; a release drops every holder; an
    adoption by a request other than the block's latest allocator makes the
    block shared cache property, which no allocator holds any more.
    """

    peak_held: int  # high-water mark of allocs minus releases
    kinds: frozenset
    bigrams: frozenset  # (kind, next kind) pairs in stream order
    alloc_ts: tuple
    last_ts_ms: int  # latest timestamp in the stream, 0 when empty
    held_blocks: dict  # allocator -> frozenset of block ids
    cross_adapter: tuple  # (alloc event, adopting event) pairs whose adapters differ

    @staticmethod
    def of(events) -> "KvLedger":
        held = peak = last_ts = 0
        kinds: list[str] = []
        alloc_ts: list[int] = []
        latest_alloc: dict[int, KvEvent] = {}  # block -> most recent alloc, until released
        holders: dict[int, set[str]] = {}
        cross_adapter = []
        for event in events:
            kind, block, ts = event.kind, event.block_id, event.ts_ms
            kinds.append(kind)
            if ts > last_ts:
                last_ts = ts
            if kind == "alloc":
                held += 1
                if held > peak:
                    peak = held
                alloc_ts.append(ts)
                latest_alloc[block] = event
                holders.setdefault(block, set()).add(event.owner_request_id)
            elif kind in ("free", "evict"):
                held -= 1
                latest_alloc.pop(block, None)
                holders.pop(block, None)
            elif kind in ("prefix_hit", "reuse"):
                alloc = latest_alloc.get(block)
                if alloc is not None:
                    if alloc.owner_request_id != event.owner_request_id:
                        holders.pop(block, None)
                    if alloc.adapter != event.adapter:
                        cross_adapter.append((alloc, event))
        by_owner: dict[str, set[int]] = {}
        for block, owners in holders.items():
            for owner in owners:
                by_owner.setdefault(owner, set()).add(block)
        return KvLedger(
            peak_held=peak,
            kinds=frozenset(kinds),
            bigrams=frozenset(zip(kinds, kinds[1:])),
            alloc_ts=tuple(alloc_ts),
            last_ts_ms=last_ts,
            held_blocks={owner: frozenset(blocks) for owner, blocks in by_owner.items()},
            cross_adapter=tuple(cross_adapter),
        )


@dataclass
class RequestOutcome:
    request_id: str
    status: str  # completed | cancelled | disconnected | timeout | server_error
    dispatched_ms: int
    ttft_ms: int | None = None
    total_ms: int | None = None
    output_tokens: tuple = ()  # one token tuple per completion stream
    logprob_records: tuple | None = None  # per stream, per position: ((token, logprob), ...)
    token_stamps: tuple = ()  # absolute ms of stream-0 token arrivals
    error: str | None = None


@dataclass
class ExecutionReport:
    trace_id: str
    outcomes: dict[str, RequestOutcome]
    kv_events: tuple = ()
    server_crashed: bool = False
    crash_evidence: dict | None = None
    wall_clock_span_ms: int = 0
    request_index: dict = field(default_factory=dict)
    block_snapshots: dict = field(default_factory=dict)
    engine_info: dict = field(default_factory=dict)
    schedule_degraded: bool = False
    kv_stream_supported: bool = True

    @cached_property
    def kv_ledger(self) -> KvLedger:
        """Built on first use, so reports nothing inspects never walk their stream."""
        return KvLedger.of(self.kv_events)


@dataclass
class KvStreamResult:
    events: tuple
    supported: bool


@dataclass
class EngineEndpoint:
    kind: EngineKind
    handle: object | None = None  # in-process simulator core
    base_url: str | None = None
    schedule_tolerance_ms: int = 5
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


def execute(
    trace: TimedTrace,
    endpoint: EngineEndpoint,
    corpus_seed: int = 0,
    canonical_decode: bool = False,
) -> ExecutionReport:
    """Dispatch every event at its offset and collect one outcome per Send."""
    if endpoint.kind is EngineKind.SIMULATOR:
        return _execute_virtual(trace, endpoint, corpus_seed, canonical_decode)
    return _execute_wall(trace, endpoint, corpus_seed)


def reset_server(endpoint: EngineEndpoint) -> None:
    if endpoint.kind is EngineKind.SIMULATOR:
        endpoint.handle.reset()
        return
    import requests

    resp = requests.post(endpoint.base_url.rstrip("/") + "/control/reset", timeout=10)
    if resp.status_code == 404:
        raise UnsupportedOperation("endpoint exposes no reset control")
    resp.raise_for_status()


def collect_kv_stream(endpoint: EngineEndpoint) -> KvStreamResult:
    import requests

    resp = requests.get(endpoint.base_url.rstrip("/") + "/kv_events", timeout=10)
    if resp.status_code == 404:
        return KvStreamResult(events=(), supported=False)
    resp.raise_for_status()
    events = tuple(KvEvent.from_json_line(line) for line in resp.text.splitlines() if line.strip())
    return KvStreamResult(events=events, supported=True)


def check_health(endpoint: EngineEndpoint) -> bool:
    import requests

    try:
        return requests.get(endpoint.base_url.rstrip("/") + "/health", timeout=5).status_code == 200
    except requests.RequestException:
        return False


# --------------------------------------------------------------------------
# Virtual-time execution against the in-process simulator.

def _execute_virtual(trace, endpoint, corpus_seed, canonical_decode) -> ExecutionReport:
    core = endpoint.handle
    if core.crashed:
        raise EndpointUnavailable("simulator endpoint is down")
    core.canonical_decode = canonical_decode
    # Offsets, dispatch times, stamps and the span count from the clock at
    # entry, as _execute_wall counts them from its own entry.
    epoch = core.clock_ms
    info = core.config.engine_info()
    vocab = info["vocab_size"]

    outcomes: dict[str, RequestOutcome] = {}
    dispatched: dict[str, int] = {}  # rid -> core clock at dispatch
    undispatched: list[tuple[RequestSpec, int]] = []
    for event in trace.events:
        core.advance_to(epoch + event.offset_ms)  # returns at once on a crashed engine
        if core.crashed:
            if event.kind is EventKind.SEND:
                undispatched.append((event.spec, event.offset_ms))
            continue
        if event.kind is EventKind.SEND:
            spec = event.spec
            tokens = prompt_for(spec, corpus_seed, vocab)
            err = core.submit(
                rid=spec.request_id,
                prompt=tokens,
                adapter=spec.adapter,
                max_tokens=spec.sampling.max_tokens,
                n_completions=spec.sampling.n_completions,
                request_seed=spec.sampling.seed,
                logprobs=spec.sampling.logprobs,
                dispatched_ms=epoch + event.offset_ms,
            )
            if err is not None:
                outcomes[spec.request_id] = RequestOutcome(
                    request_id=spec.request_id, status="server_error", dispatched_ms=event.offset_ms, error=err
                )
            else:
                dispatched[spec.request_id] = epoch + event.offset_ms
        elif event.kind in (EventKind.CANCEL, EventKind.DISCONNECT):
            core.cancel(event.target, disconnect=event.kind is EventKind.DISCONNECT)
        # Wait events are pure schedule spacing; nothing to dispatch.

    # Drain: run until every dispatched request is terminal or times out.
    timeout = endpoint.request_timeout_ms
    while not core.crashed:
        in_flight = core.in_flight()
        overdue = [req.rid for req in in_flight if core.clock_ms - dispatched.get(req.rid, 0) >= timeout]
        for rid in overdue:
            core.expire(rid)
        if len(overdue) == len(in_flight):
            break
        core.step()

    for rid, sent_at in dispatched.items():
        req = core.requests[rid]
        if req.status is None:  # still in flight at crash time
            outcomes[rid] = RequestOutcome(
                request_id=rid, status="server_error", dispatched_ms=sent_at - epoch, error="engine crashed mid-request"
            )
            continue
        outcomes[rid] = RequestOutcome(
            request_id=rid,
            status=req.status,
            dispatched_ms=sent_at - epoch,
            ttft_ms=None if req.first_token_ms is None else req.first_token_ms - sent_at,
            total_ms=None if req.finished_ms is None else req.finished_ms - sent_at,
            output_tokens=tuple(tuple(s) for s in req.outputs),
            logprob_records=tuple(tuple(s) for s in req.records) if req.logprobs else None,
            token_stamps=tuple(stamp - epoch for stamp in req.token_stamps),
        )
    for spec, offset in undispatched:
        outcomes[spec.request_id] = RequestOutcome(
            request_id=spec.request_id, status="server_error", dispatched_ms=offset, error="engine down before dispatch"
        )

    return ExecutionReport(
        trace_id=trace.trace_id,
        outcomes=outcomes,
        kv_events=tuple(core.kv_events),
        server_crashed=core.crashed,
        crash_evidence=core.crash_evidence,
        wall_clock_span_ms=core.clock_ms - epoch,
        request_index=dict(trace.request_specs()),
        block_snapshots={rid: [list(entry) for entry in snap] for rid, snap in core.snapshots.items()},
        engine_info=info,
        schedule_degraded=False,
    )


# --------------------------------------------------------------------------
# Wall-clock execution against an OpenAI-style HTTP endpoint.

def _execute_wall(trace, endpoint, corpus_seed) -> ExecutionReport:
    import requests

    base = endpoint.base_url.rstrip("/")
    if not check_health(endpoint):
        raise EndpointUnavailable(f"no healthy endpoint at {base}")
    try:
        info = requests.get(base + "/control/info", timeout=5).json()
    except requests.RequestException:
        info = {}
    vocab = info.get("vocab_size", 1024)

    outcomes: dict[str, RequestOutcome] = {}
    live: dict[str, requests.Response] = {}
    threads: dict[str, threading.Thread] = {}
    lock = threading.Lock()
    dispatch_errors: list[int] = []

    def run_request(rid: str, body: dict, intended_ms: int) -> None:
        started = time.monotonic()
        tokens: list[int] = []
        stamps: list[int] = []
        ttft = None
        status, error = "completed", None
        try:
            resp = requests.post(base + "/v1/completions", json=body, stream=True, timeout=endpoint.request_timeout_ms / 1000)
            with lock:
                live[rid] = resp
            if resp.status_code != 200:
                status, error = "server_error", f"http {resp.status_code}"
            else:
                for raw in resp.iter_lines():
                    if not raw or not raw.startswith(b"data: "):
                        continue
                    payload = raw[len(b"data: ") :]
                    if payload == b"[DONE]":
                        break
                    chunk = json.loads(payload)
                    text = chunk["choices"][0].get("text", "")
                    now_ms = int((time.monotonic() - started) * 1000) + intended_ms
                    for tok in parse_prompt(text):
                        tokens.append(tok)
                        stamps.append(now_ms)
                        if ttft is None:
                            ttft = now_ms - intended_ms
        except requests.exceptions.Timeout:
            status, error = "timeout", "client-side timeout"
        except (requests.RequestException, OSError) as exc:
            # Closed from our side (abort) or the engine died under us.
            status = "cancelled" if aborted.get(rid) == "cancel" else "disconnected" if aborted.get(rid) else "server_error"
            error = None if rid in aborted else str(exc)
        outcome = RequestOutcome(
            request_id=rid,
            status=status,
            dispatched_ms=intended_ms,
            ttft_ms=ttft,
            total_ms=int((time.monotonic() - started) * 1000),
            output_tokens=(tuple(tokens),),
            token_stamps=tuple(stamps),
            error=error,
        )
        with lock:
            live.pop(rid, None)
            outcomes[rid] = outcome

    aborted: dict[str, str] = {}
    epoch = time.monotonic()
    for event in trace.events:
        target = epoch + event.offset_ms / 1000.0
        delay = target - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        lateness = int((time.monotonic() - target) * 1000)
        if lateness > endpoint.schedule_tolerance_ms:
            dispatch_errors.append(lateness)
        if event.kind is EventKind.SEND:
            rid = event.spec.request_id
            body = completion_body(event.spec, corpus_seed, vocab)
            t = threading.Thread(target=run_request, args=(rid, body, event.offset_ms), daemon=True)
            threads[rid] = t
            t.start()
        elif event.kind in (EventKind.CANCEL, EventKind.DISCONNECT):
            aborted[event.target] = "cancel" if event.kind is EventKind.CANCEL else "disconnect"
            with lock:
                resp = live.get(event.target)
            if resp is not None:
                resp.close()

    # One deadline for all joins: hung streams share it rather than each waiting a full timeout.
    deadline = time.monotonic() + endpoint.request_timeout_ms / 1000 + 5
    for t in threads.values():
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    span = int((time.monotonic() - epoch) * 1000)
    # A thread that outlived its join may still finish; it writes into the
    # shared dict, never into the report's copy.
    with lock:
        reported = dict(outcomes)
    for event in trace.send_events():
        rid = event.spec.request_id
        if rid not in reported:
            reported[rid] = RequestOutcome(request_id=rid, status="timeout", dispatched_ms=event.offset_ms, error="no response")

    stream = collect_kv_stream(endpoint)
    crashed = not check_health(endpoint)
    return ExecutionReport(
        trace_id=trace.trace_id,
        outcomes=reported,
        kv_events=stream.events,
        server_crashed=crashed,
        crash_evidence={"signature": "connection-lost"} if crashed else None,
        wall_clock_span_ms=span,
        request_index=dict(trace.request_specs()),
        engine_info=info,
        schedule_degraded=bool(dispatch_errors),
        kv_stream_supported=stream.supported,
    )
