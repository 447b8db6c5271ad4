"""Timed multi-request traces: the input format the fuzzer mutates and replays.

A trace is a list of client-side lifecycle events (Send / Cancel / Disconnect /
Wait) with millisecond offsets from a common epoch.  Prompt content is never
stored inline; each Send carries a shape plus an identity and the concrete
token sequence is synthesized on demand, so mutating a trace can never corrupt
prompt bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache

from .hashing import stable_u64, stable_u64_tails

DEFAULT_ADAPTER = "BASE"

# Invertible word rendering for token ids: two consonant-vowel syllables.
_CONS = "bdfgklmnprstvzchjw"  # 18
_VOWS = "aeiouy"  # 6
_SYLLABLES = [c + v for c in _CONS for v in _VOWS]  # 108
_MAX_RENDERABLE = len(_SYLLABLES) ** 2


class EventKind(str, Enum):
    SEND = "Send"
    CANCEL = "Cancel"
    DISCONNECT = "Disconnect"
    WAIT = "Wait"


class TraceFormatError(ValueError):
    """Raised when a trace document cannot be parsed; carries a location."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class PromptShape:
    prefix_len: int
    prompt_len: int

    def __post_init__(self) -> None:
        if not (0 <= self.prefix_len <= self.prompt_len):
            raise ValueError(f"prefix_len must satisfy 0 <= prefix <= prompt, got {self}")
        if self.prompt_len < 1:
            raise ValueError("prompt_len must be >= 1")


@dataclass(frozen=True)
class SamplingConfig:
    max_tokens: int = 16
    temperature: float = 0.0
    seed: int | None = None
    logprobs: int | None = None
    n_completions: int = 1

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.n_completions < 1:
            raise ValueError("n_completions must be >= 1")
        if self.logprobs is not None and self.logprobs < 1:
            raise ValueError("logprobs must be >= 1 when set")


@dataclass(frozen=True)
class RequestSpec:
    request_id: str
    shape: PromptShape
    sampling: SamplingConfig = SamplingConfig()
    prompt_family_id: str | None = None
    adapter: str = DEFAULT_ADAPTER
    stream: bool = True

    @property
    def prompt_identity(self) -> str:
        """Identity that pins prompt content; falls back to the request id."""
        return self.prompt_family_id if self.prompt_family_id is not None else self.request_id


@dataclass(frozen=True)
class TraceEvent:
    offset_ms: int
    kind: EventKind
    spec: RequestSpec | None = None
    target: str | None = None
    duration_ms: int | None = None

    def __post_init__(self) -> None:
        if self.kind is EventKind.SEND and self.spec is None:
            raise ValueError("Send event requires a RequestSpec")
        if self.kind in (EventKind.CANCEL, EventKind.DISCONNECT) and not self.target:
            raise ValueError(f"{self.kind.value} event requires a target request_id")
        if self.kind is EventKind.WAIT and (self.duration_ms is None or self.duration_ms < 0):
            raise ValueError("Wait event requires a non-negative duration_ms")

    @staticmethod
    def send(offset_ms: int, spec: RequestSpec) -> "TraceEvent":
        return TraceEvent(offset_ms, EventKind.SEND, spec=spec)

    @staticmethod
    def cancel(offset_ms: int, target: str) -> "TraceEvent":
        return TraceEvent(offset_ms, EventKind.CANCEL, target=target)

    @staticmethod
    def disconnect(offset_ms: int, target: str) -> "TraceEvent":
        return TraceEvent(offset_ms, EventKind.DISCONNECT, target=target)

    @staticmethod
    def wait(offset_ms: int, duration_ms: int) -> "TraceEvent":
        return TraceEvent(offset_ms, EventKind.WAIT, duration_ms=duration_ms)


def _kind_rank(event: TraceEvent) -> int:
    # At equal offsets a Send dispatches before control events that may name it.
    return 0 if event.kind in (EventKind.SEND, EventKind.WAIT) else 1


def ordered(events) -> tuple[TraceEvent, ...]:
    """Canonical stable ordering: by offset, Sends before controls at ties."""
    return tuple(sorted(events, key=lambda e: (e.offset_ms, _kind_rank(e))))


@dataclass(frozen=True)
class TimedTrace:
    trace_id: str
    events: tuple[TraceEvent, ...]
    base_time: int = 0
    metadata: dict = field(default_factory=dict)

    def send_events(self) -> list[TraceEvent]:
        return [e for e in self.events if e.kind is EventKind.SEND]

    def request_specs(self) -> dict[str, RequestSpec]:
        out: dict[str, RequestSpec] = {}
        for e in self.send_events():
            out.setdefault(e.spec.request_id, e.spec)
        return out

    def end_offset_ms(self) -> int:
        end = 0
        for e in self.events:
            end = max(end, e.offset_ms + (e.duration_ms or 0))
        return end

    def with_events(self, events, trace_id: str | None = None, metadata: dict | None = None) -> "TimedTrace":
        return TimedTrace(
            trace_id=trace_id or self.trace_id,
            events=tuple(events),
            base_time=self.base_time,
            metadata=dict(self.metadata) if metadata is None else metadata,
        )


# --------------------------------------------------------------------------
# Validation and repair


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    event_index: int | None = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()


def validate(trace: TimedTrace) -> ValidationReport:
    """Structural validity: ordering, unique transport ids, no orphaned controls."""
    violations: list[Violation] = []
    last_offset = 0
    seen_sends: set[str] = set()
    for i, event in enumerate(trace.events):
        if event.offset_ms < 0:
            violations.append(Violation("negative-offset", f"event {i} has offset {event.offset_ms}", i))
        if event.offset_ms < last_offset:
            violations.append(Violation("unsorted-events", f"event {i} precedes its predecessor in time", i))
        last_offset = max(last_offset, event.offset_ms)
        if event.kind is EventKind.SEND:
            rid = event.spec.request_id
            if rid in seen_sends:
                violations.append(Violation("duplicate-request-id", f"request_id {rid!r} reused at event {i}", i))
            seen_sends.add(rid)
        elif event.kind in (EventKind.CANCEL, EventKind.DISCONNECT):
            if event.target not in seen_sends:
                violations.append(
                    Violation("orphaned-control-event", f"{event.kind.value} at event {i} targets unknown or later request {event.target!r}", i)
                )
    return ValidationReport(ok=not violations, violations=tuple(violations))


def repair(trace: TimedTrace) -> TimedTrace:
    """Minimal repair to a valid trace: never drops Send or Wait events.

    Orphaned control events are dropped, duplicate Send ids are renamed
    (controls keep targeting the first occurrence), negative offsets clamp to
    zero, and events are re-sorted canonically.  Idempotent.
    """
    events: list[TraceEvent] = []
    seen: set[str] = set()
    for event in trace.events:
        if event.offset_ms < 0:
            event = replace(event, offset_ms=0)
        if event.kind is EventKind.SEND:
            rid = event.spec.request_id
            if rid in seen:
                n = 2
                while f"{rid}~{n}" in seen:
                    n += 1
                event = replace(event, spec=replace(event.spec, request_id=f"{rid}~{n}"))
            seen.add(event.spec.request_id)
        events.append(event)

    out: list[TraceEvent] = []
    introduced: set[str] = set()
    for event in ordered(events):
        if event.kind in (EventKind.CANCEL, EventKind.DISCONNECT) and event.target not in introduced:
            continue
        if event.kind is EventKind.SEND:
            introduced.add(event.spec.request_id)
        out.append(event)
    return trace.with_events(out)


# --------------------------------------------------------------------------
# Prompt synthesis

# Distinct (shape, identity, corpus_seed, vocab_size) keys kept; a campaign
# sees a few dozen, while a long run's mutations keep minting new identities.
# Typed keys, because stable_u64 tells 1 from True.
PROMPT_CACHE_SIZE = 128


@lru_cache(maxsize=PROMPT_CACHE_SIZE, typed=True)
def synthesize_prompt(shape: PromptShape, identity: str, corpus_seed: int, vocab_size: int = 1024) -> tuple[int, ...]:
    """Deterministic prompt token ids for a shape and identity.

    The first ``prefix_len`` tokens depend only on the corpus seed and the
    position, so any two shapes with equal prefix_len share that prefix
    exactly; the suffix additionally depends on the identity and the full
    shape, so distinct identities or shapes diverge after the prefix.

    Memoized: equal arguments return the same tuple object.
    """
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2")
    tokens = [stable_u64(corpus_seed, "prefix", i) % vocab_size for i in range(shape.prefix_len)]
    head = (corpus_seed, "suffix", identity, shape.prefix_len, shape.prompt_len)
    tokens += [h % vocab_size for h in stable_u64_tails(head, range(shape.prompt_len - shape.prefix_len))]
    return tuple(tokens)


def prompt_for(spec: RequestSpec, corpus_seed: int, vocab_size: int = 1024) -> tuple[int, ...]:
    return synthesize_prompt(spec.shape, spec.prompt_identity, corpus_seed, vocab_size)


def token_word(token_id: int) -> str:
    """Render a token id as a printable word; invertible via word_token()."""
    if not (0 <= token_id < _MAX_RENDERABLE):
        raise ValueError(f"token id {token_id} outside renderable range")
    hi, lo = divmod(token_id, len(_SYLLABLES))
    return _SYLLABLES[hi] + _SYLLABLES[lo]


def word_token(word: str) -> int:
    if len(word) != 4:
        raise ValueError(f"not a token word: {word!r}")
    try:
        hi = _SYLLABLES.index(word[:2])
        lo = _SYLLABLES.index(word[2:])
    except ValueError:
        raise ValueError(f"not a token word: {word!r}") from None
    return hi * len(_SYLLABLES) + lo


def render_prompt(tokens) -> str:
    return " ".join(token_word(t) for t in tokens)


def parse_prompt(text: str) -> tuple[int, ...]:
    return tuple(word_token(w) for w in text.split())


# --------------------------------------------------------------------------
# Serialization: one self-describing JSON document per trace.

def _event_to_doc(event: TraceEvent) -> dict:
    doc: dict = {"offset_ms": event.offset_ms, "kind": event.kind.value}
    if event.kind is EventKind.SEND:
        spec = event.spec
        doc["request_id"] = spec.request_id
        if spec.prompt_family_id is not None:
            doc["prompt_family_id"] = spec.prompt_family_id
        doc["shape"] = {"prefix_len": spec.shape.prefix_len, "prompt_len": spec.shape.prompt_len}
        sampling = {"max_tokens": spec.sampling.max_tokens, "temperature": spec.sampling.temperature}
        if spec.sampling.seed is not None:
            sampling["seed"] = spec.sampling.seed
        if spec.sampling.logprobs is not None:
            sampling["logprobs"] = spec.sampling.logprobs
        sampling["n_completions"] = spec.sampling.n_completions
        doc["sampling"] = sampling
        doc["adapter"] = spec.adapter
        doc["stream"] = spec.stream
    elif event.kind is EventKind.WAIT:
        doc["duration_ms"] = event.duration_ms
    else:
        doc["target"] = event.target
    return doc


def serialize(trace: TimedTrace) -> bytes:
    doc = {
        "trace_id": trace.trace_id,
        "base_time": trace.base_time,
        "events": [_event_to_doc(e) for e in trace.events],
        "metadata": {k: trace.metadata[k] for k in sorted(trace.metadata)},
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _expect(doc: dict, key: str, types, path: str):
    if key not in doc:
        raise TraceFormatError(f"{path}: missing required field {key!r}")
    value = doc[key]
    if not isinstance(value, types):
        raise TraceFormatError(f"{path}.{key}: expected {types}, got {type(value).__name__}")
    return value


def _event_from_doc(doc: dict, path: str) -> TraceEvent:
    if not isinstance(doc, dict):
        raise TraceFormatError(f"{path}: event must be an object")
    offset = _expect(doc, "offset_ms", int, path)
    kind_raw = _expect(doc, "kind", str, path)
    try:
        kind = EventKind(kind_raw)
    except ValueError:
        raise TraceFormatError(f"{path}.kind: unknown event kind {kind_raw!r}") from None
    try:
        if kind is EventKind.SEND:
            shape_doc = _expect(doc, "shape", dict, path)
            shape = PromptShape(
                prefix_len=_expect(shape_doc, "prefix_len", int, f"{path}.shape"),
                prompt_len=_expect(shape_doc, "prompt_len", int, f"{path}.shape"),
            )
            sampling_doc = _expect(doc, "sampling", dict, path)
            sampling = SamplingConfig(
                max_tokens=_expect(sampling_doc, "max_tokens", int, f"{path}.sampling"),
                temperature=float(_expect(sampling_doc, "temperature", (int, float), f"{path}.sampling")),
                seed=sampling_doc.get("seed"),
                logprobs=sampling_doc.get("logprobs"),
                n_completions=sampling_doc.get("n_completions", 1),
            )
            spec = RequestSpec(
                request_id=_expect(doc, "request_id", str, path),
                shape=shape,
                sampling=sampling,
                prompt_family_id=doc.get("prompt_family_id"),
                adapter=doc.get("adapter", DEFAULT_ADAPTER),
                stream=doc.get("stream", True),
            )
            return TraceEvent(offset, kind, spec=spec)
        if kind is EventKind.WAIT:
            return TraceEvent(offset, kind, duration_ms=_expect(doc, "duration_ms", int, path))
        return TraceEvent(offset, kind, target=_expect(doc, "target", str, path))
    except ValueError as exc:
        if isinstance(exc, TraceFormatError):
            raise
        raise TraceFormatError(f"{path}: {exc}") from None


def deserialize(data: bytes | str) -> TimedTrace:
    """Parse a trace document; raises TraceFormatError with a location."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"malformed trace document at byte {exc.pos}: {exc.msg}", position=exc.pos) from None
    if not isinstance(doc, dict):
        raise TraceFormatError("trace document must be a JSON object")
    trace_id = _expect(doc, "trace_id", str, "$")
    base_time = _expect(doc, "base_time", int, "$")
    events_doc = _expect(doc, "events", list, "$")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise TraceFormatError("$.metadata: expected object")
    events = tuple(_event_from_doc(e, f"$.events[{i}]") for i, e in enumerate(events_doc))
    return TimedTrace(trace_id=trace_id, events=events, base_time=base_time, metadata=dict(metadata))
