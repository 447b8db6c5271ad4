"""Seed-trace construction and trace-level mutation operators.

Three operator classes work on whole traces: timing perturbation (same events,
shifted offsets), event-level edits (insert, delete, modify), and splicing of
two parents.  Directed splicing additionally uses execution telemetry to put
one parent's cache-warming phase strictly before the other parent's pressure
burst.  Every operator ends in repair(), so outputs always validate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .hashing import stable_u64
from .trace import (
    EventKind,
    PromptShape,
    RequestSpec,
    SamplingConfig,
    TimedTrace,
    TraceEvent,
    repair,
)


class MutationKind(str, Enum):
    TIMING_JITTER = "TimingJitter"
    TIMING_COLLAPSE = "TimingCollapse"
    EVENT_INSERT = "EventInsert"
    EVENT_DELETE = "EventDelete"
    EVENT_MODIFY = "EventModify"
    SPLICE = "Splice"
    DIRECTED_SPLICE = "DirectedSplice"


# Relative frequency of each operator class when a campaign picks one.
DEFAULT_MUTATION_WEIGHTS = {
    "timing": 0.35,
    "event": 0.35,
    "splice": 0.20,
    "directed_splice": 0.10,
}


@dataclass(frozen=True)
class MutationPalette:
    """Value pools that event insertion and modification draw from."""

    shapes: tuple[PromptShape, ...] = (
        PromptShape(0, 8),
        PromptShape(16, 32),
        PromptShape(16, 48),
        PromptShape(16, 64),
        PromptShape(0, 256),
    )
    adapters: tuple[str, ...] = ("BASE", "lora_a", "lora_b", "lora_c")
    max_tokens: tuple[int, ...] = (2, 8, 16, 32)
    n_completions: tuple[int, ...] = (1, 1, 2, 4, 8, 12)
    logprobs: tuple[int | None, ...] = (None, None, 5)
    wait_durations: tuple[int, ...] = (1, 2, 5, 10, 25)
    control_delays: tuple[int, ...] = (0, 1, 2, 5, 10, 40)


DEFAULT_PALETTE = MutationPalette()


# Decode tokens of every seed filler: fillers are there to fill the KV pool.
FILLER_MAX_TOKENS = 2
# How far the timing operator jitters offsets: this fraction of a second, either way.
JITTER_INTENSITY = 0.05


@dataclass(frozen=True)
class SeedProfile:
    """Recipe for one bootstrap trace: fillers at t=0, then a clustered burst."""

    name: str
    n_requests: int
    shape_palette: tuple[PromptShape, ...]
    adapter_palette: tuple[str, ...] = ("BASE",)
    burst_window_ms: int = 6
    kv_filler_count: int = 0
    max_tokens_palette: tuple[int, ...] = (16,)
    n_completions_palette: tuple[int, ...] = (1,)
    family_count: int | None = None  # None: every request its own family
    cancel_fraction: float = 0.0
    disconnect_fraction: float = 0.0
    wait_count: int = 0

    def __post_init__(self) -> None:
        if not self.shape_palette or not self.adapter_palette:
            raise ValueError("palettes must be non-empty")
        if self.burst_window_ms < 0:
            raise ValueError("burst_window_ms must be >= 0")


def _child_id(stem: str, *parts) -> str:
    return f"t~{stable_u64(stem, *parts) & 0xFFFFFFFFFFFF:012x}"


def _finish(events, trace_id: str, lineage: dict) -> TimedTrace:
    draft = TimedTrace(trace_id=trace_id, events=tuple(events), metadata={"lineage": lineage})
    return repair(draft)


# --------------------------------------------------------------------------
# Seed construction


def generate_seed(profile: SeedProfile, rng_seed: int) -> TimedTrace:
    rng = random.Random(rng_seed)
    events: list[TraceEvent] = []

    filler_shape = max(profile.shape_palette, key=lambda s: s.prompt_len)
    for i in range(profile.kv_filler_count):
        spec = RequestSpec(
            request_id=f"fill{i}",
            shape=filler_shape,
            sampling=SamplingConfig(max_tokens=FILLER_MAX_TOKENS, temperature=0.0, seed=0),
            prompt_family_id=f"{profile.name}-fill{i}",
            adapter="BASE",
        )
        events.append(TraceEvent.send(0, spec))

    # The burst starts directly after the filler phase.
    base = 4 + 2 * profile.kv_filler_count if profile.kv_filler_count else 0
    window = max(profile.burst_window_ms, max(profile.n_requests - 1, 0))
    offsets = sorted(rng.sample(range(base, base + window + 1), profile.n_requests))

    for i, offset in enumerate(offsets):
        if profile.family_count is not None:
            family = f"{profile.name}-fam{rng.randrange(profile.family_count)}"
        else:
            family = f"{profile.name}-req{i}"
        spec = RequestSpec(
            request_id=f"r{i}",
            shape=rng.choice(profile.shape_palette),
            sampling=SamplingConfig(
                max_tokens=rng.choice(profile.max_tokens_palette),
                temperature=0.0,
                seed=0,
                n_completions=rng.choice(profile.n_completions_palette),
            ),
            prompt_family_id=family,
            adapter=rng.choice(profile.adapter_palette),
        )
        events.append(TraceEvent.send(offset, spec))
        roll = rng.random()
        if roll < profile.cancel_fraction:
            events.append(TraceEvent.cancel(offset + rng.randint(1, 20), spec.request_id))
        elif roll < profile.cancel_fraction + profile.disconnect_fraction:
            events.append(TraceEvent.disconnect(offset + rng.randint(1, 20), spec.request_id))

    span = max((e.offset_ms for e in events), default=0)
    for _ in range(profile.wait_count):
        events.append(TraceEvent.wait(rng.randint(0, span + 5), rng.choice((1, 2, 5, 10))))

    return _finish(
        events,
        trace_id=f"seed~{profile.name}~{rng_seed & 0xFFFFFFFF:08x}",
        lineage={"op": "seed", "profile": profile.name, "rng_seed": rng_seed},
    )


# --------------------------------------------------------------------------
# Timing mutations


def _send_offsets(events) -> dict[str, int]:
    out: dict[str, int] = {}
    for e in events:
        if e.kind is EventKind.SEND and e.spec.request_id not in out:
            out[e.spec.request_id] = e.offset_ms
    return out


def _clamp_controls(events) -> list[TraceEvent]:
    """Control events never move ahead of the Send they target."""
    sends = _send_offsets(events)
    out = []
    for e in events:
        if e.kind in (EventKind.CANCEL, EventKind.DISCONNECT) and e.target in sends:
            out.append(e.at(max(e.offset_ms, sends[e.target])))
        else:
            out.append(e)
    return out


def timing_jitter(trace: TimedTrace, rng_seed: int, intensity: float) -> TimedTrace:
    rng = random.Random(rng_seed)
    magnitude = int(round(max(0.0, min(1.0, intensity)) * 1000))
    moved = [
        e.at(max(0, e.offset_ms + rng.randint(-magnitude, magnitude))) if magnitude else e
        for e in trace.events
    ]
    return _finish(
        _clamp_controls(moved),
        trace_id=_child_id(trace.trace_id, "jitter", rng_seed),
        lineage={"op": MutationKind.TIMING_JITTER.value, "parents": [trace.trace_id], "intensity": intensity},
    )


def timing_collapse(trace: TimedTrace, rng_seed: int, factor: float | None = None) -> TimedTrace:
    rng = random.Random(rng_seed)
    if factor is None:
        factor = rng.choice((0.0, 0.0, 0.25, 0.5))
    moved = [e.at(int(e.offset_ms * factor)) for e in trace.events]
    return _finish(
        _clamp_controls(moved),
        trace_id=_child_id(trace.trace_id, "collapse", rng_seed),
        lineage={"op": MutationKind.TIMING_COLLAPSE.value, "parents": [trace.trace_id], "factor": factor},
    )


def mutate_timing(trace: TimedTrace, rng_seed: int) -> TimedTrace:
    if random.Random(rng_seed ^ 0x5F).random() < 0.5:
        return timing_jitter(trace, rng_seed, JITTER_INTENSITY)
    return timing_collapse(trace, rng_seed)


# --------------------------------------------------------------------------
# Event mutations


def _fresh_rid(rng: random.Random) -> str:
    return f"m~{rng.randrange(1 << 32):08x}"


def _insert(trace, rng) -> list[TraceEvent]:
    events = list(trace.events)
    span = trace.end_offset_ms()
    sends = _send_offsets(events)
    roll = rng.random()
    if roll < 0.5 or not sends:
        families = sorted({e.spec.prompt_family_id for e in trace.send_events() if e.spec.prompt_family_id})
        if families and rng.random() < 0.5:
            family = rng.choice(families)
        else:
            family = f"fam~{rng.randrange(1 << 32):08x}"
        spec = RequestSpec(
            request_id=_fresh_rid(rng),
            shape=rng.choice(DEFAULT_PALETTE.shapes),
            sampling=SamplingConfig(
                max_tokens=rng.choice(DEFAULT_PALETTE.max_tokens),
                temperature=0.0,
                seed=0,
                n_completions=rng.choice(DEFAULT_PALETTE.n_completions),
                logprobs=rng.choice(DEFAULT_PALETTE.logprobs),
            ),
            prompt_family_id=family,
            adapter=rng.choice(DEFAULT_PALETTE.adapters),
        )
        events.append(TraceEvent.send(rng.randint(0, span + 5), spec))
    elif roll < 0.85:
        target = rng.choice(sorted(sends))
        offset = sends[target] + rng.choice(DEFAULT_PALETTE.control_delays)
        if rng.random() < 0.6:
            events.append(TraceEvent.cancel(offset, target))
        else:
            events.append(TraceEvent.disconnect(offset, target))
    else:
        events.append(TraceEvent.wait(rng.randint(0, span + 5), rng.choice(DEFAULT_PALETTE.wait_durations)))
    return events


def _delete(trace, rng) -> list[TraceEvent]:
    events = list(trace.events)
    if not events:
        return events
    sends = [e for e in events if e.kind is EventKind.SEND]
    victim = rng.choice(events)
    if victim.kind is EventKind.SEND and len(sends) <= 1:
        others = [e for e in events if e.kind is not EventKind.SEND]
        if not others:
            return events
        victim = rng.choice(others)
    if victim.kind is EventKind.SEND:
        rid = victim.spec.request_id
        return [e for e in events if e is not victim and e.target != rid]
    return [e for e in events if e is not victim]


def _modify(trace, rng) -> list[TraceEvent]:
    events = list(trace.events)
    send_positions = [i for i, e in enumerate(events) if e.kind is EventKind.SEND]
    if not send_positions:
        return events
    i = rng.choice(send_positions)
    spec = events[i].spec
    # prompt_family_id and temperature stay fixed: the first keeps relational
    # comparisons attributable, the second keeps replays meaningful.
    which = rng.choice(("shape", "adapter", "max_tokens", "n_completions", "logprobs"))
    if which == "shape":
        spec = spec.varied(shape=rng.choice(DEFAULT_PALETTE.shapes))
    elif which == "adapter":
        spec = spec.varied(adapter=rng.choice(DEFAULT_PALETTE.adapters))
    else:  # a sampling field, drawn from the palette pool of the same name
        sampling = SamplingConfig(**{**vars(spec.sampling), which: rng.choice(getattr(DEFAULT_PALETTE, which))})
        spec = spec.varied(sampling=sampling)
    events[i] = TraceEvent.send(events[i].offset_ms, spec)
    return events


def mutate_events(trace: TimedTrace, rng_seed: int) -> TimedTrace:
    rng = random.Random(rng_seed)
    op = rng.choice((MutationKind.EVENT_INSERT, MutationKind.EVENT_DELETE, MutationKind.EVENT_MODIFY))
    if op is MutationKind.EVENT_INSERT:
        events = _insert(trace, rng)
    elif op is MutationKind.EVENT_DELETE:
        events = _delete(trace, rng)
    else:
        events = _modify(trace, rng)
    return _finish(
        events,
        trace_id=_child_id(trace.trace_id, op.value, rng_seed),
        lineage={"op": op.value, "parents": [trace.trace_id]},
    )


# --------------------------------------------------------------------------
# Splicing


def _rename_requests(events, rename: dict[str, str]) -> list[TraceEvent]:
    out = []
    for e in events:
        if e.kind is EventKind.SEND and e.spec.request_id in rename:
            out.append(TraceEvent.send(e.offset_ms, e.spec.varied(request_id=rename[e.spec.request_id])))
        elif e.target in rename:
            out.append(TraceEvent(e.offset_ms, e.kind, target=rename[e.target]))
        else:
            out.append(e)
    return out


def _join_segments(prefix, suffix, shift: int, a_ids, b_ids) -> list[TraceEvent]:
    collisions = a_ids & b_ids
    prefix = _rename_requests(list(prefix), {rid: f"{rid}~a" for rid in collisions})
    suffix = _rename_requests(list(suffix), {rid: f"{rid}~b" for rid in b_ids})
    rebased = [e.at(max(0, e.offset_ms + shift)) for e in suffix]
    return prefix + rebased


def splice(parent_a: TimedTrace, parent_b: TimedTrace, rng_seed: int = 0) -> TimedTrace:
    rng = random.Random(rng_seed)
    end_a, end_b = parent_a.end_offset_ms(), parent_b.end_offset_ms()
    cut_a, cut_b = rng.randint(0, end_a), rng.randint(0, end_b)
    if not parent_b.events:
        cut_a = end_a + 1  # nothing to append; keep all of a
    prefix = [e for e in parent_a.events if e.offset_ms <= cut_a]
    suffix = [e for e in parent_b.events if e.offset_ms >= cut_b]
    a_ids = set(_send_offsets(prefix))
    b_ids = set(_send_offsets(suffix))
    events = _join_segments(prefix, suffix, cut_a + 1 - cut_b, a_ids, b_ids)
    return _finish(
        events,
        trace_id=_child_id(parent_a.trace_id, parent_b.trace_id, "splice", rng_seed),
        lineage={
            "op": MutationKind.SPLICE.value,
            "parents": [parent_a.trace_id, parent_b.trace_id],
            "cuts": [cut_a, cut_b],
        },
    )


# A directed splice starts the pressure burst this long after the warm phase ends.
SPLICE_GAP_MS = 2


def directed_splice(
    warm: TimedTrace,
    pressure: TimedTrace,
    warm_telemetry=None,
    pressure_telemetry=None,
    rng_seed: int = 0,
) -> TimedTrace:
    """Place warm's peak cache-population phase strictly before pressure's burst."""
    warm_window = warm_telemetry.peak_alloc_window if warm_telemetry is not None else None
    pressure_window = pressure_telemetry.peak_inflight_window if pressure_telemetry is not None else None
    if warm_window is None or pressure_window is None:
        child = splice(warm, pressure, rng_seed)
        lineage = dict(child.metadata["lineage"])
        lineage["op"] = MutationKind.DIRECTED_SPLICE.value
        lineage["fallback"] = "undirected-fallback"
        return child.with_events(child.events, metadata={"lineage": lineage})
    warm_end = warm_window[1]
    pressure_start = pressure_window[0]
    prefix = [e for e in warm.events if e.offset_ms <= warm_end]
    suffix = [e for e in pressure.events if e.offset_ms >= pressure_start]
    a_ids = set(_send_offsets(prefix))
    b_ids = set(_send_offsets(suffix))
    events = _join_segments(prefix, suffix, warm_end + SPLICE_GAP_MS - pressure_start, a_ids, b_ids)
    return _finish(
        events,
        trace_id=_child_id(warm.trace_id, pressure.trace_id, "directed", rng_seed),
        lineage={
            "op": MutationKind.DIRECTED_SPLICE.value,
            "parents": [warm.trace_id, pressure.trace_id],
            "warm_window": list(warm_window),
            "pressure_window": list(pressure_window),
            "gap_ms": SPLICE_GAP_MS,
        },
    )


# --------------------------------------------------------------------------
# Dispatch


def mutate(
    trace: TimedTrace,
    rng_seed: int,
    partner: TimedTrace | None = None,
    telemetry=None,
    partner_telemetry=None,
    weights: dict | None = None,
) -> TimedTrace:
    """Apply one weighted-random operator; splice classes need a partner."""
    rng = random.Random(rng_seed ^ 0xA5A5)
    table = dict(weights or DEFAULT_MUTATION_WEIGHTS)
    if partner is None:
        table.pop("splice", None)
        table.pop("directed_splice", None)
    groups = sorted(table)
    total = sum(table[g] for g in groups)
    pick = rng.random() * total
    chosen = groups[-1]
    for g in groups:
        pick -= table[g]
        if pick <= 0:
            chosen = g
            break
    if chosen == "timing":
        return mutate_timing(trace, rng_seed)
    if chosen == "event":
        return mutate_events(trace, rng_seed)
    if chosen == "splice":
        return splice(trace, partner, rng_seed)
    return directed_splice(trace, partner, telemetry, partner_telemetry, rng_seed)
