"""Mutation operators: every mutant must repair into a valid trace, the
operators must be deterministic in their seed, and the seed generator
must honour its profile recipe."""

import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from tracefuzz.adapter import EngineEndpoint, EngineKind, execute
from tracefuzz.campaign import DEFAULT_PROFILES, PROFILE_CHURN, PROFILE_PREFIX_SHARE, PROFILE_STEADY
from tracefuzz.mutation import (
    DEFAULT_MUTATION_WEIGHTS,
    DEFAULT_PALETTE,
    FILLER_MAX_TOKENS,
    SPLICE_GAP_MS,
    SeedProfile,
    directed_splice,
    generate_seed,
    mutate,
    mutate_events,
    mutate_timing,
    splice,
    timing_collapse,
    timing_jitter,
)
from tracefuzz.simulator.config import SimConfig
from tracefuzz.simulator.endpoint import serve
from tracefuzz.telemetry import compute_telemetry
from tracefuzz.trace import EventKind, PromptShape, RequestSpec, SamplingConfig, TraceEvent, repair, validate


def seed_trace(profile=PROFILE_STEADY, rng_seed=0):
    return generate_seed(profile, rng_seed)


# -- seed generation ---------------------------------------------------------


def test_generate_seed_is_deterministic():
    a = generate_seed(PROFILE_CHURN, 42)
    b = generate_seed(PROFILE_CHURN, 42)
    assert a == b
    assert generate_seed(PROFILE_CHURN, 43) != a


def test_generate_seed_matches_profile_recipe():
    trace = generate_seed(PROFILE_PREFIX_SHARE, 7)
    assert validate(trace).ok
    sends = trace.send_events()
    fillers = [e for e in sends if e.offset_ms == 0 and e.spec.sampling.max_tokens == FILLER_MAX_TOKENS]
    burst = [e for e in sends if e not in fillers]
    assert len(fillers) == PROFILE_PREFIX_SHARE.kv_filler_count
    assert len(burst) == PROFILE_PREFIX_SHARE.n_requests
    # burst offsets are distinct and clustered
    offsets = [e.offset_ms for e in burst]
    assert len(set(offsets)) == len(offsets)
    window = max(PROFILE_PREFIX_SHARE.burst_window_ms, PROFILE_PREFIX_SHARE.n_requests - 1)
    assert max(offsets) - min(offsets) <= window
    # fillers take the largest shape in the palette
    biggest = max(PROFILE_PREFIX_SHARE.shape_palette, key=lambda s: s.prompt_len)
    assert all(e.spec.shape == biggest for e in fillers)
    # sampling pinned for reproducibility
    assert all(e.spec.sampling.temperature == 0.0 for e in sends)
    assert all(e.spec.sampling.seed == 0 for e in sends)


def test_generate_seed_family_sharing():
    profile = SeedProfile(
        name="fam-share",
        n_requests=8,
        shape_palette=(PromptShape(16, 32),),
        family_count=3,
    )
    trace = generate_seed(profile, 5)
    families = {e.spec.prompt_family_id for e in trace.send_events()}
    assert len(families) == 3


def test_generate_seed_controls_target_known_requests():
    trace = generate_seed(PROFILE_CHURN, 9)
    assert validate(trace).ok
    rids = {e.spec.request_id for e in trace.send_events()}
    for event in trace.events:
        if event.kind in (EventKind.CANCEL, EventKind.DISCONNECT):
            assert event.target in rids


# -- timing operators --------------------------------------------------------


def test_timing_jitter_preserves_event_multiset():
    trace = seed_trace(PROFILE_CHURN, 3)
    jittered = timing_jitter(trace, 17, intensity=0.2)
    assert validate(jittered).ok
    assert len(jittered.events) == len(trace.events)
    # identity of sends preserved, offsets may move
    assert {e.spec.request_id for e in jittered.send_events()} == {
        e.spec.request_id for e in trace.send_events()
    }
    assert timing_jitter(trace, 17, intensity=0.2) == jittered


def test_timing_collapse_shrinks_span():
    trace = seed_trace(PROFILE_CHURN, 3)
    collapsed = timing_collapse(trace, 11, factor=0.0)
    assert validate(collapsed).ok
    send_offsets = {e.offset_ms for e in collapsed.send_events()}
    assert send_offsets == {0}


def test_mutate_timing_lineage():
    trace = seed_trace()
    child = mutate_timing(trace, 23)
    assert child.trace_id != trace.trace_id
    assert child.metadata["lineage"]["parents"] == [trace.trace_id]
    assert child.metadata["lineage"]["op"] in ("TimingJitter", "TimingCollapse")


# -- event operators ---------------------------------------------------------


def test_mutate_events_valid_and_deterministic():
    trace = seed_trace(PROFILE_CHURN, 1)
    for seed in range(40):
        child = mutate_events(trace, seed)
        assert validate(child).ok, (seed, validate(child).violations)
    assert mutate_events(trace, 8) == mutate_events(trace, 8)


# -- splice operators --------------------------------------------------------


def test_splice_renames_collisions():
    a = seed_trace(PROFILE_STEADY, 0)
    b = seed_trace(PROFILE_STEADY, 0)  # identical ids guarantee collisions
    child = splice(a, b, 5)
    assert validate(child).ok
    assert child.metadata["lineage"]["op"] == "Splice"
    assert set(child.metadata["lineage"]["parents"]) == {a.trace_id}


def test_directed_splice_falls_back_without_telemetry():
    a = seed_trace(PROFILE_STEADY, 1)
    b = seed_trace(PROFILE_CHURN, 2)
    child = directed_splice(a, b, None, None, 9)
    assert validate(child).ok
    lineage = child.metadata["lineage"]
    assert lineage["op"] == "DirectedSplice"
    assert lineage.get("fallback") == "undirected-fallback"


def test_directed_splice_puts_the_pressure_burst_after_the_warm_peak():
    warm = seed_trace(PROFILE_PREFIX_SHARE, 1)
    burst = seed_trace(PROFILE_CHURN, 2)
    # One lone request at 0, then the burst 1.5 s in: the pressure peak is the second window.
    lone = TraceEvent.send(0, RequestSpec("lone", PromptShape(0, 16), SamplingConfig(max_tokens=2, temperature=0.0, seed=0)))
    pressure = repair(burst.with_events((lone,) + tuple(replace(e, offset_ms=e.offset_ms + 1_500) for e in burst.events)))
    warm_rec, pressure_rec = (
        compute_telemetry(execute(trace, EngineEndpoint(kind=EngineKind.SIMULATOR, handle=serve(SimConfig(seed=0)))))
        for trace in (warm, pressure)
    )
    assert pressure_rec.peak_inflight_window == (1_000, 2_000)

    child = directed_splice(warm, pressure, warm_rec, pressure_rec, 9)
    assert validate(child).ok
    lineage = child.metadata["lineage"]
    assert "fallback" not in lineage
    assert lineage["warm_window"] == list(warm_rec.peak_alloc_window)
    assert lineage["pressure_window"] == list(pressure_rec.peak_inflight_window)
    # The pressure parent's events are the ones renamed with ~b; Waits carry no id.
    from_pressure = [e for e in child.events if (e.spec.request_id if e.spec else e.target or "").endswith("~b")]
    assert len(from_pressure) == sum(1 for e in pressure.events if e.offset_ms >= 1_000 and e.kind is not EventKind.WAIT)
    assert all(e.offset_ms >= warm_rec.peak_alloc_window[1] + SPLICE_GAP_MS for e in from_pressure)


def test_mutate_dispatcher_without_partner_never_splices():
    trace = seed_trace(PROFILE_CHURN, 4)
    for seed in range(60):
        child = mutate(trace, seed)
        assert child.metadata["lineage"]["op"] in (
            "TimingJitter",
            "TimingCollapse",
            "EventInsert",
            "EventDelete",
            "EventModify",
        )


def test_mutate_weights_must_cover_selected_groups():
    trace = seed_trace(PROFILE_STEADY, 2)
    partner = seed_trace(PROFILE_CHURN, 3)
    ops = set()
    for seed in range(120):
        child = mutate(trace, seed, partner=partner)
        ops.add(child.metadata["lineage"]["op"])
    assert {"Splice", "DirectedSplice"} & ops
    assert any(op.startswith("Timing") for op in ops)


# -- bulk validity (the 10k sweep lives in acceptance; this is the fast gate) -


@settings(max_examples=200, deadline=None)
@given(
    profile_i=st.integers(min_value=0, max_value=len(DEFAULT_PROFILES) - 1),
    seed=st.integers(min_value=0, max_value=2**31),
    partner_seed=st.integers(min_value=0, max_value=2**31),
)
def test_random_mutants_always_repair_valid(profile_i, seed, partner_seed):
    rng = random.Random(seed)
    parent = generate_seed(DEFAULT_PROFILES[profile_i], rng.randrange(2**31))
    partner = generate_seed(DEFAULT_PROFILES[(profile_i + 1) % len(DEFAULT_PROFILES)], partner_seed)
    child = mutate(parent, seed, partner=partner if seed % 3 else None)
    report = validate(child)
    assert report.ok, report.violations
