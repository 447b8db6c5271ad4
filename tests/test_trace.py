"""Trace model: canonical ordering, validation, repair, prompt synthesis,
and the serialized wire format."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from tracefuzz.trace import (
    _MAX_RENDERABLE,
    EventKind,
    PromptShape,
    RequestSpec,
    SamplingConfig,
    TimedTrace,
    TraceEvent,
    TraceFormatError,
    deserialize,
    ordered,
    parse_prompt,
    prompt_for,
    render_prompt,
    repair,
    serialize,
    synthesize_prompt,
    token_word,
    validate,
    word_token,
)


def send(rid, off, prefix=0, plen=16, **sampling):
    return TraceEvent.send(
        off,
        RequestSpec(
            request_id=rid,
            shape=PromptShape(prefix, plen),
            sampling=SamplingConfig(**sampling) if sampling else SamplingConfig(),
            prompt_family_id=f"fam-{rid}",
        ),
    )


# -- construction guards -----------------------------------------------------


def test_event_constructors_reject_malformed():
    with pytest.raises(ValueError):
        TraceEvent(0, EventKind.SEND)
    with pytest.raises(ValueError):
        TraceEvent(0, EventKind.CANCEL)
    with pytest.raises(ValueError):
        TraceEvent.wait(0, -1)
    with pytest.raises(ValueError):
        PromptShape(prefix_len=8, prompt_len=4)
    with pytest.raises(ValueError):
        SamplingConfig(max_tokens=0)


def test_ordered_puts_sends_before_controls_at_ties():
    events = [TraceEvent.cancel(5, "a"), send("a", 5), TraceEvent.wait(5, 2)]
    kinds = [e.kind for e in ordered(events)]
    assert kinds.index(EventKind.SEND) < kinds.index(EventKind.CANCEL)
    assert kinds.index(EventKind.WAIT) < kinds.index(EventKind.CANCEL)


# -- validate / repair -------------------------------------------------------


def test_validate_flags_each_violation_class():
    trace = TimedTrace(
        trace_id="t~bad",
        events=(
            TraceEvent.cancel(0, "ghost"),
            send("a", 4),
            send("a", 2),  # duplicate id, also unsorted
            TraceEvent(-3, EventKind.WAIT, duration_ms=1),
        ),
    )
    report = validate(trace)
    codes = {v.code for v in report.violations}
    assert not report.ok
    assert codes == {
        "orphaned-control-event",
        "duplicate-request-id",
        "unsorted-events",
        "negative-offset",
    }


def test_repair_never_drops_sends_or_waits():
    trace = TimedTrace(
        trace_id="t~fix",
        events=(
            TraceEvent.disconnect(1, "missing"),
            send("a", 9),
            send("a", 3),
            TraceEvent.wait(-2, 4),
            TraceEvent.cancel(10, "a"),
        ),
    )
    fixed = repair(trace)
    assert validate(fixed).ok
    sends = [e for e in fixed.events if e.kind is EventKind.SEND]
    waits = [e for e in fixed.events if e.kind is EventKind.WAIT]
    assert len(sends) == 2 and len(waits) == 1
    # duplicate renamed, control retargets nothing (first occurrence keeps id)
    assert {e.spec.request_id for e in sends} == {"a", "a~2"}
    cancels = [e for e in fixed.events if e.kind is EventKind.CANCEL]
    assert cancels and cancels[0].target == "a"


def test_repair_idempotent_on_hand_case():
    trace = TimedTrace(
        trace_id="t~idem",
        events=(send("x", 7), send("x", 7), TraceEvent.cancel(3, "x")),
    )
    once = repair(trace)
    assert repair(once) == once


def test_repair_tolerates_empty():
    empty = TimedTrace(trace_id="t~empty", events=())
    assert repair(empty).events == ()
    assert validate(repair(empty)).ok


# -- prompt synthesis --------------------------------------------------------


def test_prefix_tokens_depend_only_on_corpus_position():
    a = synthesize_prompt(PromptShape(32, 64), "fam-a", corpus_seed=7)
    b = synthesize_prompt(PromptShape(32, 64), "fam-b", corpus_seed=7)
    c = synthesize_prompt(PromptShape(32, 48), "fam-c", corpus_seed=7)
    assert a[:32] == b[:32] == c[:32]
    assert a[32:] != b[32:]
    other = synthesize_prompt(PromptShape(32, 64), "fam-a", corpus_seed=8)
    assert other[:32] != a[:32]


def test_prompt_is_family_pinned_and_shape_sized():
    shape = PromptShape(16, 40)
    spec1 = RequestSpec(request_id="r1", shape=shape, prompt_family_id="shared")
    spec2 = RequestSpec(request_id="r2", shape=shape, prompt_family_id="shared")
    assert prompt_for(spec1, 0) == prompt_for(spec2, 0)
    assert len(prompt_for(spec1, 0)) == 40
    solo = RequestSpec(request_id="r3", shape=shape)
    assert prompt_for(solo, 0) != prompt_for(spec1, 0)  # falls back to request id


def test_prompt_tokens_within_vocab():
    tokens = synthesize_prompt(PromptShape(0, 128), "fam", 3, vocab_size=512)
    assert all(0 <= t < 512 for t in tokens)


def test_render_parse_round_trip():
    tokens = synthesize_prompt(PromptShape(8, 24), "fam-r", 0)
    assert parse_prompt(render_prompt(tokens)) == tuple(tokens)
    assert word_token(token_word(1023)) == 1023
    with pytest.raises(ValueError):
        parse_prompt("not a synthesized word stream !!")


def test_every_renderable_token_id_round_trips():
    assert [word_token(token_word(t)) for t in range(_MAX_RENDERABLE)] == list(range(_MAX_RENDERABLE))
    for word in ("", "bab", "babab", "xaba", "baxa", "BABA", "ba b"):
        with pytest.raises(ValueError, match="not a token word"):
            word_token(word)


# -- wire format -------------------------------------------------------------


def _round_trip(trace):
    data = serialize(trace)
    back = deserialize(data)
    assert back == trace
    # a second cycle is byte-stable
    assert serialize(back) == data


def test_serialize_round_trip_hand_case():
    trace = TimedTrace(
        trace_id="t~wire",
        events=(
            send("a", 0, prefix=16, plen=48, max_tokens=8, temperature=0.0, seed=3, logprobs=5, n_completions=2),
            TraceEvent.wait(4, 12),
            TraceEvent.cancel(9, "a"),
            TraceEvent.disconnect(11, "a"),
        ),
        metadata={"lineage": {"op": "seed", "parents": []}},
    )
    _round_trip(trace)
    doc = json.loads(serialize(trace))
    assert doc["trace_id"] == "t~wire"
    assert [e["kind"] for e in doc["events"]] == ["Send", "Wait", "Cancel", "Disconnect"]


def test_deserialize_rejects_malformed_documents():
    good = json.loads(serialize(TimedTrace("t~x", (send("a", 0),))))
    for breakage in (
        lambda d: d.pop("events"),
        lambda d: d["events"][0].pop("kind"),
        lambda d: d["events"][0].update(kind="Teleport"),
        lambda d: d["events"][0].update(offset_ms="soon"),
        lambda d: d["events"][0].update(shape={"prefix_len": 9, "prompt_len": 4}),
    ):
        doc = json.loads(json.dumps(good))
        breakage(doc)
        with pytest.raises(TraceFormatError):
            deserialize(json.dumps(doc))
    with pytest.raises(TraceFormatError):
        deserialize(b"{not json")


@pytest.mark.parametrize(
    "part, key, value",
    [
        ("event", "offset_ms", True),
        ("event", "adapter", 3),
        ("event", "prompt_family_id", 7),
        ("event", "stream", "yes"),
        ("shape", "prompt_len", True),
        ("sampling", "max_tokens", True),
        ("sampling", "temperature", False),
        ("sampling", "seed", "x"),
        ("sampling", "logprobs", True),
        ("sampling", "n_completions", "2"),
        ("sampling", "n_completions", True),
    ],
)
def test_deserialize_refuses_a_mistyped_field(part, key, value):
    # A bool is no int or float here: the HTTP server refuses it, so the trace is refused before it runs.
    doc = json.loads(serialize(TimedTrace("t~x", (send("a", 0, seed=3, logprobs=5),))))
    event = doc["events"][0]
    {"event": event, "shape": event["shape"], "sampling": event["sampling"]}[part][key] = value
    with pytest.raises(TraceFormatError, match=rf"\.{key}: expected (int|str|bool|int or float), got {type(value).__name__}"):
        deserialize(json.dumps(doc))


# -- property tests ----------------------------------------------------------

rids = st.text(alphabet="abcdxyz", min_size=1, max_size=4)


@st.composite
def trace_events(draw):
    events = []
    n = draw(st.integers(min_value=0, max_value=12))
    for i in range(n):
        kind = draw(st.sampled_from(["send", "cancel", "disconnect", "wait"]))
        off = draw(st.integers(min_value=-5, max_value=200))
        if kind == "send":
            events.append(
                send(
                    draw(rids),
                    off,
                    prefix=draw(st.sampled_from([0, 16])),
                    plen=draw(st.sampled_from([16, 32, 48])),
                    max_tokens=draw(st.sampled_from([1, 4, 16])),
                    n_completions=draw(st.sampled_from([1, 2])),
                    logprobs=draw(st.sampled_from([None, 3])),
                )
            )
        elif kind == "wait":
            events.append(TraceEvent.wait(off, draw(st.integers(min_value=0, max_value=30))))
        elif kind == "cancel":
            events.append(TraceEvent.cancel(off, draw(rids)))
        else:
            events.append(TraceEvent.disconnect(off, draw(rids)))
    return TimedTrace(trace_id="t~prop", events=tuple(events))


@settings(max_examples=120, deadline=None)
@given(trace_events())
def test_repair_yields_valid_and_is_idempotent(trace):
    fixed = repair(trace)
    assert validate(fixed).ok
    assert repair(fixed) == fixed
    before = [e for e in trace.events if e.kind in (EventKind.SEND, EventKind.WAIT)]
    after = [e for e in fixed.events if e.kind in (EventKind.SEND, EventKind.WAIT)]
    assert len(before) == len(after)


@settings(max_examples=120, deadline=None)
@given(trace_events())
def test_serialize_round_trip_property(trace):
    _round_trip(repair(trace))
