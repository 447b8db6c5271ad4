"""Endpoint adapter over the in-process simulator: event dispatch, outcome
mapping, and report assembly."""

import json
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import tracefuzz.adapter as adapter_module
from tracefuzz.adapter import (
    EndpointUnavailable,
    EngineEndpoint,
    EngineKind,
    KvEvent,
    completion_body,
    completion_chunk,
    execute,
    read_completion_chunk,
    request_outcome,
    reset_server,
)
from tracefuzz.simulator.config import FaultFamily, SimConfig
from tracefuzz.simulator.endpoint import serve
from tracefuzz.telemetry import compute_telemetry
from tracefuzz.trace import (
    EventKind,
    PromptShape,
    RequestSpec,
    SamplingConfig,
    TimedTrace,
    TraceEvent,
    parse_prompt,
)
from tracefuzz.trace import _MAX_RENDERABLE


def endpoint_for(config=None):
    return EngineEndpoint(kind=EngineKind.SIMULATOR, handle=serve(config or SimConfig()))


def send(rid, off, plen=32, prefix=0, adapter="BASE", mt=4, n=1, logprobs=None, fam=None):
    return TraceEvent.send(
        off,
        RequestSpec(
            request_id=rid,
            shape=PromptShape(prefix, plen),
            sampling=SamplingConfig(max_tokens=mt, temperature=0.0, seed=0, n_completions=n, logprobs=logprobs),
            prompt_family_id=fam or f"fam-{rid}",
            adapter=adapter,
        ),
    )


def test_endpoint_requires_handle_or_url():
    with pytest.raises(ValueError):
        EngineEndpoint(kind=EngineKind.SIMULATOR)
    with pytest.raises(ValueError):
        EngineEndpoint(kind=EngineKind.OPENAI)


def test_execute_maps_offsets_to_dispatch_times():
    ep = endpoint_for()
    trace = TimedTrace("t~dispatch", (send("a", 0), send("b", 7), send("c", 31)))
    report = execute(trace, ep)
    assert {rid: o.dispatched_ms for rid, o in report.outcomes.items()} == {"a": 0, "b": 7, "c": 31}
    for outcome in report.outcomes.values():
        assert outcome.status == "completed"
        assert outcome.ttft_ms is not None and outcome.ttft_ms >= 1
        assert outcome.total_ms >= outcome.ttft_ms
        assert len(outcome.output_tokens) == 1
        assert len(outcome.output_tokens[0]) == 4
    assert not report.server_crashed
    assert report.schedule_degraded is False
    assert report.engine_info["engine"] == "tracefuzz-sim"


def test_execute_collects_kv_stream_and_snapshots():
    ep = endpoint_for()
    trace = TimedTrace("t~kv", (send("a", 0, plen=64), send("b", 3, plen=64, fam="fam-a")))
    report = execute(trace, ep)
    kinds = {e.kind for e in report.kv_events}
    assert "alloc" in kinds and "prefix_hit" in kinds
    assert set(report.block_snapshots) >= {"a", "b"}
    assert report.request_index["a"].shape.prompt_len == 64


def test_cancel_and_disconnect_map_to_statuses():
    ep = endpoint_for()
    trace = TimedTrace(
        "t~ctl",
        (
            send("keep", 0, mt=2),
            send("drop", 0, plen=256, mt=64),
            send("gone", 0, plen=256, mt=64),
            TraceEvent.cancel(6, "drop"),
            TraceEvent.disconnect(6, "gone"),
        ),
    )
    report = execute(trace, ep)
    assert report.outcomes["keep"].status == "completed"
    assert report.outcomes["drop"].status == "cancelled"
    assert report.outcomes["gone"].status == "disconnected"


def test_submit_error_becomes_server_error_outcome():
    ep = endpoint_for()
    trace = TimedTrace("t~err", (send("a", 0, adapter="lora_unknown"), send("b", 1)))
    report = execute(trace, ep)
    assert report.outcomes["a"].status == "server_error"
    assert "adapter" in report.outcomes["a"].error
    assert report.outcomes["b"].status == "completed"


def test_a_request_that_cannot_fit_the_pool_is_a_server_error():
    ep = endpoint_for(SimConfig(total_kv_blocks=8))
    report = execute(TimedTrace("t~huge", (send("huge", 0, plen=512, mt=2),)), ep)
    assert report.outcomes["huge"].status == "server_error"
    assert "KV blocks" in report.outcomes["huge"].error
    assert report.wall_clock_span_ms == 0


def test_logprob_records_surface_when_requested():
    ep = endpoint_for()
    trace = TimedTrace("t~lp", (send("a", 0, logprobs=5, mt=3),))
    report = execute(trace, ep)
    records = report.outcomes["a"].logprob_records
    assert records is not None
    assert len(records[0]) == 3  # one ladder per generated token
    for ladder in records[0]:
        assert len(ladder) >= 5
        lps = [lp for _, lp in ladder]
        assert lps == sorted(lps, reverse=True)
    bare = execute(TimedTrace("t~bare", (send("a", 0),)), ep)
    assert bare.outcomes["a"].logprob_records is None


def test_canonical_decode_flag_controls_salting():
    cfg = SimConfig(seed=2, near_tie_gap=0.05)
    trace = TimedTrace("t~canon", (send("a", 0, mt=16), send("b", 1, mt=16, fam="fam-a")))

    ep = endpoint_for(cfg)
    salted = execute(trace, ep)
    assert salted.outcomes["a"].output_tokens != salted.outcomes["b"].output_tokens

    reset_server(ep)
    canon = execute(trace, ep, canonical_decode=True)
    assert canon.outcomes["a"].output_tokens == canon.outcomes["b"].output_tokens


def test_crash_marks_inflight_and_undispatched():
    import sys, pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from drift_schedules import drift_schedule
    from tracefuzz.simulator.engine import ALL_CONDITIONS

    events = []
    seq = 0
    for when, rid, length, adapter, mt in drift_schedule(ALL_CONDITIONS, tag=0):
        events.append(send(rid, int(when), plen=length, adapter=adapter, mt=mt, fam=f"fam-{seq}"))
        seq += 1
    events.append(send("after-crash", 200))
    trace = TimedTrace("t~crash", tuple(events))

    ep = endpoint_for(SimConfig().with_faults(FaultFamily.ADAPTER_DRIFT))
    report = execute(trace, ep)
    assert report.server_crashed
    assert report.crash_evidence["signature"] == "running-adapters-not-subset-loaded"
    assert report.outcomes["after-crash"].status == "server_error"
    statuses = {o.status for o in report.outcomes.values()}
    assert "server_error" in statuses


def test_timeout_drain_expires_starved_requests():
    # Eight streams trip the F2 stall: every tick costs a second, so the
    # request is still decoding when its two-second deadline passes.
    ep = EngineEndpoint(
        kind=EngineKind.SIMULATOR,
        handle=serve(SimConfig().with_faults(FaultFamily.ENGINE_STALL)),
        request_timeout_ms=2_000,
    )
    trace = TimedTrace("t~wedge", (send("wedged", 0, mt=8, n=8),))
    report = execute(trace, ep)
    assert report.outcomes["wedged"].status == "timeout"
    assert report.wall_clock_span_ms >= 2_000
    assert EngineEndpoint(kind=EngineKind.SIMULATOR, handle=ep.handle).request_timeout_ms == 60_000


def test_execute_counts_from_the_clock_at_entry():
    # A core whose clock has moved on (as a recovery probe finds it after a
    # replay) must report the trace as a fresh core does: offsets, dispatch
    # times, stamps and the span are counted from the clock at entry.
    trace = TimedTrace(
        "t~late",
        (send("a", 0, plen=16, mt=8), send("b", 10, plen=16, mt=32), TraceEvent(20, EventKind.CANCEL, target="b")),
    )

    def observed(report):
        return report.wall_clock_span_ms, {
            rid: (o.status, o.dispatched_ms, o.ttft_ms, o.total_ms, o.output_tokens, o.token_stamps)
            for rid, o in report.outcomes.items()
        }

    ep = endpoint_for()
    fresh = observed(execute(trace, ep))
    reset_server(ep)
    ep.handle.advance_to(1_000)
    late = observed(execute(trace, ep))
    assert fresh[1]["b"][0] == "cancelled" and fresh[1]["b"][2] is not None
    assert late == fresh


def test_a_report_holds_only_its_own_trace_kv_state():
    # A second trace on the same core without a reset, as the recovery probe
    # runs after a replay: its report must not carry the first trace's KV
    # events or snapshots, and its KV stamps count from entry like its span.
    ep = endpoint_for()
    execute(TimedTrace("t~a", (send("a", 0),)), ep)
    ep.handle.advance_to(1_000)
    late = execute(TimedTrace("t~b", (send("b", 0),)), ep)

    assert {e.owner_request_id for e in late.kv_events} == {"b"}
    assert all(0 <= e.ts_ms <= late.wall_clock_span_ms for e in late.kv_events)
    assert set(late.block_snapshots) == {"b"}
    assert compute_telemetry(late).peak_alloc_window == (0, 1000)

    reset_server(ep)
    fresh = execute(TimedTrace("t~b", (send("b", 0),)), ep)
    assert [(e.ts_ms, e.kind) for e in late.kv_events] == [(e.ts_ms, e.kind) for e in fresh.kv_events]


def test_reset_server_gives_fresh_state():
    ep = endpoint_for()
    trace = TimedTrace("t~fresh", (send("a", 0, plen=64),))
    first = execute(trace, ep)
    reset_server(ep)
    second = execute(trace, ep)
    # identical run on a reset engine: no prefix hits leak across resets
    assert [e.kind for e in first.kv_events] == [e.kind for e in second.kv_events]
    assert first.outcomes["a"].output_tokens == second.outcomes["a"].output_tokens


def test_unavailable_endpoint_raises():
    ep = endpoint_for(SimConfig().with_faults(FaultFamily.ADAPTER_DRIFT))
    import sys, pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from drift_schedules import play_schedule
    from tracefuzz.simulator.engine import ALL_CONDITIONS

    play_schedule(ep.handle, ALL_CONDITIONS)
    assert ep.handle.crashed
    with pytest.raises(EndpointUnavailable):
        execute(TimedTrace("t~down", (send("x", 0),)), ep)


@pytest.mark.parametrize(
    "facts, expected",
    [
        # A refusal stands over an end and a control, and keeps nothing else the client saw.
        ({"refusal": "unknown adapter 'x'", "end": ("completed", None), "control": EventKind.CANCEL, "total_ms": 5,
          "output_tokens": ((1,),)}, ("server_error", "unknown adapter 'x'", None, ())),
        # An end the client heard stands over a later control.
        ({"end": ("server_error", "stream ended before [DONE]"), "control": EventKind.CANCEL, "total_ms": 5},
         ("server_error", "stream ended before [DONE]", 5, ())),
        # Without one, the first control decides, then the client's deadline.
        ({"control": EventKind.DISCONNECT, "deadline": "client-side timeout", "total_ms": 5}, ("disconnected", None, 5, ())),
        ({"deadline": "client-side timeout", "total_ms": 5}, ("timeout", "client-side timeout", 5, ())),
        ({}, ("timeout", "no response", None, ())),  # no thread answered
    ],
)
def test_a_requests_end_follows_one_rule(facts, expected):
    outcome = request_outcome("r", 3, **facts)
    assert outcome.dispatched_ms == 3
    assert (outcome.status, outcome.error, outcome.total_ms, outcome.output_tokens) == expected


# -- HTTP transport ------------------------------------------------------------


class _Reply:
    """A stub reply, standing in for its socket too: a status, a body (a JSON document unless given as bytes)
    and, for a completion, the lines of its stream."""

    def __init__(self, status, doc=None, lines=(), body=None):
        self.status, self._lines = status, lines
        self._body = json.dumps(doc).encode() if body is None else body

    def read(self):
        return self._body

    def __iter__(self):
        yield from self._lines

    def shutdown(self, how):
        pass


def _serve_stub(monkeypatch, reply_for):
    """Answer every HTTP exchange of the adapter with ``reply_for(path)``: a _Reply, or EndpointUnavailable
    raised for an endpoint that gives none."""

    @contextmanager
    def exchange(endpoint, method, path, doc=None, headers=None, timeout=5.0):
        reply = reply_for(path)
        yield reply, reply

    monkeypatch.setattr(adapter_module, "_exchange", exchange)


def test_wall_report_is_not_rewritten_by_a_request_that_outlives_its_join(monkeypatch):
    release, stragglers = threading.Event(), []

    def slow_stream():
        release.wait(10)
        yield b'data: {"choices": [{"text": ""}]}'
        yield b"data: [DONE]"

    def reply_for(path):
        if path == "/v1/completions":
            stragglers.append(threading.current_thread())
            return _Reply(200, lines=slow_stream())
        if path == "/control/decode_mode" or path.startswith("/kv_events"):
            return _Reply(404)  # no decode-mode control, no KV stream
        return _Reply(200, doc={"vocab_size": 1024})

    real_join = threading.Thread.join

    def short_join(thread, timeout=None):
        real_join(thread, 0.2)  # gives up on the open stream, as a join past its deadline does

    _serve_stub(monkeypatch, reply_for)
    monkeypatch.setattr(threading.Thread, "join", short_join)
    ep = EngineEndpoint(kind=EngineKind.OPENAI, base_url="http://stub")
    report = execute(TimedTrace("t~straggler", (send("slow", 0),)), ep)
    assert stragglers[0].is_alive() and not release.is_set()  # the stream was open when the report was built
    assert report.outcomes["slow"].status == "timeout"

    release.set()
    real_join(stragglers[0], 10)
    assert not stragglers[0].is_alive()
    assert report.outcomes["slow"].status == "timeout"
    assert report.outcomes["slow"].error == "no response"


def test_hung_streams_share_one_join_deadline(monkeypatch):
    release, waits, waited = threading.Event(), [], [0.0]

    def hung_stream():
        release.wait(10)
        yield b"data: [DONE]"

    def reply_for(path):
        if path == "/v1/completions":
            return _Reply(200, lines=hung_stream())
        if path.startswith("/kv_events"):
            return _Reply(404)
        return _Reply(200, doc={"vocab_size": 1024})

    real_join = threading.Thread.join

    def timed_out_join(thread, timeout=None):
        waits.append(timeout)
        waited[0] += timeout  # the adapter's clock moves on as if the join had waited it out
        real_join(thread, 0.01)

    _serve_stub(monkeypatch, reply_for)
    monkeypatch.setattr(threading.Thread, "join", timed_out_join)
    monkeypatch.setattr(adapter_module, "time", SimpleNamespace(monotonic=lambda: time.monotonic() + waited[0],
                                                                sleep=time.sleep))
    ep = EngineEndpoint(kind=EngineKind.OPENAI, base_url="http://stub")
    try:
        report = execute(TimedTrace("t~hung", tuple(send(f"h{i}", 0) for i in range(6))), ep)
    finally:
        release.set()
    assert len(waits) == 6
    assert sum(waits) <= ep.request_timeout_ms / 1000 + 5
    assert {o.status for o in report.outcomes.values()} == {"timeout"}


def _stream_stub(lines):
    """A stub engine that streams ``lines`` for every completion and serves no KV stream."""

    def reply_for(path):
        if path == "/v1/completions":
            return _Reply(200, lines=lines)
        return _Reply(404 if path.startswith("/kv_events") else 200, {})

    return reply_for


@pytest.mark.parametrize(
    "lines, status, error",
    [
        ([b'data: {"choices": [{"text": ""}]}', b"data: [DONE]"], "completed", None),
        ([b'data: {"choices": [{"text": ""}]}'], "server_error", "stream ended before [DONE]"),
        ([b'data: {"choices": [{"te'], "server_error", "JSONDecodeError: "),
        ([b'data: {"choices": []}'], "server_error", "IndexError: "),
        # A chunk for a choice the request did not ask for, or with an index that is not one.
        ([b'data: {"choices": [{"index": 1, "text": ""}]}', b"data: [DONE]"], "server_error", "IndexError: "),
        ([b'data: {"choices": [{"index": -1, "text": ""}]}', b"data: [DONE]"], "server_error", "ValueError: "),
    ],
)
def test_a_stream_nobody_aborted_completes_only_with_done(monkeypatch, lines, status, error):
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    _serve_stub(monkeypatch, _stream_stub(lines))
    report = execute(TimedTrace("t~framing", (send("s", 0),)), EngineEndpoint(kind=EngineKind.OPENAI, base_url="http://stub"))
    outcome = report.outcomes["s"]
    assert outcome.status == status
    assert outcome.error == error if error is None else outcome.error.startswith(error)
    assert uncaught == []


def test_an_engine_without_a_stream_cursor_reports_its_whole_kv_stream(monkeypatch):
    # A /health body that is not a JSON object gives no cursor: the report
    # reads the stream from its start, unshifted.
    line = '{"adapter": "BASE", "block_hash": null, "block_id": 3, "kind": "alloc", "owner_request_id": "q", "ts_ms": 9}'
    asked = []

    def reply_for(path):
        if path.startswith("/kv_events"):
            asked.append(path)
            return _Reply(200, body=line.encode() + b"\n")
        if path == "/v1/completions":
            return _Reply(200, lines=[b"data: [DONE]"])
        return _Reply(200, body=b"not JSON") if path == "/health" else _Reply(200, {"vocab_size": 1024})

    _serve_stub(monkeypatch, reply_for)
    report = execute(TimedTrace("t~plain", (send("p", 0),)), EngineEndpoint(kind=EngineKind.OPENAI, base_url="http://stub"))
    assert asked == ["/kv_events?since=0"]
    assert report.kv_events == (KvEvent(9, "alloc", 3, None, "q", "BASE"),)
    assert report.outcomes["p"].status == "completed"
    assert not report.server_crashed


_KV_LINE = '{"adapter": "BASE", "block_hash": null, "block_id": 3, "kind": "alloc", "owner_request_id": "q", "ts_ms": 9}'


def _execute_on_stub(monkeypatch, info=_Reply(200, {"vocab_size": 1024}), health=None, kv_text=_KV_LINE + "\n"):
    """One Send over a stub engine with the given /control/info reply, /health body and /kv_events text.

    The stub's KV stamps do not move with time, so neither does the adapter's clock: no time passes between
    the /health read and the epoch, and the stream is restamped from the /health clock alone.
    """
    def reply_for(path):
        if path.startswith("/kv_events"):
            return _Reply(200, body=kv_text.encode())
        if path == "/health":
            return _Reply(200, {"kv_events": 0, "clock_ms": 0} if health is None else health)
        if path == "/v1/completions":
            return _Reply(200, lines=[b"data: [DONE]"])
        return info if path == "/control/info" else _Reply(200, {})

    _serve_stub(monkeypatch, reply_for)
    monkeypatch.setattr(adapter_module, "time", SimpleNamespace(monotonic=lambda: 0.0, sleep=time.sleep))
    report = execute(TimedTrace("t~odd", (send("p", 0),)), EngineEndpoint(kind=EngineKind.OPENAI, base_url="http://stub"))
    assert report.outcomes["p"].status == "completed"
    return report


@pytest.mark.parametrize(
    "info",
    [_Reply(200, []), _Reply(200, {"vocab_size": "1024"}), _Reply(200, {"vocab_size": True}),
     _Reply(200, {"vocab_size": 1024, "block_size_tokens": 0}), _Reply(503, {"vocab_size": 7})],
)
def test_engine_info_that_is_not_an_info_object_counts_as_empty(monkeypatch, info):
    assert _execute_on_stub(monkeypatch, info=info).engine_info == {}


@pytest.mark.parametrize(
    "health",
    [{"kv_events": "0", "clock_ms": 0}, {"kv_events": -1, "clock_ms": 0}, {"kv_events": True, "clock_ms": 0},
     {"kv_events": 0, "clock_ms": 1.5}, {"kv_events": 0, "clock_ms": None}],
)
def test_a_health_cursor_that_is_not_a_count_leaves_the_kv_stream_unsupported(monkeypatch, health):
    assert _execute_on_stub(monkeypatch, health=health).kv_events is None


@pytest.mark.parametrize(
    "line",
    ['{"kind": "alloc"}', "[]", "not json", _KV_LINE.replace('"alloc"', '"grow"'),
     _KV_LINE.replace('"ts_ms": 9', '"ts_ms": "9"'), _KV_LINE.replace("null", '"h"'),
     _KV_LINE.replace('"ts_ms": 9', '"ts_ms": 4')],
    ids=["no-fields", "a-list", "not-json", "unknown-kind", "string-ts", "string-hash", "stamped-before-entry"],
)
def test_a_kv_line_that_is_not_an_event_leaves_the_kv_stream_unsupported(monkeypatch, line):
    health = {"kv_events": 0, "clock_ms": 5}
    assert _execute_on_stub(monkeypatch, health=health).kv_events == (KvEvent(4, "alloc", 3, None, "q", "BASE"),)
    assert _execute_on_stub(monkeypatch, health=health, kv_text=f"{_KV_LINE}\n{line}\n").kv_events is None


def test_a_late_request_thread_counts_its_dispatch_from_the_epoch(monkeypatch):
    # Each request thread wakes 100 ms after its Send's offset.  Its dispatch is
    # when it posted, so the lateness reads as dispatched_ms minus the offset;
    # its stamps and end count from the same epoch, so its TTFT leaves it out.
    real_wait = threading.Event.wait

    def late_wait(self, timeout=None):
        woke = real_wait(self, timeout)
        if threading.current_thread() is not threading.main_thread():  # a request thread's gate
            time.sleep(0.1)
        return woke

    lines = [completion_chunk(0, 0, (5, 6), None).rstrip(b"\n"), b"data: [DONE]"]
    monkeypatch.setattr(threading.Event, "wait", late_wait)
    _serve_stub(monkeypatch, _stream_stub(lines))
    report = execute(TimedTrace("t~late", (send("s", 0), send("t", 20))), EngineEndpoint(kind=EngineKind.OPENAI, base_url="http://stub"))
    for rid, offset in (("s", 0), ("t", 20)):
        outcome = report.outcomes[rid]
        assert outcome.status == "completed" and outcome.output_tokens == ((5, 6),)
        assert outcome.dispatched_ms - offset >= 100
        assert outcome.dispatched_ms <= outcome.token_stamps[0] <= outcome.end_ms <= report.wall_clock_span_ms
        assert outcome.ttft_ms < 100
    assert report.schedule_degraded is False  # the dispatch loop itself ran on time


@pytest.mark.parametrize(
    "doc, evidence",
    [
        ({"status": "crashed", "crash_evidence": {"signature": "oom", "tick": 3}}, {"signature": "oom", "tick": 3}),
        ({"status": "crashed"}, {"signature": "connection-lost"}),
        ({"crash_evidence": {"signature": 7}}, {"signature": "connection-lost"}),
        ({"crash_evidence": "oom"}, {"signature": "connection-lost"}),
        ([], {"signature": "connection-lost"}),
        (None, {"signature": "connection-lost"}),  # /health no longer answers at all
    ],
)
def test_a_crashed_engine_is_filed_under_its_own_crash_evidence(monkeypatch, doc, evidence):
    healths = []

    def reply_for(path):
        if path.startswith("/kv_events") or path == "/control/decode_mode":
            return _Reply(404)
        if path == "/v1/completions":
            return _Reply(200, lines=[b"data: [DONE]"])
        if path != "/health":
            return _Reply(200, {"vocab_size": 1024})
        healths.append(path)
        if len(healths) == 1:
            return _Reply(200, {"kv_events": 0, "clock_ms": 0})
        if doc is None:
            raise EndpointUnavailable("refused")
        return _Reply(503, doc)

    _serve_stub(monkeypatch, reply_for)
    report = execute(TimedTrace("t~crash", (send("p", 0),)), EngineEndpoint(kind=EngineKind.OPENAI, base_url="http://stub"))
    assert len(healths) == 2
    assert report.crash_evidence == evidence


# -- Completion stream chunks ----------------------------------------------------

_LADDER = st.lists(
    st.tuples(st.integers(0, _MAX_RENDERABLE - 1), st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=6, unique_by=lambda entry: entry[0],
).map(tuple)


@settings(max_examples=200, deadline=None)
@given(index=st.integers(0, 64), position=st.integers(0, 4096), ladders=st.lists(_LADDER, max_size=8),
       with_ladders=st.booleans())
def test_a_written_chunk_reads_back_exactly(index, position, ladders, with_ladders):
    tokens = tuple(ladder[0][0] for ladder in ladders)
    event = completion_chunk(index, position, tokens, tuple(ladders) if with_ladders else None)
    assert event.startswith(b"data: ") and event.endswith(b"\n\n")
    assert read_completion_chunk(event[len(b"data: "):-2]) == (index, tokens, tuple(ladders) if with_ladders else None)


def test_a_real_engine_chunk_reads_as_stream_zero_with_no_ladder():
    # What an OpenAI-style engine streams for n=1 without logprobs: no index, no logprobs, and a text of
    # several words, with the fields the reader does not use.
    payload = (b'{"id": "cmpl-7", "object": "text_completion", "created": 1, "model": "BASE", '
               b'"choices": [{"text": " bigu bofa bumy", "finish_reason": null}]}')
    assert read_completion_chunk(payload) == (0, parse_prompt("bigu bofa bumy"), None)


@pytest.mark.parametrize(
    "payload",
    [b'{"choices": [{"index": true, "text": ""}]}', b'{"choices": [{"index": "0", "text": ""}]}',
     b'{"choices": [{"text": "bigu", "logprobs": {"top_logprobs": []}}]}',
     b'{"choices": [{"text": "bigu", "logprobs": {"top_logprobs": [{"bigu": "-0.5"}]}}]}',
     b'{"choices": [{"text": "bigu", "logprobs": {"top_logprobs": [{"zzzz": -0.5}]}}]}'],
    ids=["bool-index", "string-index", "ladder-per-token", "string-logprob", "not-a-word"],
)
def test_a_chunk_that_is_not_one_is_refused(payload):
    with pytest.raises(ValueError):
        read_completion_chunk(payload)


# -- HTTP request bodies --------------------------------------------------------


@pytest.mark.parametrize(
    "sampling, expected",
    [
        (SamplingConfig(max_tokens=6, temperature=0.7, n_completions=2), {"temperature": 0.7, "n": 2}),
        (SamplingConfig(max_tokens=6, temperature=0.0, seed=9, logprobs=3),
         {"temperature": 0.0, "n": 1, "seed": 9, "logprobs": 3}),
    ],
)
def test_completion_body_is_pinned(sampling, expected):
    spec = RequestSpec(request_id="r1", shape=PromptShape(2, 4), sampling=sampling,
                       prompt_family_id="fam", adapter="lora_a", stream=False)
    assert completion_body(spec, corpus_seed=7, vocab_size=512) == {
        "model": "lora_a",
        "prompt": "bigu bofa bumy biku",
        "max_tokens": 6,
        "stream": True,  # always streamed, whatever the spec says: the client times each token
        **expected,
    }
