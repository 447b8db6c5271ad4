"""Endpoint adapter over the in-process simulator: event dispatch, outcome
mapping, and report assembly."""

import threading
import time
from types import SimpleNamespace

import pytest
import requests

import tracefuzz.adapter as adapter_module
from tracefuzz.adapter import (
    EndpointUnavailable,
    EngineEndpoint,
    EngineKind,
    completion_body,
    execute,
    reset_server,
)
from tracefuzz.simulator.config import FaultFamily, SimConfig
from tracefuzz.simulator.endpoint import serve
from tracefuzz.trace import (
    EventKind,
    PromptShape,
    RequestSpec,
    SamplingConfig,
    TimedTrace,
    TraceEvent,
)


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


# -- HTTP transport ------------------------------------------------------------


class _Reply:
    def __init__(self, status_code, doc=None, lines=()):
        self.status_code, self._doc, self._lines = status_code, doc, lines

    def json(self):
        return self._doc

    def iter_lines(self):
        yield from self._lines

    def close(self):
        pass


def test_wall_report_is_not_rewritten_by_a_request_that_outlives_its_join(monkeypatch):
    release, stragglers = threading.Event(), []

    def slow_stream():
        release.wait(10)
        yield b'data: {"choices": [{"text": ""}]}'
        yield b"data: [DONE]"

    def post(url, **kwargs):
        stragglers.append(threading.current_thread())
        return _Reply(200, lines=slow_stream())

    def get(url, **kwargs):
        if url.endswith("/kv_events"):
            return _Reply(404)
        return _Reply(200, doc={"vocab_size": 1024})

    real_join = threading.Thread.join

    def short_join(thread, timeout=None):
        real_join(thread, 0.2)  # gives up on the open stream, as a join past its deadline does

    monkeypatch.setattr(requests, "post", post)
    monkeypatch.setattr(requests, "get", get)
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

    def get(url, **kwargs):
        if url.endswith("/kv_events"):
            return _Reply(404)
        return _Reply(200, doc={"vocab_size": 1024})

    real_join = threading.Thread.join

    def timed_out_join(thread, timeout=None):
        waits.append(timeout)
        waited[0] += timeout  # the adapter's clock moves on as if the join had waited it out
        real_join(thread, 0.01)

    monkeypatch.setattr(requests, "post", lambda url, **kwargs: _Reply(200, lines=hung_stream()))
    monkeypatch.setattr(requests, "get", get)
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
