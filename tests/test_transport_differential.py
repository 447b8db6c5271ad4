"""The same traces through both transports: in-process in virtual time and over
HTTP in wall-clock time must give the same statuses, KV owners, non-timing
suspicions, completion streams and logprob ladders, with every time on the
execution's one clock and no request thread dying on the way.

A stall and a TTFT regression stay out of the equality: they compare
wall-clock latency with virtual time.  Lifecycle verdicts are compared: both
transports time a request's end and stamps against when its control reached
the engine, and neither records anything of a request after that.  Both end
a request by adapter.request_outcome's one rule: a refusal stands over a
later Cancel, and a crash the client heard of stands over a later Cancel.  Streams
are compared on an engine with no tie gap, whose tokens do not depend on
admission order.  F1-armed traces are not compared yet.
"""

import http.client
import sys
import threading
import time

import pytest

from test_adapter import send
from tracefuzz.adapter import EngineEndpoint, EngineKind, execute, reset_server
from tracefuzz.confirmation import Verdict, confirm_suspicion
from tracefuzz.oracles import BaselineStats, Suspicion, SuspicionKind, full_sweep
from tracefuzz.simulator.config import SimConfig
from tracefuzz.simulator.engine import SimCore
from tracefuzz.simulator.http import serve_http
from tracefuzz.trace import TimedTrace, TraceEvent

TRACES = {
    "plain": TimedTrace("t~plain", (send("p0", 0, plen=48, mt=8), send("p1", 5, plen=32, mt=8), send("p2", 10, plen=64, mt=16))),
    "cancel-disconnect": TimedTrace(
        "t~aborts",
        (send("a", 0, plen=64, mt=40), send("d", 0, plen=64, mt=40), TraceEvent.cancel(30, "a"), TraceEvent.disconnect(30, "d")),
    ),
    "streams-and-ladders": TimedTrace(
        "t~streams",
        (send("w", 0, plen=48, mt=12, n=3, logprobs=5), send("l", 4, plen=32, mt=10, logprobs=5),
         send("m", 8, plen=64, mt=8, n=3), send("x", 12, plen=40, mt=60, n=3, logprobs=5), TraceEvent.cancel(30, "x")),
    ),
}


class CrashOnSubmitCore(SimCore):
    """An engine whose F3 assertion fires when the request "boom" arrives: a crash at a known point of a trace."""

    def submit(self, rid, **kwargs):
        err = super().submit(rid, **kwargs)
        if err is None and rid == "boom":
            self._crash("running-adapters-not-subset-loaded", "planted at the submit of 'boom'")
        return err


def untimed_fingerprints(report) -> set[str]:
    return {
        s.fingerprint
        for s in full_sweep(report, BaselineStats())
        if s.kind not in (SuspicionKind.STALL, SuspicionKind.TTFT_REGRESSION)
    }


def observed(report) -> tuple:
    statuses = {rid: outcome.status for rid, outcome in report.outcomes.items()}
    owners = {event.owner_request_id for event in report.kv_events}
    streams = {
        rid: (outcome.output_tokens, outcome.logprob_records)
        for rid, outcome in report.outcomes.items()
        if outcome.status == "completed"
    }
    return statuses, owners, untimed_fingerprints(report), streams


def assert_on_one_clock(report) -> None:
    """Every dispatch, stamp, end and abort counts from the execution's epoch and falls inside its span."""
    for rid, outcome in report.outcomes.items():
        times = [outcome.dispatched_ms, *outcome.token_stamps, outcome.end_ms]
        if outcome.aborted_ms is not None:
            times.append(outcome.aborted_ms)
        assert all(0 <= t <= report.wall_clock_span_ms for t in times), (rid, times, report.wall_clock_span_ms)
        assert all(outcome.dispatched_ms <= stamp <= outcome.end_ms for stamp in outcome.token_stamps), rid


def both_transports(trace, config, run, core_type=SimCore):
    """``run(endpoint)`` on a fresh in-process engine and then over HTTP, each engine a ``core_type``."""
    endpoint = EngineEndpoint(kind=EngineKind.SIMULATOR, handle=core_type(config))
    reset_server(endpoint)
    expected = run(endpoint)
    server = serve_http(config)
    with server.lock:
        server.core = core_type(config)
    try:
        endpoint = EngineEndpoint(kind=EngineKind.OPENAI, base_url=server.base_url)
        reset_server(endpoint)
        got = run(endpoint)
    finally:
        server.stop()
    return expected, got


@pytest.mark.parametrize("name", sorted(TRACES))
def test_both_transports_report_a_clean_engine_alike(monkeypatch, name):
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    reports = both_transports(TRACES[name], SimConfig(seed=3), lambda endpoint: execute(TRACES[name], endpoint))
    for report in reports:
        assert_on_one_clock(report)
    expected, got = map(observed, reports)
    if name == "streams-and-ladders":  # the equality covers three-stream requests and their ladders
        assert sorted(expected[3]) == ["l", "m", "w"]
    assert got == expected
    assert uncaught == []


# The Cancel comes after the crash: an end the client heard from the engine stands.
CRASH = TimedTrace("t~crash", (send("a", 0, plen=32, mt=200), send("boom", 20), send("late", 40), TraceEvent.cancel(60, "a")))


def test_a_crash_has_one_fingerprint_on_both_transports(monkeypatch):
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    reports = both_transports(CRASH, SimConfig(seed=3), lambda endpoint: execute(CRASH, endpoint), CrashOnSubmitCore)
    for report in reports:
        assert report.crash_evidence["signature"] == "running-adapters-not-subset-loaded"
        assert {rid: outcome.status for rid, outcome in report.outcomes.items()} == dict.fromkeys(("a", "boom", "late"), "server_error")
    expected, got = map(observed, reports)
    assert got == expected
    assert uncaught == []


def test_the_wire_needs_nothing_outside_the_standard_library(monkeypatch):
    # With requests unimportable, a reset, a Cancel, a Disconnect and a planted crash all cross the wire.
    monkeypatch.setitem(sys.modules, "requests", None)
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)

    def run(endpoint):
        reset_server(endpoint)
        aborts = execute(TRACES["cancel-disconnect"], endpoint)
        reset_server(endpoint)
        return aborts, execute(CRASH, endpoint)

    reports = both_transports(CRASH, SimConfig(seed=3), run, CrashOnSubmitCore)
    for aborts, crashed in reports:
        assert {rid: outcome.status for rid, outcome in aborts.outcomes.items()} == {"a": "cancelled", "d": "disconnected"}
        assert {outcome.status for outcome in crashed.outcomes.values()} == {"server_error"}
    expected, got = [{s.fingerprint for s in full_sweep(crashed, BaselineStats()) if s.kind is SuspicionKind.CRASH}
                     for _, crashed in reports]
    assert len(got) == 1 and got == expected
    assert uncaught == []


def test_a_refusal_stands_over_a_cancel_at_its_own_offset(monkeypatch):
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    trace = TimedTrace("t~refused", (send("r", 0, adapter="nope"), TraceEvent.cancel(0, "r")))
    reports = both_transports(trace, SimConfig(seed=3), lambda endpoint: execute(trace, endpoint))
    ended = [(report.outcomes["r"].status, report.outcomes["r"].error, report.outcomes["r"].total_ms) for report in reports]
    assert ended == [("server_error", "unknown adapter 'nope'", None)] * 2
    assert uncaught == []


def test_stage2_dismisses_a_near_tie_alike_on_both_transports():
    # Each request's streams differ from its pinned solo replay only where the
    # engine's salted tie-break flipped a near tie, so the relational check
    # dismisses a corrupted-output suspicion on every stream's ladder.
    trace = TimedTrace("t~tie", tuple(send(f"r{i}", 40 * i, plen=32, mt=12, n=3, logprobs=5) for i in range(4)))

    def verdicts(endpoint):
        report = execute(trace, endpoint)
        judged = []
        for rid in sorted(report.outcomes):
            evidence = {"request_ids": [rid], "subtype": "synthetic"}
            suspicion = Suspicion.create(SuspicionKind.CORRUPTED_OUTPUT, report.trace_id, {"subtype": "synthetic"}, evidence)
            verdict = confirm_suspicion(suspicion, report, endpoint)
            judged.append((verdict.verdict, getattr(verdict, "reason", None), len(verdict.evidence.get("relational", []))))
        return judged

    expected, got = both_transports(trace, SimConfig(seed=3, near_tie_gap=0.05), verdicts)
    assert expected == [(Verdict.FALSE_POSITIVE, "within-tie-margin", 3)] * 4
    assert got == expected


def test_a_slow_close_makes_no_control_late(monkeypatch):
    # Two controls share an offset: the dispatch loop only shuts the first
    # stream's socket down, and its request thread closes the connection, so a
    # slow close must not delay the second.
    uncaught, closes = [], []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    close = http.client.HTTPConnection.close

    def slow_close(self):
        closes.append(threading.current_thread())
        time.sleep(0.02)
        close(self)

    monkeypatch.setattr(http.client.HTTPConnection, "close", slow_close)
    server = serve_http(SimConfig(seed=3))
    try:
        endpoint = EngineEndpoint(kind=EngineKind.OPENAI, base_url=server.base_url)
        reset_server(endpoint)
        report = execute(TRACES["cancel-disconnect"], endpoint)
    finally:
        server.stop()
    assert report.schedule_degraded is False
    assert {rid: outcome.status for rid, outcome in report.outcomes.items()} == {"a": "cancelled", "d": "disconnected"}
    assert any(thread is not threading.main_thread() for thread in closes)  # the request threads closed theirs
    assert uncaught == []
