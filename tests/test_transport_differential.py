"""The same traces through both transports on a clean engine: in-process in
virtual time and over HTTP in wall-clock time must give the same statuses,
KV owners and non-timing suspicions, with no request thread dying on the way.

A stall and a TTFT regression stay out of the equality: they compare
wall-clock latency with virtual time.  Lifecycle verdicts are compared: both
transports time a request's end and stamps against when its control reached
the engine, and neither records anything of a request after that.  F1-armed
traces are not compared yet.
"""

import threading
import time

import pytest
import requests

from test_adapter import send
from tracefuzz.adapter import EngineEndpoint, EngineKind, execute, reset_server
from tracefuzz.oracles import BaselineStats, SuspicionKind, full_sweep
from tracefuzz.simulator.config import SimConfig
from tracefuzz.simulator.endpoint import serve
from tracefuzz.simulator.http import serve_http
from tracefuzz.trace import TimedTrace, TraceEvent

TRACES = {
    "plain": TimedTrace("t~plain", (send("p0", 0, plen=48, mt=8), send("p1", 5, plen=32, mt=8), send("p2", 10, plen=64, mt=16))),
    "cancel-disconnect": TimedTrace(
        "t~aborts",
        (send("a", 0, plen=64, mt=40), send("d", 0, plen=64, mt=40), TraceEvent.cancel(30, "a"), TraceEvent.disconnect(30, "d")),
    ),
}


def untimed_fingerprints(report) -> set[str]:
    return {
        s.fingerprint
        for s in full_sweep(report, BaselineStats())
        if s.kind not in (SuspicionKind.STALL, SuspicionKind.TTFT_REGRESSION)
    }


def observed(report) -> tuple:
    statuses = {rid: outcome.status for rid, outcome in report.outcomes.items()}
    owners = {event.owner_request_id for event in report.kv_events}
    return statuses, owners, untimed_fingerprints(report)


@pytest.mark.parametrize("name", sorted(TRACES))
def test_both_transports_report_a_clean_engine_alike(monkeypatch, name):
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    trace = TRACES[name]
    in_process = EngineEndpoint(kind=EngineKind.SIMULATOR, handle=serve(SimConfig(seed=3)))
    reset_server(in_process)
    expected = observed(execute(trace, in_process))

    server = serve_http(SimConfig(seed=3))
    try:
        over_http = EngineEndpoint(kind=EngineKind.OPENAI, base_url=server.base_url)
        reset_server(over_http)
        got = observed(execute(trace, over_http))
    finally:
        server.stop()
    assert got == expected
    assert uncaught == []


def test_a_slow_close_makes_no_control_late(monkeypatch):
    # Two controls share an offset: closing the first response must not delay the second.
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    close = requests.models.Response.close

    def slow_close(self):
        time.sleep(0.02)
        close(self)

    monkeypatch.setattr(requests.models.Response, "close", slow_close)
    server = serve_http(SimConfig(seed=3))
    try:
        endpoint = EngineEndpoint(kind=EngineKind.OPENAI, base_url=server.base_url)
        reset_server(endpoint)
        report = execute(TRACES["cancel-disconnect"], endpoint)
    finally:
        server.stop()
    assert report.schedule_degraded is False
    assert {rid: outcome.status for rid, outcome in report.outcomes.items()} == {"a": "cancelled", "d": "disconnected"}
    assert uncaught == []
