"""The simulator's HTTP front end: the clock kept by its handlers, refused
requests, the decode mode across resets, and what the wall-clock transport
reports over it."""

import http.client
import json
import socket
import struct
import sys
import threading
import time

import requests

from test_adapter import send
from tracefuzz.adapter import SCHEDULE_TOLERANCE_MS, EngineEndpoint, EngineKind, execute, reset_server
from tracefuzz.oracles import lifecycle_check
from tracefuzz.simulator.config import SimConfig
from tracefuzz.simulator.endpoint import serve
from tracefuzz.simulator.http import serve_http
from tracefuzz.trace import TimedTrace, TraceEvent, parse_prompt, render_prompt


def prompt(n, tag=0):
    return [(tag * 131 + i * 7 + 3) % 1024 for i in range(n)]


def streamed_tokens(base_url, body, rid=None):
    headers = {"X-Request-Id": rid} if rid else {}
    resp = requests.post(base_url + "/v1/completions", json=body, headers=headers, stream=True, timeout=10)
    assert resp.status_code == 200
    tokens = []
    for raw in resp.iter_lines():
        if not raw.startswith(b"data: "):
            continue
        payload = raw[len(b"data: "):]
        if payload == b"[DONE]":
            return tokens
        tokens.extend(parse_prompt(json.loads(payload)["choices"][0]["text"]))
    raise AssertionError("stream ended without [DONE]")


def test_an_idle_server_does_not_step():
    # The clock catches up when a handler touches the core, so an engine
    # nobody talks to runs no ticks at all.
    server = serve_http(SimConfig(tick_ms=1))
    steps = [0]
    real_step = server.core.step

    def step():
        steps[0] += 1
        real_step()

    try:
        with server.lock:
            server.core.step = step  # an instance attribute: advance's self.step() finds it
        time.sleep(1.0)
        assert steps[0] == 0 and server.core.tick == 0
        assert requests.get(server.base_url + "/health", timeout=5).status_code == 200
    finally:
        server.stop()
    assert steps[0] == 0  # the idle second is a quiet stretch: it passes in one move, stepping no tick
    assert server.core.clock_ms >= 1_000


def test_a_stream_after_an_idle_gap_takes_its_virtual_time():
    # The first sync after a gap runs the whole idle stretch, so the next
    # request decodes one tick per millisecond of wall time, not in a burst
    # while the clock catches up.
    server = serve_http(SimConfig(tick_ms=1))
    body = {"prompt": render_prompt(prompt(16)), "max_tokens": 64, "stream": True}
    try:
        assert requests.get(server.base_url + "/health", timeout=5).status_code == 200
        time.sleep(0.6)
        started = time.monotonic()
        assert len(streamed_tokens(server.base_url, body)) == 64
        elapsed = time.monotonic() - started
    finally:
        server.stop()
    assert elapsed >= 0.06


def test_a_non_streamed_completion_is_refused():
    server = serve_http(SimConfig())
    try:
        body = {"prompt": render_prompt(prompt(16)), "max_tokens": 2, "stream": False}
        resp = requests.post(server.base_url + "/v1/completions", json=body, timeout=5)
        assert resp.status_code == 400
        assert "stream" in resp.json()["error"]
        assert server.core.requests == {}  # refused before it reached the engine
    finally:
        server.stop()


def test_a_request_too_large_for_the_pool_is_refused():
    # 21 prompt tokens and 4 decode tokens need 7 blocks of 4; the pool has 6.
    # Logprobs wider than the 1,024-token vocabulary are refused the same way.
    server = serve_http(SimConfig(block_size_tokens=4, total_kv_blocks=6, max_batch_tokens=24, chunked_prefill_limit=8))
    try:
        body = {"prompt": render_prompt(prompt(21)), "max_tokens": 4, "stream": True}
        resp = requests.post(server.base_url + "/v1/completions", json=body, timeout=5)
        assert resp.status_code == 400
        assert "KV blocks" in resp.json()["error"]
        body = {"prompt": render_prompt(prompt(8)), "max_tokens": 4, "logprobs": 1025, "stream": True}
        resp = requests.post(server.base_url + "/v1/completions", json=body, timeout=5)
        assert resp.status_code == 400
        assert "logprobs" in resp.json()["error"]
        assert server.core.requests == {}
    finally:
        server.stop()


def test_completion_bodies_the_engine_cannot_take_are_refused():
    server = serve_http(SimConfig())
    words = render_prompt(prompt(8))
    bodies = [
        {"prompt": words, "max_tokens": "x"},
        {"prompt": words, "n": None},
        {"prompt": words, "logprobs": "9"},
        {"prompt": words, "seed": 1.5},
        {"prompt": words, "model": 3},
        {"prompt": words, "max_tokens": 0},  # settings no trace can express: no token, no stream, no ladder
        {"prompt": words, "max_tokens": -5},
        {"prompt": words, "n": 0},
        {"prompt": words, "logprobs": -3},
        {"prompt": "not token words"},
        {"prompt": [1, "2"]},
        {"prompt": ""},
        {"prompt": []},
        ["not", "an", "object"],
    ]
    try:
        for body in bodies:
            resp = requests.post(server.base_url + "/v1/completions", json=body, timeout=5)
            assert resp.status_code == 400, body
            assert resp.json()["error"]
        assert requests.get(server.base_url + "/health", timeout=5).status_code == 200
        assert server.core.requests == {}
    finally:
        server.stop()


def test_requests_the_server_cannot_read_are_refused_and_it_keeps_serving():
    server = serve_http(SimConfig())
    errors = []
    server.httpd.handle_error = lambda request, client_address: errors.append(sys.exc_info()[1])
    base = server.base_url
    host, port = server.httpd.server_address[:2]
    try:
        for since in ("abc", "-1", "1.5"):
            resp = requests.get(base + "/kv_events", params={"since": since}, timeout=5)
            assert resp.status_code == 400, since
            assert "since" in resp.json()["error"]
        for doc in ({"canonical": "false"}, {"canonical": 1}, {"canonical": None}, {}):
            resp = requests.post(base + "/control/decode_mode", json=doc, timeout=5)
            assert resp.status_code == 400, doc
            assert "canonical" in resp.json()["error"]
        assert not server.core.canonical_decode
        for length in ("abc", "-1"):
            conn = http.client.HTTPConnection(host, port, timeout=5)
            try:
                conn.putrequest("POST", "/control/reset")
                conn.putheader("Content-Length", length)
                conn.endheaders()
                resp = conn.getresponse()
                assert resp.status == 400, length
                assert "Content-Length" in json.loads(resp.read())["error"]
            finally:
                conn.close()
        assert requests.get(base + "/health", timeout=5).status_code == 200
    finally:
        server.stop()
    assert errors == []


def test_decode_mode_set_over_http_survives_a_reset():
    server = serve_http(SimConfig(seed=4, near_tie_gap=0.05))
    base = server.base_url
    body = {"prompt": render_prompt(prompt(32, 5)), "max_tokens": 16, "logprobs": 5, "seed": 0}
    try:
        salted = [streamed_tokens(base, body) for _ in range(2)]
        assert salted[0] != salted[1], "admission ordinal salt should flip some position"

        resp = requests.post(base + "/control/decode_mode", json={"canonical": True}, timeout=5)
        assert resp.json() == {"canonical": True}
        assert requests.post(base + "/control/reset", timeout=5).status_code == 200
        assert server.core.canonical_decode
        pinned = [streamed_tokens(base, body) for _ in range(2)]
        assert pinned[0] == pinned[1]
    finally:
        server.stop()


def test_each_http_execution_sets_the_decode_mode_it_was_given():
    # A pinned replay pins the server, and the next plain execution unpins it.
    server = serve_http(SimConfig())
    endpoint = EngineEndpoint(kind=EngineKind.OPENAI, base_url=server.base_url)
    modes = []
    try:
        for canonical in (True, False):
            report = execute(TimedTrace("t~pin", (send("a", 0),)), endpoint, canonical_decode=canonical)
            assert report.outcomes["a"].status == "completed"
            modes.append(server.core.canonical_decode)
    finally:
        server.stop()
    assert modes == [True, False]


def test_client_aborts_map_to_their_statuses_over_http(monkeypatch):
    # Closing a response mid-stream can hand the reader a truncated chunk;
    # an abort the client started is still its cancel or disconnect, and no
    # request thread dies with a traceback.
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    server = serve_http(SimConfig(seed=3))
    trace = TimedTrace(
        "t~aborts",
        (send("a", 0, plen=64, mt=400), send("d", 0, plen=64, mt=400), TraceEvent.cancel(30, "a"), TraceEvent.disconnect(30, "d")),
    )
    try:
        report = execute(trace, EngineEndpoint(kind=EngineKind.OPENAI, base_url=server.base_url))
    finally:
        server.stop()
    assert {rid: outcome.status for rid, outcome in report.outcomes.items()} == {"a": "cancelled", "d": "disconnected"}
    assert all(outcome.error is None for outcome in report.outcomes.values())
    assert uncaught == []


def test_an_abort_before_the_response_arrives_still_aborts(monkeypatch):
    # The responses arrive 300 ms after their Sends, long after the aborts at
    # 10 ms found nothing to close; each request closes its own response on
    # arrival instead of streaming it to [DONE].
    real_post = requests.post

    def late_post(*args, **kwargs):
        resp = real_post(*args, **kwargs)
        time.sleep(0.3)
        return resp

    monkeypatch.setattr(requests, "post", late_post)
    server = serve_http(SimConfig(seed=3))
    trace = TimedTrace(
        "t~early-aborts",
        (send("a", 0, plen=64, mt=40), send("d", 0, plen=64, mt=40), TraceEvent.cancel(10, "a"), TraceEvent.disconnect(10, "d")),
    )
    try:
        report = execute(trace, EngineEndpoint(kind=EngineKind.OPENAI, base_url=server.base_url))
    finally:
        server.stop()
    assert {rid: outcome.status for rid, outcome in report.outcomes.items()} == {"a": "cancelled", "d": "disconnected"}
    assert all(outcome.output_tokens == ((),) for outcome in report.outcomes.values())


def test_lines_read_after_an_abort_record_no_tokens(monkeypatch):
    # Each response yields two tokens, then, once the client's own abort has
    # closed it, the lines it had buffered before: those must not be recorded
    # as tokens streamed after the abort.
    def line(text):
        return b"data: " + json.dumps({"choices": [{"index": 0, "text": text}]}).encode()

    class BufferedResponse:
        status_code = 200

        def __init__(self):
            self.closed = threading.Event()

        def iter_lines(self, chunk_size=512):
            yield line(render_prompt([1]))
            yield line(" " + render_prompt([2]))
            assert self.closed.wait(5)
            yield line(" " + render_prompt([3]))
            yield b"data: [DONE]"

        def close(self):
            self.closed.set()

    real_post = requests.post  # the control plane is the real server's
    monkeypatch.setattr(requests, "post", lambda url, **kwargs: BufferedResponse() if url.endswith("/v1/completions")
                        else real_post(url, **kwargs))
    server = serve_http(SimConfig())
    trace = TimedTrace(
        "t~buffered",
        (send("a", 0), send("d", 0), TraceEvent.cancel(200, "a"), TraceEvent.disconnect(200, "d")),
    )
    try:
        report = execute(trace, EngineEndpoint(kind=EngineKind.OPENAI, base_url=server.base_url))
    finally:
        server.stop()
    assert {rid: outcome.status for rid, outcome in report.outcomes.items()} == {"a": "cancelled", "d": "disconnected"}
    for outcome in report.outcomes.values():
        assert outcome.output_tokens == ((1, 2),)
        assert max(outcome.token_stamps) < 200
    assert lifecycle_check(report) == []


def test_a_report_over_http_holds_only_its_own_kv_events():
    # Without a reset between them, the second trace reports its own
    # request's events only, stamped from its own entry.
    server = serve_http(SimConfig())
    endpoint = EngineEndpoint(kind=EngineKind.OPENAI, base_url=server.base_url)
    try:
        execute(TimedTrace("t~first", (send("x", 0, plen=48),)), endpoint)
        time.sleep(1.0)
        report = execute(TimedTrace("t~second", (send("y", 0, plen=48),)), endpoint)
    finally:
        server.stop()
    assert report.outcomes["y"].status == "completed"
    assert report.kv_events
    assert len({event.owner_request_id for event in report.kv_events}) == 1
    assert all(0 <= event.ts_ms <= report.wall_clock_span_ms for event in report.kv_events)


def test_kv_owners_over_http_are_the_trace_request_ids():
    # The client sends each Send's request id, and the server keys the
    # request's KV events by it, so owner-keyed checks find trace requests.
    trace = TimedTrace(
        "t~owners",
        (send("a", 0, plen=64, mt=40), send("d", 0, plen=64, mt=40), TraceEvent.cancel(30, "a"), TraceEvent.disconnect(30, "d")),
    )
    in_process = execute(trace, EngineEndpoint(kind=EngineKind.SIMULATOR, handle=serve(SimConfig(seed=3))))
    server = serve_http(SimConfig(seed=3))
    try:
        report = execute(trace, EngineEndpoint(kind=EngineKind.OPENAI, base_url=server.base_url))
        # An id already used since the last reset falls back to the server's own.
        body = {"prompt": render_prompt(prompt(16)), "max_tokens": 2}
        streamed_tokens(server.base_url, body, rid="a")
    finally:
        server.stop()
    owners = {event.owner_request_id for event in report.kv_events}
    assert owners == {event.owner_request_id for event in in_process.kv_events} == {"a", "d"}
    assert sorted(server.core.requests) == ["a", "d", "h~000001"]


def test_each_streamed_event_is_read_when_it_arrives():
    # The server sends each poll's events as one HTTP chunk and the client
    # reads each chunk as it arrives, so a solo Send's 40 tokens are stamped
    # over most of its decode, not in a few 512-byte reads.
    server = serve_http(SimConfig(seed=3))
    try:
        report = execute(TimedTrace("t~solo", (send("s", 0, plen=32, mt=40),)),
                         EngineEndpoint(kind=EngineKind.OPENAI, base_url=server.base_url))
    finally:
        server.stop()
    outcome = report.outcomes["s"]
    assert outcome.status == "completed" and len(outcome.token_stamps) == 40
    assert len(set(outcome.token_stamps)) >= 20


def test_kv_stamps_count_from_the_epoch_however_many_threads_start():
    # Starting a thread per Send takes time between the /health read and the
    # epoch.  KV stamps count from the engine's clock at the epoch all the
    # same, so a lone first request's first alloc keeps its distance from its
    # dispatch when 100 later Sends follow it.  A busy host only ever adds to
    # that distance, so each case takes its least over three runs.
    server = serve_http(SimConfig(seed=3))
    endpoint = EngineEndpoint(kind=EngineKind.OPENAI, base_url=server.base_url)

    def first_alloc_gap(later):
        trace = TimedTrace("t~kv-clock", (send("r0", 0, plen=32, mt=4), *(send(f"x{i}", 200, plen=16, mt=2) for i in range(later))))
        gaps = []
        for _ in range(3):
            reset_server(endpoint)
            report = execute(trace, endpoint)
            first = min(e.ts_ms for e in report.kv_events if e.owner_request_id == "r0" and e.kind == "alloc")
            gaps.append(first - report.outcomes["r0"].dispatched_ms)
        return min(gaps)

    try:
        lone, crowded = first_alloc_gap(0), first_alloc_gap(100)
    finally:
        server.stop()
    assert abs(crowded - lone) <= SCHEDULE_TOLERANCE_MS, (lone, crowded)


def test_a_client_that_went_away_leaves_no_traceback(capfd):
    # A refused Send cancelled at once, and a client that resets its
    # connection mid-request: the server treats both as a closed client.
    server = serve_http(SimConfig(seed=3))
    endpoint = EngineEndpoint(kind=EngineKind.OPENAI, base_url=server.base_url)
    try:
        for offset in (0, 1, 2):
            trace = TimedTrace("t~refused", (send("r", 0, adapter="nope"), TraceEvent.cancel(offset, "r")))
            assert execute(trace, endpoint).outcomes["r"].status == "server_error"
        with socket.create_connection(server.httpd.server_address[:2]) as sock:
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: sim\r\n\r\n")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))  # close with a reset
        time.sleep(0.3)  # the handler threads finish
    finally:
        server.stop()
    assert capfd.readouterr().err == ""
