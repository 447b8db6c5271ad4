"""The simulator's HTTP front end: clock driver, refused requests and the
decode mode across resets."""

import json
import time
from types import SimpleNamespace

import requests

import tracefuzz.simulator.http as sim_http
from tracefuzz.simulator.config import SimConfig
from tracefuzz.simulator.http import serve_http
from tracefuzz.trace import parse_prompt, render_prompt


def prompt(n, tag=0):
    return [(tag * 131 + i * 7 + 3) % 1024 for i in range(n)]


def streamed_tokens(base_url, body):
    resp = requests.post(base_url + "/v1/completions", json=body, stream=True, timeout=10)
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


def test_an_idle_server_steps_at_most_once_per_driver_pass(monkeypatch):
    passes = [0]

    def late_sleep(seconds):
        passes[0] += 1
        time.sleep(0.02)  # every pass runs 20 ticks late, as a driver thread under load does

    monkeypatch.setattr(sim_http, "time", SimpleNamespace(monotonic=time.monotonic, sleep=late_sleep))
    server = serve_http(SimConfig(tick_ms=1))
    steps = [0]
    real_step = server.core.step

    def step():
        steps[0] += 1
        real_step()

    try:
        with server.lock:
            server.core.step = step  # an instance attribute: advance_to's self.step() finds it
            passes[0] = 0
        time.sleep(1.0)
    finally:
        server.stop()
    # A pass steps before it sleeps, so the last one may not be counted yet.
    assert passes[0] >= 10
    assert steps[0] <= passes[0] + 1


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
