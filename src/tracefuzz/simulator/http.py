"""Wall-clock HTTP front end over the simulator core.

Serves an OpenAI-style streaming completion endpoint plus the control surface
the execution adapter probes (health with the KV stream length and virtual
clock, reset, info, decode mode, KV events from an index on).  A completion
takes its client's ``X-Request-Id`` as its id unless used since the last reset.
Every handler that reads or changes the core first catches its virtual clock
up with wall time, so F2-style descheduling shows up as real streaming
latency, and a server nobody talks to runs no ticks.  A crash kills in-flight
completion streams abruptly (connection loss) but leaves the control plane up:
/health reports 503, with the core's crash evidence, until /control/reset
revives the engine, standing in for the external supervisor a real deployment
would have.

A completion streams every choice with ``Transfer-Encoding: chunked``, as
uvicorn-served engines do: each poll sends one HTTP chunk, which a client
reads as soon as it arrives, holding, for each stream, the positions decoded
since its cursor as one event (``adapter.completion_chunk``) with the
stream's index and, when the request asked for logprobs, their ladders.  A
crash or reset cuts the body before its closing chunk.  /kv_events expands
the core's KV log per block when asked.  A client that goes away is a closed
client, not a server error.  Known limit: a streamed position is never sent
again.  A request preempted on a near-tie engine is re-admitted with a new
salt and can re-decode different tokens at positions already streamed, so its
client then holds tokens the engine's final outputs no longer have.  Without
a tie gap a recompute decodes the same tokens.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import islice
from urllib.parse import parse_qs, urlsplit

from ..adapter import completion_chunk, kv_events_of
from ..trace import parse_prompt
from .config import SimConfig
from .engine import SimCore


class SimHttpServer:
    def __init__(self, config: SimConfig, host: str = "127.0.0.1", port: int = 0):
        self.config = config
        self.lock = threading.RLock()
        self.core = SimCore(config)
        self.generation = 0  # bumped on reset so stale streams terminate
        self._rid_counter = 0
        self._stop = threading.Event()
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):
                pass

            def handle(self):
                try:
                    super().handle()
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the client went away: a closed client, not a server error

            def _json(self, code: int, doc: dict) -> None:
                self._reply(code, json.dumps(doc).encode("utf-8"), "application/json")

            def _reply(self, code: int, body: bytes, kind: str) -> None:
                self.send_response(code)
                self.send_header("Content-Type", kind)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                url = urlsplit(self.path)
                if url.path == "/health":
                    with server.lock:
                        server._sync()
                        core, ok = server.core, not server.core.crashed
                        doc = {"status": "ok" if ok else "crashed", "kv_events": sum(map(_expanded_len, core.kv_log)), "clock_ms": core.clock_ms}
                        if not ok:
                            doc["crash_evidence"] = core.crash_evidence
                    self._json(200 if ok else 503, doc)
                elif url.path == "/control/info":
                    self._json(200, server.config.engine_info())
                elif url.path == "/kv_events":
                    since = _count(parse_qs(url.query).get("since", ["0"])[0])
                    if since is None:
                        self._json(400, {"error": "since must be a non-negative integer"})
                        return
                    with server.lock:
                        server._sync()
                        events = _events_from(server.core.kv_log, since)
                    self._reply(200, "".join(e.to_json_line() + "\n" for e in events).encode("utf-8"), "application/x-ndjson")
                else:
                    self._json(404, {"error": "no such path"})

            def do_POST(self):
                length = _count(self.headers.get("Content-Length") or "0")
                if length is None:
                    self.close_connection = True  # where the body ends is unknown
                    self._json(400, {"error": "Content-Length must be a non-negative integer"})
                    return
                raw = self.rfile.read(length) if length else b"{}"
                try:
                    doc = json.loads(raw or b"{}")
                except json.JSONDecodeError:
                    self._json(400, {"error": "body is not JSON"})
                    return
                if not isinstance(doc, dict):
                    self._json(400, {"error": "body is not a JSON object"})
                    return
                if self.path == "/control/reset":
                    server.reset()
                    self._json(200, {"status": "reset"})
                elif self.path == "/control/decode_mode":
                    canonical = doc.get("canonical")
                    if type(canonical) is not bool:
                        self._json(400, {"error": "canonical must be a JSON boolean"})
                        return
                    with server.lock:
                        server.core.canonical_decode = canonical
                    self._json(200, {"canonical": canonical})
                elif self.path == "/v1/completions":
                    self._completions(doc)
                else:
                    self._json(404, {"error": "no such path"})

            def _completions(self, doc: dict) -> None:
                if not doc.get("stream", True):
                    self._json(400, {"error": "only streamed completions are served"})
                    return
                error, tokens = _parse_completion(doc)
                if error is not None:
                    self._json(400, {"error": error})
                    return
                with server.lock:
                    server._sync()
                    if server.core.crashed:
                        self.close_connection = True
                        return
                    generation = server.generation
                    rid = self.headers.get("X-Request-Id")
                    while not rid or rid in server.core.requests:  # none sent, or used since the last reset
                        server._rid_counter += 1
                        rid = f"h~{server._rid_counter:06d}"
                    err = server.core.submit(rid=rid, prompt=tokens, adapter=doc.get("model", "BASE"),
                                             max_tokens=doc.get("max_tokens", 16), n_completions=doc.get("n", 1),
                                             request_seed=doc.get("seed"), logprobs=doc.get("logprobs"),
                                             dispatched_ms=server.core.clock_ms)
                if err is not None:
                    self._json(400, {"error": err})
                    return
                self._stream(rid, generation)

            def _stream(self, rid: str, generation: int) -> None:
                self.send_response(200)
                self.send_header("Content-Type", "text/event-stream")
                self.send_header("Cache-Control", "no-cache")
                self.send_header("Transfer-Encoding", "chunked")
                self.send_header("Connection", "close")
                self.end_headers()
                sent: dict[int, int] = {}  # stream index -> the positions already written
                try:
                    while not server._stop.is_set():
                        with server.lock:
                            server._sync()
                            req = server.core.requests.get(rid)
                            if server.generation != generation or server.core.crashed or req is None:
                                return  # crash or reset: drop the connection mid-stream
                            chunks = []
                            for index, stream in enumerate(req.outputs):
                                start = sent.get(index, 0)
                                if start < len(stream):
                                    ladders = req.records[index][start:] if req.logprobs else None
                                    chunks.append(completion_chunk(index, start, stream[start:], ladders))
                                    sent[index] = len(stream)
                            done = req.status is not None
                            if done:
                                chunks.append(b"data: [DONE]\n\n")
                        if chunks:  # one HTTP chunk, and after [DONE] the empty one that ends the body
                            body = b"".join(chunks)
                            self.wfile.write(b"%x\r\n%s\r\n%s" % (len(body), body, b"0\r\n\r\n" if done else b""))
                            self.wfile.flush()
                        if done:
                            return
                        time.sleep(server.config.tick_ms / 1000.0)
                except (BrokenPipeError, ConnectionResetError):
                    # Client went away: graceful abort and disconnect look the
                    # same from here, so treat both as a disconnect.
                    with server.lock:
                        server._sync()
                        if server.generation == generation and not server.core.crashed:
                            server.core.cancel(rid, disconnect=True)
                finally:
                    self.close_connection = True

        self.httpd = ThreadingHTTPServer((host, port), Handler)
        self.httpd.daemon_threads = True
        self._serve_thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)

    # -- control -----------------------------------------------------------

    @property
    def base_url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def reset(self) -> None:
        with self.lock:
            self.core.reset()
            self.generation += 1
            self._epoch = time.monotonic()

    def start(self) -> "SimHttpServer":
        self._epoch = time.monotonic()
        self._serve_thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self.httpd.shutdown()
        self.httpd.server_close()

    # -- clock ---------------------------------------------------------------

    def _sync(self) -> None:
        """Run the core up to the wall time since start or the last reset.

        A quiet stretch, idle or decode-only, passes in one move.  A fault that inflates the
        virtual clock (engine stall) leaves it ahead of wall time, so nothing
        runs until wall time catches up: exactly the latency a client should
        feel.  While requests are in flight their streams sync every tick.
        """
        with self.lock:
            self.core.advance_to(int((time.monotonic() - self._epoch) * 1000))


def _expanded_len(run) -> int:
    """How many per-block events a KV run expands to: one per block, and one per block it evicted."""
    return len(run.block_ids) + len(run.evicted)


def _events_from(log, since: int) -> list:
    """The per-block events of a KV log from index ``since`` on, expanding only the runs from the one holding it."""
    for first, run in enumerate(log):
        if since < _expanded_len(run):
            return kv_events_of(islice(log, first, None))[since:]
        since -= _expanded_len(run)
    return []


def _count(text: str) -> int | None:
    """The value of a decimal digit string, or None for anything else: a sign, a blank, other characters."""
    text = text.strip()
    return int(text) if text.isascii() and text.isdigit() else None


def _parse_completion(doc: dict):
    """(error, None) for a completion body the engine cannot take, else (None, prompt tokens)."""
    bad = [key for key in ("max_tokens", "n", "logprobs", "seed") if key in doc and type(doc[key]) is not int]
    if bad:
        return f"not an integer: {', '.join(bad)}", None
    if not isinstance(doc.get("model", "BASE"), str):
        return "model must be a string", None
    prompt = doc.get("prompt", "")
    if isinstance(prompt, str):
        try:
            return None, parse_prompt(prompt)
        except ValueError as exc:
            return f"bad prompt: {exc}", None
    if isinstance(prompt, list) and all(type(t) is int for t in prompt):
        return None, tuple(prompt)
    return "prompt must be token words or a list of token ids", None


def serve_http(config: SimConfig, host: str = "127.0.0.1", port: int = 0) -> SimHttpServer:
    return SimHttpServer(config, host, port).start()
