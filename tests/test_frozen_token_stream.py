"""Frozen token streams: the exact tokens and logprob ladders the simulator decodes.

A fixed set of traces, with several completions per request, logprobs set,
four adapters, a cancel, a disconnect and a preempting burst, runs in-process
on a near-tie engine twice: with scheduler-order flips firing, and with
``canonical_decode`` pinning them off.  One sha256 covers every request's
status, output tokens, logprob records and token stamps.  Stage 2 replays
with logprob checks read exactly these values, so a change to how a decode
step hashes must leave these bytes unchanged; an intended change to decoding
re-records the digest.

A second set asks for no logprobs, with one and three completions, so a
stream keeps no ladder.  It runs on the near-tie engine, with flips and
canonically, and on an engine without a tie gap, where the salt is never
read.  Its requests repeat prompts, so later ones read memoized streams, and
decode past the memo's positions.
"""

import hashlib

from test_adapter import send
from tracefuzz.adapter import EngineEndpoint, EngineKind, execute
from tracefuzz.hashing import canonical_json
from tracefuzz.simulator.config import SimConfig
from tracefuzz.simulator.endpoint import serve
from tracefuzz.trace import TimedTrace, TraceEvent

ENGINE = SimConfig(seed=5, near_tie_gap=0.05, total_kv_blocks=96)

EXPECTED = (2_798, "7c6e99c96a9d36f076b296652253488c1f07421d32bd8118e0190b6c1cb47e7b")
NO_LOGPROBS_EXPECTED = (4_968, "bf4af4c7fbc4c27e5d1e2db2c79bc4a609371c6e5e74c55ab71621fb0f6a563a")


def traces():
    mixed = TimedTrace("t~mixed", (
        send("a", 0, plen=40, n=3, logprobs=4, mt=24),
        send("b", 1, plen=40, prefix=16, adapter="lora_a", n=2, logprobs=1, mt=20, fam="fam-a"),
        send("c", 2, plen=24, adapter="lora_b", logprobs=8, mt=30),
        send("d", 3, plen=56, adapter="lora_c", n=4, logprobs=2, mt=12),
        send("e", 5, plen=32, mt=18),
    ))
    aborts = TimedTrace("t~aborts", (
        send("a", 0, plen=64, n=2, logprobs=3, mt=200),
        send("d", 0, plen=64, adapter="lora_a", logprobs=5, mt=200),
        send("k", 1, plen=32, n=2, logprobs=2, mt=40),
        TraceEvent.cancel(30, "a"),
        TraceEvent.disconnect(45, "d"),
    ))
    # Eleven 160-token prompts overflow the 96-block pool, so requests preempt
    # and recompute their decode.
    burst = TimedTrace("t~burst", tuple(
        send(f"p{i}", i, plen=160, adapter=("BASE", "lora_a")[i % 2], n=1 + i % 3, logprobs=1 + i % 4, mt=48)
        for i in range(11)
    ))
    return [mixed, aborts, burst]


def no_logprob_traces():
    # Requests "a" and "c" ask for the same streams as "a2" and "c2": the later ones read the memo.
    repeats = TimedTrace("t~repeats", (
        send("a", 0, plen=40, mt=24),
        send("b", 1, plen=40, prefix=16, adapter="lora_a", n=3, mt=20, fam="fam-a"),
        send("c", 2, plen=24, n=3, mt=90),
        send("a2", 40, plen=40, mt=24, fam="fam-a"),
        send("c2", 60, plen=24, n=3, mt=90, fam="fam-c"),
    ))
    # The prompts overflow the pool, so requests preempt and recompute their decode.
    burst = TimedTrace("t~burst", tuple(
        send(f"p{i}", i, plen=160, adapter=("BASE", "lora_a")[i % 2], n=(1, 3)[i % 2], mt=48)
        for i in range(11)
    ))
    return [repeats, burst]


def play(core, traces, canonical, digest, streams):
    """Run each trace on a reset core, hash every outcome into ``digest``; the number of tokens and statuses."""
    endpoint = EngineEndpoint(EngineKind.SIMULATOR, handle=core)
    tokens, statuses = 0, set()
    for trace in traces:
        core.reset()
        report = execute(trace, endpoint, canonical_decode=canonical)
        for rid, outcome in sorted(report.outcomes.items()):
            record = [rid, outcome.status, outcome.output_tokens, outcome.logprob_records, outcome.token_stamps]
            digest.update(canonical_json(record).encode() + b"\n")
            tokens += sum(map(len, outcome.output_tokens))
            statuses.add(outcome.status)
            streams[canonical, trace.trace_id, rid] = outcome.output_tokens
    return tokens, statuses


def test_token_streams_are_frozen():
    digest = hashlib.sha256()
    tokens, statuses = 0, set()
    core = serve(ENGINE)
    streams = {}
    for canonical in (False, True):
        played, seen = play(core, traces(), canonical, digest, streams)
        tokens += played
        statuses |= seen
    assert statuses == {"completed", "cancelled", "disconnected"}
    # Flips fire only off the canonical path, so the two runs decode differently.
    assert any(streams[False, tid, rid] != out for (canonical, tid, rid), out in streams.items() if canonical)
    assert (tokens, digest.hexdigest()) == EXPECTED


def test_no_logprob_token_streams_are_frozen():
    digest = hashlib.sha256()
    tokens = 0
    streams = {}
    near_tie = serve(ENGINE)
    for canonical in (False, True):
        tokens += play(near_tie, no_logprob_traces(), canonical, digest, streams)[0]
    assert any(streams[False, tid, rid] != out for (canonical, tid, rid), out in streams.items() if canonical)
    no_gap = serve(SimConfig(seed=5, total_kv_blocks=96))
    tokens += play(no_gap, no_logprob_traces(), False, digest, {})[0]
    assert (tokens, digest.hexdigest()) == NO_LOGPROBS_EXPECTED
