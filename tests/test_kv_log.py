"""The KV log: runs of blocks folded as runs, per-block events built only when read.

Every log entry is a ``KvRun``: the simulator logs each allocation,
prefix-hit, free and reuse run as one, and a report over HTTP reads each
event of the engine's stream as a run of one.  The ledger folds the log run
by run; the per-block events are the log's expansion, which the HTTP server
serves and ``report.kv_events`` builds on first read.
"""

import gc
import json

from hypothesis import example, given, settings, strategies as st

from test_adapter import send
from test_forensics_reference import ledger_fields, reference_ledger
from test_sim_http import fetch
from tracefuzz.adapter import KV_EVENT_KINDS, EngineEndpoint, EngineKind, KvEvent, KvLedger, KvRun, execute, kv_events_of
from tracefuzz.simulator.config import FaultFamily, FaultSpec, SimConfig
from tracefuzz.simulator.endpoint import serve
from tracefuzz.simulator.http import serve_http
from tracefuzz.trace import TimedTrace

OWNERS = ("a", "b", "c")
ADAPTERS = ("BASE", "lora_a")

timestamps = st.integers(0, 50)
blocks = st.integers(0, 5)  # few blocks: allocs over live blocks, adoptions and unknown releases are common
hashes = st.one_of(st.none(), st.integers(0, 3))
owners = st.sampled_from(OWNERS)
adapters = st.sampled_from(ADAPTERS)

single_events = st.builds(KvEvent, timestamps, st.sampled_from(KV_EVENT_KINDS), blocks, hashes, owners, adapters)


@st.composite
def runs(draw):
    """A run of distinct blocks of any kind; on an alloc run, the last ``len(evicted)`` blocks each evicted
    a block."""
    kind = draw(st.sampled_from(KV_EVENT_KINDS))
    ids = draw(st.lists(blocks, min_size=1, max_size=6, unique=True))
    sealed = draw(st.lists(hashes, min_size=len(ids), max_size=len(ids)))
    evicted = draw(st.lists(st.tuples(hashes, st.tuples(owners, adapters)), max_size=len(ids))) if kind == "alloc" else ()
    return KvRun(draw(timestamps), kind, ids, sealed, draw(owners), draw(adapters), evicted)


logs = st.lists(st.one_of(single_events.map(KvRun.of), runs()), max_size=30)

# An alloc run, its evicting tail and a single alloc under BASE; lora_a then
# adopts blocks of each, one run by a prefix hit and one block by a reuse,
# and a lora_a run's evicting tail takes a block BASE adopts back.
CROSS_ADAPTER = [
    KvRun(1, "alloc", [0, 1, 2], [10, 11, 12], "a", "BASE", [(7, ("c", "BASE"))]),
    KvRun.of(KvEvent(2, "alloc", 3, None, "b", "BASE")),
    KvRun(3, "prefix_hit", [1, 4, 2], [11, 14, 12], "c", "lora_a", ()),
    KvRun.of(KvEvent(4, "reuse", 3, None, "c", "lora_a")),
    KvRun(5, "alloc", [5, 2], [1, 2], "a", "lora_a", [(None, ("b", "BASE"))]),
    KvRun(6, "prefix_hit", [2], [2], "b", "BASE", ()),
]
# A teardown frees two of a run's blocks as one run, out of allocation order;
# lora_a's hits then cross adapters on the block it kept only, which an
# evict run of one, as the HTTP stream logs it, releases.
FREED = [
    KvRun(1, "alloc", [0, 1, 2], [10, 11, 12], "a", "BASE", ()),
    KvRun(2, "free", [2, 0], [12, 10], "a", "BASE", ()),
    KvRun(3, "prefix_hit", [1, 0], [11, 10], "b", "lora_a", ()),
    KvRun.of(KvEvent(4, "evict", 1, 11, "a", "BASE")),
    KvRun(5, "reuse", [1], [11], "c", "lora_a", ()),
]


@settings(max_examples=400, deadline=None)
@given(logs)
@example(CROSS_ADAPTER)
@example(FREED)
def test_the_fold_over_runs_equals_the_fold_over_their_expansion(log):
    events = kv_events_of(log)
    assert ledger_fields(KvLedger.of(log)) == ledger_fields(KvLedger.of(map(KvRun.of, events))) == reference_ledger(events)


def test_a_run_expands_each_eviction_before_the_allocation_it_makes_room_for():
    run = KvRun(9, "alloc", [4, 0, 1], [40, 50, 51], "r", "BASE", [(7, ("p", "BASE")), (8, ("q", "lora_a"))])
    assert run.events() == [
        KvEvent(9, "alloc", 4, 40, "r", "BASE"),
        KvEvent(9, "evict", 0, 7, "p", "BASE"),
        KvEvent(9, "alloc", 0, 50, "r", "BASE"),
        KvEvent(9, "evict", 1, 8, "q", "lora_a"),
        KvEvent(9, "alloc", 1, 51, "r", "BASE"),
    ]
    ledger = KvLedger.of(CROSS_ADAPTER)
    assert [(alloc.block_id, alloc.block_hash, adopt.kind) for alloc, adopt in ledger.cross_adapter] == [
        (1, 11, "prefix_hit"), (2, 12, "prefix_hit"), (3, None, "reuse"), (2, 2, "prefix_hit")]


def test_an_event_is_a_run_of_one():
    event = KvEvent(3, "evict", 5, None, "r", "lora_a")
    run = KvRun.of(event)
    assert run == (3, "evict", (5,), (None,), "r", "lora_a", ())
    assert run.events() == [event]


def test_every_entry_the_engine_logs_is_a_run():
    # A filler's blocks fill the pool; T and R share their first block and
    # are admitted on a tick that evicts, so R grabs T's second block, and R
    # is cancelled while decoding, which frees two of its blocks as one run.
    f1 = (FaultSpec(FaultFamily.STALE_KV_REUSE, occupancy_threshold=0.3),)
    core = serve(SimConfig(block_size_tokens=4, total_kv_blocks=8, max_batch_tokens=24, chunked_prefill_limit=24,
                           adapters=("BASE",), near_tie_gap=0.05, seed=7, faults=f1))

    def tokens(tag, length):
        return [(tag * 131 + i * 7 + 3) % 1024 for i in range(length)]

    core.submit("fill", tokens(5, 12), "BASE", 1, 1, 0, None, core.clock_ms)
    core.advance_to(core.clock_ms + 100)
    core.submit("T", tokens(1, 4) + [9] * 4 + tokens(3, 8) + [1], "BASE", 1, 1, 0, None, core.clock_ms)
    core.submit("R", tokens(1, 4) + tokens(2, 4) + tokens(3, 8) + [2], "BASE", 12, 1, 0, None, core.clock_ms)
    core.advance_to(core.clock_ms + 5)
    core.cancel("R")
    assert all(type(entry) is KvRun for entry in core.kv_log)
    assert core.requests["R"].contaminated
    runs = {(run.kind, run.owner_request_id, len(run.block_ids), bool(run.evicted)) for run in core.kv_log}
    assert {("alloc", "T", 1, True), ("reuse", "R", 1, False), ("free", "R", 2, False)} <= runs


def test_an_execution_makes_no_object_per_block():
    # With the collector off, len(gc.get_objects()) counts every container an
    # execution leaves alive; a collection at both ends untracks the plain
    # tuples of atoms, such as a snapshot's (block id, hash) pairs.
    def growth(prompt_blocks: int) -> int:
        endpoint = EngineEndpoint(EngineKind.SIMULATOR, handle=serve(SimConfig(seed=2)))
        trace = TimedTrace(f"t~{prompt_blocks}", (send("r", 0, plen=16 * prompt_blocks, mt=1),))
        gc.collect()
        before = len(gc.get_objects())
        report = execute(trace, endpoint)
        assert [outcome.status for outcome in report.outcomes.values()] == ["completed"]
        gc.collect()
        return len(gc.get_objects()) - before

    enabled = gc.isenabled()
    gc.disable()
    try:
        growth(2)  # first-call setup out of the way
        one, half, full = growth(1), growth(64), growth(128)
    finally:
        if enabled:
            gc.enable()
    assert full == half
    assert 0 <= full - one <= 4  # a run's entry and its lists against one event


def test_core_kv_events_are_the_log_expanded():
    core = serve(SimConfig(seed=2))
    endpoint = EngineEndpoint(EngineKind.SIMULATOR, handle=core)
    execute(TimedTrace("t~one", (send("a", 0, plen=100, mt=3), send("b", 0, plen=100, mt=3))), endpoint)
    assert any(type(entry) is KvRun for entry in core.kv_log)
    assert core.kv_events == kv_events_of(core.kv_log)
    execute(TimedTrace("t~two", (send("c", 0, plen=100, mt=3),)), endpoint)
    assert core.kv_events == kv_events_of(core.kv_log)


def test_the_server_serves_the_per_block_expansion():
    server = serve_http(SimConfig(seed=2))
    base = server.base_url
    endpoint = EngineEndpoint(kind=EngineKind.OPENAI, base_url=base)
    try:
        report = execute(TimedTrace("t~http", (send("a", 0, plen=100, mt=3), send("b", 0, plen=100, mt=3))), endpoint)
        with server.lock:
            log = list(server.core.kv_log)
        health = json.loads(fetch(base, "GET", "/health")[1])
        lines = {since: fetch(base, "GET", f"/kv_events?since={since}")[1].decode().splitlines() for since in (0, 3)}
    finally:
        server.stop()
    expanded = kv_events_of(log)
    assert any(type(entry) is KvRun for entry in log)
    assert health["kv_events"] == len(expanded)
    for since, served in lines.items():
        assert served == [event.to_json_line() for event in expanded[since:]]
    assert all(type(entry) is KvRun for entry in report.kv_log)
    assert report.kv_log == tuple(map(KvRun.of, report.kv_events)) and len(report.kv_events) == len(expanded)


def test_the_server_expands_only_the_runs_a_read_reaches(monkeypatch):
    # /health counts the events without building one; /kv_events builds them from the run holding `since` on.
    server = serve_http(SimConfig(seed=2))
    base = server.base_url
    try:
        execute(TimedTrace("t~http", (send("a", 0, plen=100, mt=3), send("b", 0, plen=100, mt=3))),
                EngineEndpoint(kind=EngineKind.OPENAI, base_url=base))
        with server.lock:
            log = list(server.core.kv_log)
        expanded = kv_events_of(log)
        built = []
        expand = KvRun.events
        monkeypatch.setattr(KvRun, "events", lambda run: built.append(run) or expand(run))
        health = json.loads(fetch(base, "GET", "/health")[1])
        assert health["kv_events"] == len(expanded) and built == []
        for since in (len(expanded), len(expanded) + 5):
            assert fetch(base, "GET", f"/kv_events?since={since}") == (200, b"") and built == []
        served = fetch(base, "GET", f"/kv_events?since={len(expanded) - 1}")[1].decode().splitlines()
        assert served == [expanded[-1].to_json_line()] and built == [log[-1]]
    finally:
        server.stop()
