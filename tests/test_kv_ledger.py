"""KvLedger: one pass over the KV event stream for every consumer.

The reference functions below are the per-consumer walks over
``report.kv_events`` that the ledger replaced (telemetry, corpus novelty, the
stage-1 leak check and the stage-3 cross-adapter correlation), kept as they
were so that any disagreement with the ledger-backed code is a real one.
"""

import math

from hypothesis import example, given, settings, strategies as st

from tracefuzz.adapter import KV_EVENT_KINDS, ExecutionReport, KvEvent, KvLedger
from tracefuzz.campaign import novelty
from tracefuzz.oracles import OracleThresholds, Suspicion, SuspicionKind, _kv_leak_check, _merge, structural_forensics
from tracefuzz.telemetry import TelemetrySummary, compute_telemetry

from test_oracles import outcome, spec_of

# -- reference walks ---------------------------------------------------------------


def reference_telemetry(trace, report, window_ms=1000):
    intervals = []
    adapters = set()
    prompt_lens = set()
    for rid, outcome in report.outcomes.items():
        spec = report.request_index.get(rid)
        if spec is not None:
            prompt_lens.add(spec.shape.prompt_len)
            if outcome.status != "server_error":
                adapters.add(spec.adapter)
        end = outcome.dispatched_ms + (outcome.total_ms if outcome.total_ms is not None else 0)
        intervals.append((outcome.dispatched_ms, max(end, outcome.dispatched_ms)))

    edges = []
    for start, end in intervals:
        edges.append((start, 1))
        edges.append((end, -1))
    edges.sort()
    peak_inflight = depth = 0
    for _, delta in edges:
        depth += delta
        peak_inflight = max(peak_inflight, depth)

    held = peak_held = 0
    for event in report.kv_events:
        if event.kind == "alloc":
            held += 1
        elif event.kind in ("free", "evict"):
            held -= 1
        peak_held = max(peak_held, held)

    span = max(
        [report.wall_clock_span_ms]
        + [end for _, end in intervals]
        + [e.ts_ms for e in report.kv_events],
        default=0,
    )
    n_windows = span // window_ms + 1
    alloc_windows = [0] * n_windows
    for event in report.kv_events:
        if event.kind == "alloc":
            alloc_windows[event.ts_ms // window_ms] += 1
    inflight_windows = [0] * n_windows
    for w in range(n_windows):
        w0, w1 = w * window_ms, (w + 1) * window_ms
        inflight_windows[w] = sum(1 for start, end in intervals if start < w1 and end > w0)

    return TelemetrySummary(
        peak_inflight=peak_inflight,
        distinct_adapters=len(adapters),
        peak_kv_held=peak_held,
        distinct_prompt_lens=len(prompt_lens),
        window_ms=window_ms,
        alloc_windows=tuple(alloc_windows),
        inflight_windows=tuple(inflight_windows),
    )


def reference_novelty(report, seen):
    markers = set()
    statuses = sorted({o.status for o in report.outcomes.values()})
    if statuses:
        markers.add("status:" + "+".join(statuses))
    ttft_decades = set()
    for outcome in report.outcomes.values():
        if outcome.ttft_ms is not None:
            ttft_decades.add(math.floor(math.log10(max(outcome.ttft_ms, 1))))
    for decade in ttft_decades:
        markers.add(f"ttft-decade:{decade}")
    held = peak = 0
    for event in report.kv_events:
        if event.kind == "alloc":
            held += 1
        elif event.kind in ("free", "evict"):
            held -= 1
        peak = max(peak, held)
    markers.add(f"kv-peak:2^{peak.bit_length()}")
    kinds = [e.kind for e in report.kv_events]
    for kind in kinds:
        markers.add(f"kv-kind:{kind}")
    for a, b in zip(kinds, kinds[1:]):
        markers.add(f"kv-2gram:{a}>{b}")
    if report.server_crashed:
        signature = "unknown"
        if isinstance(report.crash_evidence, dict):
            signature = str(report.crash_evidence.get("signature", "unknown"))
        markers.add(f"crash:{signature}")
    return markers - seen


def reference_leak_check(report, thresholds):
    cancelled = {rid for rid, o in report.outcomes.items() if o.status in ("cancelled", "disconnected")}
    if not cancelled or not report.kv_stream_supported:
        return []
    owned = {rid: set() for rid in cancelled}
    alloc_owner = {}
    for event in report.kv_events:
        if event.kind == "alloc":
            alloc_owner[event.block_id] = event.owner_request_id
            if event.owner_request_id in owned:
                owned[event.owner_request_id].add(event.block_id)
        elif event.kind in ("free", "evict"):
            alloc_owner.pop(event.block_id, None)
            for blocks in owned.values():
                blocks.discard(event.block_id)
        elif event.kind in ("prefix_hit", "reuse"):
            if alloc_owner.get(event.block_id) not in (None, event.owner_request_id):
                for blocks in owned.values():
                    blocks.discard(event.block_id)
    out = []
    for rid in sorted(cancelled):
        leaked = owned[rid]
        if not leaked:
            continue
        outcome = report.outcomes[rid]
        end = outcome.dispatched_ms + (outcome.total_ms or 0)
        if report.wall_clock_span_ms - end < thresholds.kv_leak_grace_ms:
            continue
        spec = report.request_index.get(rid)
        out.append(
            Suspicion.create(
                SuspicionKind.KV_LEAK,
                report.trace_id,
                {"adapter": spec.adapter if spec else "unknown"},
                {"request_ids": [rid], "leaked_blocks": sorted(leaked)},
            )
        )
    return out


def reference_cross_adapter(report):
    suspicions = []
    origin = {}
    for event in report.kv_events:
        if event.kind == "alloc":
            origin[event.block_id] = (event.owner_request_id, event.adapter)
        elif event.kind in ("free", "evict"):
            origin.pop(event.block_id, None)
        elif event.kind in ("prefix_hit", "reuse"):
            alloc = origin.get(event.block_id)
            if alloc is not None and alloc[1] != event.adapter:
                suspicions.append(
                    Suspicion.create(
                        SuspicionKind.CROSS_ADAPTER_REUSE,
                        report.trace_id,
                        {"from_adapter": alloc[1], "to_adapter": event.adapter, "via": event.kind},
                        {"request_ids": sorted({alloc[0], event.owner_request_id}), "block_id": event.block_id},
                    )
                )
    return _merge(suspicions)


# -- generated streams ---------------------------------------------------------------

OWNERS = ("a", "b", "c", "ghost")  # "ghost" allocates but has no outcome
ADAPTERS = ("BASE", "lora_a")
STATUSES = ("completed", "cancelled", "disconnected", "timeout")


def ev(ts, kind, block, owner, adapter="BASE"):
    return KvEvent(ts_ms=ts, kind=kind, block_id=block, block_hash=None, owner_request_id=owner, adapter=adapter)


kv_events = st.lists(
    st.builds(
        ev,
        ts=st.integers(0, 2_500),  # drawn independently, so the stream is not time-sorted
        kind=st.sampled_from(KV_EVENT_KINDS),
        block=st.integers(0, 5),
        owner=st.sampled_from(OWNERS),
        adapter=st.sampled_from(ADAPTERS),
    ),
    max_size=40,
)


@st.composite
def reports(draw):
    outcomes = []
    for rid in OWNERS[:3]:
        total = draw(st.one_of(st.none(), st.integers(0, 300)))
        outcomes.append(
            outcome(rid, status=draw(st.sampled_from(STATUSES)), dispatched=draw(st.integers(0, 100)), total=total)
        )
    return ExecutionReport(
        trace_id="t~ledger",
        outcomes={o.request_id: o for o in outcomes},
        kv_events=tuple(draw(kv_events)),
        wall_clock_span_ms=draw(st.integers(0, 3_000)),
        request_index={o.request_id: spec_of(o.request_id, adapter=draw(st.sampled_from(ADAPTERS))) for o in outcomes},
        engine_info={"engine": "tracefuzz-sim", "vocab_size": 1024},
        kv_stream_supported=draw(st.booleans()),
    )


def _report(events, statuses=("cancelled", "cancelled", "completed"), span=3_000):
    outcomes = [outcome(rid, status=status) for rid, status in zip(OWNERS, statuses)]
    return ExecutionReport(
        trace_id="t~ledger",
        outcomes={o.request_id: o for o in outcomes},
        kv_events=tuple(events),
        wall_clock_span_ms=span,
        request_index={o.request_id: spec_of(o.request_id) for o in outcomes},
        engine_info={"engine": "tracefuzz-sim", "vocab_size": 1024},
    )


@settings(max_examples=400, deadline=None)
@given(reports(), st.sampled_from((250, 1000)), st.integers(0, 3_000))
@example(_report([ev(5, "alloc", 0, "a"), ev(6, "alloc", 0, "b"), ev(2_000, "prefix_hit", 0, "b")]), 1000, 0)
@example(_report([ev(9, "free", 3, "a"), ev(1, "alloc", 3, "a"), ev(4, "reuse", 7, "c", "lora_a")]), 250, 0)
def test_ledger_consumers_match_the_reference_walks(report, window_ms, grace_ms):
    thresholds = OracleThresholds(kv_leak_grace_ms=grace_ms)
    assert compute_telemetry(None, report, window_ms) == reference_telemetry(None, report, window_ms)
    assert novelty(report, set()) == reference_novelty(report, set())
    assert novelty(report, {"kv-kind:alloc"}) == reference_novelty(report, {"kv-kind:alloc"})
    assert _kv_leak_check(report, thresholds) == reference_leak_check(report, thresholds)
    assert structural_forensics(report) == reference_cross_adapter(report)


# -- the stream edge cases, spelled out ------------------------------------------


def test_realloc_of_a_live_block_leaves_both_allocators_holding_it():
    events = [ev(1, "alloc", 0, "a"), ev(2, "alloc", 0, "b")]
    assert KvLedger.of(events).held_blocks == {"a": frozenset({0}), "b": frozenset({0})}
    assert KvLedger.of(events + [ev(3, "evict", 0, "b")]).held_blocks == {}
    # The latest allocator re-reading its block adopts nothing; anyone else does.
    assert KvLedger.of(events + [ev(3, "prefix_hit", 0, "b")]).held_blocks == {"a": frozenset({0}), "b": frozenset({0})}
    assert KvLedger.of(events + [ev(3, "prefix_hit", 0, "a")]).held_blocks == {}


def test_release_of_an_unknown_block_only_moves_the_counter():
    ledger = KvLedger.of([ev(1, "free", 9, "a"), ev(2, "alloc", 1, "a"), ev(3, "alloc", 2, "a")])
    assert ledger.peak_held == 1  # the stray free left the counter at -1
    assert ledger.held_blocks == {"a": frozenset({1, 2})}


def test_self_adoption_is_not_an_adoption_but_can_cross_adapters():
    ledger = KvLedger.of([ev(1, "alloc", 4, "a", "BASE"), ev(2, "reuse", 4, "a", "lora_a")])
    assert ledger.held_blocks == {"a": frozenset({4})}
    ((alloc, adopt),) = ledger.cross_adapter
    assert (alloc.ts_ms, adopt.ts_ms) == (1, 2)


def test_hit_on_a_block_with_no_known_allocator_is_ignored():
    ledger = KvLedger.of([ev(1, "prefix_hit", 7, "c", "lora_a"), ev(2, "alloc", 7, "a")])
    assert ledger.cross_adapter == ()
    assert ledger.held_blocks == {"a": frozenset({7})}
    assert ledger.kinds == {"prefix_hit", "alloc"}
    assert ledger.bigrams == {("prefix_hit", "alloc")}


def test_ledger_reads_unsorted_timestamps_as_given():
    ledger = KvLedger.of([ev(900, "alloc", 0, "a"), ev(30, "alloc", 1, "a"), ev(400, "free", 0, "a")])
    assert ledger.alloc_ts == (900, 30)
    assert ledger.last_ts_ms == 900
    assert KvLedger.of([]).last_ts_ms == 0


def test_report_builds_its_ledger_once_and_only_on_demand():
    report = _report([ev(1, "alloc", 0, "a")])
    assert "kv_ledger" not in vars(report)
    assert report.kv_ledger is report.kv_ledger
    assert report.kv_ledger.peak_held == 1
