"""Behavioral, stall, lifecycle, and structural oracles over synthetic and
real execution reports."""

from collections import Counter
from itertools import chain

from hypothesis import example, given, settings, strategies as st

from tracefuzz import oracles
from tracefuzz.adapter import EngineEndpoint, EngineKind, ExecutionReport, KvEvent, KvRun, RequestOutcome, execute
from tracefuzz.hashing import fingerprint
from tracefuzz.oracles import (
    BaselineStats,
    OracleThresholds,
    Suspicion,
    SuspicionKind,
    decade,
    behavioral_check,
    detect_stall,
    extract_group_snapshots,
    full_sweep,
    lifecycle_check,
    structural_forensics,
)
from tracefuzz.simulator.config import FaultFamily, SimConfig
from tracefuzz.simulator.endpoint import serve
from tracefuzz.trace import PromptShape, RequestSpec, SamplingConfig, TimedTrace, TraceEvent, group_key

THRESHOLDS = OracleThresholds()


def outcome(rid, status="completed", dispatched=0, ttft=2, total=6, tokens=((1, 2, 3),), stamps=None, **kw):
    """Unless stamps are given, three tokens 2 ms apart from ttft after dispatch (none when ttft is None)."""
    if stamps is None:
        stamps = () if ttft is None else tuple(dispatched + ttft + gap for gap in (0, 2, 4))
    return RequestOutcome(
        request_id=rid,
        status=status,
        dispatched_ms=dispatched,
        total_ms=total,
        output_tokens=tokens,
        token_stamps=stamps,
        **kw,
    )


def spec_of(rid, fam=None, mt=16, adapter="BASE"):
    return RequestSpec(
        request_id=rid,
        shape=PromptShape(0, 16),
        sampling=SamplingConfig(max_tokens=mt, temperature=0.0, seed=0),
        prompt_family_id=fam,
        adapter=adapter,
    )


def report_of(outcomes, *, trace_id="t~synth", controls=(), kv_events=(), evidence=None,
              span=None, specs=None, degraded=False, vocab=1024):
    """A report whose trace sends each outcome's request at its dispatch time, then the given controls."""
    sends = tuple(TraceEvent.send(o.dispatched_ms, (specs or {}).get(o.request_id, spec_of(o.request_id))) for o in outcomes)
    ends = [o.end_ms for o in outcomes] or [0]
    return ExecutionReport(
        trace=TimedTrace(trace_id, sends + tuple(controls)),
        corpus_seed=0,
        outcomes={o.request_id: o for o in outcomes},
        kv_log=tuple(map(KvRun.of, kv_events)),
        crash_evidence=evidence,
        wall_clock_span_ms=span if span is not None else max(ends),
        block_snapshots={},
        engine_info={"engine": "tracefuzz-sim", "vocab_size": vocab},
        schedule_degraded=degraded,
    )


def warmed_baseline(samples=60, ttft=2):
    base = BaselineStats()
    base.add_report(report_of([outcome(f"w{i}", ttft=ttft) for i in range(samples)]))
    return base


# -- behavioral ----------------------------------------------------------------


def test_clean_report_raises_nothing():
    base = warmed_baseline()
    assert behavioral_check(report_of([outcome("a"), outcome("b")]), base, THRESHOLDS) == []


def test_crash_suspicion_fingerprint_ignores_trace_identity():
    ev = {"signature": "running-adapters-not-subset-loaded", "tick": 31}
    r1 = report_of([outcome("a")], trace_id="t~one", evidence=ev)
    r2 = report_of([outcome("a")], trace_id="t~two", evidence=dict(ev, tick=99))
    s1 = behavioral_check(r1, BaselineStats(), THRESHOLDS)
    s2 = behavioral_check(r2, BaselineStats(), THRESHOLDS)
    assert [s.kind for s in s1] == [SuspicionKind.CRASH]
    assert s1[0].fingerprint == s2[0].fingerprint


def test_timeout_outcome_raises():
    sus = behavioral_check(report_of([outcome("x", status="timeout", ttft=None, total=None)]), BaselineStats(), THRESHOLDS)
    assert [s.kind for s in sus] == [SuspicionKind.TIMEOUT]


def test_ttft_regression_needs_warm_baseline_and_factor():
    slow = report_of([outcome("slow", ttft=25)])
    cold = BaselineStats()
    assert behavioral_check(slow, cold, THRESHOLDS) == []

    base = warmed_baseline(60, ttft=2)
    sus = behavioral_check(slow, base, THRESHOLDS)
    assert [s.kind for s in sus] == [SuspicionKind.TTFT_REGRESSION]
    assert sus[0].evidence["ratio"] == 12.5
    assert sus[0].signature == {"ratio_decade": 1}

    near_miss = report_of([outcome("fastish", ttft=19)])
    assert behavioral_check(near_miss, base, THRESHOLDS) == []

    degraded = report_of([outcome("slow", ttft=25)], degraded=True)
    assert behavioral_check(degraded, base, THRESHOLDS) == []


def test_regression_fingerprint_buckets_by_decade():
    base = warmed_baseline()
    ten_x = behavioral_check(report_of([outcome("a", ttft=25)]), base, THRESHOLDS)[0]
    also_ten_x = behavioral_check(report_of([outcome("b", ttft=180)]), base, THRESHOLDS)[0]
    hundred_x = behavioral_check(report_of([outcome("c", ttft=250)]), base, THRESHOLDS)[0]
    assert ten_x.fingerprint == also_ten_x.fingerprint
    assert ten_x.fingerprint != hundred_x.fingerprint


def test_a_report_reads_the_baseline_median_once(monkeypatch):
    base = warmed_baseline()
    reads = []
    quantile = BaselineStats.quantile
    monkeypatch.setattr(BaselineStats, "quantile", lambda self, q: reads.append(q) or quantile(self, q))
    many = report_of([outcome(f"r{i:02d}", ttft=2 + i) for i in range(40)])
    sus = behavioral_check(many, base, THRESHOLDS)
    assert reads == [0.5]
    assert [s.kind for s in sus] == [SuspicionKind.TTFT_REGRESSION]
    assert sus[0].evidence["request_ids"] == [f"r{i:02d}" for i in range(18, 40)]
    assert behavioral_check(many, BaselineStats(), THRESHOLDS) == [] and reads == [0.5]  # a shut gate reads none


def test_corrupted_output_subtypes():
    base = warmed_baseline()
    empty = report_of([outcome("e", tokens=((),))])
    over = report_of([outcome("o", tokens=(tuple(range(20)),))], specs={"o": spec_of("o", mt=4)})
    alien = report_of([outcome("u", tokens=((5, 2000),))])
    for rep, subtype in ((empty, "empty-body"), (over, "overflow"), (alien, "undecodable")):
        sus = behavioral_check(rep, base, THRESHOLDS)
        assert [s.kind for s in sus] == [SuspicionKind.CORRUPTED_OUTPUT]
        assert sus[0].signature["subtype"] == subtype


# -- kv leak --------------------------------------------------------------------


def _leak_events(freed=False, adopted=False):
    events = [KvEvent(1, "alloc", 7, 111, "dead", "BASE")]
    if adopted:
        events.append(KvEvent(3, "prefix_hit", 7, 111, "other", "BASE"))
    if freed:
        events.append(KvEvent(4, "free", 7, 111, "dead", "BASE"))
    return events


def test_kv_leak_past_grace_raises():
    rep = report_of(
        [outcome("dead", status="cancelled", dispatched=0, total=2, tokens=(), stamps=())],
        kv_events=_leak_events(),
        span=THRESHOLDS.kv_leak_grace_ms + 10,
    )
    sus = behavioral_check(rep, BaselineStats(), THRESHOLDS)
    assert [s.kind for s in sus] == [SuspicionKind.KV_LEAK]
    assert sus[0].evidence["leaked_blocks"] == [7]


def test_kv_leak_freed_or_adopted_blocks_are_exempt():
    for kwargs in ({"freed": True}, {"adopted": True}):
        rep = report_of(
            [outcome("dead", status="cancelled", total=2, tokens=(), stamps=())],
            kv_events=_leak_events(**kwargs),
            span=THRESHOLDS.kv_leak_grace_ms + 10,
        )
        assert behavioral_check(rep, BaselineStats(), THRESHOLDS) == []


def test_kv_leak_within_grace_window_is_quiet():
    rep = report_of(
        [outcome("dead", status="cancelled", total=2, tokens=(), stamps=())],
        kv_events=_leak_events(),
        span=THRESHOLDS.kv_leak_grace_ms - 100,
    )
    assert behavioral_check(rep, BaselineStats(), THRESHOLDS) == []
    assert "held_blocks" not in vars(rep.kv_ledger)  # no request past the grace window, so no fold


# -- stall ------------------------------------------------------------------------


def test_stall_requires_covered_quiet_gap():
    covered = report_of([outcome("long", dispatched=0, total=13_000, stamps=(12_500, 13_000))])
    sus = detect_stall(covered, THRESHOLDS.stall_window_ms)
    assert sus is not None and sus.kind is SuspicionKind.STALL
    assert sus.evidence["gap_ms"] == 12_500
    assert sus.signature == {"gap_decade": 4}

    short = report_of([outcome("ok", total=9_000, stamps=(8_000, 9_000))])
    assert detect_stall(short, THRESHOLDS.stall_window_ms) is None

    # the same quiet gap with no in-flight request covering it: idle, not a stall
    uncovered = report_of(
        [
            outcome("early", dispatched=0, total=2, stamps=(1, 2)),
            outcome("late", dispatched=20_000, total=2, stamps=(20_001, 20_002)),
        ]
    )
    assert detect_stall(uncovered, THRESHOLDS.stall_window_ms) is None

    # A request exactly one window long, quiet for exactly one window, stalls.
    edge = report_of([outcome("edge", total=THRESHOLDS.stall_window_ms, stamps=(THRESHOLDS.stall_window_ms,))])
    assert detect_stall(edge, THRESHOLDS.stall_window_ms).evidence == {"gap_ms": 10_000, "window": [0, 10_000]}


def test_stall_suppressed_when_schedule_degraded():
    rep = report_of([outcome("long", total=13_000, stamps=(12_500,))], degraded=True)
    assert detect_stall(rep, THRESHOLDS.stall_window_ms) is None


def full_walk_stall(report, stall_window_ms):
    """detect_stall as it was before its early return: every checkpoint gap, whatever the intervals' lengths."""
    if report.schedule_degraded:
        return None
    intervals = report.intervals
    if not intervals:
        return None
    progress = sorted(chain.from_iterable(o.token_stamps for o in report.outcomes.values()))
    span_end = max(end for _, _, end in intervals)
    checkpoints = [0] + progress + [span_end]
    worst = None
    for a, b in zip(checkpoints, checkpoints[1:]):
        gap = b - a
        if gap < stall_window_ms:
            continue
        covered = any(start <= a and end >= b for start, _, end in intervals)
        if covered and (worst is None or gap > worst[0]):
            worst = (gap, a, b)
    if worst is None:
        return None
    gap, a, b = worst
    return Suspicion.create(SuspicionKind.STALL, report.trace_id, {"gap_decade": decade(gap)},
                            {"gap_ms": gap, "window": [a, b]})


WINDOW = THRESHOLDS.stall_window_ms
stall_requests = st.lists(
    st.tuples(
        st.integers(0, 25_000),  # dispatch
        st.one_of(st.none(), st.integers(0, 25_000)),  # total
        st.lists(st.integers(-100, 40_000), max_size=5).map(tuple),  # stamps, anywhere, in any order
    ),
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(requests=stall_requests, window=st.one_of(st.just(WINDOW), st.integers(-5, 20_000)))
@example(requests=[(0, WINDOW, (WINDOW,))], window=WINDOW)  # one window long, over a gap of one window
@example(requests=[(0, WINDOW - 1, (WINDOW - 1,))], window=WINDOW)
@example(requests=[(0, WINDOW, (WINDOW - 1,))], window=WINDOW)
@example(requests=[(5_000, WINDOW + 10, (-50, 30_000)), (20_000, 0, (39_000,))], window=WINDOW)  # stamps outside
def test_stall_matches_the_full_walk(requests, window):
    rep = report_of([outcome(f"r{i}", dispatched=d, total=t, stamps=stamps) for i, (d, t, stamps) in enumerate(requests)])
    assert detect_stall(rep, window) == full_walk_stall(rep, window)


# -- fingerprints -------------------------------------------------------------------

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
        st.dictionaries(st.integers(-3, 3), inner, max_size=3),  # JSON writes int keys as strings
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(SuspicionKind), signature=st.dictionaries(st.text(max_size=3), json_values, max_size=3))
@example(kind=SuspicionKind.STALL, signature={"v": True})  # True == 1 == 1.0 in Python, not in JSON
@example(kind=SuspicionKind.STALL, signature={"v": 1})
@example(kind=SuspicionKind.STALL, signature={"v": 1.0})
@example(kind=SuspicionKind.STALL, signature={"v": "1"})
@example(kind=SuspicionKind.STALL, signature={"v": [1, 2]})  # equal in JSON, not in repr
@example(kind=SuspicionKind.STALL, signature={"v": (1, 2)})
@example(kind=SuspicionKind.STALL, signature={"a": 1, "b": 2})
@example(kind=SuspicionKind.STALL, signature={"b": 2, "a": 1})
@example(kind=SuspicionKind.STALL, signature={"v": {1: "x"}})
@example(kind=SuspicionKind.STALL, signature={"v": {"1": "x"}})
@example(kind=SuspicionKind.HASH_CONFLICT, signature={"block_indexes": [0, [1, {"x": [2, None]}]], "adapters": {"b": {"a": [0.5]}}})
def test_a_suspicion_fingerprints_its_kind_and_signature(kind, signature):
    for _ in range(2):  # the second reads the memo
        assert Suspicion.create(kind, "t~any", signature, {}).fingerprint == fingerprint(kind.value, signature)


def test_the_fingerprint_memo_stays_at_its_bound():
    for gap in range(oracles.FINGERPRINT_MEMO_SIZE + 10):
        Suspicion.create(SuspicionKind.STALL, "t~any", {"gap_decade": gap}, {})
    assert len(oracles._fingerprints) == oracles.FINGERPRINT_MEMO_SIZE
    assert ("stall", repr({"gap_decade": 0})) not in oracles._fingerprints  # the oldest were dropped first
    assert Suspicion.create(SuspicionKind.STALL, "t", {"gap_decade": 0}, {}).fingerprint == fingerprint("stall", {"gap_decade": 0})


# -- lifecycle ----------------------------------------------------------------------


def test_lifecycle_spurious_and_late_generation():
    spurious = lifecycle_check(report_of([outcome("r", status="cancelled", ttft=None)]))
    assert [s.signature["subtype"] for s in spurious] == ["spurious-cancel"]

    late = lifecycle_check(
        report_of([outcome("r", dispatched=0, ttft=2, total=40, aborted_ms=5)], controls=(TraceEvent.cancel(5, "r"),)),
    )
    assert [s.signature["subtype"] for s in late] == ["generation-past-cancel"]

    streaming = lifecycle_check(
        report_of(
            [outcome("r", status="disconnected", total=4, stamps=(2, 30), aborted_ms=5)],
            controls=(TraceEvent.disconnect(5, "r"),),
        ),
    )
    assert [s.signature["subtype"] for s in streaming] == ["post-disconnect-streaming"]


def test_lifecycle_honest_paths_are_quiet():
    honest_cancel = lifecycle_check(
        report_of(
            [outcome("r", status="cancelled", total=5, stamps=(2,), aborted_ms=5)],
            controls=(TraceEvent.cancel(5, "r"),),
        ),
    )
    assert honest_cancel == []
    fast_completion = lifecycle_check(
        report_of([outcome("r", dispatched=0, ttft=2, total=6, aborted_ms=50)], controls=(TraceEvent.cancel(50, "r"),)),
    )
    assert fast_completion == []


def test_lifecycle_times_a_control_from_when_it_reached_the_engine():
    # A Disconnect at 5 ms that the engine only received at 1,017 ms (a stalled
    # step held the clock): tokens stamped up to delivery plus the tolerance
    # are not the engine's fault; one stamped after it still is.
    tol = THRESHOLDS.lifecycle_tolerance_ms

    def check(stamps, aborted_ms):
        outcome_ = outcome("r", status="disconnected", total=stamps[-1], stamps=stamps, aborted_ms=aborted_ms)
        return lifecycle_check(report_of([outcome_], controls=(TraceEvent.disconnect(5, "r"),)))

    assert check((2, 1_017), 1_017) == []
    assert check((2, 1_017 + tol), 1_017) == []
    [late] = check((2, 1_017 + tol + 1), 1_017)
    assert late.signature == {"subtype": "post-disconnect-streaming"}
    assert late.evidence["control_offset_ms"] == 5 and late.evidence["aborted_ms"] == 1_017
    # A control that never reached the engine (it crashed first) times nothing.
    assert check((2, 30), None) == []


# -- structural ------------------------------------------------------------------


def _exec(trace, config):
    ep = EngineEndpoint(kind=EngineKind.SIMULATOR, handle=serve(config))
    return execute(trace, ep)


def _send(rid, off, fam, plen, prefix=0, mt=4):
    return TraceEvent.send(
        off,
        RequestSpec(
            request_id=rid,
            shape=PromptShape(prefix, plen),
            sampling=SamplingConfig(max_tokens=mt, temperature=0.0, seed=0),
            prompt_family_id=fam,
        ),
    )


def _stale_trace():
    events = [_send(f"fill{i}", 0, f"fill-{i}", 4096) for i in range(11)]
    events.append(_send("trigger", 30, "trig", 64, prefix=32))
    events.append(_send("victim", 30, "vic", 64, prefix=32))
    return TimedTrace("t~stale", tuple(events))


def test_structural_flags_stale_block_adoption():
    report = _exec(_stale_trace(), SimConfig().with_faults(FaultFamily.STALE_KV_REUSE))
    kinds = {s.kind for s in structural_forensics(report)}
    assert SuspicionKind.HASH_CONFLICT in kinds

    clean = _exec(_stale_trace(), SimConfig())
    assert structural_forensics(clean) == []


def test_distinct_prompt_block_hashes_build_no_span_claim(monkeypatch):
    # A hash that seals one block has one claim and cannot conflict, so no span of its prompt is read.
    reads = Counter()

    class CountedPrompt(tuple):
        def __iter__(self):
            reads["iter"] += 1
            return super().__iter__()

        def __getitem__(self, key):
            reads["getitem"] += 1
            return super().__getitem__(key)

    prompt_for = oracles.prompt_for
    monkeypatch.setattr(oracles, "prompt_for", lambda *args: CountedPrompt(prompt_for(*args)))

    distinct = _exec(TimedTrace("t~distinct", tuple(_send(f"r{i}", i, f"fam-{i}", 64 + 16 * i) for i in range(4))),
                     SimConfig(seed=6))
    hashes = [h for snapshot in distinct.block_snapshots.values() for _, h in snapshot if h is not None]
    assert len(hashes) >= 4 * 4 and len(set(hashes)) == len(hashes)
    assert structural_forensics(distinct) == []
    assert not reads

    # Two requests sharing a 32-token prefix repeat its two block hashes, whose spans are read.
    shared = _exec(TimedTrace("t~shared", (_send("a", 0, "fam-a", 64, prefix=32), _send("b", 1, "fam-b", 64, prefix=32))),
                   SimConfig(seed=6))
    assert structural_forensics(shared) == []
    assert reads


def test_snapshot_divergence_within_one_report():
    # max_tokens must fill a whole block: partial blocks carry no sealed hash,
    # so a flip confined to the tail would be invisible to the snapshot.
    trace = TimedTrace(
        "t~pair",
        (
            _send("a", 0, "shared-fam", 32, mt=16),
            _send("b", 1, "shared-fam", 32, mt=16),
        ),
    )
    report = _exec(trace, SimConfig(seed=4, near_tie_gap=0.05))
    kinds = [s.kind for s in structural_forensics(report)]
    assert SuspicionKind.SNAPSHOT_DIVERGENCE in kinds

    calm = _exec(trace, SimConfig(seed=4))
    assert structural_forensics(calm) == []


def test_snapshot_divergence_against_prior_run():
    trace = TimedTrace("t~xrun", (_send("a", 0, "fam-x", 32, mt=8),))
    report = _exec(trace, SimConfig(seed=4))
    prior = extract_group_snapshots(report)
    assert prior, "grouped snapshot expected for family-pinned request"
    assert structural_forensics(report, prior_snapshots=prior) == []

    tampered = {k: [h ^ 0x1 if h is not None else None for h in hashes] for k, hashes in prior.items()}
    kinds = [s.kind for s in structural_forensics(report, prior_snapshots=tampered)]
    assert kinds and set(kinds) == {SuspicionKind.SNAPSHOT_DIVERGENCE}


def test_group_key_discriminates_decode_settings():
    a = group_key(spec_of("a", fam="f"))
    b = group_key(spec_of("b", fam="f"))
    assert a == b  # request id does not matter
    assert group_key(spec_of("c", fam="f", mt=8)) != a
    assert group_key(spec_of("d", fam="f", adapter="lora_a")) != a
    assert group_key(spec_of("e", fam=None)) is None


# -- full sweep -------------------------------------------------------------------


def test_full_sweep_merges_and_dedupes():
    rep = report_of([outcome("r", status="cancelled", ttft=None)])
    sweep = full_sweep(rep, warmed_baseline())
    fingerprints = [s.fingerprint for s in sweep]
    assert len(fingerprints) == len(set(fingerprints))
    assert {s.kind for s in sweep} == {SuspicionKind.LIFECYCLE_VIOLATION}


def test_full_sweep_on_real_clean_run_is_empty():
    trace = TimedTrace("t~clean", tuple(_send(f"r{i}", i, f"fam-{i}", 32) for i in range(4)))
    report = _exec(trace, SimConfig(seed=6))
    assert full_sweep(report, warmed_baseline()) == []
