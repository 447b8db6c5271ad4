"""Pressure scoring, corpus selection, the campaign loop, minimization, and
on-disk artifact layout."""

import dataclasses
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from tracefuzz import adapter, campaign
from tracefuzz.adapter import EngineEndpoint, EngineKind
from tracefuzz.campaign import (
    PROFILE_LORA_MIX,
    PROFILE_STEADY,
    CampaignConfig,
    CorpusEntry,
    PressureScore,
    _evict_to_cap,
    bootstrap_corpus,
    minimize,
    novelty,
    run_campaign,
    select_seed,
)
from tracefuzz.confirmation import ConfirmationConfig, majority_confirm, majority_threshold
from tracefuzz.hashing import stable_u64
from tracefuzz.mutation import DEFAULT_MUTATION_WEIGHTS, generate_seed, mutate
from tracefuzz.oracles import OracleThresholds, SuspicionKind
from tracefuzz.simulator.config import FaultFamily, SimConfig
from tracefuzz.simulator.endpoint import serve
from tracefuzz.trace import EventKind, PromptShape, RequestSpec, SamplingConfig, TimedTrace, TraceEvent, group_key, repair

from test_oracles import outcome, report_of


def sim_endpoint(seed=0, **cfg):
    return EngineEndpoint(kind=EngineKind.SIMULATOR, handle=serve(SimConfig(seed=seed, **cfg)))


def telemetry_of(send=10, adapters=3, kv=750, shapes=3):
    return PressureScore(
        n_send=send,
        n_adapter=adapters,
        n_kv=kv,
        n_shape=shapes,
        peak_alloc_window=(0, 1000),
        peak_inflight_window=(0, 1000),
    )


# -- pressure score -----------------------------------------------------------


def test_pressure_score_is_a_sum_of_normalized_counters():
    score = PressureScore(n_send=10, n_adapter=3, n_kv=750, n_shape=3)
    assert score.components() == {"burst": 0.5, "multi_adapter": 0.5, "kv_pressure": 0.5, "shape_diversity": 0.5}
    assert score.s_total == pytest.approx(2.0)
    assert sum(score.components().values()) == pytest.approx(score.s_total)


def test_pressure_score_rejects_negative_counters():
    with pytest.raises(ValueError):
        PressureScore(n_send=-1, n_adapter=0, n_kv=0, n_shape=0)


def test_pressure_score_reads_telemetry():
    tele = telemetry_of(send=40, adapters=6, kv=3000, shapes=12)
    assert tele.s_total == pytest.approx(2.0 + 1.0 + 2.0 + 2.0)
    # Only the counters are persisted; the windows feed the directed splice alone.
    assert tele.to_dict()["counters"] == {"n_send": 40, "n_adapter": 6, "n_kv": 3000, "n_shape": 12}

    trace = TimedTrace("t~view", ())
    entry = CorpusEntry(trace, pressure=tele)
    assert entry.executed and entry.pressure is tele
    unrun = CorpusEntry(trace)
    assert not unrun.executed and unrun.pressure is None


# -- novelty markers ------------------------------------------------------------


def test_novelty_reports_only_unseen_markers():
    from tracefuzz.adapter import KvEvent

    rep = report_of(
        [outcome("a", ttft=3)],
        kv_events=[
            KvEvent(1, "alloc", 1, None, "a", "BASE"),
            KvEvent(2, "alloc", 2, None, "a", "BASE"),
            KvEvent(3, "free", 1, 9, "a", "BASE"),
        ],
    )
    first = novelty(rep, set())
    assert "status:completed" in first
    assert "ttft-decade:0" in first
    assert "kv-peak:2^2" in first  # peak held 2 -> bit_length 2
    assert "kv-kind:alloc" in first and "kv-kind:free" in first
    assert "kv-2gram:alloc>alloc" in first and "kv-2gram:alloc>free" in first
    assert novelty(rep, first) == set()


def test_novelty_crash_marker_carries_signature():
    rep = report_of([outcome("a")], evidence={"signature": "sig-x"})
    assert "crash:sig-x" in novelty(rep, set())


# -- seed selection ---------------------------------------------------------------


def entry(trace_id, markers=(), suspicions=0, added=0):
    trace = TimedTrace(trace_id, (TraceEvent.send(0, RequestSpec(
        request_id="r", shape=PromptShape(0, 16),
        sampling=SamplingConfig(max_tokens=4, temperature=0.0, seed=0))),))
    return CorpusEntry(trace=trace, markers=frozenset(markers),
                       suspicion_count=suspicions, added_iteration=added)


def test_select_seed_guards():
    with pytest.raises(ValueError):
        select_seed([], random.Random(0))
    only = entry("t~solo")
    assert select_seed([only], random.Random(0)) is only


def test_select_seed_prefers_suspicious_and_novel_entries():
    hot = entry("t~hot", markers={"m1", "m2", "m3"}, suspicions=2)
    cold = entry("t~cold")
    rng = random.Random(7)
    draws = [select_seed([hot, cold], rng, iteration=0) for _ in range(400)]
    hot_share = sum(1 for d in draws if d is hot) / len(draws)
    assert hot_share > 0.80


def test_select_seed_floor_keeps_dead_entries_reachable():
    hot = entry("t~hot", markers={"m1", "m2", "m3"}, suspicions=2)
    cold = entry("t~cold")  # zero weight on its own
    rng = random.Random(3)
    draws = [select_seed([hot, cold], rng, iteration=0) for _ in range(2000)]
    assert any(d is cold for d in draws)


def test_novelty_weight_decays_with_age():
    young = entry("t~young", markers={"m1", "m2", "m3"}, added=0)
    old = entry("t~old", markers={"m1", "m2", "m3"}, added=0)
    rng = random.Random(5)
    # at iteration 640 the old entry's novelty has decayed by 2^-10
    draws = [
        select_seed([young, old], rng, iteration=640)
        for _ in range(50)
    ]
    # both decayed equally here; this only checks decay does not explode
    assert all(d in (young, old) for d in draws)


def reference_weight(entry, weights, iteration):
    """An entry's selection weight as it was computed per draw before selection tables."""
    age = max(0, iteration - entry.added_iteration)
    nov = min(1.0, len(entry.markers) / 3) * 0.5 ** (age / 64.0)
    susp = min(1.0, float(entry.suspicion_count))
    return weights["novelty"] * nov + weights["suspicion"] * susp


def reference_select(corpus, rng, weights, iteration):
    """One draw as select_seed made it before selection tables: weights per entry, then rng.choices over them."""
    if len(corpus) == 1:
        return corpus[0]
    if rng.random() < weights.get("floor", 0.0):
        return rng.choice(corpus)
    scored = [reference_weight(e, weights, iteration) for e in corpus]
    if sum(scored) <= 0.0:
        return rng.choice(corpus)
    return rng.choices(corpus, weights=scored, k=1)[0]


SELECTION_TABLES = st.one_of(
    st.sampled_from([
        dict(campaign.DEFAULT_SELECTION_WEIGHTS),
        {"novelty": 0.0, "suspicion": 0.0, "pressure": 1.0, "floor": 0.0},  # every weight zero
        {"novelty": 0.0, "suspicion": 0.0, "pressure": 0.0, "floor": 1.0},
    ]),
    st.tuples(*[st.integers(0, 20)] * 4).filter(any).map(
        lambda parts: {name: n / sum(parts) for name, n in zip(("novelty", "suspicion", "pressure", "floor"), parts)}
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    weights=SELECTION_TABLES,
    # (markers, suspicions, added iteration) per entry
    rows=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 2000)), min_size=1, max_size=12),
    iteration=st.integers(0, 2000),
    rng_seed=st.integers(0, 2**32),
)
@example(weights={"novelty": 0.0, "suspicion": 0.0, "pressure": 1.0, "floor": 0.0},  # a total weight of zero
         rows=[(3, 1, 0), (0, 0, 5)], iteration=9, rng_seed=1)
@example(weights={"novelty": 0.0, "suspicion": 0.0, "pressure": 0.0, "floor": 1.0}, rows=[(3, 1, 0), (2, 0, 5)],
         iteration=9, rng_seed=2)
@example(weights=dict(campaign.DEFAULT_SELECTION_WEIGHTS), rows=[(1, 0, 0)], iteration=3, rng_seed=3)  # one entry
@example(weights=dict(campaign.DEFAULT_SELECTION_WEIGHTS), rows=[(3, 0, 0), (2, 0, 700), (1, 1, 1900)],
         iteration=2000, rng_seed=4)  # ages past 640
def test_one_selection_table_draws_what_per_draw_weights_drew(weights, rows, iteration, rng_seed):
    corpus = []
    for i, (markers, suspicions, added) in enumerate(rows):
        made = entry(f"t~{i}", markers={f"m{j}" for j in range(markers)}, suspicions=suspicions,
                     added=min(added, iteration))
        made.pressure = telemetry_of()
        corpus.append(made)
    config = CampaignConfig(selection_weights=weights)
    # Bit for bit, in the same float order.
    assert campaign._selection_weights(corpus, weights, iteration) == [
        reference_weight(e, weights, iteration) for e in corpus]

    # The loop's draw: the iteration seed, then parent and partner from one table, then the mutant.
    reference_rng = random.Random(rng_seed)
    iter_seed = reference_rng.randrange(1 << 62)
    parent = reference_select(corpus, reference_rng, weights, iteration)
    partner = reference_select(corpus, reference_rng, weights, iteration) if len(corpus) > 1 else None
    expected = mutate(parent.trace, iter_seed, partner=partner and partner.trace, telemetry=parent.pressure,
                      partner_telemetry=partner and partner.pressure, weights=config.mutation_weights)
    rng = random.Random(rng_seed)
    pending, child = campaign._next_trace(corpus, config, rng, iteration)
    assert pending is None and child == expected
    assert rng.getstate() == reference_rng.getstate()

    # select_seed draws through the same table.
    reference_rng, rng = random.Random(rng_seed), random.Random(rng_seed)
    for _ in range(3):
        assert select_seed(corpus, rng, weights, iteration=iteration) is reference_select(
            corpus, reference_rng, weights, iteration)
    assert rng.getstate() == reference_rng.getstate()


def test_eviction_spares_suspicious_entries():
    corpus = [
        entry("t~susp", suspicions=1),
        entry("t~novel", markers={"a", "b", "c"}),
        entry("t~dull1"),
        entry("t~dull2"),
    ]
    _evict_to_cap(corpus, 2, {"novelty": 0.4, "suspicion": 0.4, "pressure": 0.15, "floor": 0.05}, iteration=0)
    ids = {e.entry_id for e in corpus}
    assert "t~susp" in ids and "t~novel" in ids and len(corpus) == 2

    immune_only = [entry(f"t~s{i}", suspicions=1) for i in range(4)]
    _evict_to_cap(immune_only, 2, {"novelty": 0.4, "suspicion": 0.4, "pressure": 0.15, "floor": 0.05}, iteration=0)
    assert len(immune_only) == 4  # never drops suspicion history


# -- duplicates ------------------------------------------------------------------


def test_campaign_counts_reraised_findings_against_the_original(monkeypatch):
    raised: list = []
    confirmed: list[str] = []
    sweep, confirm = campaign.full_sweep, campaign.confirm_suspicion

    def recording_sweep(*args, **kwargs):
        suspicions = sweep(*args, **kwargs)
        raised.extend(suspicions)
        return suspicions

    def counting_confirm(suspicion, *args, **kwargs):
        confirmed.append(suspicion.fingerprint)
        return confirm(suspicion, *args, **kwargs)

    monkeypatch.setattr(campaign, "full_sweep", recording_sweep)
    monkeypatch.setattr(campaign, "confirm_suspicion", counting_confirm)
    endpoint = EngineEndpoint(
        kind=EngineKind.SIMULATOR, handle=serve(SimConfig(seed=1).with_faults(FaultFamily.ENGINE_STALL))
    )
    result = run_campaign(steady_config(rng_seed=11, iterations=20, bootstrap_per_profile=2), endpoint)
    assert result.findings
    for fp, record in result.findings.items():
        raised_at = [
            result.executed_trace_ids.index(s.trace_id) for s in raised if s.fingerprint == fp
        ]
        assert record.duplicates >= 1
        assert record.duplicates == len(raised_at) - 1
        assert record.first_iteration == min(raised_at)
        assert confirmed.count(fp) == 1  # a re-raised fingerprint is never confirmed again


# -- config validation -------------------------------------------------------------


def test_campaign_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(iterations=-1)
    with pytest.raises(ValueError):
        CampaignConfig(time_budget_s=0.0)
    with pytest.raises(ValueError):
        CampaignConfig(selection_weights={"novelty": 0.5, "suspicion": 0.1, "pressure": 0.1, "floor": 0.1})
    with pytest.raises(ValueError):
        CampaignConfig(profiles=())


def test_campaign_config_records_every_setting():
    # config.json is how a persisted campaign runs again: a field it leaves
    # out is a setting no one can set from there.
    fields = {f.name for f in dataclasses.fields(CampaignConfig)}
    recorded = set(CampaignConfig().to_dict())
    assert recorded == (fields - {"endpoint_descriptor"}) | {"endpoint"}


def test_campaign_config_from_dict_inverts_to_dict():
    changed = CampaignConfig(
        rng_seed=7,
        iterations=9,
        time_budget_s=2.5,
        mutation_weights=dict(zip(DEFAULT_MUTATION_WEIGHTS, reversed(DEFAULT_MUTATION_WEIGHTS.values()))),
        selection_weights={"novelty": 0.1, "suspicion": 0.2, "pressure": 0.3, "floor": 0.4},
        thresholds=OracleThresholds(
            ttft_regression_factor=4.0, min_baseline_samples=7, stall_window_ms=900, kv_leak_grace_ms=11,
            lifecycle_tolerance_ms=3,
        ),
        confirmation=ConfirmationConfig(top_n=3, epsilon=0.2, k=5),
        corpus_seed=3,
        profiles=(PROFILE_LORA_MIX, PROFILE_STEADY),
        bootstrap_per_profile=2,
        corpus_cap=17,
        stop_on_finding=True,
        endpoint_descriptor={"endpoint": "http://127.0.0.1:1", "sim": False, "faults": []},
    )
    default = CampaignConfig()
    assert all(getattr(changed, f.name) != getattr(default, f.name) for f in dataclasses.fields(CampaignConfig))
    for config in (default, changed):
        rebuilt = CampaignConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt.endpoint_descriptor == {}  # the endpoint is the running command's, not the file's
        assert dataclasses.replace(rebuilt, endpoint_descriptor=config.endpoint_descriptor) == config


# -- bootstrap + loop ------------------------------------------------------------


def steady_config(**kw):
    kw.setdefault("profiles", (PROFILE_STEADY,))
    kw.setdefault("bootstrap_per_profile", 1)
    kw.setdefault("iterations", 6)
    return CampaignConfig(**kw)


def test_bootstrap_is_deterministic_per_seed():
    a = bootstrap_corpus(steady_config(rng_seed=9))
    b = bootstrap_corpus(steady_config(rng_seed=9))
    c = bootstrap_corpus(steady_config(rng_seed=10))
    assert [e.entry_id for e in a] == [e.entry_id for e in b]
    assert [e.entry_id for e in a] != [e.entry_id for e in c]
    assert len(a) == 1


def test_zero_iteration_budget_executes_nothing(tmp_path):
    result = run_campaign(steady_config(iterations=0), sim_endpoint(), out_dir=tmp_path)
    assert result.iterations_run == 0
    assert result.executed_trace_ids == []
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "pressure.csv").read_text().splitlines()[0].startswith("iteration,")


def test_campaign_is_reproducible_across_fresh_endpoints():
    runs = [run_campaign(steady_config(rng_seed=21, iterations=8), sim_endpoint(seed=2)) for _ in range(2)]
    assert runs[0].executed_trace_ids == runs[1].executed_trace_ids
    assert runs[0].finding_fingerprints() == runs[1].finding_fingerprints()
    assert [s.s_total for _, s, _ in runs[0].pressure_series] == [
        s.s_total for _, s, _ in runs[1].pressure_series
    ]


def test_campaign_tracks_baseline_and_gating():
    result = run_campaign(steady_config(rng_seed=4, iterations=8), sim_endpoint(seed=1))
    assert result.iterations_run == 8
    assert len(result.pressure_series) == 8
    # clean steady traffic feeds the regression baseline; early iterations ran
    # below the minimum sample count and were recorded as skips, not passes
    assert result.baseline.count > 0
    assert result.regression_checks_skipped >= 1
    best = [b for _, _, b in result.pressure_series]
    assert best == sorted(best)  # best-so-far is monotone


def test_a_clean_iteration_keys_each_request_once(monkeypatch):
    keyed = Counter()

    def counting(spec):
        keyed[spec.request_id] += 1
        return group_key(spec)

    monkeypatch.setattr(adapter, "group_key", counting)
    result = run_campaign(steady_config(iterations=1), sim_endpoint())
    # Forensics and the cross-run snapshot store both read the report's groups.
    assert result.suspicions_raised == 0 and keyed
    assert set(keyed.values()) == {1}


def test_campaign_time_budget_stops_early():
    config = steady_config(rng_seed=4, iterations=10_000, time_budget_s=0.5)
    result = run_campaign(config, sim_endpoint(seed=1))
    assert 0 < result.iterations_run < 10_000


def test_persist_layout(tmp_path):
    result = run_campaign(steady_config(rng_seed=4, iterations=5), sim_endpoint(seed=1), out_dir=tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    config = json.loads((tmp_path / "config.json").read_text())
    assert summary["iterations_run"] == result.iterations_run
    assert config["rng_seed"] == 4
    assert (tmp_path / "dismissals.json").exists()
    rows = (tmp_path / "pressure.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + len(result.pressure_series)
    corpus_docs = list((tmp_path / "corpus").glob("*.json"))
    assert len(corpus_docs) == len(result.corpus)
    for entry_doc in corpus_docs:
        doc = json.loads(entry_doc.read_text())
        assert (tmp_path / "traces" / f"{doc['trace_id']}.json").exists()


# -- minimization ------------------------------------------------------------------


def _bulky_trace():
    def send(rid, off):
        return TraceEvent.send(off, RequestSpec(
            request_id=rid, shape=PromptShape(0, 16),
            sampling=SamplingConfig(max_tokens=4, temperature=0.0, seed=0),
        ))

    events = [send(f"r{i}", float(i)) for i in range(7)]
    events.append(TraceEvent.cancel(9.0, "r3"))
    return TimedTrace("t~bulk", tuple(events))


def test_minimize_reaches_the_two_essential_events():
    def predicate(candidate):
        rids = {e.spec.request_id for e in candidate.events if e.kind is EventKind.SEND}
        cancels = {e.target for e in candidate.events if e.kind is EventKind.CANCEL}
        return "r3" in rids and "r3" in cancels

    log = []
    small = minimize(_bulky_trace(), predicate, k=3, log_sink=log)
    assert predicate(small)
    assert len(small.events) == 2
    assert small.trace_id == "t~bulk~min"
    assert small.metadata["lineage"]["events_before"] == 8
    assert small.metadata["lineage"]["events_after"] == 2
    assert log and all({"phase", "events_before", "events_after"} <= set(e) for e in log)
    # gap collapse pulled everything to offset zero
    assert {e.offset_ms for e in small.events} == {0.0}


def test_minimize_rejects_a_flaky_predicate():
    calls = {"n": 0}

    def flaky(candidate):
        calls["n"] += 1
        return calls["n"] % 3 == 0  # one vote in three: loses every majority

    with pytest.raises(ValueError):
        minimize(_bulky_trace(), flaky, k=3)


class _NextCandidate(Exception):
    pass


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_minimize_votes_stop_once_the_majority_is_settled(k):
    needed = majority_threshold(k)
    for votes in itertools.product([False, True], repeat=k):
        # Fewest leading votes after which the full-k verdict cannot change.
        settled_after = next(
            n for n in range(1, k + 1)
            if sum(votes[:n]) >= needed or sum(votes[:n]) + k - n < needed
        )
        cast = []

        def scripted(candidate):
            if cast and candidate is not cast[0]:
                raise _NextCandidate  # the input's vote is over
            cast.append(candidate)
            return votes[len(cast) - 1]

        try:
            minimize(_bulky_trace(), scripted, k=k)
            pytest.fail("an accepted input is followed by a vote on a reduced candidate")
        except _NextCandidate:
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == majority_confirm(votes, k), votes
        assert len(cast) == settled_after, votes


@st.composite
def _control_traces(draw):
    """Sends with unique ids, some cancelled or disconnected, at arbitrary offsets."""
    n_sends = draw(st.integers(1, 7))
    events = [
        TraceEvent.send(draw(st.integers(0, 20)), RequestSpec(
            request_id=f"r{i}", shape=PromptShape(0, 16),
            sampling=SamplingConfig(max_tokens=4, temperature=0.0, seed=0),
        ))
        for i in range(n_sends)
    ]
    for _ in range(draw(st.integers(0, 4))):
        control = draw(st.sampled_from((TraceEvent.cancel, TraceEvent.disconnect)))
        events.append(control(draw(st.integers(0, 30)), f"r{draw(st.integers(0, n_sends - 1))}"))
    return repair(TimedTrace("t~prop", tuple(events)))


def _kind_ids(trace):
    return sorted((e.kind.value, e.spec.request_id if e.kind is EventKind.SEND else e.target) for e in trace.events)


@settings(max_examples=150, deadline=None)
@given(_control_traces(), st.data())
def test_minimize_returns_a_one_minimal_trace(trace, data):
    # Both predicates ignore offsets, so the gap collapse keeps them true.
    present = _kind_ids(trace)
    if data.draw(st.booleans(), label="monotone"):
        required = data.draw(st.lists(st.sampled_from(present), unique=True, min_size=1), label="required")

        def predicate(candidate):
            kept = _kind_ids(candidate)
            return all(item in kept for item in required)
    else:
        modulus = data.draw(st.integers(2, 4), label="modulus")

        def residue(candidate):
            return stable_u64("multiset", *itertools.chain.from_iterable(_kind_ids(candidate))) % modulus

        target = residue(trace)

        def predicate(candidate):
            return residue(candidate) == target

    small = minimize(trace, predicate, k=3)
    assert predicate(small)
    events = list(small.events)
    for i in range(len(events)):
        rest = repair(small.with_events(events[:i] + events[i + 1 :]))
        assert not rest.events or not predicate(rest), (i, events)


def test_minimize_never_votes_twice_on_one_candidate_between_reductions():
    log = []
    voted: set = set()
    last = [None]

    def predicate(candidate):
        if candidate is not last[0]:  # the first of this candidate's votes
            last[0] = candidate
            key = (len(log), candidate.events)
            assert key not in voted, f"re-voted {[(e.kind.value, e.offset_ms) for e in candidate.events]}"
            voted.add(key)
        rids = {e.spec.request_id for e in candidate.events if e.kind is EventKind.SEND}
        cancels = {e.target for e in candidate.events if e.kind is EventKind.CANCEL}
        return "r3" in rids and "r3" in cancels

    small = minimize(_bulky_trace(), predicate, k=3, log_sink=log)
    assert len(small.events) == 2


def test_minimize_keeps_an_already_minimal_trace():
    trace = TimedTrace("t~tiny", (TraceEvent.send(0, RequestSpec(
        request_id="r0", shape=PromptShape(0, 16),
        sampling=SamplingConfig(max_tokens=4, temperature=0.0, seed=0))),))
    small = minimize(trace, lambda c: any(e.kind is EventKind.SEND for e in c.events), k=1)
    assert len(small.events) == 1


def test_minimized_trace_is_valid():
    from tracefuzz.trace import validate

    small = minimize(_bulky_trace(), lambda c: len([e for e in c.events if e.kind is EventKind.SEND]) >= 1, k=1)
    assert validate(small).ok


# -- end to end: loop discovers a crash and stops -----------------------------------


def test_stop_on_finding_halts_the_loop():
    profile = PROFILE_STEADY
    config = CampaignConfig(
        rng_seed=11,
        iterations=60,
        profiles=(profile,),
        bootstrap_per_profile=1,
        stop_on_finding=True,
    )
    endpoint = sim_endpoint(seed=1)
    result = run_campaign(config, endpoint)
    if result.findings:
        last_iteration = max(rec.first_iteration for rec in result.findings.values())
        assert result.iterations_run == last_iteration + 1
    else:
        assert result.iterations_run == 60


def test_a_disconnect_held_up_by_a_stall_files_no_lifecycle_finding():
    # Under F2, iteration 26 disconnects r4 and r7 at 18 and 34 ms, but a
    # stalled step holds the clock until 1,017 ms: both Disconnects reach the
    # engine then, together with the one token that step decoded for each.
    # The engine never streamed after it was told, so nothing is filed.
    endpoint = EngineEndpoint(
        kind=EngineKind.SIMULATOR, handle=serve(SimConfig(seed=5).with_faults(FaultFamily.ENGINE_STALL))
    )
    result = run_campaign(CampaignConfig(rng_seed=1, iterations=27), endpoint)
    assert result.iterations_run == 27
    assert {rec.finding.kind for rec in result.findings.values()} == {SuspicionKind.TTFT_REGRESSION}
    assert not result.dismissals


def test_a_schedule_degraded_run_counts_as_a_skipped_regression_check(monkeypatch):
    # The TTFT check is gated off on a late schedule even once the baseline is full.
    real_execute = campaign.execute
    calls = itertools.count()

    def degraded_after_the_first(trace, endpoint, corpus_seed=0, canonical_decode=False):
        report = real_execute(trace, endpoint, corpus_seed, canonical_decode)
        report.schedule_degraded = next(calls) > 0
        return report

    monkeypatch.setattr(campaign, "execute", degraded_after_the_first)
    config = steady_config(rng_seed=4, iterations=4, thresholds=OracleThresholds(min_baseline_samples=1))
    result = run_campaign(config, sim_endpoint(seed=1))
    assert result.baseline.count >= 1
    assert result.regression_checks_skipped == 4


def test_seed_traces_execute_before_mutants():
    config = steady_config(rng_seed=13, iterations=3)
    seeds = [e.entry_id for e in bootstrap_corpus(config)]
    result = run_campaign(config, sim_endpoint(seed=1))
    assert result.executed_trace_ids[: len(seeds)] == seeds
