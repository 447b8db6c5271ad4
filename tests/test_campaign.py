"""Pressure scoring, corpus selection, the campaign loop, minimization, and
on-disk artifact layout."""

import itertools
import json
import random

import pytest

from tracefuzz import campaign
from tracefuzz.adapter import EngineEndpoint, EngineKind
from tracefuzz.campaign import (
    PROFILE_STEADY,
    CampaignConfig,
    CorpusEntry,
    PressureScore,
    _evict_to_cap,
    bootstrap_corpus,
    minimize,
    novelty,
    run_campaign,
    score_pressure,
    select_seed,
)
from tracefuzz.confirmation import majority_confirm, majority_threshold
from tracefuzz.mutation import generate_seed
from tracefuzz.oracles import SuspicionKind
from tracefuzz.simulator.config import FaultFamily, SimConfig
from tracefuzz.simulator.endpoint import serve
from tracefuzz.telemetry import TelemetrySummary
from tracefuzz.trace import EventKind, PromptShape, RequestSpec, SamplingConfig, TimedTrace, TraceEvent

from test_oracles import outcome, report_of


def sim_endpoint(seed=0, **cfg):
    return EngineEndpoint(kind=EngineKind.SIMULATOR, handle=serve(SimConfig(seed=seed, **cfg)))


def telemetry_of(send=10, adapters=3, kv=750, shapes=3):
    return TelemetrySummary(
        peak_inflight=send,
        distinct_adapters=adapters,
        peak_kv_held=kv,
        distinct_prompt_lens=shapes,
        window_ms=1000,
        alloc_windows=(kv,),
        inflight_windows=(send,),
    )


# -- pressure score -----------------------------------------------------------


def test_pressure_score_is_a_sum_of_normalized_counters():
    score = PressureScore(n_send=10, n_adapter=3, n_kv=750, n_shape=3)
    assert score.burst == 0.5
    assert score.multi_adapter == 0.5
    assert score.kv_pressure == 0.5
    assert score.shape_diversity == 0.5
    assert score.s_total == pytest.approx(2.0)
    assert sum(score.components().values()) == pytest.approx(score.s_total)


def test_pressure_score_rejects_negative_counters():
    with pytest.raises(ValueError):
        PressureScore(n_send=-1, n_adapter=0, n_kv=0, n_shape=0)


def test_score_pressure_reads_telemetry_and_honors_overrides():
    tele = telemetry_of(send=40, adapters=6, kv=3000, shapes=12)
    from_tele = score_pressure(telemetry=tele)
    assert (from_tele.n_send, from_tele.n_adapter, from_tele.n_kv, from_tele.n_shape) == (40, 6, 3000, 12)
    assert from_tele.s_total == pytest.approx(2.0 + 1.0 + 2.0 + 2.0)

    overridden = score_pressure(telemetry=tele, n_kv=0)
    assert overridden.n_kv == 0 and overridden.n_send == 40

    with pytest.raises(ValueError):
        score_pressure()  # neither telemetry nor a full counter set


def test_score_pressure_accepts_bare_counters():
    score = score_pressure(n_send=20, n_adapter=6, n_kv=1500, n_shape=6)
    assert score.s_total == pytest.approx(4.0)


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
    rep = report_of([outcome("a")], crashed=True, evidence={"signature": "sig-x"})
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
    confirmed: list[str] = []
    confirm = campaign.confirm_suspicion

    def counting_confirm(suspicion, *args, **kwargs):
        confirmed.append(suspicion.fingerprint)
        return confirm(suspicion, *args, **kwargs)

    monkeypatch.setattr(campaign, "confirm_suspicion", counting_confirm)
    endpoint = EngineEndpoint(
        kind=EngineKind.SIMULATOR, handle=serve(SimConfig(seed=1).with_faults(FaultFamily.ENGINE_STALL))
    )
    result = run_campaign(steady_config(rng_seed=11, iterations=20, bootstrap_per_profile=2), endpoint)
    assert result.findings
    for fp, record in result.findings.items():
        raised_at = [
            result.executed_trace_ids.index(s.trace_id) for s in result.suspicions_raised if s.fingerprint == fp
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


def test_seed_traces_execute_before_mutants():
    config = steady_config(rng_seed=13, iterations=3)
    seeds = [e.entry_id for e in bootstrap_corpus(config)]
    result = run_campaign(config, sim_endpoint(seed=1))
    assert result.executed_trace_ids[: len(seeds)] == seeds
