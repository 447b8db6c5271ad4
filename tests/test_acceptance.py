"""Acceptance gates, one test per criterion.

Each test is self-contained and pins its own seeds, budgets, and tolerances,
so `pytest -v tests/test_acceptance.py` prints one pass/fail line per gate.
The planted-fault gates (4, 5, 6, 9) run real campaigns or scripted scenarios
against the simulator with the matching fault armed; the floor gate (8) runs
against the clean simulator.
"""

import math
import pathlib
import random
import sys
import time
from itertools import product

import pytest

from tracefuzz.adapter import EngineEndpoint, EngineKind, execute, reset_server
from tracefuzz.campaign import (
    DEFAULT_PROFILES,
    PROFILE_LORA_MIX,
    PROFILE_PREFIX_SHARE,
    PROFILE_STEADY,
    CampaignConfig,
    PressureScore,
    minimize,
    run_campaign,
)
from tracefuzz.confirmation import (
    ConfirmationConfig,
    Dismissal,
    Finding,
    Verdict,
    confirm_suspicion,
    majority_confirm,
    majority_threshold,
)
from tracefuzz.mutation import generate_seed, mutate
from tracefuzz.oracles import (
    BaselineStats,
    OracleThresholds,
    SuspicionKind,
    behavioral_check,
)
from tracefuzz.simulator.config import FaultFamily, FaultSpec, SimConfig
from tracefuzz.simulator.endpoint import serve
from tracefuzz.trace import (
    PromptShape,
    RequestSpec,
    SamplingConfig,
    TimedTrace,
    TraceEvent,
    deserialize,
    serialize,
    validate,
)

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from drift_schedules import run_schedule  # noqa: E402
from test_confirmation import ALPHABET, outcome_of, reference_outcome, synth_ladders  # noqa: E402

_STATE_KINDS = {
    SuspicionKind.CORRUPTED_OUTPUT,
    SuspicionKind.CROSS_ADAPTER_REUSE,
    SuspicionKind.HASH_CONFLICT,
    SuspicionKind.SNAPSHOT_DIVERGENCE,
    SuspicionKind.KV_LEAK,
}


def sim_endpoint(seed=1, faults=(), **cfg):
    specs = tuple(FaultSpec(family=f) for f in faults)
    return EngineEndpoint(kind=EngineKind.SIMULATOR, handle=serve(SimConfig(seed=seed, faults=specs, **cfg)))


def send(rid, off, plen=16, prefix=0, mt=4, n=1, fam=None, adapter="BASE"):
    return TraceEvent.send(
        off,
        RequestSpec(
            request_id=rid,
            shape=PromptShape(prefix, plen),
            sampling=SamplingConfig(max_tokens=mt, temperature=0.0, seed=0, n_completions=n),
            prompt_family_id=fam or f"fam-{rid}",
            adapter=adapter,
        ),
    )


def test_ac01_relational_verdicts_match_brute_force_reference():
    """Exhaustive agreement with the frozen reference over the small domain:
    alphabet of 4, original/replay lengths 0..3, top-N 1..3, three epsilons."""
    started = time.monotonic()
    sequences = [()]
    for length in (1, 2, 3):
        sequences.extend(product(ALPHABET, repeat=length))

    checked = 0
    for original in sequences:
        for replay in sequences:
            ladders = synth_ladders(replay)
            for top_n in (1, 2, 3):
                for epsilon in (0.0, 0.05, 0.5):
                    expected = reference_outcome(original, replay, ladders, top_n, epsilon)
                    got = outcome_of(original, replay, ladders, top_n, epsilon)
                    assert got == expected, (original, replay, top_n, epsilon, got, expected)
                    checked += 1
    elapsed = time.monotonic() - started
    assert checked == 85 * 85 * 9
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"


def test_ac02_majority_rule_matches_ceiling_arithmetic():
    for k in range(1, 13):
        need = math.ceil(2 * k / 3)
        assert majority_threshold(k) == need
        assert majority_confirm([True] * need + [False] * (k - need), k)
        if need > 0:
            assert not majority_confirm([True] * (need - 1) + [False] * (k - need + 1), k)


def test_ac03_pressure_score_formula():
    assert PressureScore(n_send=20, n_adapter=6, n_kv=1500, n_shape=6).s_total == pytest.approx(4.0, abs=1e-9)
    rng = random.Random(0)
    for _ in range(10):
        n_send, n_adapter = rng.randrange(0, 200), rng.randrange(0, 30)
        n_kv, n_shape = rng.randrange(0, 20_000), rng.randrange(0, 40)
        direct = n_send / 20 + n_adapter / 6 + n_kv / 1500 + n_shape / 6
        got = PressureScore(n_send=n_send, n_adapter=n_adapter, n_kv=n_kv, n_shape=n_shape).s_total
        assert got == pytest.approx(direct, abs=1e-9)


def test_ac04_stale_kv_fault_yields_confirmed_state_corruption():
    started = time.monotonic()
    config = CampaignConfig(
        rng_seed=0,
        iterations=5000,
        profiles=(PROFILE_PREFIX_SHARE,),
        bootstrap_per_profile=2,
        stop_on_finding=True,
    )
    result = run_campaign(config, sim_endpoint(faults=(FaultFamily.STALE_KV_REUSE,)))
    elapsed = time.monotonic() - started

    state_findings = [rec for rec in result.findings.values() if rec.finding.kind in _STATE_KINDS]
    assert state_findings, "no state-corruption finding confirmed"
    record = state_findings[0]
    assert record.finding.verdict is Verdict.TRUE_POSITIVE
    assert record.first_iteration < 5000
    # sustained by the relational stage, not only by structural replay
    relational = record.finding.evidence.get("relational", [])
    assert any(entry["verdict"] == "TruePositive" for entry in relational)
    assert elapsed < 600.0, f"campaign took {elapsed:.1f}s"


def _ac05_regression():
    """The F2 endpoint, the stalled trace's report after a warm baseline, and its TTFT regression."""
    endpoint = sim_endpoint(faults=(FaultFamily.ENGINE_STALL,))
    thresholds = OracleThresholds()

    baseline = BaselineStats()
    for i in range(55):
        reset_server(endpoint)
        report = execute(TimedTrace(f"t~warm{i}", (send(f"w{i}", 0),)), endpoint)
        assert behavioral_check(report, baseline, thresholds) == []
        baseline.add_report(report)

    # one wide request holds enough streams in flight to trip the stall; the
    # probe dispatched behind it absorbs the inflated clock
    trace = TimedTrace("t~stall", (send("wide", 0, mt=8, n=12), send("probe", 2)))
    reset_server(endpoint)
    report = execute(trace, endpoint)
    suspicions = behavioral_check(report, baseline, thresholds)
    regressions = [s for s in suspicions if s.kind is SuspicionKind.TTFT_REGRESSION]
    assert regressions, f"no regression raised: {[s.kind for s in suspicions]}"
    return endpoint, report, regressions[0]


def test_ac05_stall_fault_regression_confirmed_with_recovery():
    endpoint, report, regression = _ac05_regression()
    assert regression.evidence["ratio"] >= 100.0

    outcome = confirm_suspicion(regression, report, endpoint, ConfirmationConfig(), OracleThresholds())
    assert isinstance(outcome, Finding), getattr(outcome, "reason", None)
    evidence = outcome.evidence
    assert evidence["amplification"] >= 100.0
    assert evidence["recovered"] is True
    assert evidence["recovery_p50_ms"] <= 2.0 * evidence["baseline_p50_ms"]


def test_ac05_stage2_judges_with_the_oracles_ttft_factor():
    # One factor judges both stages: above the injected probe's amplification,
    # the same replays show admission queueing, not a regression.
    endpoint, report, regression = _ac05_regression()
    confirmed = confirm_suspicion(regression, report, endpoint, ConfirmationConfig(), OracleThresholds())
    assert isinstance(confirmed, Finding), getattr(confirmed, "reason", None)
    above = OracleThresholds(ttft_regression_factor=math.floor(confirmed.evidence["amplification"]) + 1)
    outcome = confirm_suspicion(regression, report, endpoint, ConfirmationConfig(), above)
    assert isinstance(outcome, Dismissal) and outcome.reason == "latency-explained-by-admission-queueing"


def test_ac06_adapter_drift_crash_found_and_minimized():
    started = time.monotonic()
    config = CampaignConfig(
        rng_seed=11,
        iterations=2000,
        profiles=(PROFILE_LORA_MIX,),
        bootstrap_per_profile=2,
        stop_on_finding=True,
    )
    endpoint = sim_endpoint(faults=(FaultFamily.ADAPTER_DRIFT,))
    result = run_campaign(config, endpoint)
    crash = [rec for rec in result.findings.values() if rec.finding.kind is SuspicionKind.CRASH]
    assert crash, "no confirmed crash"
    assert result.iterations_run <= 2000

    offender = result.trace_store[crash[0].finding.trace_id]

    def crashes(candidate) -> bool:
        reset_server(endpoint)
        return execute(candidate, endpoint).server_crashed

    small = minimize(offender, crashes, k=3)
    assert len(small.events) < len(offender.events), "minimizer failed to shrink"

    hits = sum(crashes(small) for _ in range(3))
    assert hits >= majority_threshold(3)
    assert time.monotonic() - started < 300.0


def test_ac07_drift_single_axis_immunity():
    for mask in range(15):  # every proper subset of the four conditions
        for run in range(10):
            crashed, observed, _ = run_schedule(mask, sim_seed=run)
            assert not crashed, f"subset {mask:04b} crashed on run {run}"
            assert mask in observed, f"subset {mask:04b} never realized on run {run}"
            assert 15 not in observed, f"subset {mask:04b} escalated to the full mask"


def test_ac08_false_positive_floor():
    clean = CampaignConfig(rng_seed=8, iterations=500, profiles=(PROFILE_STEADY,), bootstrap_per_profile=2)
    result = run_campaign(clean, sim_endpoint(seed=5))
    assert result.iterations_run == 500
    assert result.findings == {}, f"clean run confirmed {sorted(result.findings)}"

    near_tie = CampaignConfig(rng_seed=3, iterations=60, profiles=(PROFILE_STEADY,), bootstrap_per_profile=2)
    tied = run_campaign(near_tie, sim_endpoint(seed=5, near_tie_gap=0.05))
    assert tied.suspicions_raised >= 20
    assert tied.findings == {}
    assert tied.dismissals, "near ties never reached confirmation"
    for rec in tied.dismissals.values():
        assert rec.dismissal.verdict is Verdict.FALSE_POSITIVE
        assert rec.dismissal.reason == "within-tie-margin"


def _corrupted_victim(trigger_family: str, faulted: bool):
    # Pool pressure from eleven long fillers, then a same-prefix pair lands in
    # one admission tick; with the fault armed the victim adopts a stale block.
    events = [send(f"fill{i}", 0, plen=4096, fam=f"fill-{i}") for i in range(11)]
    events.append(send("trigger", 30, plen=64, prefix=32, fam=trigger_family))
    events.append(send("victim", 30, plen=64, prefix=32, fam="vic"))
    faults = (FaultFamily.STALE_KV_REUSE,) if faulted else ()
    report = execute(TimedTrace("t~invariance", tuple(events)), sim_endpoint(faults=faults))
    victim = report.outcomes["victim"]
    assert victim.status == "completed"
    return victim.output_tokens[0], report.outcomes["trigger"].output_tokens[0]


def test_ac09_corruption_is_invariant_to_the_trigger_prompt():
    corrupted = {}
    triggers = {}
    for family in ("trig-a", "trig-b", "trig-c"):
        corrupted[family], triggers[family] = _corrupted_victim(family, faulted=True)
    assert len(set(triggers.values())) == 3, "trigger prompts were not actually unrelated"
    assert len(set(corrupted.values())) == 1, f"victim output varies with the trigger: {corrupted}"

    clean, _ = _corrupted_victim("trig-a", faulted=False)
    assert clean != next(iter(corrupted.values())), "fault left no mark to compare"


def test_ac10_determinism_and_round_trips():
    # campaign reproducibility: same config and seed, fresh engines
    def one_run():
        config = CampaignConfig(rng_seed=21, iterations=20, profiles=(PROFILE_STEADY,), bootstrap_per_profile=2)
        return run_campaign(config, sim_endpoint(seed=2))

    a, b = one_run(), one_run()
    assert a.executed_trace_ids == b.executed_trace_ids
    assert a.finding_fingerprints() == b.finding_fingerprints()

    # serialization round-trip over 1,000 generated and mutated traces
    rng = random.Random(17)
    traces = []
    for i in range(250):
        profile = DEFAULT_PROFILES[i % len(DEFAULT_PROFILES)]
        traces.append(generate_seed(profile, rng.randrange(1 << 32)))
    pool = list(traces)
    while len(traces) < 1000:
        parent = rng.choice(pool)
        partner = rng.choice(pool) if rng.random() < 0.5 else None
        traces.append(mutate(parent, rng.randrange(1 << 62), partner=partner))
    assert len(traces) == 1000
    for trace in traces:
        blob = serialize(trace)
        again = deserialize(blob)
        assert serialize(again) == blob

    # mutation validity over 10,000 mutants
    parents = traces[:40]
    checked = 0
    for i in range(10_000):
        parent = parents[i % len(parents)]
        partner = parents[(i * 7 + 3) % len(parents)] if i % 3 else None
        mutant = mutate(parent, i, partner=partner)
        report = validate(mutant)
        assert report.ok, f"mutant {i} invalid: {report.violations}"
        checked += 1
    assert checked == 10_000
