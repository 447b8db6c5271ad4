"""A fresh simulator core serves its last run again instead of re-running it.

A core's report depends only on its config, the trace, the corpus seed, the
decode mode and the request timeout.  So a core that reset() left fresh keeps
the report of the run it last started there, and hands out a copy of it when
the same trace object comes back with the same inputs: a minimize candidate's
second vote, a stage-2 pinned replay after the first.  The served run leaves
the core at reset and owes its state; the next execution without a reset
runs it first.  These tests pin that every report and every core state reads
as if each execution had run.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import tracefuzz.adapter as adapter
import tracefuzz.confirmation as confirmation
from tracefuzz.adapter import EndpointUnavailable, EngineEndpoint, EngineKind, ExecutionReport, execute, reset_server
from tracefuzz.campaign import CampaignConfig, minimize, run_campaign
from tracefuzz.confirmation import ConfirmationConfig, Finding, confirm_suspicion, latency_probe_trace
from tracefuzz.oracles import SuspicionKind, full_sweep
from tracefuzz.simulator.config import FaultFamily, FaultSpec, SimConfig
from tracefuzz.simulator.endpoint import serve
from tracefuzz.trace import TimedTrace
from test_stage2_verdicts import _f1_trace, _f3_trace, _warm_baseline, send

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"


def _clean_trace():
    return TimedTrace("t~clean", (send("a", 0, plen=40, mt=6), send("b", 3, plen=40, prefix=32, fam="fam-a", n=2),
                                  send("c", 9, mt=12)))


# engine -> (its fault, the trace it runs): a clean run, a stale grab, a crash.
ENGINES = {
    "clean": (None, _clean_trace),
    "f1": (FaultFamily.STALE_KV_REUSE, _f1_trace),
    "f3": (FaultFamily.ADAPTER_DRIFT, _f3_trace),
}


def endpoint_for(fault, timeout_ms=60_000):
    core = serve(SimConfig(seed=1, faults=() if fault is None else (FaultSpec(family=fault),)))
    return EngineEndpoint(kind=EngineKind.SIMULATOR, handle=core, request_timeout_ms=timeout_ms)


def fields(report: ExecutionReport) -> dict:
    return {field.name: getattr(report, field.name) for field in dataclasses.fields(report)}


def core_state(core) -> tuple:
    """What a probe run after the served run would start from: clock, log length, requests, crash."""
    return core.clock_ms, core.tick, len(core.kv_log), sorted(core.requests), core.crashed, core.crash_evidence


@pytest.fixture
def real_runs(monkeypatch):
    """The trace id of every execution the in-process transport runs for real, in order."""
    runs = []
    run = adapter._run_virtual

    def counted(core, trace, *inputs):
        runs.append(trace.trace_id)
        return run(core, trace, *inputs)

    monkeypatch.setattr(adapter, "_run_virtual", counted)
    return runs


# -- equal reports ------------------------------------------------------------------


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_a_served_report_equals_a_real_run_field_by_field(engine, real_runs):
    fault, build = ENGINES[engine]
    trace = build()
    endpoint = endpoint_for(fault)
    reset_server(endpoint)
    first = execute(trace, endpoint)
    reset_server(endpoint)
    served = execute(trace, endpoint)
    assert real_runs == [trace.trace_id]

    twin = dataclasses.replace(trace)  # equal, but another object: it runs
    assert twin == trace and twin is not trace
    other = endpoint_for(fault)
    real = execute(twin, other)
    assert len(real_runs) == 2

    assert served is not first and served.outcomes is not first.outcomes
    assert fields(first) == fields(served)
    assert {**fields(real), "trace": trace} == fields(served)
    assert served.kv_events == real.kv_events and served.kv_ledger == real.kv_ledger
    assert served.server_crashed is (engine == "f3")


# -- the owed run -------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["clean", "f1"])
def test_a_probe_after_a_served_run_starts_from_the_state_the_run_left(engine, real_runs):
    fault, build = ENGINES[engine]
    trace = build()
    probe = latency_probe_trace("recovery", 5)

    served = endpoint_for(fault)
    execute(trace, served)
    reset_server(served)
    execute(trace, served)
    assert served.handle.last_run.owed
    after_served = execute(probe, served, canonical_decode=True)
    # The trace ran once to keep its report and once for the state it owed.
    assert real_runs == [trace.trace_id, trace.trace_id, probe.trace_id]

    ran = endpoint_for(fault)
    execute(trace, ran)
    after_ran = execute(probe, ran, canonical_decode=True)

    assert fields(after_served) == fields(after_ran)
    assert after_served.kv_log  # the probe's own slice of the log, stamped from its epoch
    assert core_state(served.handle) == core_state(ran.handle)


def test_a_probe_after_a_served_crash_finds_the_engine_down(real_runs):
    fault, build = ENGINES["f3"]
    trace, probe = build(), latency_probe_trace("recovery", 5)
    endpoint = endpoint_for(fault)
    execute(trace, endpoint)
    reset_server(endpoint)
    assert execute(trace, endpoint).server_crashed
    assert not endpoint.handle.crashed  # served: the crash is owed
    with pytest.raises(EndpointUnavailable):
        execute(probe, endpoint)
    assert endpoint.handle.crashed
    assert real_runs == [trace.trace_id, trace.trace_id, probe.trace_id]


def test_a_reset_drops_the_owed_run(real_runs):
    trace, probe = _f1_trace(), latency_probe_trace("recovery", 5)
    endpoint = endpoint_for(FaultFamily.STALE_KV_REUSE)
    execute(trace, endpoint)
    reset_server(endpoint)
    execute(trace, endpoint)
    reset_server(endpoint)
    assert not endpoint.handle.last_run.owed
    report = execute(probe, endpoint)
    assert real_runs == [trace.trace_id, probe.trace_id]
    assert fields(report) == fields(execute(probe, endpoint_for(FaultFamily.STALE_KV_REUSE)))


# -- independent reports ------------------------------------------------------------


def _edit(report: ExecutionReport) -> None:
    """Edit every dict a caller may hold, as tracefuzz replay's test stubs edit outcomes."""
    first, *_, last = report.outcomes
    report.outcomes[first] = dataclasses.replace(report.outcomes[first], status="timeout")
    del report.outcomes[last]
    report.block_snapshots.clear()
    report.engine_info["vocab_size"] = 0
    if report.crash_evidence is not None:
        report.crash_evidence["signature"] = "edited"


@pytest.mark.parametrize("engine", ["clean", "f3"])
def test_editing_a_report_leaves_the_next_served_report_as_it_was(engine, real_runs):
    fault, build = ENGINES[engine]
    trace = build()
    endpoint = endpoint_for(fault)
    first = execute(trace, endpoint)
    expected = fields(execute(trace, endpoint_for(fault)))
    _edit(first)  # the report of the real run
    reset_server(endpoint)
    served = execute(trace, endpoint)
    assert fields(served) == expected
    _edit(served)
    reset_server(endpoint)
    assert fields(execute(trace, endpoint)) == expected
    assert real_runs.count(trace.trace_id) == 2  # the kept run and the fresh twin


# -- no serving ---------------------------------------------------------------------


def test_a_core_that_is_not_fresh_runs_again(real_runs):
    trace = _clean_trace()
    endpoint = endpoint_for(None)
    execute(trace, endpoint)
    execute(trace, endpoint)  # no reset: the second run starts where the first ended
    reset_server(endpoint)
    endpoint.handle.advance_to(5)  # stepped by hand
    execute(trace, endpoint)
    assert len(real_runs) == 3


@pytest.mark.parametrize("change", ["corpus_seed", "canonical_decode", "request_timeout_ms", "trace"])
def test_a_run_whose_inputs_differ_runs(change, real_runs):
    trace = _clean_trace()
    endpoint = endpoint_for(None)
    execute(trace, endpoint)
    reset_server(endpoint)
    args = {"corpus_seed": 0, "canonical_decode": False}
    if change in args:
        args[change] = 1 if change == "corpus_seed" else True
    elif change == "request_timeout_ms":
        endpoint = dataclasses.replace(endpoint, request_timeout_ms=2)
    else:
        trace = dataclasses.replace(trace)
    report = execute(trace, endpoint, **args)
    assert len(real_runs) == 2
    assert fields(report) == fields(execute(trace, endpoint_for(None, endpoint.request_timeout_ms), **args))


def test_a_different_run_replaces_the_kept_one(real_runs):
    trace, other = _clean_trace(), _f1_trace()
    endpoint = endpoint_for(None)
    execute(trace, endpoint)
    reset_server(endpoint)
    execute(other, endpoint)
    reset_server(endpoint)
    execute(trace, endpoint)
    reset_server(endpoint)
    execute(trace, endpoint)
    assert real_runs == [trace.trace_id, other.trace_id, trace.trace_id]


# -- counts -------------------------------------------------------------------------


def _fault_hunt_f3_crash():
    """The trace of the first crash that fault-hunt's F3 campaign finds (perfbench/workloads.json)."""
    step = next(s for s in json.loads(WORKLOADS.read_text())["workloads"]["fault-hunt"]["steps"] if s["name"] == "f3")
    assert step["sim"] == {"seed": 1, "faults": ["F3"]}  # the engine endpoint_for builds with F3 armed
    endpoint = endpoint_for(FaultFamily.ADAPTER_DRIFT)
    result = run_campaign(CampaignConfig.from_dict(step["campaign"]), endpoint)
    first = min((rec.first_iteration, fp) for fp, rec in result.findings.items() if rec.finding.kind.value == "crash")
    return result.trace_store[result.findings[first[1]].finding.trace_id]


def test_minimize_runs_each_candidate_once(real_runs):
    trace = _fault_hunt_f3_crash()
    endpoint = endpoint_for(FaultFamily.ADAPTER_DRIFT)
    calls = []

    def crashes(candidate) -> bool:
        calls.append(candidate.trace_id)
        reset_server(endpoint)
        return execute(candidate, endpoint).server_crashed

    real_runs.clear()
    minimize(trace, crashes, k=3)
    assert (len(calls), len(real_runs)) == (132, 66)
    assert sorted(set(calls)) == sorted(real_runs)


def test_a_replay_arm_runs_its_trace_once(real_runs):
    trace = _f1_trace()
    reports = confirmation.replay(trace, endpoint_for(FaultFamily.STALE_KV_REUSE), 3, 5)
    assert len(reports) == 3 and real_runs == [trace.trace_id]
    assert fields(reports[0]) == fields(reports[1]) == fields(reports[2])


def test_a_timing_arm_runs_its_replayed_trace_once_with_the_recovery_probe_after_it(real_runs):
    # The frozen ttft_regression case: a wide request stalls the engine past the probe's TTFT.
    endpoint = endpoint_for(FaultFamily.ENGINE_STALL)
    trace = TimedTrace("t~stall", (send("wide", 0, mt=8, n=12), send("probe", 2)))
    baseline = _warm_baseline(endpoint)
    reset_server(endpoint)
    report = execute(trace, endpoint)
    suspicion = next(s for s in full_sweep(report, baseline) if s.kind is SuspicionKind.TTFT_REGRESSION)
    real_runs.clear()
    outcome = confirm_suspicion(suspicion, report, endpoint, ConfirmationConfig(k=3))
    assert isinstance(outcome, Finding)
    assert real_runs == ["probe~baseline", "t~stall~timing", "probe~recovery"]
