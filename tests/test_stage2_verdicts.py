"""Stage-2 verdicts, frozen per suspicion kind the simulator raises in process.

Each case executes one scripted trace on a fresh simulator with a fault
armed (or, for the lifecycle cases, on an engine that ignores aborts), takes
the first suspicion of the named kind from ``full_sweep`` and confirms it, on
the same engine or, for the one dismissal, on a clean one.  The verdict, the
dismissal reason and a digest of the canonical evidence were recorded before
the replay arms were merged into one; a change to how stage 2 confirms must
leave them as they are.
"""

import hashlib

import pytest

import tracefuzz.confirmation as confirmation
from tracefuzz.adapter import EngineEndpoint, EngineKind, ExecutionReport, RequestOutcome, execute, reset_server
from tracefuzz.confirmation import ConfirmationConfig, Dismissal, Finding, confirm_suspicion
from tracefuzz.hashing import canonical_json
from tracefuzz.oracles import BaselineStats, OracleThresholds, SuspicionKind, behavioral_check, full_sweep
from tracefuzz.simulator.config import FaultFamily, FaultSpec, SimConfig
from tracefuzz.simulator.endpoint import serve
from tracefuzz.simulator.engine import SimCore
from tracefuzz.trace import EventKind, PromptShape, RequestSpec, SamplingConfig, TimedTrace, TraceEvent
from drift_schedules import drift_schedule


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


def _f1_trace():
    # Eleven long fillers fill the pool; a same-prefix pair then lands in one
    # admission tick and the victim adopts a stale block.  A later twin of the
    # victim gives its snapshot group a second member.
    events = [send(f"fill{i}", 0, plen=4096, fam=f"fill-{i}") for i in range(11)]
    events += [
        send("trigger", 30, plen=64, prefix=32, fam="trig-a"),
        send("victim", 30, plen=64, prefix=32, fam="vic"),
        send("twin", 200, plen=64, prefix=32, fam="vic"),
    ]
    return TimedTrace("t~f1", tuple(events))


def _f3_trace():
    # Every drift trigger condition holds at one tick.
    return TimedTrace(
        "t~f3",
        tuple(
            send(rid, int(when), plen=length, mt=mt, adapter=adapter, fam=f"f-{rid}")
            for when, rid, length, adapter, mt in drift_schedule(15)
        ),
    )


def _cancel_trace():
    # The Cancel reaches the engine at 1 ms; an engine that ignores it
    # completes the request well past that.
    return TimedTrace("t~cancel", (send("c", 0, mt=16), TraceEvent(1, EventKind.CANCEL, target="c")))


class AbortIgnoringCore(SimCore):
    """An engine that takes every Cancel and Disconnect and keeps generating: a real lifecycle fault."""

    def cancel(self, rid: str, disconnect: bool = False) -> None:
        pass


def _warm_baseline(endpoint) -> BaselineStats:
    baseline = BaselineStats()
    for i in range(55):
        reset_server(endpoint)
        baseline.add_report(execute(TimedTrace(f"t~warm{i}", (send(f"w{i}", 0),)), endpoint))
    return baseline


# case -> (kind, fault armed while raising, fault armed while confirming,
#          request timeout, trace, warm a TTFT baseline first)
F1, F2, F3 = FaultFamily.STALE_KV_REUSE, FaultFamily.ENGINE_STALL, FaultFamily.ADAPTER_DRIFT
IGNORES_ABORTS = "ignores-aborts"  # the engine is an AbortIgnoringCore
CASES = {
    "hash_conflict": (SuspicionKind.HASH_CONFLICT, F1, F1, 60_000, _f1_trace, False),
    "snapshot_divergence": (SuspicionKind.SNAPSHOT_DIVERGENCE, F1, F1, 60_000, _f1_trace, False),
    "lifecycle_violation": (
        SuspicionKind.LIFECYCLE_VIOLATION, IGNORES_ABORTS, IGNORES_ABORTS, 60_000, _cancel_trace, False
    ),
    # Raised on an engine that ignores aborts, replayed on a clean one: the one dismissal.
    "lifecycle_violation-clean-replay": (
        SuspicionKind.LIFECYCLE_VIOLATION, IGNORES_ABORTS, None, 60_000, _cancel_trace, False
    ),
    "ttft_regression": (
        SuspicionKind.TTFT_REGRESSION,
        F2,
        F2,
        60_000,
        lambda: TimedTrace("t~stall", (send("wide", 0, mt=8, n=12), send("probe", 2))),
        True,
    ),
    "timeout": (
        SuspicionKind.TIMEOUT,
        F2,
        F2,
        2_000,
        lambda: TimedTrace("t~slow", (send("wide", 0, mt=8, n=8), send("b", 1))),
        False,
    ),
    "crash": (SuspicionKind.CRASH, F3, F3, 60_000, _f3_trace, False),
}

# case -> (verdict, dismissal reason or None, sha256 of canonical_json(evidence))
FROZEN = {
    "crash": ("TruePositive", None, "850abfe85b9d85c4e02816f329cca5923cf8a454f8a9cd53e7f0f9e58916d65d"),
    "hash_conflict": ("TruePositive", None, "1d749237af1a9287a4bfc35e871a4b60a6adcc882cfb697b101f9ea2140d3d54"),
    "lifecycle_violation": ("TruePositive", None, "f2febcdcd9fa19d7c61fdbbed16f85f7d5cfaeb3f4404d76084f0d77b3e7efc5"),
    "lifecycle_violation-clean-replay": (
        "Pass",
        "not-reproducible",
        "57f08145307453a5353289ce4eb58e68e1c3273f2abc929aa3f9142e13a55172",
    ),
    "snapshot_divergence": ("TruePositive", None, "1d749237af1a9287a4bfc35e871a4b60a6adcc882cfb697b101f9ea2140d3d54"),
    "timeout": ("TruePositive", None, "f2febcdcd9fa19d7c61fdbbed16f85f7d5cfaeb3f4404d76084f0d77b3e7efc5"),
    "ttft_regression": ("TruePositive", None, "629dfee3b069e8affb5aca9e9f4efb6184bb2c0d34681615f4d8a2242cbc75aa"),
}


def _verdict_row(outcome) -> tuple:
    reason = outcome.reason if isinstance(outcome, Dismissal) else None
    digest = hashlib.sha256(canonical_json(outcome.evidence).encode()).hexdigest()
    return outcome.verdict.value, reason, digest


def _endpoint(fault, timeout_ms):
    if fault is IGNORES_ABORTS:
        handle = AbortIgnoringCore(SimConfig(seed=1))
    else:
        handle = serve(SimConfig(seed=1, faults=() if fault is None else (FaultSpec(family=fault),)))
    return EngineEndpoint(kind=EngineKind.SIMULATOR, handle=handle, request_timeout_ms=timeout_ms)


def confirm_case(case):
    kind, raise_fault, confirm_fault, timeout_ms, build, warm = CASES[case]
    endpoint = _endpoint(raise_fault, timeout_ms)
    thresholds = OracleThresholds()
    baseline = _warm_baseline(endpoint) if warm else BaselineStats()
    trace = build()
    reset_server(endpoint)
    report = execute(trace, endpoint)
    suspicion = next(s for s in full_sweep(report, baseline, thresholds) if s.kind is kind)
    if confirm_fault is not raise_fault:
        endpoint = _endpoint(confirm_fault, timeout_ms)
    return confirm_suspicion(suspicion, report, endpoint, ConfirmationConfig(), thresholds)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stage2_verdict_is_frozen(case):
    outcome = confirm_case(case)
    assert _verdict_row(outcome) == FROZEN[case], canonical_json(outcome.evidence)


# -- stall ----------------------------------------------------------------------


def test_a_stall_is_confirmed_by_a_probe_inside_its_window(monkeypatch):
    # Each descheduled tick costs 15 s, past the 10 s stall window, so
    # full_sweep raises a stall; the timing arm probes the middle of its quiet window.
    engine = SimConfig(seed=1, faults=(FaultSpec(FaultFamily.ENGINE_STALL, stall_ms=15_000),))
    endpoint = EngineEndpoint(kind=EngineKind.SIMULATOR, handle=serve(engine), request_timeout_ms=600_000)
    trace = TimedTrace("t~quiet", (send("wide", 0, mt=4, n=8), send("probe", 2)))
    reset_server(endpoint)
    report = execute(trace, endpoint)
    stall = next(s for s in full_sweep(report, BaselineStats()) if s.kind is SuspicionKind.STALL)

    replayed = []
    real_replay = confirmation.replay

    def recording_replay(trace, *args):
        replayed.append(trace)
        return real_replay(trace, *args)

    monkeypatch.setattr(confirmation, "replay", recording_replay)
    outcome = confirm_suspicion(stall, report, endpoint, ConfirmationConfig())
    assert isinstance(outcome, Finding), outcome
    [injected] = replayed
    probe = next(e for e in injected.events if e.kind is EventKind.SEND and e.spec.request_id.startswith("timing-probe"))
    start, end = stall.evidence["window"]
    assert probe.offset_ms == (start + end) // 2 > 0


# -- corrupted output -----------------------------------------------------------


@pytest.mark.parametrize("tokens,subtype", [(((),), "empty-body"), (((1, 2, 3),), "overflow")])
def test_corrupted_output_that_replays_is_confirmed(monkeypatch, tokens, subtype):
    # An engine that corrupts the same request the same way on every pinned
    # replay: stage 2 must file it, whichever oracle raised it.
    trace = TimedTrace("t~corrupt", (send("a", 0, mt=2),))

    def corrupting_execute(replayed, endpoint, corpus_seed=0, canonical_decode=False):
        return ExecutionReport(
            trace=replayed,
            corpus_seed=corpus_seed,
            outcomes={"a": RequestOutcome("a", "completed", 0, total_ms=3, output_tokens=tokens,
                                          token_stamps=(1, 2, 3)[: len(tokens[0])])},
            engine_info={"vocab_size": 1024},
        )

    monkeypatch.setattr(confirmation, "execute", corrupting_execute)
    monkeypatch.setattr(confirmation, "reset_server", lambda endpoint: None)
    endpoint = EngineEndpoint(kind=EngineKind.SIMULATOR, handle=object())
    report = corrupting_execute(trace, endpoint)
    [suspicion] = behavioral_check(report, BaselineStats(), OracleThresholds())
    assert suspicion.kind is SuspicionKind.CORRUPTED_OUTPUT and suspicion.signature == {"subtype": subtype}

    outcome = confirm_suspicion(suspicion, report, endpoint)
    assert isinstance(outcome, Finding), outcome
    assert outcome.evidence["majority_hits"] == 3
