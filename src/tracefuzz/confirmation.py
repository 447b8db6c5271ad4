"""Stage-2 confirmation: replay suspicions and separate real bugs from noise.

Two mechanisms, combined per suspicion kind:

* A relational check against a clean reference.  The suspect request is
  re-issued alone on a reset engine with tie-breaking pinned and logprobs
  enabled, and divergence is judged at the first differing position: an
  original token that sits inside the reference top-N within the tolerance
  margin is explainable by benign nondeterminism and dismissed.
* Majority replay.  The whole trace is re-executed on a reset engine with
  deterministic decoding forced, and the anomaly must re-fire in at least
  ceil(2k/3) of k replays.

Timing suspicions get their own arm: a fresh latency baseline from solo
probes, a probe injected into the replayed window (so deterministic queueing
delay does not masquerade as an engine health problem), and a recovery probe
after the window has passed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import ClassVar

from .adapter import EndpointUnavailable, EngineKind, execute, reset_server
from .oracles import (
    BaselineStats,
    OracleThresholds,
    Suspicion,
    SuspicionKind,
    behavioral_check,
    lifecycle_check,
    structural_forensics,
)
from .trace import EventKind, PromptShape, RequestSpec, SamplingConfig, TimedTrace, TraceEvent, ordered

LOG = logging.getLogger(__name__)


class Verdict(str, Enum):
    PASS = "Pass"
    FALSE_POSITIVE = "FalsePositive"
    TRUE_POSITIVE = "TruePositive"


class InstrumentationGapError(RuntimeError):
    """The reference run lacks the records needed to judge the divergence."""


@dataclass(frozen=True)
class RelationalVerdict:
    verdict: Verdict
    position: int | None = None
    original_token: int | None = None
    replay_token: int | None = None
    delta: float | None = None
    in_top_n: bool | None = None
    note: str | None = None


def first_difference(y, y2) -> int | None:
    """Index of the first disagreement; None only when both are identical."""
    for i in range(min(len(y), len(y2))):
        if y[i] != y2[i]:
            return i
    if len(y) == len(y2):
        return None
    return min(len(y), len(y2))


def confirm_relational(original, reference, reference_ladders, top_n: int = 5, epsilon: float = 0.1) -> RelationalVerdict:
    """Judge one stream's divergence against the clean reference ladders.

    reference_ladders holds, per reference position, recorded (token, logprob)
    pairs including the reference's own choice.  A reference that cannot
    cover the divergence position is an instrumentation gap, not a verdict.
    """
    p = first_difference(original, reference)
    if p is None:
        return RelationalVerdict(Verdict.PASS)
    if p == len(original):
        # The original is a strict prefix: truncation, not content divergence.
        return RelationalVerdict(Verdict.PASS, position=p, note="original-truncated")
    if p >= len(reference):
        raise InstrumentationGapError(f"reference output ends at {len(reference)}, before divergence position {p}")
    if reference_ladders is None or p >= len(reference_ladders):
        raise InstrumentationGapError(f"no reference ladder recorded at position {p}")

    ladder = sorted(reference_ladders[p], key=lambda entry: -entry[1])[:top_n]
    logprob = {token: lp for token, lp in ladder}
    y_p, ref_p = original[p], reference[p]
    if ref_p not in logprob:
        raise InstrumentationGapError(f"reference ladder at position {p} omits the reference's own token")
    if y_p not in logprob:
        return RelationalVerdict(
            Verdict.TRUE_POSITIVE, position=p, original_token=y_p, replay_token=ref_p, in_top_n=False
        )
    delta = logprob[ref_p] - logprob[y_p]
    verdict = Verdict.FALSE_POSITIVE if delta < epsilon else Verdict.TRUE_POSITIVE
    return RelationalVerdict(
        verdict, position=p, original_token=y_p, replay_token=ref_p, delta=delta, in_top_n=True
    )


def majority_threshold(k: int) -> int:
    if k < 1:
        raise ValueError("k must be >= 1")
    return math.ceil(2 * k / 3)


def majority_confirm(outcomes, k: int) -> bool:
    """True iff at least ceil(2k/3) of the k reproduction flags are set."""
    flags = list(outcomes)
    if len(flags) != k:
        raise ValueError(f"expected {k} outcomes, got {len(flags)}")
    return sum(bool(f) for f in flags) >= majority_threshold(k)


# --------------------------------------------------------------------------
# Replay


def _pinned_sampling(sampling: SamplingConfig, top_n: int) -> SamplingConfig:
    return replace(
        sampling,
        temperature=0.0,
        seed=sampling.seed if sampling.seed is not None else 0,
        logprobs=max(top_n, sampling.logprobs or 0),
    )


def pin_trace(trace: TimedTrace, top_n: int) -> TimedTrace:
    """Force deterministic decoding and logprob reporting on every Send."""
    events = []
    for event in trace.events:
        if event.kind is EventKind.SEND:
            spec = replace(event.spec, sampling=_pinned_sampling(event.spec.sampling, top_n))
            events.append(replace(event, spec=spec))
        else:
            events.append(event)
    return trace.with_events(tuple(events))


def replay(trace: TimedTrace, endpoint, k: int, top_n: int = 5, corpus_seed: int = 0, retry_budget: int = 2):
    """k isolated re-executions, each on a reset engine with decoding pinned."""
    pinned = pin_trace(trace, top_n)
    reports = []
    for _ in range(k):
        reports.append(_run_isolated(pinned, endpoint, corpus_seed, retry_budget))
    return reports


def _run_isolated(trace, endpoint, corpus_seed, retry_budget):
    last: Exception | None = None
    for _ in range(retry_budget + 1):
        try:
            reset_server(endpoint)
            return execute(trace, endpoint, corpus_seed=corpus_seed, canonical_decode=True)
        except (EndpointUnavailable, OSError) as exc:
            last = exc
    raise last


# --------------------------------------------------------------------------
# Orchestration


@dataclass
class ConfirmationConfig:
    top_n: int = 5
    epsilon: float = 0.1
    k: int = 3
    retry_budget: int = 2
    relational_aggregate: str = "any"  # "any" | "majority" over per-stream verdicts
    probe_count: int = 16
    probe_spacing_ms: int = 40
    regression_factor: float = 10.0
    recovery_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.relational_aggregate not in ("any", "majority"):
            raise ValueError(f"relational_aggregate must be 'any' or 'majority', got {self.relational_aggregate!r}")


@dataclass
class _Judged:
    suspicion: Suspicion

    @property
    def fingerprint(self) -> str:
        return self.suspicion.fingerprint

    @property
    def kind(self) -> SuspicionKind:
        return self.suspicion.kind

    @property
    def trace_id(self) -> str:
        return self.suspicion.trace_id


@dataclass
class Finding(_Judged):
    evidence: dict = field(default_factory=dict)
    verdict: ClassVar[Verdict] = Verdict.TRUE_POSITIVE


@dataclass
class Dismissal(_Judged):
    verdict: Verdict
    reason: str
    evidence: dict = field(default_factory=dict)


def _judge(suspicion, confirmed: bool, evidence: dict, reason: str = "not-reproducible", verdict=Verdict.PASS):
    """The one verdict constructor: a Finding when confirmed, else a Dismissal."""
    if confirmed:
        return Finding(suspicion, evidence)
    return Dismissal(suspicion, verdict, reason, evidence)


_STATE_KINDS = frozenset(
    {
        SuspicionKind.CORRUPTED_OUTPUT,
        SuspicionKind.CROSS_ADAPTER_REUSE,
        SuspicionKind.HASH_CONFLICT,
        SuspicionKind.SNAPSHOT_DIVERGENCE,
    }
)
_TIMING_KINDS = frozenset({SuspicionKind.STALL, SuspicionKind.TTFT_REGRESSION})


def confirm_suspicion(
    suspicion: Suspicion,
    trace: TimedTrace,
    endpoint,
    config: ConfirmationConfig | None = None,
    original_report=None,
    corpus_seed: int = 0,
    thresholds: OracleThresholds | None = None,
):
    """Route one suspicion through its confirmation arm.

    Returns a Finding (confirmed) or a Dismissal.  Endpoint trouble that
    survives the retry budget yields a Dismissal marked unconfirmable rather
    than an exception, so campaigns keep moving.
    """
    config = config or ConfirmationConfig()
    thresholds = thresholds or OracleThresholds()
    try:
        if suspicion.kind in _TIMING_KINDS:
            return _confirm_timing(suspicion, trace, endpoint, config, corpus_seed)
        if suspicion.kind in _STATE_KINDS:
            return _confirm_state(suspicion, trace, endpoint, config, original_report, corpus_seed)
        return _confirm_replayable(suspicion, trace, endpoint, config, corpus_seed, thresholds)
    except (EndpointUnavailable, OSError) as exc:
        LOG.warning("confirmation of %s abandoned: %s", suspicion.fingerprint, exc)
        return _judge(suspicion, False, {"error": str(exc)}, "unconfirmable-endpoint-failure")


def _tally(flags, config) -> tuple[dict, bool]:
    """The majority evidence triple over k reproduction flags, and its verdict."""
    evidence = {"majority_hits": sum(flags), "majority_needed": majority_threshold(config.k), "k": config.k}
    return evidence, majority_confirm(flags, config.k)


def _replay_majority(trace, endpoint, config, corpus_seed, recheck):
    reports = replay(trace, endpoint, config.k, config.top_n, corpus_seed, config.retry_budget)
    tally, confirmed = _tally([bool(recheck(r)) for r in reports], config)
    return tally, confirmed, reports


def _fingerprint_recheck(suspicion, oracle):
    def recheck(report) -> bool:
        return any(s.fingerprint == suspicion.fingerprint for s in oracle(report))

    return recheck


# -- relational arm ---------------------------------------------------------


def solo_probe_trace(spec: RequestSpec, top_n: int) -> TimedTrace:
    """A one-request trace reproducing spec's prompt and decode settings."""
    probe = replace(spec, sampling=_pinned_sampling(spec.sampling, top_n))
    return TimedTrace(trace_id=f"solo~{spec.request_id}", events=(TraceEvent.send(0, probe),))


def clean_reference(spec: RequestSpec, endpoint, config: ConfirmationConfig, corpus_seed: int):
    """Outcome of the suspect request alone on a reset engine, ties pinned."""
    report = _run_isolated(solo_probe_trace(spec, config.top_n), endpoint, corpus_seed, config.retry_budget)
    return report.outcomes.get(spec.request_id)


def _relational_verdicts(suspicion, endpoint, config, original_report, corpus_seed) -> list[RelationalVerdict]:
    if original_report is None:
        return []
    verdicts: list[RelationalVerdict] = []
    for rid in suspicion.evidence.get("request_ids", []):
        outcome = original_report.outcomes.get(rid)
        spec = original_report.request_index.get(rid)
        if outcome is None or spec is None or outcome.status != "completed" or not outcome.output_tokens:
            continue
        reference = clean_reference(spec, endpoint, config, corpus_seed)
        if reference is None or reference.status != "completed":
            continue
        for stream, original in enumerate(outcome.output_tokens):
            if stream >= len(reference.output_tokens):
                break
            ladders = None
            if reference.logprob_records is not None and stream < len(reference.logprob_records):
                ladders = reference.logprob_records[stream]
            try:
                verdicts.append(
                    confirm_relational(
                        original, reference.output_tokens[stream], ladders, config.top_n, config.epsilon
                    )
                )
            except InstrumentationGapError as exc:
                LOG.debug("relational check skipped for %s stream %d: %s", rid, stream, exc)
    return verdicts


def _aggregate_relational(verdicts, config) -> Verdict | None:
    if not verdicts:
        return None
    true_positives = sum(v.verdict is Verdict.TRUE_POSITIVE for v in verdicts)
    if config.relational_aggregate == "majority":
        promoted = true_positives >= majority_threshold(len(verdicts))
    else:
        promoted = true_positives > 0
    if promoted:
        return Verdict.TRUE_POSITIVE
    if any(v.verdict is Verdict.FALSE_POSITIVE for v in verdicts):
        return Verdict.FALSE_POSITIVE
    return Verdict.PASS


def _relational_evidence(verdicts) -> list[dict]:
    return [
        {
            "verdict": v.verdict.value,
            "position": v.position,
            "delta": v.delta,
            "in_top_n": v.in_top_n,
            "note": v.note,
        }
        for v in verdicts
    ]


# -- arms ---------------------------------------------------------------------


def _confirm_state(suspicion, trace, endpoint, config, original_report, corpus_seed):
    verdicts = _relational_verdicts(suspicion, endpoint, config, original_report, corpus_seed)
    relational = _relational_evidence(verdicts)
    aggregate = _aggregate_relational(verdicts, config)

    if aggregate is Verdict.FALSE_POSITIVE:
        # Explainable tie-break divergence; replaying would only re-observe it.
        return _judge(suspicion, False, {"relational": relational}, "within-tie-margin", Verdict.FALSE_POSITIVE)

    recheck = _fingerprint_recheck(suspicion, lambda r: structural_forensics(r, corpus_seed=corpus_seed))
    tally, confirmed, _ = _replay_majority(trace, endpoint, config, corpus_seed, recheck)
    return _judge(suspicion, aggregate is Verdict.TRUE_POSITIVE or confirmed, {"relational": relational, **tally})


def _confirm_replayable(suspicion, trace, endpoint, config, corpus_seed, thresholds):
    """Crash, timeout, kv leak, lifecycle: the anomaly must re-fire under replay."""

    if suspicion.kind is SuspicionKind.CRASH:
        signature = suspicion.evidence.get("signature")

        def recheck(report) -> bool:
            return report.server_crashed and (report.crash_evidence or {}).get("signature") == signature

    else:

        def oracle(report):
            found = behavioral_check(report, BaselineStats(), thresholds)
            found.extend(lifecycle_check(trace, report, thresholds))
            return found

        recheck = _fingerprint_recheck(suspicion, oracle)

    evidence, confirmed, reports = _replay_majority(trace, endpoint, config, corpus_seed, recheck)
    if suspicion.kind is SuspicionKind.CRASH and reports:
        evidence["crash_evidence"] = reports[-1].crash_evidence
    return _judge(suspicion, confirmed, evidence)


# -- timing arm ---------------------------------------------------------------


def latency_probe_trace(config: ConfirmationConfig, tag: str) -> TimedTrace:
    shape = PromptShape(prefix_len=0, prompt_len=8)
    sampling = SamplingConfig(max_tokens=2, temperature=0.0, seed=0)
    events = tuple(
        TraceEvent.send(
            i * config.probe_spacing_ms,
            RequestSpec(
                request_id=f"{tag}~{i}",
                shape=shape,
                sampling=sampling,
                prompt_family_id="latency-probe",
                adapter="BASE",
            ),
        )
        for i in range(config.probe_count)
    )
    return TimedTrace(trace_id=f"probe~{tag}", events=events)


def _probe_p50(report) -> float | None:
    ttfts = sorted(o.ttft_ms for o in report.outcomes.values() if o.status == "completed" and o.ttft_ms is not None)
    if not ttfts:
        return None
    return float(ttfts[(len(ttfts) - 1) // 2])


def _align_offsets(trace: TimedTrace, endpoint, settle_ms: int = 5) -> TimedTrace:
    """Shift offsets past the engine's current virtual clock for same-instance runs."""
    if endpoint.kind is not EngineKind.SIMULATOR:
        return trace
    base = endpoint.handle.clock_ms + settle_ms
    return trace.with_events(tuple(replace(e, offset_ms=e.offset_ms + base) for e in trace.events))


def _regression_window(suspicion) -> tuple[int, int]:
    window = suspicion.evidence.get("window")
    if window:
        return int(window[0]), int(window[1])
    start = int(suspicion.evidence.get("dispatched_ms", 0))
    return start, start + int(suspicion.evidence.get("ttft_ms", 0))


def _confirm_timing(suspicion, trace, endpoint, config, corpus_seed):
    baseline_report = _run_isolated(latency_probe_trace(config, "baseline"), endpoint, corpus_seed, config.retry_budget)
    baseline_p50 = _probe_p50(baseline_report)
    if baseline_p50 is None:
        raise EndpointUnavailable("latency baseline probes produced no completions")
    floor = max(baseline_p50, 1.0)

    window_start, window_end = _regression_window(suspicion)
    probe_at = max(0, (window_start + window_end) // 2)
    probe_spec = RequestSpec(
        request_id="timing-probe~0",
        shape=PromptShape(prefix_len=0, prompt_len=8),
        sampling=SamplingConfig(max_tokens=2, temperature=0.0, seed=0),
        prompt_family_id="latency-probe",
        adapter="BASE",
    )
    injected = trace.with_events(
        ordered(trace.events + (TraceEvent.send(probe_at, probe_spec),)),
        trace_id=trace.trace_id + "~timing",
    )

    flags = []
    amplification = 0.0
    suspect_rids = suspicion.evidence.get("request_ids", [])
    last_report = None
    for report in replay(injected, endpoint, config.k, config.top_n, corpus_seed, config.retry_budget):
        last_report = report
        probe_outcome = report.outcomes.get(probe_spec.request_id)
        probe_ttft = probe_outcome.ttft_ms if probe_outcome and probe_outcome.ttft_ms is not None else None
        flags.append(probe_ttft is not None and probe_ttft >= config.regression_factor * floor)
        for rid in suspect_rids:
            outcome = report.outcomes.get(rid)
            if outcome is not None and outcome.ttft_ms is not None:
                amplification = max(amplification, outcome.ttft_ms / floor)
        if probe_ttft is not None:
            amplification = max(amplification, probe_ttft / floor)

    recovery_p50 = None
    recovered = False
    if last_report is not None and not last_report.server_crashed:
        try:
            recovery_report = execute(
                _align_offsets(latency_probe_trace(config, "recovery"), endpoint),
                endpoint,
                corpus_seed,
                canonical_decode=True,
            )
            recovery_p50 = _probe_p50(recovery_report)
            recovered = recovery_p50 is not None and recovery_p50 <= config.recovery_factor * floor
        except (EndpointUnavailable, OSError):
            pass

    tally, confirmed = _tally(flags, config)
    evidence = {
        "baseline_p50_ms": baseline_p50,
        "amplification": amplification,
        "recovered": recovered,
        "recovery_p50_ms": recovery_p50,
        **tally,
    }
    return _judge(suspicion, confirmed, evidence, "latency-explained-by-admission-queueing", Verdict.FALSE_POSITIVE)
