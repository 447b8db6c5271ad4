"""Stage-2 confirmation: replay suspicions and separate real bugs from noise.

Every suspicion except a timing one goes through one replay arm:

* Relational kinds (corrupted output, cross-adapter reuse, hash conflict,
  snapshot divergence) first meet a relational check against a clean
  reference.  The suspect request is re-issued alone on a reset engine with
  tie-breaking pinned and logprobs enabled, and divergence is judged at the
  first differing position: an original token that sits inside the reference
  top-N within the tolerance margin is explainable by benign nondeterminism,
  and the suspicion is dismissed without a replay.
* Majority replay.  The whole trace is re-executed on a reset engine with
  deterministic decoding forced, every oracle sweeps each replay, and the
  suspicion's own fingerprint must re-fire in at least ceil(2k/3) of k
  replays.  A fingerprint covers its kind, so which oracle raises which kind
  stays the oracles' business.

Timing suspicions get their own arm: a fresh latency baseline from solo
probes, a probe injected into the replayed window (so deterministic queueing
delay does not masquerade as an engine health problem), and a recovery probe
after the window has passed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from typing import ClassVar

# execute, reset_server and structural_forensics are bound here by name
# because perfbench/tracer.py patches them in this module (checked by
# tests/test_bench_sites.py); structural_forensics is reached through
# full_sweep.
from .adapter import EndpointUnavailable, execute, reset_server
from .oracles import (
    BaselineStats,
    OracleThresholds,
    Suspicion,
    SuspicionKind,
    first_difference,
    full_sweep,
    structural_forensics,  # noqa: F401
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
    delta: float | None = None
    in_top_n: bool | None = None
    note: str | None = None


def confirm_relational(original, reference, reference_ladders, top_n: int, epsilon: float) -> RelationalVerdict:
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
        return RelationalVerdict(Verdict.TRUE_POSITIVE, position=p, in_top_n=False)
    delta = logprob[ref_p] - logprob[y_p]
    verdict = Verdict.FALSE_POSITIVE if delta < epsilon else Verdict.TRUE_POSITIVE
    return RelationalVerdict(verdict, position=p, delta=delta, in_top_n=True)


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
            spec = event.spec.varied(sampling=_pinned_sampling(event.spec.sampling, top_n))
            events.append(TraceEvent.send(event.offset_ms, spec))
        else:
            events.append(event)
    return trace.with_events(tuple(events))


def replay(trace: TimedTrace, endpoint, k: int, top_n: int, corpus_seed: int = 0):
    """k isolated re-executions, each on a reset engine with decoding pinned."""
    pinned = pin_trace(trace, top_n)
    reports = []
    for _ in range(k):
        reports.append(_run_isolated(pinned, endpoint, corpus_seed))
    return reports


def _run_isolated(trace, endpoint, corpus_seed):
    last: Exception | None = None
    for _ in range(RETRY_BUDGET + 1):
        try:
            reset_server(endpoint)
            return execute(trace, endpoint, corpus_seed=corpus_seed, canonical_decode=True)
        except EndpointUnavailable as exc:
            last = exc
    raise last


# --------------------------------------------------------------------------
# Orchestration


@dataclass
class ConfirmationConfig:
    top_n: int = 5
    epsilon: float = 0.1
    k: int = 3

    def __post_init__(self) -> None:
        if min(self.top_n, self.k) < 1:
            raise ValueError(f"top_n and k must be >= 1, got top_n={self.top_n}, k={self.k}")


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


_RELATIONAL_KINDS = frozenset(
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
    report,
    endpoint,
    config: ConfirmationConfig | None = None,
    thresholds: OracleThresholds | None = None,
):
    """Route one suspicion, raised on ``report``, through its confirmation arm.

    Replays run the report's trace with prompts from its corpus seed.
    Returns a Finding (confirmed) or a Dismissal.  Endpoint trouble that
    survives the retry budget yields a Dismissal marked unconfirmable rather
    than an exception, so campaigns keep moving.
    """
    config = config or ConfirmationConfig()
    thresholds = thresholds or OracleThresholds()
    try:
        if suspicion.kind in _TIMING_KINDS:
            return _confirm_timing(suspicion, report, endpoint, config, thresholds)
        return _confirm_replay(suspicion, report, endpoint, config, thresholds)
    except EndpointUnavailable as exc:
        LOG.warning("confirmation of %s abandoned: %s", suspicion.fingerprint, exc)
        return _judge(suspicion, False, {"error": str(exc)}, "unconfirmable-endpoint-failure")


def _tally(flags, config) -> tuple[dict, bool]:
    """The majority evidence triple over k reproduction flags, and its verdict."""
    evidence = {"majority_hits": sum(flags), "majority_needed": majority_threshold(config.k), "k": config.k}
    return evidence, majority_confirm(flags, config.k)


# -- relational arm ---------------------------------------------------------


def solo_probe_trace(spec: RequestSpec, top_n: int) -> TimedTrace:
    """A one-request trace reproducing spec's prompt and decode settings."""
    probe = spec.varied(sampling=_pinned_sampling(spec.sampling, top_n))
    return TimedTrace(trace_id=f"solo~{spec.request_id}", events=(TraceEvent.send(0, probe),))


def _relational_verdicts(suspicion, report, endpoint, config) -> list[RelationalVerdict]:
    verdicts: list[RelationalVerdict] = []
    for rid in suspicion.evidence.get("request_ids", []):
        outcome = report.outcomes.get(rid)
        spec = report.request_index.get(rid)
        if outcome is None or spec is None or outcome.status != "completed" or not outcome.output_tokens:
            continue
        # The suspect request alone on a reset engine, ties pinned.
        solo = _run_isolated(solo_probe_trace(spec, config.top_n), endpoint, report.corpus_seed)
        reference = solo.outcomes.get(rid)
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


def _aggregate_relational(verdicts) -> Verdict | None:
    """TRUE_POSITIVE when any stream diverges past the margin, else FALSE_POSITIVE when any stream ties."""
    if not verdicts:
        return None
    if any(v.verdict is Verdict.TRUE_POSITIVE for v in verdicts):
        return Verdict.TRUE_POSITIVE
    if any(v.verdict is Verdict.FALSE_POSITIVE for v in verdicts):
        return Verdict.FALSE_POSITIVE
    return Verdict.PASS


# -- replay arm ---------------------------------------------------------------


def _confirm_replay(suspicion, report, endpoint, config, thresholds):
    """Confirmed when the suspicion's fingerprint re-fires in a majority of k pinned replays."""
    evidence: dict = {}
    aggregate = None
    if suspicion.kind in _RELATIONAL_KINDS:
        verdicts = _relational_verdicts(suspicion, report, endpoint, config)
        evidence["relational"] = [asdict(v) for v in verdicts]
        aggregate = _aggregate_relational(verdicts)
        if aggregate is Verdict.FALSE_POSITIVE:
            # Explainable tie-break divergence; replaying would only re-observe it.
            return _judge(suspicion, False, evidence, "within-tie-margin", Verdict.FALSE_POSITIVE)

    reports = replay(report.trace, endpoint, config.k, config.top_n, report.corpus_seed)
    flags = []
    for replayed in reports:
        found = full_sweep(replayed, BaselineStats(), thresholds)
        flags.append(any(s.fingerprint == suspicion.fingerprint for s in found))
    tally, confirmed = _tally(flags, config)
    evidence.update(tally)
    if suspicion.kind is SuspicionKind.CRASH:
        evidence["crash_evidence"] = reports[-1].crash_evidence
    return _judge(suspicion, aggregate is Verdict.TRUE_POSITIVE or confirmed, evidence)


# -- timing arm ---------------------------------------------------------------


RETRY_BUDGET = 2  # retries of an isolated run whose endpoint fails
PROBE_COUNT, PROBE_SPACING_MS = 16, 40  # a latency probe: this many solo requests, this far apart
# The recovery probe lets the engine settle this long after the replayed window,
# and the engine has recovered when the probe's p50 is within RECOVERY_FACTOR of the baseline's.
RECOVERY_SETTLE_MS = 5
RECOVERY_FACTOR = 2.0


def latency_probe_trace(tag: str, start_ms: int = 0) -> TimedTrace:
    shape = PromptShape(prefix_len=0, prompt_len=8)
    sampling = SamplingConfig(max_tokens=2, temperature=0.0, seed=0)
    events = tuple(
        TraceEvent.send(
            start_ms + i * PROBE_SPACING_MS,
            RequestSpec(
                request_id=f"{tag}~{i}",
                shape=shape,
                sampling=sampling,
                prompt_family_id="latency-probe",
                adapter="BASE",
            ),
        )
        for i in range(PROBE_COUNT)
    )
    return TimedTrace(trace_id=f"probe~{tag}", events=events)


def _probe_p50(report) -> float | None:
    probes = BaselineStats()
    probes.add_report(report)
    return probes.p50 if probes.count else None


def _regression_window(suspicion) -> tuple[int, int]:
    window = suspicion.evidence.get("window")
    if window:
        return int(window[0]), int(window[1])
    start = int(suspicion.evidence.get("dispatched_ms", 0))
    return start, start + int(suspicion.evidence.get("ttft_ms", 0))


def _confirm_timing(suspicion, report, endpoint, config, thresholds):
    trace, corpus_seed = report.trace, report.corpus_seed
    baseline_report = _run_isolated(latency_probe_trace("baseline"), endpoint, corpus_seed)
    baseline_p50 = _probe_p50(baseline_report)
    if baseline_p50 is None:
        raise EndpointUnavailable("latency baseline probes produced no completions")
    floor = max(baseline_p50, 1.0)

    window_start, window_end = _regression_window(suspicion)
    probe_at = max(0, (window_start + window_end) // 2)
    probe_spec = latency_probe_trace("timing-probe").events[0].spec
    injected = trace.with_events(
        ordered(trace.events + (TraceEvent.send(probe_at, probe_spec),)),
        trace_id=trace.trace_id + "~timing",
    )

    # The recovery probe runs with no reset on the engine the first replay left behind.  The other
    # replays run the first one's pinned trace after it, each on a reset engine, so in-process they
    # are served copies of the first and run nothing.
    replays = replay(injected, endpoint, 1, config.top_n, corpus_seed)
    recovery_p50 = None
    recovered = False
    if not replays[0].server_crashed:
        try:
            probes = latency_probe_trace("recovery", RECOVERY_SETTLE_MS)
            recovery_report = execute(probes, endpoint, corpus_seed, canonical_decode=True)
            recovery_p50 = _probe_p50(recovery_report)
            recovered = recovery_p50 is not None and recovery_p50 <= RECOVERY_FACTOR * floor
        except EndpointUnavailable:
            pass
    replays += [_run_isolated(replays[0].trace, endpoint, corpus_seed) for _ in range(config.k - 1)]

    flags = []
    amplification = 0.0
    suspect_rids = suspicion.evidence.get("request_ids", [])
    for replayed in replays:
        probe_outcome = replayed.outcomes.get(probe_spec.request_id)
        probe_ttft = probe_outcome.ttft_ms if probe_outcome else None
        flags.append(probe_ttft is not None and probe_ttft >= thresholds.ttft_regression_factor * floor)
        for rid in suspect_rids:
            outcome = replayed.outcomes.get(rid)
            if outcome is not None and outcome.ttft_ms is not None:
                amplification = max(amplification, outcome.ttft_ms / floor)
        if probe_ttft is not None:
            amplification = max(amplification, probe_ttft / floor)

    tally, confirmed = _tally(flags, config)
    evidence = {
        "baseline_p50_ms": baseline_p50,
        "amplification": amplification,
        "recovered": recovered,
        "recovery_p50_ms": recovery_p50,
        **tally,
    }
    return _judge(suspicion, confirmed, evidence, "latency-explained-by-admission-queueing", Verdict.FALSE_POSITIVE)
