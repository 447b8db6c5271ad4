"""The greybox loop: select a seed, mutate, execute, judge, grow the corpus.

Feedback is purely behavioral (outcome statuses, latency buckets, KV event
shapes, crash signatures); there is no code-coverage instrumentation.  The
pressure score summarizes how hard a trace leans on the engine and is reported
for plotting; it never steers selection, only which entries eviction keeps.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .adapter import EndpointUnavailable, execute, reset_server
from .confirmation import ConfirmationConfig, Dismissal, Finding, confirm_suspicion, majority_threshold
from .mutation import (
    DEFAULT_MUTATION_WEIGHTS,
    DEFAULT_PALETTE,
    MutationPalette,
    SeedProfile,
    generate_seed,
    mutate,
)
from .oracles import (
    BaselineStats,
    OracleThresholds,
    Suspicion,
    extract_group_snapshots,
    full_sweep,
)
from .telemetry import TelemetrySummary, compute_telemetry
from .trace import PromptShape, TimedTrace, repair, serialize

log = logging.getLogger(__name__)

# Normalizers: the counter value at which each component contributes 1.0.
_SEND_NORM = 20
_ADAPTER_NORM = 6
_KV_NORM = 1500
_SHAPE_NORM = 6

DEFAULT_SELECTION_WEIGHTS = {
    "novelty": 0.40,
    "suspicion": 0.40,
    "pressure": 0.15,
    "floor": 0.05,
}


@dataclass(frozen=True)
class PressureScore:
    n_send: int
    n_adapter: int
    n_kv: int
    n_shape: int

    def __post_init__(self) -> None:
        for name in ("n_send", "n_adapter", "n_kv", "n_shape"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def burst(self) -> float:
        return self.n_send / _SEND_NORM

    @property
    def multi_adapter(self) -> float:
        return self.n_adapter / _ADAPTER_NORM

    @property
    def kv_pressure(self) -> float:
        return self.n_kv / _KV_NORM

    @property
    def shape_diversity(self) -> float:
        return self.n_shape / _SHAPE_NORM

    @property
    def s_total(self) -> float:
        return self.burst + self.multi_adapter + self.kv_pressure + self.shape_diversity

    def components(self) -> dict[str, float]:
        return {
            "burst": self.burst,
            "multi_adapter": self.multi_adapter,
            "kv_pressure": self.kv_pressure,
            "shape_diversity": self.shape_diversity,
        }

    def to_dict(self) -> dict:
        return {
            "s_total": self.s_total,
            "components": self.components(),
            "counters": {
                "n_send": self.n_send,
                "n_adapter": self.n_adapter,
                "n_kv": self.n_kv,
                "n_shape": self.n_shape,
            },
        }


def score_pressure(
    telemetry: TelemetrySummary | None = None,
    *,
    n_send: int | None = None,
    n_adapter: int | None = None,
    n_kv: int | None = None,
    n_shape: int | None = None,
) -> PressureScore:
    """Additive pressure score; counters override telemetry when given."""
    counters = (n_send, n_adapter, n_kv, n_shape)
    if any(c is None for c in counters):
        if telemetry is None:
            raise ValueError("score_pressure needs telemetry or all four counters")
        n_send = telemetry.peak_inflight if n_send is None else n_send
        n_adapter = telemetry.distinct_adapters if n_adapter is None else n_adapter
        n_kv = telemetry.peak_kv_held if n_kv is None else n_kv
        n_shape = telemetry.distinct_prompt_lens if n_shape is None else n_shape
    return PressureScore(n_send=n_send, n_adapter=n_adapter, n_kv=n_kv, n_shape=n_shape)


# --------------------------------------------------------------------------
# Corpus


@dataclass
class CorpusEntry:
    trace: TimedTrace
    telemetry: TelemetrySummary | None = None  # set once the trace has run
    pressure: PressureScore | None = None
    markers: frozenset[str] = frozenset()
    suspicion_count: int = 0
    added_iteration: int = 0

    @property
    def entry_id(self) -> str:
        return self.trace.trace_id

    @property
    def lineage(self) -> dict:
        return dict(self.trace.metadata.get("lineage", {}))

    @property
    def executed(self) -> bool:
        return self.telemetry is not None


def novelty(report, seen: set[str]) -> set[str]:
    """Markers for behaviors this campaign has not observed before.

    `seen` is the campaign's accumulated marker universe; the return value is
    exactly the subset of this report's markers absent from it.  Buckets are
    coarse on purpose: the goal is "first time anything like this happened",
    not a fingerprint.
    """
    markers: set[str] = set()
    statuses = sorted({o.status for o in report.outcomes.values()})
    if statuses:
        markers.add("status:" + "+".join(statuses))
    ttft_decades = set()
    for outcome in report.outcomes.values():
        if outcome.ttft_ms is not None:
            ttft_decades.add(math.floor(math.log10(max(outcome.ttft_ms, 1))))
    for decade in ttft_decades:
        markers.add(f"ttft-decade:{decade}")
    ledger = report.kv_ledger
    markers.add(f"kv-peak:2^{ledger.peak_held.bit_length()}")
    markers.update(f"kv-kind:{kind}" for kind in ledger.kinds)
    markers.update(f"kv-2gram:{a}>{b}" for a, b in ledger.bigrams)
    if report.server_crashed:
        signature = "unknown"
        if isinstance(report.crash_evidence, dict):
            signature = str(report.crash_evidence.get("signature", "unknown"))
        markers.add(f"crash:{signature}")
    return markers - seen


def _selection_weight(entry: CorpusEntry, weights: dict, iteration: int) -> float:
    age = max(0, iteration - entry.added_iteration)
    nov = min(1.0, len(entry.markers) / 3) * 0.5 ** (age / 64.0)
    susp = min(1.0, float(entry.suspicion_count))
    return weights["novelty"] * nov + weights["suspicion"] * susp


def _retention_weight(entry: CorpusEntry, weights: dict, iteration: int) -> float:
    """The selection weight plus the entry's pressure, which eviction alone weighs."""
    pres = 0.0 if entry.pressure is None else min(1.0, entry.pressure.s_total / 4.0)
    return _selection_weight(entry, weights, iteration) + weights["pressure"] * pres


def select_seed(
    corpus: list[CorpusEntry],
    rng: random.Random,
    weights: dict | None = None,
    *,
    iteration: int = 0,
) -> CorpusEntry:
    """Weighted draw over the corpus with an epsilon-uniform floor."""
    if not corpus:
        raise ValueError("select_seed needs a non-empty corpus")
    if len(corpus) == 1:
        return corpus[0]
    weights = weights or DEFAULT_SELECTION_WEIGHTS
    if rng.random() < weights.get("floor", 0.0):
        return rng.choice(corpus)
    scored = [_selection_weight(e, weights, iteration) for e in corpus]
    if sum(scored) <= 0.0:
        return rng.choice(corpus)
    return rng.choices(corpus, weights=scored, k=1)[0]


# --------------------------------------------------------------------------
# Findings bookkeeping


@dataclass
class FindingRecord:
    finding: Finding
    first_iteration: int
    duplicates: int = 0


@dataclass
class DismissalRecord:
    dismissal: Dismissal
    first_iteration: int
    duplicates: int = 0


# --------------------------------------------------------------------------
# Configuration and default seed profiles

PROFILE_STEADY = SeedProfile(
    name="steady",
    n_requests=8,
    shape_palette=(PromptShape(16, 32), PromptShape(16, 48), PromptShape(0, 24), PromptShape(16, 64)),
    adapter_palette=("BASE", "lora_a"),
    burst_window_ms=14,
    family_count=3,
    wait_count=1,
)

PROFILE_CHURN = SeedProfile(
    name="churn",
    n_requests=10,
    shape_palette=(PromptShape(0, 24), PromptShape(16, 32)),
    burst_window_ms=20,
    max_tokens_palette=(8, 16),
    cancel_fraction=0.4,
    disconnect_fraction=0.2,
)

# Heavy fillers exhaust the block pool; the burst then lands on a hot cache
# where every allocation must evict.  Two same-prefix shapes in the burst give
# eviction races a victim and a donor.
PROFILE_PREFIX_SHARE = SeedProfile(
    name="prefix-share",
    n_requests=6,
    shape_palette=(PromptShape(16, 48), PromptShape(16, 48), PromptShape(16, 48), PromptShape(0, 4096)),
    adapter_palette=("BASE", "lora_a"),
    burst_window_ms=5,
    kv_filler_count=11,
    max_tokens_palette=(8,),
)

PROFILE_LORA_MIX = SeedProfile(
    name="lora-mix",
    n_requests=9,
    shape_palette=(PromptShape(16, 32), PromptShape(0, 2100), PromptShape(16, 48)),
    adapter_palette=("lora_a", "lora_b", "lora_c", "BASE"),
    burst_window_ms=8,
    # Ten 2100-token fillers leave ~1320 blocks resident, well past half
    # the pool, so cache-pressure interactions stay in play for the burst.
    kv_filler_count=10,
    max_tokens_palette=(8, 16),
    n_completions_palette=(1, 2),
)

DEFAULT_PROFILES = (PROFILE_STEADY, PROFILE_CHURN, PROFILE_PREFIX_SHARE, PROFILE_LORA_MIX)


@dataclass
class CampaignConfig:
    rng_seed: int = 0
    iterations: int = 200
    time_budget_s: float | None = None
    mutation_weights: dict = field(default_factory=lambda: dict(DEFAULT_MUTATION_WEIGHTS))
    selection_weights: dict = field(default_factory=lambda: dict(DEFAULT_SELECTION_WEIGHTS))
    thresholds: OracleThresholds = field(default_factory=OracleThresholds)
    confirmation: ConfirmationConfig = field(default_factory=ConfirmationConfig)
    corpus_seed: int = 0
    profiles: tuple[SeedProfile, ...] = DEFAULT_PROFILES
    bootstrap_per_profile: int = 1
    corpus_cap: int = 256
    stop_on_finding: bool = False
    mutation_intensity: float = 0.05
    palette: MutationPalette = field(default_factory=MutationPalette)
    endpoint_descriptor: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iteration budget must be >= 0")
        if self.time_budget_s is not None and self.time_budget_s <= 0:
            raise ValueError("time budget must be positive")
        if self.corpus_cap < 1 or self.bootstrap_per_profile < 1 or not self.profiles:
            raise ValueError("corpus_cap, bootstrap_per_profile, and profiles must be non-trivial")
        for name, table in (("mutation", self.mutation_weights), ("selection", self.selection_weights)):
            total = sum(table.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"{name} weights must sum to 1, got {total}")

    def to_dict(self) -> dict:
        return {
            "rng_seed": self.rng_seed,
            "iterations": self.iterations,
            "time_budget_s": self.time_budget_s,
            "mutation_weights": dict(self.mutation_weights),
            "selection_weights": dict(self.selection_weights),
            "thresholds": vars(self.thresholds),
            "confirmation": vars(self.confirmation),
            "corpus_seed": self.corpus_seed,
            "profiles": [p.name for p in self.profiles],
            "bootstrap_per_profile": self.bootstrap_per_profile,
            "corpus_cap": self.corpus_cap,
            "stop_on_finding": self.stop_on_finding,
            "mutation_intensity": self.mutation_intensity,
            "endpoint": dict(self.endpoint_descriptor),
        }


# --------------------------------------------------------------------------
# The loop


@dataclass
class CampaignResult:
    """Everything a campaign accumulates; run_campaign fills it in place."""

    config: CampaignConfig
    corpus: list[CorpusEntry]
    iterations_run: int = 0
    executed_trace_ids: list[str] = field(default_factory=list)
    findings: dict[str, FindingRecord] = field(default_factory=dict)
    dismissals: dict[str, DismissalRecord] = field(default_factory=dict)
    suspicions_raised: list[Suspicion] = field(default_factory=list)
    # (iteration, score, best s_total so far), one row per executed trace
    pressure_series: list[tuple[int, PressureScore, float]] = field(default_factory=list)
    regression_checks_skipped: int = 0
    baseline: BaselineStats = field(default_factory=BaselineStats)
    aborted: bool = False
    trace_store: dict[str, TimedTrace] = field(default_factory=dict)

    def finding_fingerprints(self) -> list[str]:
        return sorted(self.findings)

    def summary(self) -> dict:
        return {
            "iterations_run": self.iterations_run,
            "executed_trace_ids": list(self.executed_trace_ids),
            "findings": self.finding_fingerprints(),
            "dismissals": sorted(self.dismissals),
            "suspicions_raised": len(self.suspicions_raised),
            "corpus_size": len(self.corpus),
            "regression_checks_skipped": self.regression_checks_skipped,
            "aborted": self.aborted,
            "pressure_series": [
                dict(iteration=i, best_so_far=best, **score.to_dict())
                for i, score, best in self.pressure_series
            ],
            "finding_iterations": {fp: rec.first_iteration for fp, rec in sorted(self.findings.items())},
        }


def bootstrap_corpus(config: CampaignConfig) -> list[CorpusEntry]:
    rng = random.Random(config.rng_seed ^ 0xB007)
    entries = []
    for profile in config.profiles:
        for _ in range(config.bootstrap_per_profile):
            trace = generate_seed(profile, rng.randrange(1 << 32))
            entries.append(CorpusEntry(trace=trace))
    return entries


def _evict_to_cap(corpus: list[CorpusEntry], cap: int, weights: dict, iteration: int) -> None:
    # Entries with suspicion history are immune; among the rest, drop the
    # lowest-scoring until at cap (or only immune entries remain).
    while len(corpus) > cap:
        candidates = [e for e in corpus if e.suspicion_count == 0]
        if not candidates:
            return
        worst = min(candidates, key=lambda e: (_retention_weight(e, weights, iteration), e.entry_id))
        corpus.remove(worst)


def _next_trace(
    corpus: list[CorpusEntry], config: CampaignConfig, rng: random.Random, iteration: int
) -> tuple[int | None, TimedTrace]:
    """The first seed not yet run, with its corpus index, or else a fresh mutant (index None).

    The rng draws in a fixed order: the iteration seed, then the parent, then
    the partner only when the corpus has more than one entry.
    """
    iter_seed = rng.randrange(1 << 62)
    pending = next((i for i, entry in enumerate(corpus) if not entry.executed), None)
    if pending is not None:
        return pending, corpus[pending].trace

    def pick() -> CorpusEntry:
        return select_seed(corpus, rng, config.selection_weights, iteration=iteration)

    parent = pick()
    partner = pick() if len(corpus) > 1 else None
    return None, mutate(
        parent.trace,
        iter_seed,
        partner=partner.trace if partner is not None else None,
        telemetry=parent.telemetry,
        partner_telemetry=partner.telemetry if partner is not None else None,
        palette=config.palette,
        weights=config.mutation_weights,
        intensity=config.mutation_intensity,
    )


def _record_verdicts(result: CampaignResult, suspicions, trace, report, endpoint, iteration: int) -> bool:
    """Confirm each unseen fingerprint; return whether any became a new finding."""
    config = result.config
    found_new = False
    for susp in suspicions:
        # A known fingerprint is counted against its first verdict, never re-confirmed.
        known = result.findings.get(susp.fingerprint) or result.dismissals.get(susp.fingerprint)
        if known is not None:
            known.duplicates += 1
            continue
        outcome = confirm_suspicion(
            susp,
            trace,
            endpoint,
            config.confirmation,
            original_report=report,
            corpus_seed=config.corpus_seed,
            thresholds=config.thresholds,
        )
        if isinstance(outcome, Finding):
            result.findings[susp.fingerprint] = FindingRecord(outcome, first_iteration=iteration)
            found_new = True
        else:
            result.dismissals[susp.fingerprint] = DismissalRecord(outcome, first_iteration=iteration)
    return found_new


def run_campaign(config: CampaignConfig, endpoint, out_dir: Path | str | None = None) -> CampaignResult:
    result = CampaignResult(config=config, corpus=bootstrap_corpus(config))
    master = random.Random(config.rng_seed)
    prior_snapshots: dict[str, list] = {}
    seen_markers: set[str] = set()
    best_pressure = 0.0
    failures_in_a_row = 0
    started = time.monotonic()

    for iteration in range(config.iterations):
        if config.time_budget_s is not None and time.monotonic() - started > config.time_budget_s:
            break
        result.iterations_run = iteration + 1
        pending, trace = _next_trace(result.corpus, config, master, iteration)

        try:
            reset_server(endpoint)
            report = execute(trace, endpoint, corpus_seed=config.corpus_seed)
            failures_in_a_row = 0
        except (EndpointUnavailable, OSError) as exc:
            failures_in_a_row += 1
            log.warning("endpoint failure on iteration %d: %s", iteration, exc)
            if failures_in_a_row >= 3:
                result.aborted = True
                break
            continue

        result.executed_trace_ids.append(trace.trace_id)
        result.trace_store[trace.trace_id] = trace
        telemetry = compute_telemetry(trace, report)
        pressure = score_pressure(telemetry)
        best_pressure = max(best_pressure, pressure.s_total)
        result.pressure_series.append((iteration, pressure, best_pressure))

        if result.baseline.count < config.thresholds.min_baseline_samples:
            result.regression_checks_skipped += 1  # TTFT oracle was gated off, not green

        suspicions = full_sweep(trace, report, result.baseline, config.thresholds, config.corpus_seed, prior_snapshots)
        result.suspicions_raised.extend(suspicions)

        fresh = novelty(report, seen_markers)
        seen_markers |= fresh

        found_new = _record_verdicts(result, suspicions, trace, report, endpoint, iteration)

        if not suspicions and not report.server_crashed and not report.schedule_degraded:
            result.baseline.add_report(report)
            for key, hashes in extract_group_snapshots(report).items():
                prior_snapshots.setdefault(key, hashes)

        entry = CorpusEntry(
            trace=trace,
            telemetry=telemetry,
            pressure=pressure,
            markers=frozenset(fresh),
            suspicion_count=len(suspicions),
            added_iteration=iteration,
        )
        if pending is not None:
            result.corpus[pending] = entry  # the seed has run: its entry now carries what the run showed
        elif fresh or suspicions:
            result.corpus.append(entry)
            _evict_to_cap(result.corpus, config.corpus_cap, config.selection_weights, iteration)

        if config.stop_on_finding and found_new:
            break

    if out_dir is not None:
        persist_campaign(result, Path(out_dir))
    return result


# --------------------------------------------------------------------------
# Persistence


def _suspicion_dict(susp: Suspicion) -> dict:
    return {
        "kind": susp.kind.value,
        "trace_id": susp.trace_id,
        "fingerprint": susp.fingerprint,
        "signature": susp.signature,
        "evidence": susp.evidence,
        "severity_hint": susp.severity_hint,
    }


def _verdict_dict(judged: Finding | Dismissal, record, detail: dict) -> dict:
    return {
        "fingerprint": judged.fingerprint,
        "kind": judged.kind.value,
        "trace_id": judged.trace_id,
        "verdict": judged.verdict.value,
        **detail,
        "evidence": judged.evidence,
        "first_iteration": record.first_iteration,
        "duplicates": record.duplicates,
    }


def _finding_dict(record: FindingRecord) -> dict:
    return _verdict_dict(record.finding, record, {"suspicion": _suspicion_dict(record.finding.suspicion)})


def _dismissal_dict(record: DismissalRecord) -> dict:
    return _verdict_dict(record.dismissal, record, {"reason": record.dismissal.reason})


def persist_campaign(result: CampaignResult, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    for sub in ("findings", "traces", "corpus"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)

    (out_dir / "config.json").write_text(json.dumps(result.config.to_dict(), indent=2, sort_keys=True, default=str))
    (out_dir / "summary.json").write_text(json.dumps(result.summary(), indent=2, sort_keys=True))
    (out_dir / "dismissals.json").write_text(
        json.dumps([_dismissal_dict(result.dismissals[fp]) for fp in sorted(result.dismissals)], indent=2)
    )

    lines = ["iteration,burst,multi_adapter,kv_pressure,shape_diversity,s_total,best_so_far"]
    for i, score, best in result.pressure_series:
        c = score.components()
        lines.append(
            f"{i},{c['burst']:.6f},{c['multi_adapter']:.6f},{c['kv_pressure']:.6f},"
            f"{c['shape_diversity']:.6f},{score.s_total:.6f},{best:.6f}"
        )
    (out_dir / "pressure.csv").write_text("\n".join(lines) + "\n")

    for fp in sorted(result.findings):
        record = result.findings[fp]
        (out_dir / "findings" / f"{fp}.json").write_text(json.dumps(_finding_dict(record), indent=2))
        trace = result.trace_store.get(record.finding.trace_id)
        if trace is not None:
            (out_dir / "traces" / f"{trace.trace_id}.json").write_bytes(serialize(trace))

    for entry in result.corpus:
        doc = {
            "trace_id": entry.entry_id,
            "lineage": entry.lineage,
            "markers": sorted(entry.markers),
            "suspicion_count": entry.suspicion_count,
            "executed": entry.executed,
            "pressure": entry.pressure.to_dict() if entry.pressure else None,
        }
        (out_dir / "corpus" / f"{entry.entry_id}.json").write_text(json.dumps(doc, indent=2))
        (out_dir / "traces" / f"{entry.entry_id}.json").write_bytes(serialize(entry.trace))


# --------------------------------------------------------------------------
# Minimization


def minimize(trace: TimedTrace, reproduce_predicate, k: int = 3, log_sink: list | None = None) -> TimedTrace:
    """Shrink a trace while a majority of k predicate evaluations stays true.

    Greedy delta debugging over events, a singleton sweep for 1-minimality,
    then right-to-left gap collapsing over offsets.  Refuses flaky inputs:
    if the original trace cannot win its own majority vote there is nothing
    trustworthy to preserve.  Accepted reductions are appended to log_sink.
    """
    counter = itertools.count()

    def note(phase: str, before: int, after: int) -> None:
        if log_sink is not None:
            log_sink.append({"phase": phase, "events_before": before, "events_after": after})

    def build(events) -> TimedTrace:
        draft = TimedTrace(
            trace_id=f"{trace.trace_id}~min{next(counter)}",
            events=tuple(events),
            metadata={"lineage": {"op": "minimize", "parents": [trace.trace_id]}},
        )
        return repair(draft)

    needed = majority_threshold(k)

    def holds(candidate: TimedTrace) -> bool:
        # Stop voting once the majority is reached or out of reach: the votes
        # left uncast cannot change majority_confirm's verdict over all k.
        hits = 0
        for cast in range(1, k + 1):
            hits += bool(reproduce_predicate(candidate))
            if hits >= needed or hits + k - cast < needed:
                break
        return hits >= needed

    current = build(trace.events)
    if not holds(current):
        raise ValueError("refusing to minimize: predicate does not hold on the input under majority vote")

    # Delta debugging over event subsets.
    granularity = 2
    while len(current.events) >= 2:
        events = list(current.events)
        chunk = math.ceil(len(events) / granularity)
        reduced = False
        for start in range(0, len(events), chunk):
            candidate = build(events[:start] + events[start + chunk :])
            if candidate.events and holds(candidate):
                note("ddmin", len(events), len(candidate.events))
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(events):
                break
            granularity = min(len(events), granularity * 2)

    # Singleton sweep until fixpoint: certifies 1-minimality over events.
    shrunk = True
    while shrunk:
        shrunk = False
        events = list(current.events)
        for i in range(len(events)):
            candidate = build(events[:i] + events[i + 1 :])
            if candidate.events and holds(candidate):
                note("singleton", len(events), len(candidate.events))
                current = candidate
                shrunk = True
                break

    # Collapse timing gaps right to left; each collapse shifts the tail left.
    collapsed = True
    while collapsed:
        collapsed = False
        offsets = sorted({e.offset_ms for e in current.events})
        for i in range(len(offsets) - 1, -1, -1):
            target = offsets[i - 1] if i > 0 else 0
            delta = offsets[i] - target
            if delta <= 0:
                continue
            moved = [
                replace(e, offset_ms=e.offset_ms - delta) if e.offset_ms >= offsets[i] else e
                for e in current.events
            ]
            candidate = build(moved)
            if holds(candidate):
                note("collapse", len(current.events), len(candidate.events))
                current = candidate
                collapsed = True
                break

    final = current.with_events(
        current.events,
        trace_id=f"{trace.trace_id}~min",
        metadata={
            "lineage": {
                "op": "minimize",
                "parents": [trace.trace_id],
                "events_before": len(trace.events),
                "events_after": len(current.events),
            }
        },
    )
    return final
