"""The greybox loop: select a seed, mutate, execute, judge, grow the corpus.

Feedback is purely behavioral (outcome statuses, latency buckets, KV event
shapes, crash signatures); there is no code-coverage instrumentation.  The
pressure score summarizes how hard a trace leans on the engine and is written
to ``pressure.csv`` for plotting; it never steers selection, only which
entries eviction keeps.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import random
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .adapter import EndpointUnavailable, execute, reset_server
from .confirmation import ConfirmationConfig, Dismissal, Finding, confirm_suspicion, majority_threshold
from .mutation import (
    DEFAULT_MUTATION_WEIGHTS,
    SeedProfile,
    generate_seed,
    mutate,
)
from .oracles import (
    BaselineStats,
    OracleThresholds,
    decade,
    extract_group_snapshots,
    full_sweep,
    ttft_gate_open,
)
from .telemetry import PressureScore, compute_telemetry
from .trace import PromptShape, TimedTrace, repair, serialize

log = logging.getLogger(__name__)

DEFAULT_SELECTION_WEIGHTS = {
    "novelty": 0.40,
    "suspicion": 0.40,
    "pressure": 0.15,
    "floor": 0.05,
}


# --------------------------------------------------------------------------
# Corpus


@dataclass
class CorpusEntry:
    trace: TimedTrace
    pressure: PressureScore | None = None  # set once the trace has run
    markers: frozenset[str] = frozenset()
    suspicion_count: int = 0
    added_iteration: int = 0
    # The selection weight's terms that do not change with age, fixed when the entry is made.
    novelty_term: float = field(init=False, repr=False, compare=False)
    suspicion_term: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.novelty_term = min(1.0, len(self.markers) / 3)
        self.suspicion_term = min(1.0, float(self.suspicion_count))

    @property
    def entry_id(self) -> str:
        return self.trace.trace_id

    @property
    def lineage(self) -> dict:
        return dict(self.trace.metadata.get("lineage", {}))

    @property
    def executed(self) -> bool:
        return self.pressure is not None


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
    markers.update(f"ttft-decade:{decade(first - start)}" for start, first, _ in report.intervals if first is not None)
    ledger = report.kv_ledger
    markers.add(f"kv-peak:2^{ledger.peak_held.bit_length()}")
    markers.update(f"kv-kind:{kind}" for kind in ledger.kinds)
    markers.update(f"kv-2gram:{a}>{b}" for a, b in ledger.bigrams)
    if report.server_crashed:
        markers.add(f"crash:{report.crash_evidence['signature']}")
    return markers - seen


def _selection_weights(corpus: list[CorpusEntry], weights: dict, iteration: int) -> list[float]:
    """Each entry's selection weight: its novelty, halved every 64 iterations of age, plus its suspicion."""
    novelty_w, suspicion_w = weights["novelty"], weights["suspicion"]
    return [
        novelty_w * (e.novelty_term * 0.5 ** (max(0, iteration - e.added_iteration) / 64.0))
        + suspicion_w * e.suspicion_term
        for e in corpus
    ]


def _draw(corpus: list[CorpusEntry], table: list[float], rng: random.Random, weights: dict) -> CorpusEntry:
    """One draw from a selection table (the cumulative selection weights) with an epsilon-uniform floor."""
    if len(corpus) == 1:
        return corpus[0]
    if rng.random() < weights.get("floor", 0.0) or table[-1] <= 0.0:
        return rng.choice(corpus)
    return rng.choices(corpus, cum_weights=table)[0]


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
    weights = weights or DEFAULT_SELECTION_WEIGHTS
    return _draw(corpus, list(itertools.accumulate(_selection_weights(corpus, weights, iteration))), rng, weights)


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
            "endpoint": dict(self.endpoint_descriptor),
        }

    @staticmethod
    def from_dict(doc: dict) -> "CampaignConfig":
        """The inverse of ``to_dict``, from any subset of its keys; the ``endpoint`` record is ignored."""
        unknown = sorted(set(doc) - set(CampaignConfig().to_dict()))
        if unknown:
            raise ValueError(f"unknown keys {', '.join(unknown)}")
        kwargs = {key: value for key, value in doc.items() if key != "endpoint"}
        if "profiles" in doc:
            by_name = {p.name: p for p in DEFAULT_PROFILES}
            missing = [name for name in doc["profiles"] if name not in by_name]
            if missing:
                raise ValueError(f"unknown seed profiles: {', '.join(missing)} (have: {', '.join(sorted(by_name))})")
            kwargs["profiles"] = tuple(by_name[name] for name in doc["profiles"])
        if "thresholds" in doc:
            kwargs["thresholds"] = OracleThresholds(**doc["thresholds"])
        if "confirmation" in doc:
            kwargs["confirmation"] = ConfirmationConfig(**doc["confirmation"])
        return CampaignConfig(**kwargs)


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
    suspicions_raised: int = 0
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
            "suspicions_raised": self.suspicions_raised,
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
    # lowest-scoring until at cap (or only immune entries remain).  An entry
    # scores its selection weight plus its pressure, which eviction alone weighs.
    while len(corpus) > cap:
        candidates = [e for e in corpus if e.suspicion_count == 0]
        if not candidates:
            return
        scores = _selection_weights(candidates, weights, iteration)
        for i, e in enumerate(candidates):
            scores[i] += weights["pressure"] * (0.0 if e.pressure is None else min(1.0, e.pressure.s_total / 4.0))
        worst = min(range(len(candidates)), key=lambda i: (scores[i], candidates[i].entry_id))
        corpus.remove(candidates[worst])


def _next_trace(
    corpus: list[CorpusEntry], config: CampaignConfig, rng: random.Random, iteration: int
) -> tuple[int | None, TimedTrace]:
    """The first seed not yet run, with its corpus index, or else a fresh mutant (index None).

    The rng draws in a fixed order: the iteration seed, then the parent, then
    the partner only when the corpus has more than one entry.  Both draw from
    one selection table.
    """
    iter_seed = rng.randrange(1 << 62)
    # Seeds not yet run sit only in the bootstrap corpus, which takes no mutant until every seed has run.
    if not corpus[-1].executed:
        pending = next(i for i, entry in enumerate(corpus) if not entry.executed)
        return pending, corpus[pending].trace

    weights = config.selection_weights
    table = list(itertools.accumulate(_selection_weights(corpus, weights, iteration)))
    parent = _draw(corpus, table, rng, weights)
    partner = _draw(corpus, table, rng, weights) if len(corpus) > 1 else None
    return None, mutate(
        parent.trace,
        iter_seed,
        partner=partner.trace if partner is not None else None,
        telemetry=parent.pressure,
        partner_telemetry=partner.pressure if partner is not None else None,
        weights=config.mutation_weights,
    )


def _record_verdicts(result: CampaignResult, suspicions, report, endpoint, iteration: int) -> bool:
    """Confirm each unseen fingerprint; return whether any became a new finding."""
    config = result.config
    found_new = False
    for susp in suspicions:
        # A known fingerprint is counted against its first verdict, never re-confirmed.
        known = result.findings.get(susp.fingerprint) or result.dismissals.get(susp.fingerprint)
        if known is not None:
            known.duplicates += 1
            continue
        outcome = confirm_suspicion(susp, report, endpoint, config.confirmation, config.thresholds)
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
        except EndpointUnavailable as exc:
            failures_in_a_row += 1
            log.warning("endpoint failure on iteration %d: %s", iteration, exc)
            if failures_in_a_row >= 3:
                break
            continue

        result.executed_trace_ids.append(trace.trace_id)
        result.trace_store[trace.trace_id] = trace
        pressure = compute_telemetry(report)
        best_pressure = max(best_pressure, pressure.s_total)
        result.pressure_series.append((iteration, pressure, best_pressure))

        if not ttft_gate_open(report, result.baseline, config.thresholds):
            result.regression_checks_skipped += 1  # TTFT oracle was gated off, not green

        suspicions = full_sweep(report, result.baseline, config.thresholds, prior_snapshots)
        result.suspicions_raised += len(suspicions)

        fresh = novelty(report, seen_markers)
        seen_markers |= fresh

        found_new = _record_verdicts(result, suspicions, report, endpoint, iteration)

        if not suspicions and not report.server_crashed and not report.schedule_degraded:
            result.baseline.add_report(report)
            for key, hashes in extract_group_snapshots(report).items():
                prior_snapshots.setdefault(key, hashes)

        entry = CorpusEntry(
            trace=trace,
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

    # Three endpoint failures in a row abort a campaign, and so does one at its end when it executed nothing.
    result.aborted = failures_in_a_row >= 3 or (failures_in_a_row > 0 and not result.executed_trace_ids)
    if out_dir is not None:
        persist_campaign(result, Path(out_dir))
    return result


# --------------------------------------------------------------------------
# Persistence


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
    return _verdict_dict(record.finding, record, {"suspicion": asdict(record.finding.suspicion)})


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
        values = (*score.components().values(), score.s_total, best)
        lines.append(f"{i}," + ",".join(f"{value:.6f}" for value in values))
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

    Greedy delta debugging over events, then right-to-left gap collapsing
    over offsets.  Delta debugging stops at fewer than two events or after a
    pass of single-event removals that all lost their vote, so that last pass
    certifies 1-minimality over events.  Refuses flaky inputs: if the
    original trace cannot win its own majority vote there is nothing
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

    # Delta debugging over event subsets, down to single events.
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
                e.at(e.offset_ms - delta) if e.offset_ms >= offsets[i] else e
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
