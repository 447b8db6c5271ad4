"""Stage-1 behavioral oracles and stage-3 KV-stream forensics.

Stage 1 stays cheap and engine-agnostic: statuses, latency against a rolling
baseline, structural output corruption, lifecycle bookkeeping.  Forensics
correlates the KV event stream and per-request block snapshots to catch state
corruption before it is ever visible in an output.  Semantic judgement of
diverging outputs belongs to the confirmation stage, not here.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, islice
from operator import itemgetter

from .hashing import fingerprint
from .trace import DEFAULT_BLOCK_SIZE_TOKENS, DEFAULT_VOCAB_SIZE, EventKind, prompt_for


class SuspicionKind(str, Enum):
    TIMEOUT = "timeout"
    STALL = "stall"
    TTFT_REGRESSION = "ttft_regression"
    LIFECYCLE_VIOLATION = "lifecycle_violation"
    CORRUPTED_OUTPUT = "corrupted_output"
    KV_LEAK = "kv_leak"
    CROSS_ADAPTER_REUSE = "cross_adapter_reuse"
    HASH_CONFLICT = "hash_conflict"
    SNAPSHOT_DIVERGENCE = "snapshot_divergence"
    CRASH = "crash"


_SEVERITY = {
    SuspicionKind.CRASH: 1.0,
    SuspicionKind.CROSS_ADAPTER_REUSE: 0.9,
    SuspicionKind.HASH_CONFLICT: 0.85,
    SuspicionKind.SNAPSHOT_DIVERGENCE: 0.8,
    SuspicionKind.CORRUPTED_OUTPUT: 0.8,
    SuspicionKind.KV_LEAK: 0.7,
    SuspicionKind.LIFECYCLE_VIOLATION: 0.6,
    SuspicionKind.TTFT_REGRESSION: 0.5,
    SuspicionKind.STALL: 0.5,
    SuspicionKind.TIMEOUT: 0.4,
}


@dataclass(frozen=True)
class Suspicion:
    kind: SuspicionKind
    trace_id: str
    fingerprint: str
    signature: dict
    evidence: dict
    severity_hint: float

    @staticmethod
    def create(kind: SuspicionKind, trace_id: str, signature: dict, evidence: dict) -> "Suspicion":
        # The fingerprint covers only the normalized signature, never raw
        # request ids or timestamps, so equal anomalies collide across traces.
        return Suspicion(
            kind=kind,
            trace_id=trace_id,
            fingerprint=_fingerprint(kind.value, signature),
            signature=signature,
            evidence=evidence,
            severity_hint=_SEVERITY[kind],
        )


# Distinct (kind, signature) fingerprints kept per process; a campaign judges a few dozen.
FINGERPRINT_MEMO_SIZE = 1024
_fingerprints: dict[tuple[str, str], str] = {}  # (kind, repr(signature)) -> fingerprint, the oldest dropped first


def _fingerprint(kind: str, signature: dict) -> str:
    """``fingerprint(kind, signature)``, hashed once per distinct kind and signature repr.

    Equal reprs of JSON-able values give equal canonical JSON, so a hit is
    exact; a repr that differs for equal JSON (a tuple for a list, another
    key order) only misses.
    """
    key = (kind, repr(signature))
    value = _fingerprints.get(key)
    if value is None:
        if len(_fingerprints) >= FINGERPRINT_MEMO_SIZE:
            del _fingerprints[next(iter(_fingerprints))]
        value = _fingerprints[key] = fingerprint(kind, signature)
    return value


@dataclass
class OracleThresholds:
    ttft_regression_factor: float = 10.0
    min_baseline_samples: int = 50
    stall_window_ms: int = 10_000
    kv_leak_grace_ms: int = 2_000
    lifecycle_tolerance_ms: int = 5

    def __post_init__(self) -> None:
        # With no baseline sample required, the TTFT check would ask an empty
        # baseline for its quantile.
        if self.min_baseline_samples < 1:
            raise ValueError("min_baseline_samples must be >= 1")


class BaselineStats:
    """Rolling TTFT quantiles over recent non-suspect executions."""

    def __init__(self, window: int = 500):
        self._samples: deque[int] = deque(maxlen=window)

    def add_report(self, report) -> None:
        for rid in sorted(report.outcomes):
            outcome = report.outcomes[rid]
            if outcome.status == "completed" and outcome.ttft_ms is not None:
                self._samples.append(outcome.ttft_ms)

    @property
    def count(self) -> int:
        return len(self._samples)

    def quantile(self, q: float) -> float:
        if not self._samples:
            raise ValueError("no baseline samples")
        data = sorted(self._samples)
        idx = min(len(data) - 1, max(0, math.ceil(q * len(data)) - 1))
        return float(data[idx])

    @property
    def p50(self) -> float:
        return self.quantile(0.50)


def _merge(suspicions: list[Suspicion]) -> list[Suspicion]:
    """Collapse same-fingerprint suspicions within one report, merging evidence."""
    out: dict[str, Suspicion] = {}
    for s in suspicions:
        prev = out.get(s.fingerprint)
        if prev is None:
            out[s.fingerprint] = s
            continue
        rids = sorted(set(prev.evidence.get("request_ids", [])) | set(s.evidence.get("request_ids", [])))
        merged = dict(prev.evidence)
        merged["request_ids"] = rids
        out[s.fingerprint] = Suspicion(prev.kind, prev.trace_id, prev.fingerprint, prev.signature, merged, prev.severity_hint)
    return list(out.values())


def decade(value: float) -> int:
    """The power of ten a value sits in; values below 1 count as 1."""
    return int(math.floor(math.log10(max(value, 1.0))))


def first_difference(y, y2) -> int | None:
    """Index of the first disagreement; None only when both are identical."""
    for i in range(min(len(y), len(y2))):
        if y[i] != y2[i]:
            return i
    if len(y) == len(y2):
        return None
    return min(len(y), len(y2))


# --------------------------------------------------------------------------
# Stage 1: behavioral


def ttft_gate_open(report, baseline: BaselineStats, thresholds: OracleThresholds) -> bool:
    """Whether the TTFT regression check judges this report: a full baseline and an on-time schedule."""
    return baseline.count >= thresholds.min_baseline_samples and not report.schedule_degraded


def behavioral_check(report, baseline: BaselineStats, thresholds: OracleThresholds) -> list[Suspicion]:
    suspicions: list[Suspicion] = []
    if report.server_crashed:
        evidence = dict(report.crash_evidence)
        signature = {"signature": evidence["signature"]}
        suspicions.append(Suspicion.create(SuspicionKind.CRASH, report.trace_id, signature, evidence))

    vocab = report.engine_info.get("vocab_size")
    # The baseline median is read once per report, and only when the gate lets the TTFT check judge it.
    p50 = baseline.p50 if ttft_gate_open(report, baseline, thresholds) else 0.0
    for rid in sorted(report.outcomes):
        outcome = report.outcomes[rid]
        spec = report.request_index.get(rid)
        if outcome.status == "timeout":
            suspicions.append(
                Suspicion.create(
                    SuspicionKind.TIMEOUT,
                    report.trace_id,
                    {"status": "timeout"},
                    {"request_ids": [rid], "dispatched_ms": outcome.dispatched_ms},
                )
            )
        if p50 > 0 and outcome.ttft_ms is not None and outcome.ttft_ms >= thresholds.ttft_regression_factor * p50:
            ratio = outcome.ttft_ms / p50
            suspicions.append(
                Suspicion.create(
                    SuspicionKind.TTFT_REGRESSION,
                    report.trace_id,
                    {"ratio_decade": decade(ratio)},
                    {
                        "request_ids": [rid],
                        "ttft_ms": outcome.ttft_ms,
                        "dispatched_ms": outcome.dispatched_ms,
                        "baseline_p50_ms": p50,
                        "ratio": ratio,
                    },
                )
            )
        if outcome.status == "completed":
            subtype = None
            if any(len(stream) == 0 for stream in outcome.output_tokens) or not outcome.output_tokens:
                subtype = "empty-body"
            elif spec is not None and any(len(stream) > spec.sampling.max_tokens for stream in outcome.output_tokens):
                subtype = "overflow"
            elif vocab is not None and any(min(stream) < 0 or max(stream) >= vocab for stream in outcome.output_tokens):
                subtype = "undecodable"
            if subtype is not None:
                suspicions.append(
                    Suspicion.create(
                        SuspicionKind.CORRUPTED_OUTPUT,
                        report.trace_id,
                        {"subtype": subtype},
                        {"request_ids": [rid], "subtype": subtype},
                    )
                )

    suspicions.extend(_kv_leak_check(report, thresholds))
    return _merge(suspicions)


def _kv_leak_check(report, thresholds: OracleThresholds) -> list[Suspicion]:
    # Only an aborted request past the post-teardown grace window can leak, so
    # the ledger's held blocks are folded only when one is.
    span, grace = report.wall_clock_span_ms, thresholds.kv_leak_grace_ms
    late = [rid for rid, o in sorted(report.outcomes.items())
            if o.status in ("cancelled", "disconnected") and span - o.end_ms >= grace]
    if not late or report.kv_log is None:
        return []
    # A block another request adopted is shared cache property: outliving
    # its allocator is by design, not a leak.
    held = report.kv_ledger.held_blocks
    out = []
    for rid in late:
        leaked = held.get(rid)
        if not leaked:
            continue
        out.append(
            Suspicion.create(
                SuspicionKind.KV_LEAK,
                report.trace_id,
                {"adapter": report.request_index[rid].adapter},
                {"request_ids": [rid], "leaked_blocks": sorted(leaked)},
            )
        )
    return out


def detect_stall(report, stall_window_ms: int) -> Suspicion | None:
    """A stall is a window with in-flight work, a live server, and zero token progress."""
    if report.schedule_degraded:
        return None
    intervals = report.intervals
    # A stalled gap of at least the window lies inside one interval, which is then at least as long.
    if not any(end - start >= stall_window_ms for start, _, end in intervals):
        return None
    progress = sorted(chain.from_iterable(o.token_stamps for o in report.outcomes.values()))
    span_end = max(end for _, _, end in intervals)
    checkpoints = [0] + progress + [span_end]
    worst: tuple[int, int, int] | None = None
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
    return Suspicion.create(
        SuspicionKind.STALL,
        report.trace_id,
        {"gap_decade": decade(gap)},
        {"gap_ms": gap, "window": [a, b]},
    )


def lifecycle_check(report, thresholds: OracleThresholds | None = None) -> list[Suspicion]:
    """Each request against its first control: a timed subtype reads when that control reached the engine."""
    tol = (thresholds or OracleThresholds()).lifecycle_tolerance_ms
    controls: dict[str, tuple[str, int]] = {}
    for event in report.trace.events:
        if event.kind in (EventKind.CANCEL, EventKind.DISCONNECT) and event.target not in controls:
            controls[event.target] = (event.kind.value, event.offset_ms)
    suspicions = []
    for rid in sorted(report.outcomes):
        outcome = report.outcomes[rid]
        control = controls.get(rid)
        # The engine cannot stop before it is told to, and a control that never reached it times nothing.
        deadline = math.inf if control is None or outcome.aborted_ms is None else outcome.aborted_ms + tol
        subtype = None
        if outcome.status == "cancelled" and (control is None or control[0] != "Cancel"):
            subtype = "spurious-cancel"
        elif outcome.status == "disconnected" and (control is None or control[0] != "Disconnect"):
            subtype = "spurious-disconnect"
        elif outcome.status == "completed" and outcome.total_ms is not None and outcome.end_ms > deadline:
            subtype = "generation-past-" + ("cancel" if control[0] == "Cancel" else "disconnect")
        elif control is not None and control[0] == "Disconnect" and max(outcome.token_stamps, default=0) > deadline:
            subtype = "post-disconnect-streaming"
        if subtype is not None:
            evidence = {"request_ids": [rid], "subtype": subtype,
                        "control_offset_ms": control and control[1], "aborted_ms": outcome.aborted_ms}
            suspicions.append(
                Suspicion.create(SuspicionKind.LIFECYCLE_VIOLATION, report.trace_id, {"subtype": subtype}, evidence)
            )
    return _merge(suspicions)


# --------------------------------------------------------------------------
# Stage 3: structural forensics over the KV stream and block snapshots


def extract_group_snapshots(report) -> dict[str, list]:
    """Canonical per-group block-hash sequences for the cross-run store: each group's first member."""
    return {key: members[0][1] for key, members in report.snapshot_groups.items()}


def structural_forensics(report, prior_snapshots: dict | None = None) -> list[Suspicion]:
    suspicions: list[Suspicion] = []
    block_size = report.engine_info.get("block_size_tokens", DEFAULT_BLOCK_SIZE_TOKENS)
    vocab = report.engine_info.get("vocab_size", DEFAULT_VOCAB_SIZE)

    # Every reuse/prefix_hit whose adapter differs from the block's latest allocation.
    for alloc, adopt in report.kv_ledger.cross_adapter:
        suspicions.append(
            Suspicion.create(
                SuspicionKind.CROSS_ADAPTER_REUSE,
                report.trace_id,
                {"from_adapter": alloc.adapter, "to_adapter": adopt.adapter, "via": adopt.kind},
                {"request_ids": sorted({alloc.owner_request_id, adopt.owner_request_id}), "block_id": adopt.block_id},
            )
        )

    # One content hash must never cover two different prompt spans.  Requests
    # with equal prompt content, adapter and chain of full-prompt-block
    # hashes make equal claims, so hashes are counted and claimed once per
    # distinct chain.  A hash that seals one block makes one claim, so only
    # the hashes that repeat are claimed.  A repeated hash has a second
    # (span, adapter) variant exactly when the distinct claims outnumber the
    # repeated hashes, and only then is every request's claim on a
    # conflicted hash walked for evidence.  Only full prompt blocks claim;
    # an unsealed block's None is never one.
    specs = report.request_index
    hashes = {
        rid: tuple(islice(map(itemgetter(1), report.block_snapshots[rid]), specs[rid].shape.prompt_len // block_size))
        for rid in sorted(report.block_snapshots)
        if rid in specs
    }
    chains = {}  # one spec per distinct (shape, identity, adapter, hash chain): its requests claim alike
    for rid, block_hashes in hashes.items():
        spec = specs[rid]
        chains[spec.shape, spec.prompt_identity, spec.adapter, block_hashes] = spec
    counts = Counter(chain.from_iterable(key[3] for key in chains))
    repeated = set(compress(counts, map((1).__lt__, counts.values())))
    repeated.discard(None)
    distinct_claims = set()
    for (_, _, adapter, block_hashes), spec in chains.items() if repeated else ():
        prompt = prompt_for(spec, report.corpus_seed, vocab)
        for index in compress(range(len(block_hashes)), map(repeated.__contains__, block_hashes)):
            distinct_claims.add((block_hashes[index], prompt[index * block_size : (index + 1) * block_size], adapter))
    claims: dict[int, dict[tuple, list]] = {}
    if len(distinct_claims) > len(repeated):
        variant_counts = Counter(map(itemgetter(0), distinct_claims))
        conflicted = {block_hash for block_hash, n in variant_counts.items() if n > 1}
        for rid, block_hashes in hashes.items():
            spec = specs[rid]
            prompt = prompt_for(spec, report.corpus_seed, vocab)
            for index in compress(range(len(block_hashes)), map(conflicted.__contains__, block_hashes)):
                span = prompt[index * block_size : (index + 1) * block_size]
                claims.setdefault(block_hashes[index], {}).setdefault((span, spec.adapter), []).append((rid, index))
    for block_hash in sorted(claims):
        variants = claims[block_hash]
        if len(variants) > 1:
            rids = sorted({rid for claimants in variants.values() for rid, _ in claimants})
            indexes = sorted({idx for claimants in variants.values() for _, idx in claimants})
            adapters = sorted({adapter for (_, adapter) in variants})
            suspicions.append(
                Suspicion.create(
                    SuspicionKind.HASH_CONFLICT,
                    report.trace_id,
                    {"block_indexes": indexes, "adapters": adapters},
                    {"request_ids": rids, "block_hash": block_hash},
                )
            )

    # Matched groups must show identical block-hash sequences, both within a
    # report and against snapshots recorded by earlier runs.
    for key, members in sorted(report.snapshot_groups.items()):
        spec = report.request_index[members[0][0]]
        reference_rid, reference = members[0]
        for rid, hashes in members[1:]:
            if hashes != reference:
                suspicions.append(
                    Suspicion.create(
                        SuspicionKind.SNAPSHOT_DIVERGENCE,
                        report.trace_id,
                        _snapshot_signature("intra", spec, reference, hashes),
                        {"request_ids": sorted([reference_rid, rid])},
                    )
                )
        if prior_snapshots and key in prior_snapshots and reference != prior_snapshots[key]:
            suspicions.append(
                Suspicion.create(
                    SuspicionKind.SNAPSHOT_DIVERGENCE,
                    report.trace_id,
                    _snapshot_signature("cross", spec, prior_snapshots[key], reference),
                    {"request_ids": [reference_rid]},
                )
            )
    return _merge(suspicions)


def _snapshot_signature(scope: str, spec, expected: list, got: list) -> dict:
    return {
        "scope": scope,
        "shape": [spec.shape.prefix_len, spec.shape.prompt_len],
        "adapter": spec.adapter,
        "diverge_index": first_difference(expected, got),
    }


def full_sweep(
    report,
    baseline: BaselineStats,
    thresholds: OracleThresholds | None = None,
    prior_snapshots: dict | None = None,
) -> list[Suspicion]:
    """Every oracle over one report; their kinds are disjoint and each merges its own duplicates."""
    thresholds = thresholds or OracleThresholds()
    suspicions = behavioral_check(report, baseline, thresholds)
    stall = detect_stall(report, thresholds.stall_window_ms)
    if stall is not None:
        suspicions.append(stall)
    suspicions.extend(lifecycle_check(report, thresholds))
    suspicions.extend(structural_forensics(report, prior_snapshots))
    return suspicions
