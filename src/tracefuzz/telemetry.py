"""The pressure record of one execution: how hard its trace leaned on the engine.

Corpus eviction weighs its four counters through `s_total`; the directed
splice reads its two peak windows to put one parent's cache-population phase
before the other parent's scheduler-pressure burst.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

# The length of the timeline windows the two peaks are reported in.
WINDOW_MS = 1000

_COUNTERS = ("n_send", "n_adapter", "n_kv", "n_shape")
# Normalizers: the counter value at which each component contributes 1.0.
_SEND_NORM = 20
_ADAPTER_NORM = 6
_KV_NORM = 1500
_SHAPE_NORM = 6


@dataclass(frozen=True)
class PressureScore:
    n_send: int  # peak number of requests in flight at once
    n_adapter: int  # distinct adapters among the requests the engine did not fail
    n_kv: int  # peak KV blocks held
    n_shape: int  # distinct prompt lengths
    # (start_ms, end_ms) of the earliest window with the most KV allocations, and of the
    # earliest window the most requests overlap; None when that most is 0.
    peak_alloc_window: tuple[int, int] | None = None
    peak_inflight_window: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        for name in _COUNTERS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def s_total(self) -> float:
        burst, multi_adapter, kv_pressure, shape_diversity = self.components().values()
        # Left to right, not sum(), which compensates on Python >= 3.12 and could move the last digit.
        return burst + multi_adapter + kv_pressure + shape_diversity

    def components(self) -> dict[str, float]:
        return {
            "burst": self.n_send / _SEND_NORM,
            "multi_adapter": self.n_adapter / _ADAPTER_NORM,
            "kv_pressure": self.n_kv / _KV_NORM,
            "shape_diversity": self.n_shape / _SHAPE_NORM,
        }

    def to_dict(self) -> dict:
        return {
            "s_total": self.s_total,
            "components": self.components(),
            "counters": {name: getattr(self, name) for name in _COUNTERS},
        }


def _earliest_peak(counts: Counter) -> tuple[int, int] | None:
    """(start_ms, end_ms) of the earliest window holding the highest count; None when none holds any."""
    most = max(counts.values(), default=0)
    if not most:
        return None
    index = min(w for w, n in counts.items() if n == most)
    return (index * WINDOW_MS, (index + 1) * WINDOW_MS)


def compute_telemetry(report) -> PressureScore:
    adapters: set[str] = set()
    prompt_lens: set[int] = set()
    edges: list[tuple[int, int]] = []
    inflight: Counter = Counter()  # window index -> requests overlapping it
    for (rid, outcome), (start, _, end) in zip(report.outcomes.items(), report.intervals):
        spec = report.request_index.get(rid)
        if spec is not None:
            prompt_lens.add(spec.shape.prompt_len)
            if outcome.status != "server_error":
                adapters.add(spec.adapter)
        edges += ((start, 1), (end, -1))
        # [start, end) overlaps windows start // W through ceil(end / W) - 1.
        for w in range(start // WINDOW_MS, -(-end // WINDOW_MS)):
            inflight[w] += 1

    # Peak concurrency by sweep line over dispatch/termination edges.
    edges.sort()
    peak_inflight = depth = 0
    for _, delta in edges:
        depth += delta
        peak_inflight = max(peak_inflight, depth)

    ledger = report.kv_ledger
    allocs: Counter = Counter()  # window index -> allocations in it
    for ts, n in ledger.alloc_counts.items():
        allocs[ts // WINDOW_MS] += n
    return PressureScore(
        n_send=peak_inflight,
        n_adapter=len(adapters),
        n_kv=ledger.peak_held,
        n_shape=len(prompt_lens),
        peak_alloc_window=_earliest_peak(allocs),
        peak_inflight_window=_earliest_peak(inflight),
    )
