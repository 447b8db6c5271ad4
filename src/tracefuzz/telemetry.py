"""Per-execution telemetry summaries derived from reports.

Feeds the pressure score, corpus retention, and the directed splice operator
(which needs to know where a parent's cache-population and scheduler-pressure
peaks sit on the timeline).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TelemetrySummary:
    peak_inflight: int
    distinct_adapters: int
    peak_kv_held: int
    distinct_prompt_lens: int
    window_ms: int
    alloc_windows: tuple[int, ...]
    inflight_windows: tuple[int, ...]

    def peak_alloc_window(self) -> tuple[int, int] | None:
        if not self.alloc_windows or max(self.alloc_windows) == 0:
            return None
        i = self.alloc_windows.index(max(self.alloc_windows))
        return (i * self.window_ms, (i + 1) * self.window_ms)

    def peak_inflight_window(self) -> tuple[int, int] | None:
        if not self.inflight_windows or max(self.inflight_windows) == 0:
            return None
        i = self.inflight_windows.index(max(self.inflight_windows))
        return (i * self.window_ms, (i + 1) * self.window_ms)


def compute_telemetry(trace, report, window_ms: int = 1000) -> TelemetrySummary:
    intervals: list[tuple[int, int]] = []
    adapters: set[str] = set()
    prompt_lens: set[int] = set()
    for rid, outcome in report.outcomes.items():
        spec = report.request_index.get(rid)
        if spec is not None:
            prompt_lens.add(spec.shape.prompt_len)
            if outcome.status != "server_error":
                adapters.add(spec.adapter)
        end = outcome.dispatched_ms + (outcome.total_ms if outcome.total_ms is not None else 0)
        intervals.append((outcome.dispatched_ms, max(end, outcome.dispatched_ms)))

    # Peak concurrency by sweep line over dispatch/termination edges.
    edges: list[tuple[int, int]] = []
    for start, end in intervals:
        edges.append((start, 1))
        edges.append((end, -1))
    edges.sort()
    peak_inflight = depth = 0
    for _, delta in edges:
        depth += delta
        peak_inflight = max(peak_inflight, depth)

    ledger = report.kv_ledger
    span = max([report.wall_clock_span_ms, ledger.last_ts_ms] + [end for _, end in intervals])
    n_windows = span // window_ms + 1
    alloc_windows = [0] * n_windows
    for ts in ledger.alloc_ts:
        alloc_windows[ts // window_ms] += 1
    inflight_windows = [0] * n_windows
    for w in range(n_windows):
        w0, w1 = w * window_ms, (w + 1) * window_ms
        inflight_windows[w] = sum(1 for start, end in intervals if start < w1 and end > w0)

    return TelemetrySummary(
        peak_inflight=peak_inflight,
        distinct_adapters=len(adapters),
        peak_kv_held=ledger.peak_held,
        distinct_prompt_lens=len(prompt_lens),
        window_ms=window_ms,
        alloc_windows=tuple(alloc_windows),
        inflight_windows=tuple(inflight_windows),
    )
