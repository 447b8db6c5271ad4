"""In-process endpoint handle over the simulator core.

This is the control surface the execution adapter drives in virtual time.
reset() swaps in a fresh core, which also recovers a crashed engine.
"""

from __future__ import annotations

from .config import SimConfig
from .engine import SimCore


class InProcessSimulator:
    def __init__(self, config: SimConfig):
        self.config = config
        self.core = SimCore(config)
        self._canonical = False

    # -- health / identity ------------------------------------------------
    @property
    def healthy(self) -> bool:
        return not self.core.crashed

    @property
    def crashed(self) -> bool:
        return self.core.crashed

    @property
    def crash_evidence(self):
        return self.core.crash_evidence

    @property
    def clock_ms(self) -> int:
        return self.core.clock_ms

    def engine_info(self) -> dict:
        return self.config.engine_info()

    # -- control -----------------------------------------------------------
    def reset(self) -> None:
        self.core = SimCore(self.config)
        self.core.canonical_decode = self._canonical

    def set_canonical_decode(self, flag: bool) -> None:
        self._canonical = bool(flag)
        self.core.canonical_decode = self._canonical

    # -- time --------------------------------------------------------------
    def advance_to(self, clock_ms: int) -> None:
        self.core.advance_to(clock_ms)

    def step_once(self) -> None:
        self.core.step()

    # -- requests ----------------------------------------------------------
    def submit(self, rid, prompt, adapter, max_tokens, n_completions, request_seed, logprobs, dispatched_ms):
        return self.core.submit(
            rid=rid,
            prompt=prompt,
            adapter=adapter,
            max_tokens=max_tokens,
            n_completions=n_completions,
            request_seed=request_seed,
            logprobs=logprobs,
            dispatched_ms=dispatched_ms,
        )

    def cancel(self, rid: str, disconnect: bool = False) -> None:
        self.core.cancel(rid, disconnect=disconnect)

    def expire(self, rid: str) -> None:
        self.core.expire(rid)

    def in_flight_ids(self) -> list[str]:
        return [r.rid for r in self.core.in_flight()]

    def finished_record(self, rid: str):
        req = self.core.requests.get(rid)
        if req is None or req.status is None:
            return None
        records = None
        if req.logprobs:
            records = tuple(tuple(stream) for stream in req.records)
        return {
            "status": req.status,
            "first_token_ms": req.first_token_ms,
            "finished_ms": req.finished_ms,
            "outputs": [list(out) for out in req.outputs],
            "records": records,
            "token_stamps": list(req.token_stamps),
        }

    # -- telemetry ----------------------------------------------------------
    def kv_events(self):
        return list(self.core.kv_events)

    def block_snapshots(self) -> dict:
        return {rid: [list(entry) for entry in snap] for rid, snap in self.core.snapshots.items()}

    def observed_drift_masks(self) -> set[int]:
        return set(self.core.f3_observed_masks)


def serve(config: SimConfig) -> InProcessSimulator:
    """Start an in-process simulator endpoint (virtual time, no sockets)."""
    return InProcessSimulator(config)
