"""Simulator configuration and fault arming."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum


class FaultFamily(str, Enum):
    STALE_KV_REUSE = "stale_kv_reuse"
    ENGINE_STALL = "engine_stall"
    ADAPTER_DRIFT = "adapter_drift"


@dataclass(frozen=True)
class FaultSpec:
    """Arming record for one injected fault; unset knobs take family defaults.

    stale_kv_reuse: fires when KV occupancy exceeds ``occupancy_threshold``
      and an eviction lands between a victim's prefix lookup and block pinning
      while a trigger request with matching prefix_len is co-scheduled.
    engine_stall: while any in-flight request has n_completions >=
      ``n_completions_threshold``, every scheduler tick inserts ``stall_ms``
      of engine-loop descheduling.
    adapter_drift: when all four trigger conditions hold in one scheduling
      state, the running-adapter snapshot drifts from the loaded set and an
      assertion fires ``crash_delay_ticks`` later.
    """

    family: FaultFamily
    occupancy_threshold: float = 0.6
    stall_ms: int = 1000
    n_completions_threshold: int = 8
    shape_mix_min: int = 3
    adapter_mix_min: int = 3
    burst_min: int = 4
    burst_window_ms: int = 8
    crash_delay_ticks: int = 5

    @staticmethod
    def from_dict(doc: dict) -> "FaultSpec":
        doc = dict(doc)
        family = FaultFamily(doc.pop("family"))
        return FaultSpec(family=family, **doc)


@dataclass(frozen=True)
class SimConfig:
    vocab_size: int = 1024
    block_size_tokens: int = 16
    total_kv_blocks: int = 2048
    max_batch_tokens: int = 8192
    chunked_prefill_limit: int = 2048
    max_loras_per_batch: int = 2
    tick_ms: int = 1
    seed: int = 0
    adapters: tuple[str, ...] = ("BASE", "lora_a", "lora_b", "lora_c")
    adapter_load_ticks: int = 2
    logprob_spread: float = 2.5
    near_tie_gap: float | None = None
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.block_size_tokens < 1 or self.total_kv_blocks < 1:
            raise ValueError("block geometry must be positive")
        if self.chunked_prefill_limit > self.max_batch_tokens:
            raise ValueError("chunked_prefill_limit cannot exceed max_batch_tokens")
        if self.tick_ms < 1:
            raise ValueError("tick_ms must be >= 1")
        if self.vocab_size < 8:
            raise ValueError("vocab_size must be >= 8")
        if self.near_tie_gap is not None and self.near_tie_gap <= 0:
            raise ValueError("near_tie_gap must be positive when set")

    def fault(self, family: FaultFamily) -> FaultSpec | None:
        for f in self.faults:
            if f.family is family:
                return f
        return None

    def with_faults(self, *families: FaultFamily, **knobs) -> "SimConfig":
        specs = tuple(FaultSpec(family=f, **knobs) for f in families)
        return replace(self, faults=specs)

    def engine_info(self) -> dict:
        """The static identity both transports report (in-process and HTTP /control/info)."""
        return {
            "engine": "tracefuzz-sim",
            "vocab_size": self.vocab_size,
            "block_size_tokens": self.block_size_tokens,
            "total_kv_blocks": self.total_kv_blocks,
            "tick_ms": self.tick_ms,
            "adapters": list(self.adapters),
            "max_loras_per_batch": self.max_loras_per_batch,
            "chunked_prefill_limit": self.chunked_prefill_limit,
        }

    @staticmethod
    def from_dict(doc: dict) -> "SimConfig":
        doc = dict(doc)
        if "faults" in doc:
            doc["faults"] = tuple(FaultSpec.from_dict(f) for f in doc["faults"])
        if "adapters" in doc:
            doc["adapters"] = tuple(doc["adapters"])
        return SimConfig(**doc)
