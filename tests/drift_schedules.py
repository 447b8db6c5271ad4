"""Hand-built schedules that hold chosen subsets of the drift trigger
conditions at a single scheduler tick.

Each condition has a dedicated gadget:

* occupancy: ten distinct 2100-token fillers leave ~1320 of 2048 blocks
  resident in the prefix cache after they drain, so the bit stays set
  long after the requests finish.
* shape mix: a 2100-token prompt co-resident with 32- and 48-token
  prompts gives three distinct lengths with the largest past the
  chunked-prefill limit.
* adapter mix: three distinct adapters in flight at once.  Waiting
  requests count, so the two-adapters-per-batch cap is no obstacle.
* load burst: four submissions of one adapter land within the burst
  window while that adapter's weights are still loading.  The bit can
  only hold on the tick right after the first admission attempt, so
  every other gadget is timed to overlap that tick.

Gadgets compose without bleeding into each other: non-filler prompts
stay under 160 blocks (occupancy off), prompts over the prefill limit
appear only when the shape gadget asks for one, single submissions
never accumulate a burst, and adapter count stays below three unless
the mix gadget is on.
"""

from __future__ import annotations

from tracefuzz.simulator.config import FaultFamily, SimConfig
from tracefuzz.simulator.endpoint import serve
from tracefuzz.simulator.engine import (
    ALL_CONDITIONS,
    COND_ADAPTER_MIX,
    COND_LOAD_BURST,
    COND_OCCUPANCY,
    COND_SHAPE_MIX,
)

VOCAB = 1024


def build_prompt(length: int, tag: int) -> list[int]:
    return [(tag * 131 + i * 7 + 3) % VOCAB for i in range(length)]


def drift_schedule(mask: int, tag: int = 0) -> list[tuple[float, str, int, str, int]]:
    """Submission plan holding exactly `mask` at some tick.

    Entries are (time_ms, rid, prompt_len, adapter, max_tokens).  `tag`
    perturbs prompt contents without touching the timing skeleton.
    """
    if not 0 <= mask <= ALL_CONDITIONS:
        raise ValueError(f"mask out of range: {mask}")
    plan: list[tuple[float, str, int, str, int]] = []
    occupancy = bool(mask & COND_OCCUPANCY)
    shapes = bool(mask & COND_SHAPE_MIX)
    adapters = bool(mask & COND_ADAPTER_MIX)
    burst = bool(mask & COND_LOAD_BURST)

    gate = 25.0 if occupancy else 2.0
    if occupancy:
        for i in range(10):
            plan.append((0.0, f"fill{i}", 2100, "BASE", 2))

    # Adapter assignment keeps the distinct-adapter count at three only
    # when the mix gadget is on, and at most two otherwise.
    big_adapter = "lora_a" if adapters else "BASE"
    mid_adapter = "lora_c" if adapters else "BASE"
    burst_adapter = "lora_b" if adapters else "lora_a"

    if shapes:
        plan.append((gate, f"big{tag % 7}", 2100, big_adapter, 8))
    elif adapters:
        # Still need a third adapter in flight; keep its length at 32 so
        # the distinct-length count stays at two.
        plan.append((gate, f"one{tag % 7}", 32, big_adapter, 16))

    plan.append((gate + 1.0, f"mid{tag % 7}", 32, mid_adapter, 16))

    if burst:
        for j in range(4):
            plan.append((gate + 1.0 + j // 2, f"burst{j}", 48, burst_adapter, 8))
    elif adapters or shapes:
        plan.append((gate + 1.0, f"small{tag % 7}", 48, burst_adapter if adapters else "BASE", 16))

    return sorted(plan, key=lambda entry: entry[0])


def run_schedule(
    mask: int,
    sim_seed: int = 0,
    tag: int = 0,
    horizon_ms: float = 80.0,
):
    """Play the schedule for `mask` against a fresh drift-armed simulator.

    Returns (crashed, observed_masks, sim).  Prompt contents vary per
    request; identical fillers would collapse into one cache chain and
    never build occupancy.
    """
    config = SimConfig(seed=sim_seed).with_faults(FaultFamily.ADAPTER_DRIFT)
    sim = serve(config)
    play_schedule(sim, mask, tag=tag, horizon_ms=horizon_ms)
    return sim.crashed, set(sim.f3_observed_masks), sim


def play_schedule(sim, mask: int, tag: int = 0, horizon_ms: float = 80.0) -> None:
    seq = 0
    for when, rid, length, adapter, max_tokens in drift_schedule(mask, tag=tag):
        if sim.clock_ms < when:
            sim.advance_to(when)
        if sim.crashed:
            break
        err = sim.submit(
            rid,
            build_prompt(length, tag * 37 + seq),
            adapter,
            max_tokens,
            1,
            seq,
            None,
            float(when),
        )
        if err is not None:
            raise AssertionError(f"schedule submit {rid} rejected: {err}")
        seq += 1
    sim.advance_to(horizon_ms)
