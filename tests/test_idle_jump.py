"""The idle-time jump in ``SimCore.advance_to`` against the tick-by-tick loop.

``SteppedSimulator`` keeps the loop ``advance_to`` ran before the jump,
verbatim.  Random schedules of submit, cancel, disconnect,
expire and advance drive one engine through each and must leave the same
clock, tick, KV events, snapshots, finished records, drift masks, crash
evidence and loaded adapters, with the jump stepping every non-idle tick and
at most one idle tick per advance.
"""

from hypothesis import example, given, settings, strategies as st

from tracefuzz.simulator.config import FaultFamily, FaultSpec, SimConfig
from tracefuzz.simulator.endpoint import serve
from tracefuzz.simulator.engine import SimCore

ADAPTERS = ("BASE", "lora_a", "lora_b", "lora_c")

# Knobs low enough that small schedules reach every fault: F1 wants occupancy
# and evictions, F2 a wide request, F3 two prompt lengths past the prefill
# limit, two adapters and a two-submission load burst at once.
FAULTS = {
    None: (),
    "f1": (FaultSpec(FaultFamily.STALE_KV_REUSE, occupancy_threshold=0.3),),
    "f2": (FaultSpec(FaultFamily.ENGINE_STALL, n_completions_threshold=3, stall_ms=7),),
    "f3": (FaultSpec(FaultFamily.ADAPTER_DRIFT, occupancy_threshold=0.2, shape_mix_min=2,
                     adapter_mix_min=2, burst_min=2, crash_delay_ticks=2),),
    "f3 late": (FaultSpec(FaultFamily.ADAPTER_DRIFT, occupancy_threshold=0.2, shape_mix_min=2,
                          adapter_mix_min=2, burst_min=2, crash_delay_ticks=6),),
}


class SteppedSimulator(SimCore):
    """The core with its advance_to as it was before the jump."""

    def advance_to(self, clock_ms: int) -> None:
        while self.clock_ms < clock_ms and not self.crashed:
            self.step()


def idle(core) -> bool:
    return not (core.waiting or core.running or core.loading) and core._drift_fire_tick is None


def finished(core, rid):
    """What the adapter reports of a finished request; None if it was rejected or is in flight."""
    req = core.requests.get(rid)
    if req is None or req.status is None:
        return None
    return req.status, req.finished_ms, req.outputs, req.records, req.token_stamps


def count_steps(core, key_of, counts) -> None:
    """Count the core's step() calls under key_of(core), read before each step."""
    real_step = core.step

    def step():
        key = key_of(core)
        if key is not None:
            counts[key] += 1
        real_step()

    core.step = step  # an instance attribute: advance_to's self.step() finds it


def prompt(tag: int, length: int) -> list[int]:
    return [(tag * 131 + i * 7 + 3) % 1024 for i in range(length)]


request_plans = st.tuples(
    st.integers(0, 2),  # prefix tag: equal tags share their leading blocks
    st.sampled_from((0, 16, 32)),  # prefix length
    st.integers(0, 40),  # suffix length; its tag is the request's own
    st.sampled_from(ADAPTERS),
    st.integers(1, 5),  # max_tokens
    st.integers(1, 3),  # n_completions
    st.sampled_from((None, 2)),  # logprobs
)
# Requests arrive in groups at one instant, so they share admission ticks.
submits = st.tuples(st.just("submit"), st.lists(request_plans, min_size=1, max_size=4))
aborts = st.one_of(
    st.tuples(st.sampled_from(("cancel", "disconnect", "expire")), st.integers(0, 20)),
    st.just(("expire", None)),  # every request in flight, which can leave a load or a drift crash pending
)
advances = st.tuples(
    st.just("advance"),
    st.one_of(
        st.integers(0, 40),
        st.floats(0, 40),  # float targets, many of them inside a tick
        st.sampled_from((200, 1_000.5, 2_000)),  # long gaps, idle once the work drains
    ),
)
schedules = st.lists(st.one_of(submits, aborts, advances), max_size=16)

# With f3, all four drift conditions hold on the second tick after the second
# submit; then every request expires, leaving the lora_b load and the drift
# crash pending with nothing in flight.
EXPIRE_IN_DRIFT_WINDOW = [
    ("submit", [(0, 32, 20, "BASE", 1, 1, None)]),  # leaves 4 of 12 blocks cached
    ("advance", 40),
    ("submit", [(1, 32, 20, "BASE", 5, 1, None), (2, 0, 10, "lora_b", 5, 1, None),
                (2, 0, 12, "lora_b", 5, 1, None)]),
    ("advance", 2),
    ("expire", None),
]


@settings(max_examples=150, deadline=None)
@given(
    schedule=schedules,
    tick_ms=st.sampled_from((1, 3)),
    fault=st.sampled_from(tuple(FAULTS)),
    load_ticks=st.sampled_from((2, 7)),
)
# With f3 the crash comes due on the tick after the load completes; with
# "f3 late", after four ticks with only the crash pending; with no fault, the
# load completes six ticks after the last request expired.
@example(schedule=EXPIRE_IN_DRIFT_WINDOW, tick_ms=1, fault="f3", load_ticks=2)
@example(schedule=EXPIRE_IN_DRIFT_WINDOW, tick_ms=1, fault="f3 late", load_ticks=2)
@example(schedule=EXPIRE_IN_DRIFT_WINDOW, tick_ms=1, fault=None, load_ticks=7)
def test_idle_jump_matches_the_tick_by_tick_loop(schedule, tick_ms, fault, load_ticks):
    config = SimConfig(
        total_kv_blocks=12,
        max_batch_tokens=64,
        chunked_prefill_limit=32,
        tick_ms=tick_ms,
        adapter_load_ticks=load_ticks,
        near_tie_gap=0.05,
        seed=11,
        faults=FAULTS[fault],
    )
    jumped, stepped = serve(config), SteppedSimulator(config)
    steps = {"jumped idle": 0, "jumped busy": 0, "busy": 0}
    count_steps(jumped, lambda core: "jumped idle" if idle(core) else "jumped busy", steps)
    count_steps(stepped, lambda core: None if idle(core) else "busy", steps)

    rids: list[str] = []
    for op in [*schedule, ("advance", 2_000)]:  # the last gap drains the work, then idles
        kind = op[0]
        if kind == "submit":
            for tag, prefix_len, suffix_len, adapter, max_tokens, n, logprobs in op[1]:
                rid = f"r{len(rids)}"
                tokens = prompt(tag, prefix_len) + prompt(len(rids) + 3, suffix_len) or [7]
                args = (rid, tokens, adapter, max_tokens, n, len(rids), logprobs, jumped.clock_ms)
                assert jumped.submit(*args) == stepped.submit(*args)
                rids.append(rid)
        elif kind == "advance":
            target = jumped.clock_ms + op[1]
            idle_before = steps["jumped idle"]
            jumped.advance_to(target)
            stepped.advance_to(target)
            assert steps["jumped idle"] - idle_before <= 1  # an idle gap of any length steps once
        elif rids:
            targets = [req.rid for req in jumped.in_flight()] if op[1] is None else [rids[op[1] % len(rids)]]
            for sim in (jumped, stepped):
                for rid in targets:
                    if kind == "expire":
                        sim.expire(rid)
                    else:
                        sim.cancel(rid, disconnect=kind == "disconnect")
        for core in (jumped, stepped):
            assert type(core.clock_ms) is int and type(core.tick) is int
        assert (jumped.clock_ms, jumped.tick) == (stepped.clock_ms, stepped.tick)

    assert steps["jumped busy"] == steps["busy"]  # the jump steps every non-idle tick
    assert jumped.kv_events == stepped.kv_events
    assert jumped.snapshots == stepped.snapshots
    assert [finished(jumped, r) for r in rids] == [finished(stepped, r) for r in rids]
    assert [req.rid for req in jumped.in_flight()] == [req.rid for req in stepped.in_flight()]
    assert jumped.f3_observed_masks == stepped.f3_observed_masks
    assert jumped.crash_evidence == stepped.crash_evidence
    assert jumped.loaded_adapters == stepped.loaded_adapters


def test_every_override_names_a_simcore_method():
    # After a rename, the override would be dead code and SteppedSimulator the jumping core itself.
    overrides = [name for name, value in vars(SteppedSimulator).items() if callable(value) and not name.startswith("__")]
    assert overrides and all(callable(getattr(SimCore, name, None)) for name in overrides)


def test_a_long_idle_gap_costs_one_step():
    sim = serve(SimConfig(tick_ms=3))
    sim.submit("r", prompt(0, 40), "lora_a", 4, 1, 0, None, 0)
    sim.advance_to(200)
    assert sim.requests["r"].status == "completed"
    steps = {"all": 0}
    count_steps(sim, lambda core: "all", steps)
    tick = sim.tick
    sim.advance_to(10**9 + 0.5)
    assert steps["all"] == 1
    assert sim.clock_ms == 10**9 + 2  # the first multiple of 3 past the target
    assert sim.tick == tick + (10**9 + 2 - 201) // 3


def test_an_idle_tick_that_breaks_the_scheduler_invariant_still_crashes_on_time():
    # A negative LoRA cap fails the invariant check on every tick, idle ones too.
    config = SimConfig(max_loras_per_batch=-1, tick_ms=3)
    jumped, stepped = serve(config), SteppedSimulator(config)
    for sim in (jumped, stepped):
        sim.advance_to(100)
    assert jumped.crash_evidence == stepped.crash_evidence
    assert jumped.crash_evidence["tick"] == 1
