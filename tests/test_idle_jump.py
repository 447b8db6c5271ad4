"""Quiet stretches in ``SimCore.advance`` against the tick-by-tick loop.

A quiet tick only decodes; ``quiet`` below states the rule from the
engine's description, not from its code.  ``SteppedSimulator`` keeps the
loop ``advance_to`` ran before stretches, verbatim, and its ``advance`` runs
one tick, so the adapter's drain steps every tick on it too.  Random
schedules of submit, cancel, disconnect, expire and advance drive one engine
through each.  After every operation the in-flight requests must hold the
same outputs, records, token stamps, digests and chain fills and buffers,
mid-stretch included; at the end the engines must hold the same clock,
tick, KV events, snapshots, finished records, drift masks, crash evidence
and loaded adapters.  The stretching core must step every tick that is not
quiet and no tick that is: an idle gap of any length steps none.
"""

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from test_adapter import send
from tracefuzz.adapter import EngineEndpoint, EngineKind, execute
from tracefuzz.simulator.config import FaultFamily, FaultSpec, SimConfig
from tracefuzz.simulator.endpoint import serve
from tracefuzz.simulator.engine import DECODE, SimCore
from tracefuzz.trace import TimedTrace

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
    """The core with its advance_to as it was before stretches, and an advance that runs one tick."""

    def advance_to(self, clock_ms: int) -> None:
        while self.clock_ms < clock_ms and not self.crashed:
            self.step()

    def advance(self, clock_ms) -> None:
        self.step()


def quiet(core) -> bool:
    """Whether the next tick only decodes: nothing is waiting or loading, no drift crash is pending, the
    scheduler invariant holds, and within the batch budget every running request decodes a token per
    completion that opens no block, seals none and does not reach max_tokens."""
    if core.waiting or core.loading or core._drift_fire_tick is not None:
        return False
    cfg = core.config
    adapters = {req.adapter for req in core.running}
    if not adapters <= core.loaded_adapters or len(adapters - {"BASE"}) > cfg.max_loras_per_batch:
        return False
    return sum(req.n_completions for req in core.running) <= cfg.max_batch_tokens and all(
        req.state == DECODE and len(req.outputs[0]) + 1 < req.max_tokens
        and all(0 < chain.fill < cfg.block_size_tokens - 1 for chain in req.chains)
        for req in core.running
    )


def in_flight_state(core) -> list:
    """What a stretch writes to each in-flight request."""
    return [
        (req.rid, req.outputs, req.records, req.token_stamps, req.digests,
         [(chain.fill, chain.buffer) for chain in req.chains])
        for req in core.in_flight()
    ]


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

    core.step = step  # an instance attribute: advance's self.step() finds it


def prompt(tag: int, length: int) -> list[int]:
    return [(tag * 131 + i * 7 + 3) % 1024 for i in range(length)]


request_plans = st.tuples(
    st.integers(0, 2),  # prefix tag: equal tags share their leading blocks
    st.sampled_from((0, 16, 32)),  # prefix length
    st.integers(0, 40),  # suffix length; its tag is the request's own
    st.sampled_from(ADAPTERS),
    st.one_of(st.integers(1, 5), st.just(24)),  # max_tokens; 24 decode past a block boundary
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
# With f2, three wide requests stall every tick by 7 ms; after their first
# tokens, each decodes a quiet stretch up to the first block boundary.
STALLED_STRETCHES = [
    ("submit", [(0, 16, 2, "BASE", 24, 3, 2), (1, 0, 20, "lora_a", 24, 1, None), (2, 16, 0, "BASE", 5, 2, None)]),
    ("advance", 25),
    ("advance", 7),
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
@example(schedule=STALLED_STRETCHES, tick_ms=3, fault="f2", load_ticks=2)
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
    steps = Counter()
    count_steps(jumped, lambda core: "jumped quiet" if quiet(core) else "jumped", steps)
    count_steps(stepped, lambda core: "quiet" if quiet(core) else "busy", steps)

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
            jumped.advance_to(target)
            stepped.advance_to(target)
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
        assert in_flight_state(jumped) == in_flight_state(stepped)  # a stretch cut at a target included

    assert steps["jumped quiet"] == 0  # no quiet tick is stepped
    assert steps["jumped"] == steps["busy"]  # and every other tick is
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


def test_a_long_idle_gap_costs_no_step():
    sim = serve(SimConfig(tick_ms=3))
    sim.submit("r", prompt(0, 40), "lora_a", 4, 1, 0, None, 0)
    sim.advance_to(200)
    assert sim.requests["r"].status == "completed"
    steps = Counter()
    count_steps(sim, lambda core: "all", steps)
    tick = sim.tick
    sim.advance_to(10**9 + 0.5)
    assert steps["all"] == 0
    assert sim.clock_ms == 10**9 + 2  # the first multiple of 3 past the target
    assert sim.tick == tick + (10**9 + 2 - 201) // 3


def test_a_stalled_stretch_stamps_each_tick_and_its_stall():
    config = SimConfig(tick_ms=3, faults=FAULTS["f2"])
    jumped, stepped = serve(config), SteppedSimulator(config)
    steps = Counter()
    count_steps(jumped, lambda core: "jumped", steps)
    count_steps(stepped, lambda core: "quiet" if quiet(core) else "busy", steps)
    for sim in (jumped, stepped):
        assert sim.submit("wide", prompt(0, 18), "BASE", 40, 3, 0, 2, 0) is None
    for target in range(0, 500, 23):  # many targets fall inside a stretch
        for sim in (jumped, stepped):
            sim.advance_to(target)
        assert in_flight_state(jumped) == in_flight_state(stepped)
    assert finished(jumped, "wide") == finished(stepped, "wide")
    stamps = jumped.requests["wide"].token_stamps
    assert len(stamps) == 40 and {b - a for a, b in zip(stamps, stamps[1:])} == {3 + 7}
    assert steps["jumped"] == steps["busy"] < steps["quiet"]


def test_a_deadline_inside_a_quiet_stretch_expires_on_its_tick():
    # The drain runs a stretch up to the earliest deadline in flight, so each
    # timeout expires the request on the tick the tick-by-tick drain does,
    # and a request that completes ends the span on its last tick.
    trace = TimedTrace("t~deadline", (send("slow", 0, plen=18, mt=40, n=2, logprobs=2),))
    statuses = Counter()
    for timeout in range(1, 121, 3):
        cores = serve(SimConfig(tick_ms=2)), SteppedSimulator(SimConfig(tick_ms=2))
        steps = Counter()
        for core, key in zip(cores, ("jumped", "stepped")):
            count_steps(core, lambda core, key=key: key, steps)
        jumped, stepped = (execute(trace, EngineEndpoint(EngineKind.SIMULATOR, core, request_timeout_ms=timeout))
                           for core in cores)
        assert jumped.outcomes == stepped.outcomes
        assert jumped.wall_clock_span_ms == stepped.wall_clock_span_ms
        assert cores[0].tick == cores[1].tick
        statuses[jumped.outcomes["slow"].status] += 1
        if timeout > 20:
            assert steps["jumped"] < steps["stepped"]
    assert statuses["timeout"] > 10 and statuses["completed"] > 5


def test_an_idle_tick_that_breaks_the_scheduler_invariant_still_crashes_on_time():
    # A negative LoRA cap fails the invariant check on every tick, idle ones too.
    config = SimConfig(max_loras_per_batch=-1, tick_ms=3)
    jumped, stepped = serve(config), SteppedSimulator(config)
    for sim in (jumped, stepped):
        sim.advance_to(100)
    assert jumped.crash_evidence == stepped.crash_evidence
    assert jumped.crash_evidence["tick"] == 1
