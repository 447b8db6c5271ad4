"""Simulator core: deterministic decode, paged-cache accounting, and the
three injectable fault families."""

import json

import pytest

from drift_schedules import play_schedule, run_schedule
from test_sim_http import fetch
from tracefuzz.simulator.config import FaultFamily, FaultSpec, SimConfig
from tracefuzz.simulator.endpoint import serve
from tracefuzz.simulator.engine import ALL_CONDITIONS, COND_LOAD_BURST, SimRequest
from tracefuzz.simulator.http import serve_http


def prompt(n, tag=0):
    return [(tag * 131 + i * 7 + 3) % 1024 for i in range(n)]


def run_one(sim, rid, tokens, adapter="BASE", max_tokens=4, n=1, logprobs=None, seed=0, horizon=200.0):
    err = sim.submit(rid, tokens, adapter, max_tokens, n, seed, logprobs, sim.clock_ms)
    assert err is None, err
    sim.advance_to(sim.clock_ms + horizon)
    rec = sim.requests[rid]
    assert rec.status is not None, f"{rid} never finished"
    return rec


# -- determinism -------------------------------------------------------------


def test_identical_runs_produce_identical_streams():
    def session():
        sim = serve(SimConfig(seed=5))
        recs = [run_one(sim, f"r{i}", prompt(40, i), max_tokens=6) for i in range(3)]
        events = [(e.kind, e.block_id, e.block_hash, e.owner_request_id) for e in sim.kv_events]
        return [r.outputs for r in recs], events, sim.snapshots

    assert session() == session()


def test_outputs_depend_on_engine_seed():
    a = serve(SimConfig(seed=0))
    b = serve(SimConfig(seed=1))
    out_a = run_one(a, "r", prompt(32), max_tokens=8).outputs
    out_b = run_one(b, "r", prompt(32), max_tokens=8).outputs
    assert out_a != out_b


def test_unrelated_traffic_does_not_perturb_output():
    solo = serve(SimConfig(seed=2))
    alone = run_one(solo, "victim", prompt(48, 9), max_tokens=6).outputs

    busy = serve(SimConfig(seed=2))
    busy.submit("noise0", prompt(64, 1), "BASE", 4, 1, 7, None, 0.0)
    busy.submit("noise1", prompt(24, 2), "lora_a", 4, 1, 8, None, 0.0)
    shared = run_one(busy, "victim", prompt(48, 9), max_tokens=6).outputs
    assert alone == shared


def test_multi_completion_streams_are_distinct_and_stable():
    sim = serve(SimConfig(seed=3))
    rec = run_one(sim, "r", prompt(32), max_tokens=5, n=3)
    assert len(rec.outputs) == 3
    assert len({tuple(s) for s in rec.outputs}) == 3
    again = run_one(serve(SimConfig(seed=3)), "r", prompt(32), max_tokens=5, n=3)
    assert rec.outputs == again.outputs


# -- near-tie decode mode ------------------------------------------------------


def test_near_tie_salts_flip_and_canonical_restores():
    cfg = SimConfig(seed=4, near_tie_gap=0.05)
    sim = serve(cfg)
    first = run_one(sim, "a", prompt(32, 5), max_tokens=16, logprobs=5)
    second = run_one(sim, "b", prompt(32, 5), max_tokens=16, logprobs=5, seed=0)
    assert first.outputs != second.outputs, "admission ordinal salt should flip some position"

    sim.canonical_decode = True
    canon1 = run_one(sim, "c", prompt(32, 5), max_tokens=16, logprobs=5)
    canon2 = run_one(sim, "d", prompt(32, 5), max_tokens=16, logprobs=5)
    assert canon1.outputs == canon2.outputs

    # each salted stream deviates from canonical only by near-tie margins
    canon_tokens = canon1.outputs[0]
    salted_tokens = first.outputs[0]
    ladders = canon1.records[0]
    for pos, (want, got) in enumerate(zip(canon_tokens, salted_tokens)):
        if want != got:
            top = dict(ladders[pos])
            assert got in top
            assert abs(top[want] - top[got]) <= cfg.near_tie_gap + 1e-9
            break
    else:
        pytest.fail("no flipped position found")


def test_clean_mode_ignores_admission_order():
    sim = serve(SimConfig(seed=6))
    one = run_one(sim, "x", prompt(40, 2), max_tokens=8)
    two = run_one(sim, "y", prompt(40, 2), max_tokens=8)
    assert one.outputs == two.outputs


# -- paged cache --------------------------------------------------------------


def test_prefix_reuse_emits_hits_and_shares_blocks():
    sim = serve(SimConfig(seed=7))
    shared = prompt(64, 3)
    run_one(sim, "first", shared, max_tokens=2)
    before = len([e for e in sim.kv_events if e.kind == "prefix_hit"])
    run_one(sim, "second", shared, max_tokens=2)
    hits = [e for e in sim.kv_events if e.kind == "prefix_hit"]
    # 64 tokens: three full leading blocks are cacheable, the final token is
    # always recomputed so the fourth block never serves a hit
    assert len(hits) - before == 3
    snaps = sim.snapshots
    assert [b for b, _ in snaps["second"][:3]] == [b for b, _ in snaps["first"][:3]]


def test_prefix_chain_hash_covers_adapter():
    sim = serve(SimConfig(seed=7))
    shared = prompt(64, 4)
    run_one(sim, "base", shared, max_tokens=2)
    run_one(sim, "tuned", shared, max_tokens=2, adapter="lora_a")
    snaps = sim.snapshots
    assert [b for b, _ in snaps["tuned"][:3]] != [b for b, _ in snaps["base"][:3]]


def test_eviction_only_when_pool_exhausted():
    cfg = SimConfig(seed=8, total_kv_blocks=24)
    sim = serve(cfg)
    for i in range(6):
        run_one(sim, f"r{i}", prompt(64, i), max_tokens=2, horizon=400.0 + 400 * i)
    events = sim.kv_events
    evictions = [e for e in events if e.kind == "evict"]
    assert evictions, "a 24-block pool must evict under six 4-block prompts"
    # reconstruct residency: evictions may only happen with zero free blocks
    free = cfg.total_kv_blocks
    for e in events:
        if e.kind == "alloc":
            free -= 1
        elif e.kind in ("free", "evict"):
            if e.kind == "evict":
                assert free == 0, "evicted while free blocks remained"
            free += 1
        assert 0 <= free <= cfg.total_kv_blocks
    crash_free = sim.crashed
    assert not crash_free


def test_block_alloc_free_balance_on_reset():
    sim = serve(SimConfig(seed=9, total_kv_blocks=64))
    for i in range(4):
        run_one(sim, f"r{i}", prompt(48, i), max_tokens=3)
    allocs = sum(1 for e in sim.kv_events if e.kind == "alloc")
    frees = sum(1 for e in sim.kv_events if e.kind in ("free", "evict"))
    assert allocs >= frees
    assert allocs - frees <= 64


# -- fault family: stale block adoption ---------------------------------------


def _stale_pair(plen, faulted=True):
    cfg = SimConfig(seed=0)
    if faulted:
        cfg = cfg.with_faults(FaultFamily.STALE_KV_REUSE)
    sim = serve(cfg)
    for i in range(11):
        sim.submit(f"fill{i}", prompt(4096, 100 + i), "BASE", 2, 1, 0, None, 0.0)
    sim.advance_to(40.0)
    shared_prefix = prompt(32, 500)
    trig = shared_prefix + prompt(plen - 32, 600)
    vic = shared_prefix + prompt(plen - 32, 700)
    sim.submit("trigger", trig, "BASE", 4, 1, 0, None, sim.clock_ms)
    sim.submit("victim", vic, "BASE", 4, 1, 0, None, sim.clock_ms)
    sim.advance_to(sim.clock_ms + 100.0)
    return sim


def test_stale_grab_needs_walkable_suffix_block():
    # 48 tokens: the suffix block sits past the cache-walk horizon (the last
    # prompt token is never served from cache), so the fault cannot latch.
    sim = _stale_pair(48)
    assert not any(e.kind == "reuse" for e in sim.kv_events)

    sim = _stale_pair(64)
    reuses = [e for e in sim.kv_events if e.kind == "reuse"]
    assert len(reuses) == 1
    assert reuses[0].owner_request_id == "victim"


def test_stale_grab_changes_output_against_clean_run():
    corrupted = _stale_pair(64).requests["victim"].outputs
    clean = _stale_pair(64, faulted=False).requests["victim"].outputs
    assert corrupted != clean


def test_stale_grab_inert_without_fault():
    sim = _stale_pair(64, faulted=False)
    assert not any(e.kind == "reuse" for e in sim.kv_events)


# -- fault family: decode stall ------------------------------------------------


def test_stall_inflates_virtual_clock():
    spec = FaultSpec(family=FaultFamily.ENGINE_STALL, stall_ms=1000)
    sim = serve(SimConfig(seed=1, faults=(spec,)))
    rec = run_one(sim, "wide", prompt(32), max_tokens=4, n=8, horizon=60_000.0)
    assert rec.token_stamps[0] >= 1000

    clean = serve(SimConfig(seed=1))
    fast = run_one(clean, "wide", prompt(32), max_tokens=4, n=8)
    assert fast.token_stamps[0] < 50


def test_stall_recovers_after_wide_request_completes():
    spec = FaultSpec(family=FaultFamily.ENGINE_STALL, stall_ms=1000)
    sim = serve(SimConfig(seed=1, faults=(spec,)))
    run_one(sim, "wide", prompt(32), max_tokens=4, n=8, horizon=60_000.0)
    after = run_one(sim, "probe", prompt(16), max_tokens=2, horizon=sim.clock_ms + 200.0)
    # the probe is admitted within a couple of ticks once the stall source drains
    assert after.token_stamps[0] - sim.clock_ms <= 0  # finished before horizon
    assert after.status == "completed"


def test_stall_threshold_is_configurable():
    spec = FaultSpec(family=FaultFamily.ENGINE_STALL, stall_ms=1000, n_completions_threshold=4)
    sim = serve(SimConfig(seed=1, faults=(spec,)))
    rec = run_one(sim, "wide", prompt(32), max_tokens=4, n=4, horizon=60_000.0)
    assert rec.token_stamps[0] >= 1000


# -- fault family: adapter-load drift -------------------------------------------


def test_drift_requires_all_four_conditions():
    crashed, masks, _sim = run_schedule(ALL_CONDITIONS, sim_seed=0, tag=1)
    assert crashed
    assert ALL_CONDITIONS in masks
    for missing_bit in (1, 2, 4, 8):
        mask = ALL_CONDITIONS & ~missing_bit
        crashed, masks, _sim = run_schedule(mask, sim_seed=0, tag=1)
        assert not crashed, f"subset {mask} must not crash"
        assert mask in masks
        assert ALL_CONDITIONS not in masks


def test_drift_conditions_are_evaluated_only_with_f3_armed():
    clean = serve(SimConfig(seed=0))
    play_schedule(clean, ALL_CONDITIONS, tag=1)
    assert not clean.crashed
    assert clean.f3_observed_masks == set()


def test_drift_crash_evidence_shape():
    crashed, _, sim = run_schedule(ALL_CONDITIONS, sim_seed=3, tag=2)
    assert crashed
    evidence = sim.crash_evidence
    assert evidence["signature"] == "running-adapters-not-subset-loaded"
    assert "tick" in evidence and "message" in evidence


def test_crashed_engine_rejects_submissions_until_reset():
    from drift_schedules import build_prompt

    crashed, _, sim = run_schedule(ALL_CONDITIONS, sim_seed=0, tag=0)
    assert crashed
    err = sim.submit("late", build_prompt(8, 0), "BASE", 1, 1, 0, None, sim.clock_ms)
    assert err is not None
    sim.reset()
    assert not sim.crashed
    assert sim.submit("fresh", build_prompt(8, 0), "BASE", 1, 1, 0, None, 0.0) is None


def engine_state(sim):
    outputs = {rid: (req.status, req.outputs, req.records, req.token_stamps) for rid, req in sim.requests.items()}
    return (sim.kv_events, sim.snapshots, outputs, sim.clock_ms, sim.tick, sim.f3_observed_masks,
            sim.crashed, sim.crash_evidence, sim.canonical_decode)


@pytest.mark.parametrize("mask", [ALL_CONDITIONS, ALL_CONDITIONS & ~COND_LOAD_BURST])
def test_reset_after_a_crash_replays_like_a_fresh_core(mask):
    config = SimConfig(seed=1, near_tie_gap=0.05).with_faults(FaultFamily.ADAPTER_DRIFT)
    reused = serve(config)
    reused.canonical_decode = True
    play_schedule(reused, ALL_CONDITIONS)
    assert reused.crashed
    reused.reset()
    assert reused.canonical_decode and not reused.crashed

    fresh = serve(config)
    fresh.canonical_decode = True
    for sim in (reused, fresh):
        play_schedule(sim, mask, tag=3)
    assert engine_state(reused) == engine_state(fresh)
    assert reused.crashed == (mask == ALL_CONDITIONS)


def test_reset_keeps_the_handle_and_replays_bit_identically():
    config = SimConfig(seed=5, near_tie_gap=0.05)
    sim = serve(config)

    def session(sim):
        for i in range(3):
            run_one(sim, f"r{i}", prompt(40, i % 2), max_tokens=6, n=2, logprobs=3)
        return engine_state(sim)

    first = session(sim)
    sim.reset()
    assert sim.requests == {} and sim.kv_events == []
    assert session(sim) == first == session(serve(config))


# -- misc engine surface --------------------------------------------------------


def test_sim_config_from_dict_keeps_the_defaults_it_is_not_given():
    assert SimConfig.from_dict({}) == SimConfig()
    config = SimConfig.from_dict({"adapters": ["BASE", "lora_a"], "faults": [{"family": "engine_stall", "stall_ms": 7}]})
    assert config.adapters == ("BASE", "lora_a")
    assert config.faults == (FaultSpec(FaultFamily.ENGINE_STALL, stall_ms=7),)


def test_engine_info_reports_static_config():
    cfg = SimConfig(total_kv_blocks=512, vocab_size=2048)
    info = serve(cfg).config.engine_info()
    assert info["total_kv_blocks"] == 512
    assert info["vocab_size"] == 2048
    assert info["engine"] == "tracefuzz-sim"
    server = serve_http(cfg)
    try:
        assert json.loads(fetch(server.base_url, "GET", "/control/info")[1]) == info
    finally:
        server.stop()


def test_submit_rejects_unknown_adapter_and_duplicates():
    sim = serve(SimConfig())
    assert sim.submit("a", prompt(16), "lora_zzz", 2, 1, 0, None, 0.0) is not None
    assert sim.submit("a", prompt(16), "BASE", 2, 1, 0, None, 0.0) is None
    assert sim.submit("a", prompt(16), "BASE", 2, 1, 0, None, 0.0) is not None


TINY_POOL = SimConfig(block_size_tokens=4, total_kv_blocks=6, max_batch_tokens=24, chunked_prefill_limit=8)


@pytest.mark.parametrize(
    "prompt_len,max_tokens,n,fits",
    [
        (20, 4, 1, True),  # ceil(24/4) = 6 blocks
        (21, 4, 1, False),  # ceil(25/4) = 7
        (30, 4, 1, False),  # 9: re-admitted 250 times in 1,000 ms before the check
        (13, 4, 2, True),  # ceil(17/4) + ceil(4/4) = 6
        (12, 5, 2, False),  # ceil(17/4) + ceil(5/4) = 7
        (8, 4, 3, True),  # 3 + 2 * 1 = 5
        (8, 5, 3, False),  # 4 + 2 * 2 = 8
    ],
)
def test_a_request_that_cannot_fit_an_empty_pool_is_refused(prompt_len, max_tokens, n, fits):
    sim = serve(TINY_POOL)
    err = sim.submit("r", prompt(prompt_len), "BASE", max_tokens, n, 0, None, 0)
    sim.advance_to(1_000)
    if fits:
        assert err is None
        assert sim.requests["r"].status == "completed"
        assert sim.admission_counter == 1  # never preempted and re-admitted
    else:
        assert "KV blocks" in err
        assert sim.requests == {} and sim.kv_events == []


def test_logprobs_wider_than_the_vocabulary_are_refused():
    # Each decode step draws one distinct candidate token per logprob, so a
    # wider request would spin forever; it is refused before any tick runs.
    sim = serve(SimConfig(vocab_size=8))
    err = sim.submit("wide", prompt(16), "BASE", 2, 1, 0, 9, 0)
    assert "logprobs" in err
    assert sim.requests == {}
    rec = run_one(sim, "full", prompt(16), logprobs=8)
    assert rec.status == "completed" and len(rec.records[0][0]) == 8


@pytest.mark.parametrize("max_tokens, n, logprobs, refused", [
    (0, 1, None, "max_tokens"), (-5, 1, None, "max_tokens"), (2, 0, None, "n "), (2, -1, None, "n "),
    (2, 1, -3, "logprobs"),
])
def test_completion_settings_no_trace_can_express_are_refused(max_tokens, n, logprobs, refused):
    # No token, no stream and a negative ladder width are refused, not clamped or served.
    sim = serve(SimConfig())
    err = sim.submit("r", prompt(16), "BASE", max_tokens, n, 0, logprobs, 0)
    assert err is not None and err.startswith(refused)
    assert sim.requests == {} and sim.waiting == []
    assert run_one(sim, "ok", prompt(16), max_tokens=1, logprobs=0).records == [[]]


def test_a_request_queue_removes_the_request_it_is_given():
    # Requests compare by identity: remove() takes this request, not the first one with equal fields.
    fields = dict(rid="r", prompt=tuple(prompt(64)), adapter="BASE", max_tokens=4, n_completions=1,
                  request_seed=0, logprobs=None, salt=0)
    first, second = SimRequest(**fields), SimRequest(**fields)
    queue = [first, second]
    queue.remove(second)
    assert len(queue) == 1 and queue[0] is first
    assert second not in queue


def test_cancel_and_disconnect_statuses():
    sim = serve(SimConfig())
    sim.submit("c", prompt(512), "BASE", 64, 1, 0, None, 0.0)
    sim.advance_to(2.0)
    sim.cancel("c", disconnect=False)
    sim.submit("d", prompt(512), "BASE", 64, 1, 0, None, sim.clock_ms)
    sim.advance_to(4.0)
    sim.cancel("d", disconnect=True)
    sim.advance_to(300.0)
    assert sim.requests["c"].status == "cancelled"
    assert sim.requests["d"].status == "disconnected"


def test_a_preempted_request_keeps_one_stamp_per_token():
    # Twelve 4-token blocks cannot hold two 20-token prompts decoding 20
    # tokens each, so one request is preempted and recomputes its decode.
    # The positions it decodes again were stamped when first decoded.
    sim = serve(SimConfig(total_kv_blocks=12, block_size_tokens=4, max_batch_tokens=64, chunked_prefill_limit=64))
    stamped_before = {}
    real_preempt = sim._preempt

    def preempt(req):
        stamped_before.setdefault(req.rid, list(req.token_stamps))
        real_preempt(req)

    sim._preempt = preempt
    for rid, tag in (("a", 0), ("b", 1)):
        assert sim.submit(rid, prompt(20, tag), "BASE", 20, 1, 0, None, 0) is None
    sim.advance_to(500)
    assert any(stamped_before.values())  # a request was preempted after its first tokens
    for rid, req in sim.requests.items():
        assert req.status == "completed"
        assert len(req.token_stamps) == len(req.outputs[0]) == 20
        assert req.token_stamps == sorted(set(req.token_stamps))
        before = stamped_before.get(rid, [])
        assert req.token_stamps[: len(before)] == before
