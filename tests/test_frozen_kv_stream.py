"""Frozen KV event streams: the exact events and snapshots the simulator reports.

A fixed set of traces, the prefix-share and lora-mix bootstrap seeds of the
fault-hunt campaigns and a lora-mix mutant that crashes F3, runs in-process
on four engines: clean, with stale KV reuse (F1) or adapter drift (F3)
armed, and a clean engine whose pool is small enough that requests preempt
one another.
One sha256 covers every KV event's JSON line and every report's block
snapshots.  A change to how the simulator allocates, seals or evicts blocks
must leave these bytes unchanged; an intended change to its behaviour
re-records the digest.
"""

import hashlib

from tracefuzz.adapter import EngineEndpoint, EngineKind, execute
from tracefuzz.campaign import PROFILE_LORA_MIX, PROFILE_PREFIX_SHARE, CampaignConfig, bootstrap_corpus
from tracefuzz.hashing import canonical_json
from tracefuzz.mutation import mutate
from tracefuzz.simulator.config import FaultFamily, SimConfig
from tracefuzz.simulator.endpoint import serve

ENGINES = {
    "clean": SimConfig(seed=1),
    "f1": SimConfig(seed=1).with_faults(FaultFamily.STALE_KV_REUSE),
    "f3": SimConfig(seed=1).with_faults(FaultFamily.ADAPTER_DRIFT),
    "small-pool": SimConfig(seed=1, total_kv_blocks=600),
}

EXPECTED = (66_159, "09c4ae71b5c508e4f97f81daf5a2d72e928f3a0c3066d31b59d66bcab4249c7e")


def traces():
    seeds = [
        entry.trace
        for rng_seed, profile in ((0, PROFILE_PREFIX_SHARE), (11, PROFILE_LORA_MIX))
        for entry in bootstrap_corpus(CampaignConfig(rng_seed=rng_seed, profiles=(profile,), bootstrap_per_profile=2))
    ]
    return seeds + [mutate(seeds[2], 2, partner=seeds[3])]


def test_kv_event_streams_are_frozen():
    digest = hashlib.sha256()
    events = 0
    kinds, crashed = set(), False
    fixed = traces()
    for config in ENGINES.values():
        core = serve(config)
        endpoint = EngineEndpoint(EngineKind.SIMULATOR, handle=core)
        for trace in fixed:
            core.reset()
            report = execute(trace, endpoint)
            for event in report.kv_events:
                digest.update(event.to_json_line().encode() + b"\n")
            digest.update(canonical_json(report.block_snapshots).encode() + b"\n")
            events += len(report.kv_events)
            kinds.update(event.kind for event in report.kv_events)
            crashed |= report.server_crashed
    # The set reaches every event kind, preemption (its frees) and an F3 crash.
    assert kinds == {"alloc", "evict", "free", "prefix_hit", "reuse"} and crashed
    assert (events, digest.hexdigest()) == EXPECTED
