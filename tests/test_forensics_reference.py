"""Stage-3 forensics and the KV ledger against reference walks kept as they were.

``reference_forensics`` is ``structural_forensics`` with the hash-conflict
claims walked block by block, and ``reference_ledger`` is ``KvLedger.of``
tracking the holders of every block in its one pass.  Generated reports
carry unsealed (None) hashes, hashes shared by two spans or by one span
under two adapters, prompts sharing a prefix, snapshot owners missing from
the request index and snapshots longer than the prompt; the seeded reports
are the frozen KV stream set's real executions.
"""

from collections import Counter
from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

from tracefuzz.adapter import KV_EVENT_KINDS, EngineEndpoint, EngineKind, ExecutionReport, KvEvent, KvLedger, KvRun, execute
from tracefuzz.oracles import Suspicion, SuspicionKind, _merge, _snapshot_signature, structural_forensics
from tracefuzz.simulator.endpoint import serve
from tracefuzz.trace import PromptShape, RequestSpec, SamplingConfig, TimedTrace, TraceEvent, prompt_for

from test_frozen_kv_stream import ENGINES, traces
from test_oracles import outcome

# -- reference walks ---------------------------------------------------------------


def reference_forensics(report, prior_snapshots=None):
    suspicions = []
    block_size = report.engine_info.get("block_size_tokens", 16)
    vocab = report.engine_info.get("vocab_size", 1024)
    for alloc, adopt in report.kv_ledger.cross_adapter:
        suspicions.append(
            Suspicion.create(
                SuspicionKind.CROSS_ADAPTER_REUSE,
                report.trace_id,
                {"from_adapter": alloc.adapter, "to_adapter": adopt.adapter, "via": adopt.kind},
                {"request_ids": sorted({alloc.owner_request_id, adopt.owner_request_id}), "block_id": adopt.block_id},
            )
        )
    claims = {}
    for rid in sorted(report.block_snapshots):
        if rid not in report.request_index:
            continue
        prompt = prompt_for(report.request_index[rid], report.corpus_seed, vocab)
        for index, (block_id, block_hash) in enumerate(report.block_snapshots[rid]):
            if block_hash is None:
                continue
            if (index + 1) * block_size > len(prompt):
                continue
            span = tuple(prompt[index * block_size : (index + 1) * block_size])
            adapter = report.request_index[rid].adapter
            claims.setdefault(block_hash, {}).setdefault((span, adapter), []).append((rid, index))
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
    groups = report.snapshot_groups
    for key in sorted(groups):
        members = groups[key]
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


def reference_ledger(events) -> dict:
    held = peak = 0
    kinds, alloc_ts, cross_adapter = [], [], []
    latest_alloc, holders = {}, {}
    for event in events:
        ts, kind, block, _, owner, adapter = event
        kinds.append(kind)
        if kind == "alloc":
            held += 1
            peak = max(peak, held)
            alloc_ts.append(ts)
            latest_alloc[block] = event
            holders.setdefault(block, set()).add(owner)
        elif kind in ("free", "evict"):
            held -= 1
            latest_alloc.pop(block, None)
            holders.pop(block, None)
        elif kind in ("prefix_hit", "reuse"):
            alloc = latest_alloc.get(block)
            if alloc is not None:
                if alloc.owner_request_id != owner:
                    holders.pop(block, None)
                if alloc.adapter != adapter:
                    cross_adapter.append((alloc, event))
    by_owner = {}
    for block, owners in holders.items():
        for owner in owners:
            by_owner.setdefault(owner, set()).add(block)
    return {
        "peak_held": peak,
        "kinds": frozenset(kinds),
        "bigrams": frozenset(zip(kinds, kinds[1:])),
        "alloc_counts": Counter(alloc_ts),  # the ledger counts the walk's stamps
        "held_blocks": {owner: frozenset(blocks) for owner, blocks in by_owner.items()},
        "cross_adapter": tuple(cross_adapter),
    }


def ledger_fields(ledger: KvLedger) -> dict:
    return {name: getattr(ledger, name) for name in reference_ledger(()).keys()}


# -- generated reports -----------------------------------------------------------

RIDS = ("r0", "r1", "r2", "r3", "r4")
ADAPTERS = ("BASE", "lora_a")


@st.composite
def forensic_reports(draw):
    block = draw(st.sampled_from((2, 4)))
    vocab = draw(st.sampled_from((3, 1024)))  # a tiny vocabulary makes equal spans across prompts
    pool = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4, unique=True))
    specs, snapshots = {}, {}
    for rid in draw(st.lists(st.sampled_from(RIDS), min_size=1, max_size=5, unique=True)):
        prefix = draw(st.sampled_from((0, 2 * block)))
        spec = RequestSpec(
            request_id=rid,
            shape=PromptShape(prefix, prefix + draw(st.integers(1, 4 * block))),
            sampling=SamplingConfig(max_tokens=4, seed=0),
            prompt_family_id=draw(st.sampled_from((None, "fam"))),
            adapter=draw(st.sampled_from(ADAPTERS)),
        )
        if draw(st.integers(0, 4)):  # the rest own snapshots but are missing from the index
            specs[rid] = spec
        length = spec.shape.prompt_len // block + draw(st.integers(-1, 2))  # may run past the prompt
        hashes = st.one_of(st.none(), st.sampled_from(pool))
        entries = [(bid, draw(hashes)) for bid in range(max(0, length))]
        snapshots[rid] = draw(st.sampled_from((entries, [list(entry) for entry in entries])))
    return ExecutionReport(
        trace=sends(specs),
        corpus_seed=0,
        outcomes={rid: outcome(rid) for rid in snapshots},
        block_snapshots=snapshots,
        engine_info={"block_size_tokens": block, "vocab_size": vocab},
    )


def sends(specs):
    """A trace that sends each spec at 0 ms, so its request index is ``specs``."""
    return TimedTrace("t~forensics", tuple(TraceEvent.send(0, spec) for spec in specs.values()))


def _shared_hash_report(adapters, identities):
    """Two requests whose first block carries one hash over the given spans and adapters."""
    specs = {
        rid: RequestSpec(rid, PromptShape(0, 8), SamplingConfig(max_tokens=4, seed=0), identity, adapter)
        for rid, adapter, identity in zip(("a", "b"), adapters, identities)
    }
    return ExecutionReport(
        trace=sends(specs),
        corpus_seed=0,
        outcomes={rid: outcome(rid) for rid in specs},
        block_snapshots={rid: [(0, 7), (1, None)] for rid in specs},
        engine_info={"block_size_tokens": 4, "vocab_size": 1024},
    )


def _family_report(adapters, chains):
    """Requests of one family and shape, one per adapter, whose snapshots carry the given hash chains."""
    specs = {
        rid: RequestSpec(rid, PromptShape(0, 8), SamplingConfig(max_tokens=4, seed=0), "fam", adapter)
        for rid, adapter in zip(("a", "b", "c"), adapters)
    }
    return ExecutionReport(
        trace=sends(specs),
        corpus_seed=0,
        outcomes={rid: outcome(rid) for rid in specs},
        block_snapshots={rid: list(enumerate(hashes)) for rid, hashes in zip(specs, chains)},
        engine_info={"block_size_tokens": 4, "vocab_size": 1024},
    )


# Three requests that claim as one distinct chain; the same three with a
# second span's hash in one chain; one family under two adapters.
DUPLICATES = _family_report(("BASE", "BASE", "BASE"), [(7, 9)] * 3)
HIDDEN_CONFLICT = _family_report(("BASE", "BASE", "BASE"), [(7, 9), (7, 9), (7, 7)])
TWO_ADAPTERS = _family_report(("BASE", "BASE", "lora_a"), [(7, 9)] * 3)


@settings(max_examples=300, deadline=None)
@given(forensic_reports(), st.sampled_from((0, 1)))
@example(_shared_hash_report(("BASE", "BASE"), ("x", "y")), 0)  # one hash over two spans
@example(_shared_hash_report(("BASE", "lora_a"), ("x", "x")), 0)  # one span under two adapters
@example(_shared_hash_report(("BASE", "BASE"), ("x", "x")), 0)  # one span, one adapter: no conflict
@example(DUPLICATES, 0)  # equal requests: one distinct chain, no conflict
@example(HIDDEN_CONFLICT, 0)  # a conflict among duplicates
@example(TWO_ADAPTERS, 0)  # one family, one chain, two adapters
def test_forensics_matches_the_reference_claims_walk(report, corpus_seed):
    report = replace(report, corpus_seed=corpus_seed)
    assert structural_forensics(report) == reference_forensics(report)


def test_shared_hash_examples_conflict_as_expected():
    kinds = {
        pair: {s.kind for s in structural_forensics(_shared_hash_report(*pair))}
        for pair in ((("BASE", "BASE"), ("x", "y")), (("BASE", "lora_a"), ("x", "x")), (("BASE", "BASE"), ("x", "x")))
    }
    assert list(kinds.values()) == [{SuspicionKind.HASH_CONFLICT}, {SuspicionKind.HASH_CONFLICT}, set()]


def test_duplicate_chain_examples_conflict_as_expected():
    # The evidence names every request of a conflicted hash, duplicates included.
    def conflicts(report):
        return [s for s in structural_forensics(report) if s.kind is SuspicionKind.HASH_CONFLICT]

    assert structural_forensics(DUPLICATES) == []
    (hidden,) = conflicts(HIDDEN_CONFLICT)
    assert hidden.evidence == {"request_ids": ["a", "b", "c"], "block_hash": 7}
    assert hidden.signature == {"block_indexes": [0, 1], "adapters": ["BASE"]}
    adapters = conflicts(TWO_ADAPTERS)
    assert [s.evidence["block_hash"] for s in adapters] == [7, 9]
    assert all(s.evidence["request_ids"] == ["a", "b", "c"] and s.signature["adapters"] == ["BASE", "lora_a"]
               for s in adapters)


# -- generated streams ---------------------------------------------------------------


def kv_event(ts, kind, block, owner, adapter, block_hash):
    return KvEvent(ts, kind, block, block_hash, owner, adapter)


streams = st.lists(
    st.builds(
        kv_event,
        ts=st.integers(0, 50),
        kind=st.sampled_from(KV_EVENT_KINDS),
        block=st.integers(0, 4),  # few blocks: allocs over live blocks, adoptions and unknown releases are common
        owner=st.sampled_from(("a", "b", "c")),
        adapter=st.sampled_from(ADAPTERS),
        block_hash=st.one_of(st.none(), st.integers(0, 3)),
    ),
    max_size=60,
)


@settings(max_examples=400, deadline=None)
@given(streams)
def test_ledger_matches_the_reference_pass(events):
    # The held blocks are walked on first read, from the stream as it stood
    # when the ledger was built, however the caller's list grew since.
    stream = list(events)
    ledger = KvLedger.of(map(KvRun.of, stream))
    stream.append(kv_event(99, "free", 0, "a", "BASE", None))
    assert ledger_fields(ledger) == reference_ledger(events)


# -- real executions ---------------------------------------------------------------


def test_real_reports_match_the_references():
    fixed = traces()
    checked = conflicts = 0
    for config in ENGINES.values():
        core = serve(config)
        endpoint = EngineEndpoint(EngineKind.SIMULATOR, handle=core)
        for trace in fixed:
            core.reset()
            report = execute(trace, endpoint)
            assert ledger_fields(report.kv_ledger) == reference_ledger(report.kv_events)
            expected = reference_forensics(report)
            assert structural_forensics(report) == expected
            checked += 1
            conflicts += any(s.kind is SuspicionKind.HASH_CONFLICT for s in expected)
    assert checked == len(ENGINES) * len(fixed) and conflicts  # F1's stale grabs give hash conflicts
