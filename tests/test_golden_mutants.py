"""Golden mutants: the exact bytes the mutation operators produce.

A fixed grid of parents (two bootstrap seeds of each default profile, a
first-generation mutant of each, and four edge traces), mutation seeds,
partners and telemetry reaches every operator: jitter and collapse, each event insertion, deletion
and modification, the splice, and the directed splice both on its windows
and on its undirected fallback.  One sha256 covers every mutant's
serialized trace.  A change to how mutants are built must leave these bytes
unchanged; an intended change to what an operator does re-records the digest.
"""

import hashlib

from tracefuzz.campaign import DEFAULT_PROFILES
from tracefuzz.mutation import MutationKind, generate_seed, mutate
from tracefuzz.telemetry import PressureScore
from tracefuzz.trace import PromptShape, RequestSpec, TimedTrace, TraceEvent, serialize

# Windows that put a warm phase inside and after a pressure burst, and no telemetry at all.
TELEMETRY = (
    PressureScore(8, 2, 300, 3, peak_alloc_window=(0, 1000), peak_inflight_window=(0, 1000)),
    PressureScore(4, 1, 900, 2, peak_alloc_window=(1000, 2000), peak_inflight_window=(0, 1000)),
    None,
)
SEEDS = range(32)

EXPECTED = (2560, "5fe0b0ffc9ea5133d6268e8579e7b2dd4f8439bed8f261c6c838dc3606fa0741")


def edge_traces():
    """The edges of the event operators: no events, no Send, one Send alone and one Send with a Wait."""
    send = TraceEvent.send(0, RequestSpec("r0", PromptShape(0, 8)))
    wait = TraceEvent.wait(3, 5)
    return [TimedTrace("t~empty", ()), TimedTrace("t~wait", (wait,)), TimedTrace("t~send", (send,)),
            TimedTrace("t~send-wait", (send, wait))]


def grid():
    """(parent, rng_seed, partner, telemetry, partner_telemetry) for every golden mutant, in order."""
    parents = [generate_seed(profile, rng_seed) for profile in DEFAULT_PROFILES for rng_seed in (1, 2)]
    parents += [mutate(parent, 100 + i, partner=parents[i - 1]) for i, parent in enumerate(parents)]
    parents += edge_traces()
    for i, parent in enumerate(parents):
        partner = parents[(i + 3) % len(parents)]
        for rng_seed in SEEDS:
            telemetry = TELEMETRY[rng_seed % 3]
            partner_telemetry = TELEMETRY[(rng_seed // 3) % 3]
            yield parent, rng_seed, None, telemetry, None
            yield parent, rng_seed, partner, telemetry, partner_telemetry
            yield parent, rng_seed ^ 0x9E3779B9, partner, partner_telemetry, telemetry
            yield partner, rng_seed, parent, partner_telemetry, telemetry


def test_mutants_are_frozen():
    digest = hashlib.sha256()
    count = 0
    ops = set()
    for parent, rng_seed, partner, telemetry, partner_telemetry in grid():
        child = mutate(parent, rng_seed, partner=partner, telemetry=telemetry, partner_telemetry=partner_telemetry)
        digest.update(serialize(child))
        count += 1
        lineage = child.metadata["lineage"]
        ops.add(lineage["op"] + ("/fallback" if "fallback" in lineage else ""))
    assert ops == {kind.value for kind in MutationKind} | {MutationKind.DIRECTED_SPLICE.value + "/fallback"}
    assert (count, digest.hexdigest()) == EXPECTED
