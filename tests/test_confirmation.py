"""Relational confirmation oracle, checked against an independent
brute-force transcription.

The reference implementation below was written and frozen before the
production module; it states the decision procedure directly with no
shared helpers, so any drift between the two is a real disagreement.
"""

import math
from itertools import product

import pytest

from tracefuzz.confirmation import (
    ConfirmationConfig,
    InstrumentationGapError,
    RelationalVerdict,
    Verdict,
    confirm_relational,
    first_difference,
    majority_confirm,
    majority_threshold,
    pin_trace,
    solo_probe_trace,
)
from tracefuzz.trace import PromptShape, RequestSpec, SamplingConfig, TimedTrace, TraceEvent

ALPHABET = (0, 1, 2, 3)
DELTAS = (-0.2, 0.0, 0.04, 0.06, 0.3, 1.0)


# -- frozen reference -------------------------------------------------------


def reference_verdict(original, replay, ladders, top_n, epsilon):
    """Brute-force transcription of the staged divergence judgement.

    Returns ("pass"), ("false-positive", delta), ("true-positive",
    in_top_n) or raises InstrumentationGapError, mirroring only the
    published decision rule: find the first differing position, look the
    two tokens up in the replay's top-N ladder there, dismiss when the
    original's token sits within epsilon of the replay's choice.
    """
    p = None
    for i in range(min(len(original), len(replay))):
        if original[i] != replay[i]:
            p = i
            break
    if p is None and len(original) != len(replay):
        p = min(len(original), len(replay))
    if p is None:
        return ("pass",)
    if p == len(original):
        return ("pass",)
    if p >= len(replay) or ladders is None or p >= len(ladders):
        raise InstrumentationGapError("replay does not cover the divergence")

    ranked = sorted(ladders[p], key=lambda pair: -pair[1])[:top_n]
    top = dict(ranked)
    if replay[p] not in top:
        raise InstrumentationGapError("ladder omits the replay token")
    if original[p] not in top:
        return ("true-positive", False)
    delta = top[replay[p]] - top[original[p]]
    if delta < epsilon:
        return ("false-positive", delta)
    return ("true-positive", True)


def outcome_of(original, replay, ladders, top_n, epsilon):
    try:
        v = confirm_relational(original, replay, ladders, top_n=top_n, epsilon=epsilon)
    except InstrumentationGapError:
        return ("gap",)
    if v.verdict is Verdict.PASS:
        return ("pass",)
    if v.verdict is Verdict.FALSE_POSITIVE:
        return ("false-positive", v.delta)
    return ("true-positive", v.in_top_n)


def reference_outcome(original, replay, ladders, top_n, epsilon):
    try:
        return reference_verdict(original, replay, ladders, top_n, epsilon)
    except InstrumentationGapError:
        return ("gap",)


def synth_ladders(replay):
    """Full-width ladders: the replay token at 0.0, rivals offset by a
    deterministic spread of deltas (including ties and sign flips)."""
    ladders = []
    for i, token in enumerate(replay):
        row = [(token, 0.0)]
        for t in ALPHABET:
            if t != token:
                row.append((t, -DELTAS[(i * 7 + t * 3) % len(DELTAS)]))
        ladders.append(tuple(row))
    return tuple(ladders)


# -- hand-computed cases, frozen --------------------------------------------

FROZEN_CASES = [
    # identical -> pass, no position
    ((1, 2, 3), (1, 2, 3), None, 2, 0.1, ("pass",)),
    ((), (), None, 1, 0.0, ("pass",)),
    # original is a strict prefix -> truncation, pass
    ((), (1,), None, 1, 0.1, ("pass",)),
    ((1,), (1, 2), None, 2, 0.1, ("pass",)),
    # divergence with the original token close behind -> dismissed
    ((2,), (1,), (((1, -0.1), (2, -0.16)),), 2, 0.1, ("false-positive", 0.06)),
    # same ladder, tighter epsilon -> sustained
    ((2,), (1,), (((1, -0.1), (2, -0.16)),), 2, 0.05, ("true-positive", True)),
    # original token missing from the ladder entirely
    ((3,), (1,), (((1, -0.1), (2, -0.2)),), 2, 0.5, ("true-positive", False)),
    # original token recorded but pushed out of the top-N window
    ((2,), (1,), (((1, -0.1), (3, -0.12), (2, -0.9)),), 2, 0.5, ("true-positive", False)),
    # exact tie dismisses only under a positive epsilon (strict <)
    ((2,), (1,), (((1, -0.1), (2, -0.1)),), 2, 0.0, ("true-positive", True)),
    ((2,), (1,), (((1, -0.1), (2, -0.1)),), 2, 0.05, ("false-positive", 0.0)),
    # original outranks the replay: negative delta dismisses at any epsilon
    ((2,), (1,), (((1, -0.3), (2, -0.1)),), 2, 0.0, ("false-positive", -0.2)),
    # replay ends before the divergence -> instrumentation gap
    ((1, 2), (1,), (((1, 0.0),),), 1, 0.1, ("gap",)),
    # ladder missing at the divergence position -> instrumentation gap
    ((2,), (1,), None, 1, 0.1, ("gap",)),
    # ladder omits the replay's own token -> instrumentation gap
    ((2,), (1,), (((2, -0.1), (3, -0.2)),), 2, 0.1, ("gap",)),
]


@pytest.mark.parametrize("original,replay,ladders,top_n,epsilon,expected", FROZEN_CASES)
def test_frozen_cases(original, replay, ladders, top_n, epsilon, expected):
    got = outcome_of(original, replay, ladders, top_n, epsilon)
    if expected[0] == "false-positive":
        assert got[0] == "false-positive"
        assert got[1] == pytest.approx(expected[1], abs=1e-12)
    else:
        assert got == expected
    assert reference_outcome(original, replay, ladders, top_n, epsilon)[0] == expected[0]


def test_first_difference():
    assert first_difference((1, 2), (1, 2)) is None
    assert first_difference((1, 2), (1, 3)) == 1
    assert first_difference((), ()) is None
    assert first_difference((1,), ()) == 0
    assert first_difference((), (1,)) == 0
    assert first_difference((1, 2, 3), (1, 2)) == 2


def test_exhaustive_agreement_small_domain():
    """Sampled slice of the acceptance enumeration: every short pair over a
    two-symbol alphabet, all N and epsilon, implementations agree."""
    seqs = [tuple(s) for n in range(3) for s in product((0, 1), repeat=n)]
    for original, replay in product(seqs, repeat=2):
        ladders = synth_ladders(replay)
        for top_n, epsilon in product((1, 2, 3), (0.0, 0.05, 0.5)):
            got = outcome_of(original, replay, ladders, top_n, epsilon)
            want = reference_outcome(original, replay, ladders, top_n, epsilon)
            assert got[0] == want[0], (original, replay, top_n, epsilon, got, want)


# -- majority rule -----------------------------------------------------------


def test_majority_threshold_table():
    expected = {1: 1, 2: 2, 3: 2, 4: 3, 5: 4, 6: 4, 7: 5, 8: 6, 9: 6, 10: 7, 11: 8, 12: 8}
    for k, want in expected.items():
        assert majority_threshold(k) == want
        assert majority_threshold(k) == math.ceil(2 * k / 3)


def test_majority_confirm_boundaries():
    for k in range(1, 13):
        need = majority_threshold(k)
        assert majority_confirm([True] * need + [False] * (k - need), k)
        if need > 0:
            assert not majority_confirm([True] * (need - 1) + [False] * (k - need + 1), k)


def test_majority_confirm_rejects_wrong_count():
    with pytest.raises(ValueError):
        majority_confirm([True, True], 3)
    with pytest.raises(ValueError):
        majority_threshold(0)


def test_relational_aggregate_accepts_only_known_rules():
    assert ConfirmationConfig(relational_aggregate="majority").relational_aggregate == "majority"
    with pytest.raises(ValueError, match="relational_aggregate"):
        ConfirmationConfig(relational_aggregate="majoritty")


# -- replay pinning ----------------------------------------------------------


def _send(rid, off, temperature=0.7, seed=None, logprobs=None):
    return TraceEvent.send(
        off,
        RequestSpec(
            request_id=rid,
            shape=PromptShape(0, 16),
            sampling=SamplingConfig(
                max_tokens=4, temperature=temperature, seed=seed, logprobs=logprobs
            ),
            prompt_family_id=f"fam-{rid}",
        ),
    )


def test_pin_trace_forces_determinism_knobs():
    trace = TimedTrace(
        trace_id="t~pin",
        events=(
            _send("a", 0, temperature=0.9, seed=None, logprobs=None),
            _send("b", 5, temperature=0.0, seed=7, logprobs=2),
            TraceEvent.wait(9, 3),
        ),
    )
    pinned = pin_trace(trace, top_n=5)
    sends = [e for e in pinned.events if e.spec is not None]
    assert sends[0].spec.sampling.temperature == 0.0
    assert sends[0].spec.sampling.seed == 0
    assert sends[0].spec.sampling.logprobs == 5
    # an explicit seed survives, logprobs only widen
    assert sends[1].spec.sampling.seed == 7
    assert sends[1].spec.sampling.logprobs == 5
    assert pinned.events[2].kind.value == "Wait"


def test_solo_probe_trace_isolates_one_request():
    spec = RequestSpec(
        request_id="victim",
        shape=PromptShape(16, 48),
        sampling=SamplingConfig(max_tokens=4, temperature=0.5),
        prompt_family_id="fam-victim",
    )
    solo = solo_probe_trace(spec, top_n=3)
    assert len(solo.events) == 1
    only = solo.events[0]
    assert only.offset_ms == 0
    assert only.spec.request_id == "victim"
    assert only.spec.sampling.temperature == 0.0
    assert only.spec.sampling.logprobs >= 3
