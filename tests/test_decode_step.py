"""A decode run is the composition it replaced, value for value.

``decode_run`` encodes each step's context digest and position once and
hashes the encodings ``stable_u64`` would build for each part tuple, but only
the ones the step reads: the runner-up only when the flip fires or a ladder
is kept, the top logprob only with a ladder.  The reference below is the full
composition spelled out through ``stable_u64``, one step at a time: the
scheduler-order flip, the candidate probes and top logprob of one step, and
the context digest advanced by the chosen token.  Token streams, logprob
ladders and every later context digest derive from these values.
"""

import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from tracefuzz.hashing import stable_u64
from tracefuzz.simulator.decode import decode_run


def reference_decode(digest, position, vocab_size, top_n, spread, near_tie_gap=None, flip=False):
    width = max(top_n, 2)
    candidates: list[int] = []
    probe = 0
    while len(candidates) < width:
        token = stable_u64("cand", digest, position, probe) % vocab_size
        probe += 1
        if token not in candidates:
            candidates.append(token)
    if flip and near_tie_gap is not None:
        candidates[0], candidates[1] = candidates[1], candidates[0]

    top = -(0.1 + 0.4 * (stable_u64("lp", digest, position) / float(1 << 64)))
    ladder: list[tuple[int, float]] = [(candidates[0], top)]
    for i, token in enumerate(candidates[1:], start=1):
        if near_tie_gap is not None:
            lp = top - near_tie_gap - spread * (i - 1)
        else:
            lp = top - spread * i
        ladder.append((token, lp))
    return candidates[0], tuple(ladder[:width])


def reference_step(digest, position, salt, vocab_size, width, spread, near_tie_gap):
    flip = False
    if near_tie_gap is not None and salt != 0:
        flip = stable_u64("flip", digest, position, salt) % 2 == 1
    token, ladder = reference_decode(digest, position, vocab_size, width, spread, near_tie_gap, flip)
    return token, ladder, stable_u64("ctx", digest, token)


def reference_run(digest, position, count, salt, vocab_size, spread, near_tie_gap, logprobs):
    """``count`` reference steps from ``position`` on, each keeping the top ``logprobs`` of its ladder."""
    width = max(logprobs or 0, 2)
    steps = []
    for position in range(position, position + count):
        token, ladder, digest = reference_step(digest, position, salt, vocab_size, width, spread, near_tie_gap)
        steps.append((token, ladder[:logprobs] if logprobs else None, digest))
    return steps


_rng = random.Random(12)
DIGESTS = [0, 1, 4095, 4096, 2**63, 2**64 - 1] + [_rng.randrange(2**64) for _ in range(4)]
STARTS = [0, 4080, 4090, 4095, 4096, 10_000]  # runs from 4080 on cross 4095/4096, where positions encode apart
SALTS = [0, 1, 4096, 2**61 + 3]
LOGPROBS = [None, 1, 2, 5, 9]


@pytest.mark.parametrize("vocab_size", [8, 1024])
@pytest.mark.parametrize("near_tie_gap", [None, 0.05])
def test_decode_step_equals_the_reference_composition(vocab_size, near_tie_gap):
    branches = Counter()  # (flip fired, ladder kept) -> steps, over steps that read a flip
    runs = 0
    for digest in DIGESTS:
        for start in STARTS:
            for salt in SALTS:
                for logprobs in LOGPROBS:
                    if (logprobs or 0) > vocab_size:
                        continue  # the engine refuses more logprobs than tokens
                    count = runs % 20 + 1
                    runs += 1
                    args = (digest, start, count, salt, vocab_size, 2.5, near_tie_gap, logprobs)
                    got = decode_run(*args)
                    assert got == reference_run(*args), args
                    if near_tie_gap is None:
                        # Without a tie gap the salt is never read.
                        assert got == decode_run(digest, start, count, 0, vocab_size, 2.5, None, logprobs)
                    elif salt:
                        before = [digest] + [step[2] for step in got[:-1]]
                        for position, prior in zip(range(start, start + count), before):
                            fired = stable_u64("flip", prior, position, salt) % 2 == 1
                            branches[fired, logprobs is not None] += 1
    # With a tie gap both branches of the flip are taken, with a ladder kept and without.
    expected = [] if near_tie_gap is None else [(False, False), (False, True), (True, False), (True, True)]
    assert sorted(branches) == expected


@settings(max_examples=300, deadline=None)
@given(
    digest=st.integers(0, 2**64 - 1),
    position=st.one_of(st.integers(4076, 4096), st.integers(0, 20_000)),
    count=st.integers(1, 20),
    salt=st.one_of(st.just(0), st.integers(1, 2**63)),
    vocab_size=st.sampled_from((8, 9, 1024)),
    spread=st.sampled_from((0.5, 2.5)),
    near_tie_gap=st.sampled_from((None, 0.05, 1.0)),
    logprobs=st.sampled_from((None, 0, 1, 2, 5, 9)),
)
def test_decode_run_is_the_reference_composition(digest, position, count, salt, vocab_size, spread,
                                                 near_tie_gap, logprobs):
    assume((logprobs or 0) <= vocab_size)
    args = (digest, position, count, salt, vocab_size, spread, near_tie_gap, logprobs)
    assert decode_run(*args) == reference_run(*args)


# (digest, position, salt, vocab_size, width, spread, near_tie_gap) -> (token, ladder, next digest)
FROZEN_STEPS = [
    ((0, 0, 0, 1024, 2, 2.5, None),
     (757, ((757, -0.3425679382293606), (470, -2.8425679382293607)), 9526998046158239884)),
    ((4096, 4095, 1, 1024, 5, 2.5, 0.05),
     (569, ((569, -0.41106373583361866), (632, -0.46106373583361865), (12, -2.9610637358336187),
            (464, -5.461063735833618), (442, -7.961063735833618)), 1420395255836196579)),
    ((2**64 - 1, 10_000, 4096, 8, 8, 2.5, 0.05),  # the flip fires
     (1, ((1, -0.36415475012492915), (7, -0.41415475012492914), (6, -2.914154750124929),
          (4, -5.414154750124929), (5, -7.914154750124929), (3, -10.41415475012493),
          (0, -12.91415475012493), (2, -15.41415475012493)), 3285089055035643050)),
    ((2**63, 4096, 2**61 + 3, 1024, 3, 2.5, 0.05),
     (718, ((718, -0.40920959601314444), (857, -0.4592095960131444), (907, -2.9592095960131446)),
      13608537118887608871)),
    ((1, 1, 7, 8, 4, 2.5, None),
     (3, ((3, -0.10359607669445121), (4, -2.6035960766944513), (7, -5.103596076694451),
          (1, -7.603596076694451)), 3296183495819972008)),
]


@pytest.mark.parametrize("args,expected", FROZEN_STEPS)
def test_decode_step_matches_recorded_values(args, expected):
    digest, position, salt, vocab_size, width, spread, near_tie_gap = args
    # A step keeping all ``width`` logprobs records the whole ladder.
    assert decode_run(digest, position, 1, salt, vocab_size, spread, near_tie_gap, width) == [expected]


# (digest, position, count, salt, vocab_size, spread, near_tie_gap, logprobs) -> steps of a run with no ladder
FROZEN_RUNS = [
    ((2**64 - 1, 4093, 4, 1, 8, 2.5, 0.05, None),  # the flip fires at 4094 and 4095 only
     [(5, None, 16281760176434708193), (6, None, 10028707349650353954), (5, None, 7577520841770437143),
      (2, None, 17687243954289026530)]),
    ((12345, 4094, 3, 3, 1024, 2.5, None, None),
     [(14, None, 1577741361613324893), (95, None, 1529996974115963330), (478, None, 6657613278365556355)]),
]


@pytest.mark.parametrize("args,expected", FROZEN_RUNS)
def test_decode_run_matches_recorded_runs(args, expected):
    assert decode_run(*args) == expected
