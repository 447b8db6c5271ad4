"""The decode step is the composition it replaced, value for value.

``decode_step`` encodes the context digest and position once per step and
hashes the encodings ``stable_u64`` would build for each part tuple.  The
reference below is that composition spelled out through ``stable_u64``: the
scheduler-order flip, the candidate probes and top logprob of one step, and
the context digest advanced by the chosen token.  Token streams, logprob
ladders and every later context digest derive from these values.
"""

import random

import pytest

from tracefuzz.hashing import stable_u64
from tracefuzz.simulator.decode import decode_step


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


_rng = random.Random(12)
DIGESTS = [0, 1, 4095, 4096, 2**63, 2**64 - 1] + [_rng.randrange(2**64) for _ in range(4)]
POSITIONS = [0, 4095, 4096, 10_000]
SALTS = [0, 1, 4096, 2**61 + 3]


@pytest.mark.parametrize("vocab_size", [8, 1024])
@pytest.mark.parametrize("near_tie_gap", [None, 0.05])
def test_decode_step_equals_the_reference_composition(vocab_size, near_tie_gap):
    flips = 0
    for digest in DIGESTS:
        for position in POSITIONS:
            for salt in SALTS:
                for width in range(2, 9):
                    args = (digest, position, salt, vocab_size, width, 2.5, near_tie_gap)
                    got = decode_step(*args)
                    assert got == reference_step(*args), args
                    flips += got[1] != reference_step(digest, position, 0, vocab_size, width, 2.5, near_tie_gap)[1]
    # The grid reaches the swap whenever it can: only near-tie engines flip.
    assert (flips > 0) == (near_tie_gap is not None)


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
    assert decode_step(*args) == expected
