"""Pseudo-LLM decode: seeded hash of the rolling context digest.

Any change to the context (a contaminated KV block, a different adapter, a
different seed) avalanches into every subsequent token, which is what lets
relational checks attribute divergence to serving state rather than decoding.
"""

from __future__ import annotations

from ..hashing import encode, encode_int, stable_u64, u64

_CAND, _LP, _FLIP, _CTX = map(encode, ("cand", "lp", "flip", "ctx"))


def init_digest(sim_seed: int, request_seed: int, adapter: str, completion_index: int) -> int:
    return stable_u64("stream", sim_seed, request_seed, adapter, completion_index)


def decode_step(digest: int, position: int, salt: int, vocab_size: int, width: int,
                spread: float, near_tie_gap: float | None) -> tuple[int, tuple, int]:
    """One decode step of one completion: (token, ((token, logprob), ...), next digest).

    Each hash is ``stable_u64(tag, digest, *rest)``, with the digest and position
    encoded once.  The distinct "cand" residues of rest (position, probe) are the
    candidates, the first the token and argmax; "lp" (position) sets its logprob
    and "ctx" (token) gives the next digest.  With near_tie_gap set the runner-up
    sits within that gap, and an odd "flip" (position, salt) of a non-zero salt
    swaps the top two, modelling benign scheduler-order nondeterminism.
    """
    head = encode_int(digest)
    at = head + encode_int(position)
    candidates: list[int] = []
    probe = 0
    while len(candidates) < width:
        token = u64(_CAND + at + encode_int(probe)) % vocab_size
        probe += 1
        if token not in candidates:
            candidates.append(token)
    if near_tie_gap is not None and salt != 0 and u64(_FLIP + at + encode_int(salt)) % 2 == 1:
        candidates[0], candidates[1] = candidates[1], candidates[0]

    top = -(0.1 + 0.4 * (u64(_LP + at) / float(1 << 64)))
    ladder = [(candidates[0], top)]
    for i, token in enumerate(candidates[1:], start=1):
        if near_tie_gap is not None:
            lp = top - near_tie_gap - spread * (i - 1)
        else:
            lp = top - spread * i
        ladder.append((token, lp))
    return candidates[0], tuple(ladder), u64(_CTX + head + encode_int(candidates[0]))
