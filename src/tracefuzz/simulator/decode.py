"""Pseudo-LLM decode: seeded hash of the rolling context digest.

Any change to the context (a contaminated KV block, a different adapter, a
different seed) avalanches into every subsequent token, which is what lets
relational checks attribute divergence to serving state rather than decoding.
"""

from __future__ import annotations

from ..hashing import encode, encode_int, stable_u64, u64

_CAND, _LP, _FLIP, _CTX = map(encode, ("cand", "lp", "flip", "ctx"))
_PROBE_0 = encode_int(0)


def init_digest(sim_seed: int, request_seed: int, adapter: str, completion_index: int) -> int:
    return stable_u64("stream", sim_seed, request_seed, adapter, completion_index)


def decode_run(digest: int, position: int, count: int, salt: int, vocab_size: int, spread: float,
               near_tie_gap: float | None, logprobs: int | None) -> list[tuple[int, tuple | None, int]]:
    """``count`` decode steps of one completion from ``position`` on, each (token, record, next digest).

    Each hash is ``stable_u64(tag, digest, *rest)``, with the step's digest
    and position encoded once.  The distinct "cand" residues of rest
    (position, probe) are the candidates, the first the token and argmax, and
    "ctx" (token) gives the next digest.  With near_tie_gap set, an odd "flip"
    (position, salt) of a non-zero salt swaps the top two, modelling benign
    scheduler-order nondeterminism.  A truthy ``logprobs`` keeps a record of
    the top ``logprobs`` candidates: "lp" (position) sets the top logprob,
    the runner-up sits within near_tie_gap of it when set, and each later one
    ``spread`` below the one before; otherwise the record is None.

    A step hashes only what it reads: probe 0 and "ctx" always; "flip" only
    with a tie gap and a non-zero salt; further probes only when the flip
    fires or a record is kept; and "lp" only with a record.
    """
    flip_code = encode_int(salt) if near_tie_gap is not None and salt != 0 else None
    steps = []
    for position in range(position, position + count):
        head = encode_int(digest)
        at = head + encode_int(position)
        token = u64(_CAND + at + _PROBE_0) % vocab_size
        flip = flip_code is not None and u64(_FLIP + at + flip_code) % 2 == 1
        record = None
        if flip or logprobs:
            candidates = [token]
            probe = 1
            width = max(logprobs or 1, 2 if flip else 1)
            while len(candidates) < width:
                token = u64(_CAND + at + encode_int(probe)) % vocab_size
                probe += 1
                if token not in candidates:
                    candidates.append(token)
            if flip:
                candidates[0], candidates[1] = candidates[1], candidates[0]
            token = candidates[0]
            if logprobs:
                top = -(0.1 + 0.4 * (u64(_LP + at) / float(1 << 64)))
                ladder = [(token, top)]
                for i, runner in enumerate(candidates[1:logprobs], start=1):
                    if near_tie_gap is not None:
                        lp = top - near_tie_gap - spread * (i - 1)
                    else:
                        lp = top - spread * i
                    ladder.append((runner, lp))
                record = tuple(ladder)
        digest = u64(_CTX + head + encode_int(token))
        steps.append((token, record, digest))
    return steps
