"""Pseudo-LLM decode: seeded hash of the rolling context digest.

Any change to the context (a contaminated KV block, a different adapter, a
different seed) avalanches into every subsequent token, which is what lets
relational checks attribute divergence to serving state rather than decoding.
"""

from __future__ import annotations

from ..hashing import stable_u64, stable_unit


def init_digest(sim_seed: int, request_seed: int, adapter: str, completion_index: int) -> int:
    return stable_u64("stream", sim_seed, request_seed, adapter, completion_index)


def pseudo_decode(
    digest: int,
    position: int,
    vocab_size: int,
    top_n: int,
    spread: float,
    near_tie_gap: float | None = None,
    flip: bool = False,
):
    """One decode step: returns (token, ((token, logprob), ...)).

    The synthetic distribution is deterministic and its argmax is always the
    returned token.  With near_tie_gap set the runner-up sits within that gap;
    flip swaps the top two, modelling benign scheduler-order nondeterminism.
    """
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

    top = -(0.1 + 0.4 * stable_unit("lp", digest, position))
    ladder: list[tuple[int, float]] = [(candidates[0], top)]
    for i, token in enumerate(candidates[1:], start=1):
        if near_tie_gap is not None:
            lp = top - near_tie_gap - spread * (i - 1)
        else:
            lp = top - spread * i
        ladder.append((token, lp))
    return candidates[0], tuple(ladder[:width])
