"""The decode memo in ``SimCore`` against direct decoding.

``DirectDecodeCore`` keeps the memo-free ``_decode_step``, steps every tick
and decodes every position through ``reference_step``, the full ``stable_u64``
composition of ``test_decode_step``, so the comparison covers the memo reads
of the memoized core's quiet stretches and its decode runs too.  The
random schedules of ``test_prompt_memo`` drive it and the memoized core
alike, three rounds on one core with a reset between them, so later rounds
read streams the earlier ones memoized.  Every round must leave the same KV
events, snapshots, outputs, logprob records, token stamps and statuses.  The
schedules reach near-tie salts with and without canonical decoding, engines
without a tie gap (where the salt keys as 0), logprobs of None, 1, 2 and
wider than the memo keeps, ``n > 1``, preemption with recompute under a new
salt and F1 stale grabs (contaminated digests).
"""

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from test_decode_step import reference_step
from test_prompt_memo import F1, PREEMPTION, STALE_GRAB, aborts, advances, finished, play
from tracefuzz.simulator.config import SimConfig
from tracefuzz.simulator.engine import DECODE_MEMO_LOGPROBS, DECODE_MEMO_POSITIONS, DECODE_MEMO_STREAMS, SimCore


class DirectDecodeCore(SimCore):
    """The core as it decoded before the memo: ``_decode_step`` is the memo-free version, each position
    decoded by the reference composition, and ``advance`` steps every tick, so no quiet stretch reads the memo."""

    def advance(self, clock_ms) -> None:
        self.step()

    def _decode_step(self, req) -> None:
        cfg = self.config
        width = max(req.logprobs or 0, 2)
        for c in range(req.n_completions):
            token, ladder, req.digests[c] = reference_step(req.digests[c], len(req.outputs[c]), req.salt,
                                                           cfg.vocab_size, width, cfg.logprob_spread, cfg.near_tie_gap)
            req.outputs[c].append(token)
            if req.logprobs:
                req.records[c].append(ladder[: req.logprobs])
            chain = req.chains[c]
            if not self._append_token(req, chain, token):
                return  # preempted mid-step; recomputation is deterministic
            # A recompute after a preemption re-decodes positions already stamped.
            if c == 0 and len(req.outputs[0]) > len(req.token_stamps):
                req.token_stamps.append(self.clock_ms)
        if all(len(out) >= req.max_tokens for out in req.outputs):
            self._finish(req, "completed", teardown=False)


class ProbedCore(SimCore):
    """The memoized core, counting the streams it read back from the memo."""

    def __init__(self, config):
        self.reached = Counter()
        self._admissions: Counter = Counter()
        super().__init__(config)

    def _stream_steps(self, req, c):
        steps = super()._stream_steps(req, c)
        if steps:
            self.reached["memo hit"] += 1
            if c:
                self.reached["hit on a later completion"] += 1
            if req.contaminated:
                self.reached["hit on a contaminated stream"] += 1
            if req.logprobs:
                self.reached["hit with logprobs"] += 1
        if c == 0:
            self._admissions[req.rid] += 1
            if self._admissions[req.rid] > 1:
                self.reached["recompute"] += 1
        return steps

    def reset(self) -> None:
        self._admissions = Counter()
        super().reset()


def config_for(kv_blocks: int, prefill_limit: int, f1: bool, near_tie: bool) -> SimConfig:
    return SimConfig(
        block_size_tokens=8,
        total_kv_blocks=kv_blocks,
        max_batch_tokens=64,
        chunked_prefill_limit=prefill_limit,
        near_tie_gap=0.05 if near_tie else None,
        seed=13,
        faults=F1 if f1 else (),
    )


def rounds(core: SimCore, schedule, canonical: bool) -> list:
    """Play the schedule three times on one core: the last two read what the first memoized."""
    played = []
    for mode in (canonical, canonical, not canonical):
        core.reset()
        core.canonical_decode = mode
        rids = play(core, schedule)
        played.append((rids, core.kv_events, core.snapshots, [finished(core, rid) for rid in rids]))
    return played


# test_prompt_memo's request plans, with every logprobs width the memo treats apart.
request_plans = st.tuples(
    st.integers(0, 1),  # prefix tag: equal tags share their leading blocks
    st.sampled_from((0, 8, 16, 24)),  # prefix length
    st.integers(0, 2),  # suffix tag: few, so whole prompts recur
    st.sampled_from((0, 5, 13, 24)),  # suffix length
    st.sampled_from(("BASE", "lora_a")),
    st.integers(1, 5),  # max_tokens
    st.integers(1, 3),  # n_completions
    st.sampled_from((None, 1, 2, 5, DECODE_MEMO_LOGPROBS + 1)),  # logprobs
)
submits = st.tuples(st.just("submit"), st.lists(request_plans, min_size=1, max_size=4))
schedules = st.lists(st.one_of(submits, aborts, advances), max_size=12)

# One prompt asked with every logprobs width: requests 0, 3 and 6 share a
# request seed (play seeds by index mod 3), so without a tie gap, or decoding
# canonically, their streams differ only in logprobs.
LOGPROB_WIDTHS = [("submit", [(0, 8, 0, 5, "BASE", 4, 2, logprobs)
                              for logprobs in (None, 5, DECODE_MEMO_LOGPROBS + 1, 1, 5, DECODE_MEMO_LOGPROBS + 1, 2)])]


@settings(max_examples=150, deadline=None)
@given(
    schedule=schedules,
    kv_blocks=st.sampled_from((10, 24, 64)),
    prefill_limit=st.sampled_from((12, 20, 64)),
    f1=st.booleans(),
    near_tie=st.booleans(),
    canonical=st.booleans(),
)
@example(schedule=STALE_GRAB, kv_blocks=10, prefill_limit=64, f1=True, near_tie=True, canonical=False)
@example(schedule=PREEMPTION, kv_blocks=10, prefill_limit=20, f1=False, near_tie=True, canonical=False)
@example(schedule=PREEMPTION, kv_blocks=10, prefill_limit=20, f1=True, near_tie=False, canonical=True)
@example(schedule=LOGPROB_WIDTHS, kv_blocks=64, prefill_limit=64, f1=False, near_tie=False, canonical=False)
@example(schedule=LOGPROB_WIDTHS, kv_blocks=64, prefill_limit=64, f1=False, near_tie=True, canonical=True)
def test_memoized_core_matches_direct_decoding(schedule, kv_blocks, prefill_limit, f1, near_tie, canonical):
    config = config_for(kv_blocks, prefill_limit, f1, near_tie)
    memoized, direct = SimCore(config), DirectDecodeCore(config)
    assert rounds(memoized, schedule, canonical) == rounds(direct, schedule, canonical)
    assert direct._decode_memo == {}


def test_every_override_names_a_simcore_method():
    # After a rename, an override would be dead code and DirectDecodeCore the memoized core itself.
    for core in (DirectDecodeCore, ProbedCore):
        overrides = [name for name, value in vars(core).items() if callable(value) and not name.startswith("__")]
        assert overrides and all(callable(getattr(SimCore, name, None)) for name in overrides), core


def test_the_examples_reach_every_path():
    grab = ProbedCore(config_for(10, 64, True, True))
    rounds(grab, STALE_GRAB, False)
    assert grab.reached["hit on a contaminated stream"] and grab.reached["hit on a later completion"]
    assert grab.reached["hit with logprobs"]
    preempt = ProbedCore(config_for(10, 20, False, True))
    rounds(preempt, PREEMPTION, False)
    assert preempt.reached["recompute"] and preempt.reached["memo hit"]


def test_memo_stays_within_its_bounds():
    config = SimConfig(seed=2, near_tie_gap=0.05)
    memoized, direct = ProbedCore(config), DirectDecodeCore(config)
    long_tokens = DECODE_MEMO_POSITIONS + 10
    streams = DECODE_MEMO_STREAMS + 20
    for core in (memoized, direct):
        # The second round reads the long stream's kept positions back and decodes the rest.
        for _ in range(2):
            core.reset()
            core.submit("long", [1, 2, 3], "BASE", long_tokens, 1, 0, 2, 0)
            core.submit("wide", [1, 2, 3], "BASE", 4, 1, 0, DECODE_MEMO_LOGPROBS + 1, 0)
            core.advance_to(long_tokens + 10)
        for rid in ("long", "wide"):
            assert core.requests[rid].status == "completed"
    assert memoized.reached["memo hit"] == 1
    for rid in ("long", "wide"):
        assert finished(memoized, rid) == finished(direct, rid)
    assert len(memoized.requests["long"].outputs[0]) == long_tokens
    assert [len(steps) for steps in memoized._decode_memo.values()] == [DECODE_MEMO_POSITIONS]

    for core in (memoized, direct):
        core.reset()
        for i in range(streams):  # one stream each, more than the memo keeps
            core.submit(f"r{i}", [4, 5, 6], "BASE", 1, 1, i + 1, None, 0)
        core.advance_to(10)
    assert len(memoized._decode_memo) == DECODE_MEMO_STREAMS
    assert all(len(steps) <= DECODE_MEMO_POSITIONS for steps in memoized._decode_memo.values())
    assert [finished(memoized, f"r{i}") for i in range(streams)] == [finished(direct, f"r{i}") for i in range(streams)]
