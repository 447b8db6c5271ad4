"""Prompt synthesis, block hashes and prompt digests against their ``stable_u64`` definitions.

Each is computed from one encoding of the prompt (or, for synthesis, of a
shared head) hashed through ``u64``; the references below spell every value
out as the ``stable_u64`` call it stands for.  The strategies reach tokens and
positions past the int table, vocabularies above it, suffixes longer than
it, non-ASCII adapter names, block sizes from 1 to 32 and, for the block
hashes, tokens that are no exact int, whose encodings differ in length.
"""

from hypothesis import assume, example, given, settings, strategies as st

from tracefuzz.hashing import stable_u64
from tracefuzz.simulator.engine import _PromptMemo, chained_hashes
from tracefuzz.trace import PromptShape, synthesize_prompt

TABLE = 4096  # ints below this encode from stable_u64's table

adapters = st.one_of(st.sampled_from(["BASE", "lora_a", "lora-é", "适配器☃"]), st.text(max_size=6))
ints = st.one_of(
    st.integers(0, 2 * TABLE),
    st.integers(TABLE - 2, TABLE + 2),
    st.integers(-(2**63), 2**64 - 1),
)
tokens = st.one_of(ints, st.sampled_from([True, False, None, 1.5, "tok", b"\xff"]))
prompts = st.one_of(
    st.lists(ints, max_size=200),
    st.lists(tokens, max_size=80),
).map(tuple)
# Longer than the int table: tokens spread over both sides of it from a drawn start.
long_prompts = st.builds(
    lambda start, length: tuple((start + i * 104729) % (2 * TABLE + 5) for i in range(length)),
    st.integers(0, 2**20),
    st.integers(TABLE + 1, TABLE + 100),
)
prompts = st.one_of(prompts, long_prompts)
block_sizes = st.integers(1, 32)


def reference_chain(chain_hash, adapter, block_size, prompt, pos, count):
    hashes = []
    for start in range(pos, pos + count * block_size, block_size):
        chain_hash = stable_u64("blk", chain_hash, adapter, *prompt[start : start + block_size])
        hashes.append(chain_hash)
    return hashes


@settings(max_examples=60, deadline=None)
@given(
    prefix_len=st.integers(0, 16),
    suffix_len=st.one_of(st.integers(0, 40), st.integers(TABLE - 3, TABLE + 40)),
    identity=st.text(max_size=8),
    corpus_seed=st.one_of(st.integers(0, 3), st.integers(-(2**63), 2**64 - 1)),
    vocab_size=st.one_of(st.integers(2, 1024), st.integers(TABLE + 1, 2**40)),
)
@example(prefix_len=16, suffix_len=TABLE + 10, identity="filler", corpus_seed=0, vocab_size=1024)
def test_synthesize_prompt_is_its_stable_u64_definition(prefix_len, suffix_len, identity, corpus_seed, vocab_size):
    assume(prefix_len + suffix_len >= 1)
    shape = PromptShape(prefix_len, prefix_len + suffix_len)
    head = (corpus_seed, "suffix", identity, shape.prefix_len, shape.prompt_len)
    expected = [stable_u64(corpus_seed, "prefix", i) % vocab_size for i in range(prefix_len)]
    expected += [stable_u64(*head, i) % vocab_size for i in range(suffix_len)]
    assert synthesize_prompt.__wrapped__(shape, identity, corpus_seed, vocab_size) == tuple(expected)


@settings(max_examples=150, deadline=None)
@given(adapter=adapters, block_size=block_sizes, prompt=prompts)
@example(adapter="lora-é", block_size=16, prompt=tuple(range(TABLE - 40, TABLE + 40)))
@example(adapter="BASE", block_size=3, prompt=(1, True, 2, "x", 3, 4, None, 5))
def test_prompt_block_hashes_are_their_stable_u64_definition(adapter, block_size, prompt):
    count = len(prompt) // block_size
    expected = tuple(reference_chain(0, adapter, block_size, prompt, 0, count))
    assert _PromptMemo(prompt).block_hashes(adapter, block_size) == expected


@settings(max_examples=150, deadline=None)
@given(
    chain_hash=st.integers(0, 2**64 - 1),
    adapter=adapters,
    block_size=block_sizes,
    prompt=prompts,
    data=st.data(),
)
def test_chained_hashes_are_their_stable_u64_definition(chain_hash, adapter, block_size, prompt, data):
    full = len(prompt) // block_size
    pos = data.draw(st.integers(0, full)) * block_size
    count = data.draw(st.integers(0, full - pos // block_size))
    expected = reference_chain(chain_hash, adapter, block_size, prompt, pos, count)
    assert list(chained_hashes(chain_hash, adapter, block_size, prompt, pos, count)) == expected


@settings(max_examples=100, deadline=None)
@given(digest=st.integers(0, 2**64 - 1), prompt=prompts)
def test_prompt_digest_is_its_stable_u64_definition(digest, prompt):
    assert _PromptMemo(prompt).digest(digest) == stable_u64("prompt", digest, *prompt)
