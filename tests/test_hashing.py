"""Frozen determinism: stable_u64 and prompt synthesis reproduce recorded values.

Prompts, block hashes and token streams all derive from stable_u64, so its
outputs are a compatibility contract.  The tables below were recorded with
the original per-part encoder; any change to the encoding shows up here.
"""

import hashlib
import random
import struct
from enum import IntEnum

import pytest

from tracefuzz import hashing
from tracefuzz.hashing import encode_ints, encode_parts, stable_u64, stable_u64_positions
from tracefuzz.trace import (
    PROMPT_CACHE_SIZE,
    EventKind,
    PromptShape,
    RequestSpec,
    prompt_for,
    synthesize_prompt,
)


class Level(IntEnum):
    LOW = 3


N = hashing._INT_TABLE_SIZE

FROZEN_U64 = [
    ((), 13020603013274838756),
    ((True,), 16436002439166856557),
    ((False,), 3968926802081979381),
    ((0,), 181383770476416324),
    ((4095,), 4026644202951324963),  # last int-table entry
    ((4096,), 3575809052523462132),  # first int past the table
    ((-1,), 348464362955386299),
    ((-(2**63),), 17562539706039596979),
    ((2**64 - 1,), 5195410916768687605),
    (("héllo ☃",), 10259751435332003563),
    (("",), 6077324852010204411),
    ((b"\x00\xffbytes",), 13629785099200489951),
    ((b"",), 3216400274392579565),
    ((1.5,), 4958115732826883985),
    ((-0.0,), 1383266027404672567),
    ((None,), 15188166561376754433),
    ((EventKind.SEND,), 13635438922117452661),
    ((Level.LOW,), 16874276285473560729),
    ((1, True), 7864858511454467585),
    ((True, 1), 15492082624339042843),
    (("ab", "c"), 16220137787863368047),
    (("a", "bc"), 3515818769621911708),
    (("blk", 0, "BASE", 1, 2, 3, 1023), 3739420461193537945),
    (("blk", 18446744073709551557, "lora-a", 4095, 4096, 0), 15177233724962656482),
    (("prompt", 7, *range(0, 4200, 97)), 11902256716759181500),
    ((EventKind.SEND, "Send", Level.LOW, 3, None, 2.25, b"x"), 8980974726645170103),
    ((2**63,), 14877373310715713551),
    ((-(2**64),), 10631687016883225945),
    ((2**135 - 1,), 2620758863731673681),  # largest int a 17-byte body holds
    ((-(2**135),), 8429918049350626402),  # smallest
    ((-4097,), 10866750708287682892),
    (("ctx", 2**64 - 59, 4095), 825814962382504729),
    (("blk", 2**64 - 1, "lora_a", 0, -5), 18093395112394711428),
    (("", "é", ""), 16174708364638929175),
]


@pytest.mark.parametrize("parts,expected", FROZEN_U64)
def test_stable_u64_matches_recorded_values(parts, expected):
    assert stable_u64(*parts) == expected


def _reference_u64(*parts) -> int:
    """The original encoder: three blake2b updates per part."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, bool):
            body, tag = (b"\x01" if part else b"\x00"), b"b"
        elif isinstance(part, int):
            body, tag = part.to_bytes(17, "little", signed=True), b"i"
        elif isinstance(part, str):
            body, tag = part.encode("utf-8"), b"s"
        elif isinstance(part, bytes):
            body, tag = part, b"y"
        elif isinstance(part, float):
            body, tag = struct.pack("<d", part), b"f"
        else:
            body, tag = b"", b"n"
        h.update(tag)
        h.update(struct.pack("<I", len(body)))
        h.update(body)
    return int.from_bytes(h.digest(), "little")


def _random_part(rng: random.Random):
    pick = rng.randrange(10)
    if pick < 4:
        return rng.randrange(N + 8)  # mostly table hits, some just past it
    if pick == 4:
        return rng.choice([True, False, Level.LOW, EventKind.CANCEL, None])
    if pick == 5:
        return rng.randrange(-(2**63), 2**64)
    if pick == 6:
        return "".join(rng.choice("ab☃é") for _ in range(rng.randrange(5)))
    if pick == 7:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(5)))
    if pick == 8:
        return rng.uniform(-1e6, 1e6)
    return -rng.randrange(1, 1000)


def test_stable_u64_agrees_with_the_reference_encoder():
    for edge in (0, N - 1, N, -1):
        assert stable_u64(edge) == _reference_u64(edge)
    rng = random.Random(2024)
    for _ in range(3000):
        parts = tuple(_random_part(rng) for _ in range(rng.randrange(8)))
        assert stable_u64(*parts) == _reference_u64(*parts), parts


def test_shared_head_hashes_equal_stable_u64():
    rng = random.Random(2025)
    for _ in range(3000):
        head = tuple(_random_part(rng) for _ in range(rng.randrange(6)))
        count, modulus = rng.randrange(6), rng.choice([2, 1024, 5000, 2**64 + 13])
        expected = [stable_u64(*head, i) % modulus for i in range(count)]
        assert stable_u64_positions(head, count, modulus) == expected, (head, count, modulus)
    # Positions past the int table take the other encoding.
    head = ("suffix", 2**70, True, "héllo ☃", None)
    got = stable_u64_positions(head, N + 3, 2**64)
    assert got[N - 2 :] == [stable_u64(*head, i) for i in range(N - 2, N + 3)]
    assert stable_u64_positions((), 3, 7) == [stable_u64(j) % 7 for j in range(3)]
    assert stable_u64_positions(head, 0, 7) == []


def test_encode_ints_takes_only_int_parts():
    ints = (0, N - 1, N, -1, 2**100, Level.LOW)
    assert encode_ints(ints) == encode_parts(ints)
    assert len(encode_ints(ints)) == hashing.INT_WIDTH * len(ints)
    assert encode_ints(()) == b""
    # A 17-byte string body encodes to INT_WIDTH bytes too; only the tags tell it from an int.
    for parts in (("x" * 17,), (1, True), (1, 2, None), (b"y" * 17, 3)):
        assert encode_ints(parts) is None, parts
    rng = random.Random(2026)
    for _ in range(500):
        parts = tuple(_random_part(rng) for _ in range(rng.randrange(6)))
        assert hashing.u64(encode_parts(parts)) == stable_u64(*parts), parts


@pytest.mark.parametrize("too_big", [2**135, -(2**135) - 1, 2**200])
def test_ints_past_17_bytes_still_overflow(too_big):
    with pytest.raises(OverflowError):
        stable_u64("blk", too_big)


def test_stable_u64_rejects_unknown_part_types():
    with pytest.raises(TypeError):
        stable_u64(1, [2])


FROZEN_PROMPTS = [
    # prefix_len, prompt_len, identity, corpus_seed, vocab_size, sha256 prefix
    (0, 1, "a", 0, 1024, "339d9d13edbaa267"),
    (8, 24, "fam-r", 0, 1024, "9e60de1429fe4769"),
    (32, 64, "fam-a", 7, 512, "0941b91815d8c00e"),
    (0, 4096, "filler", 0, 1024, "c92259bf671c83d7"),
    (4090, 4200, "edge", 3, 1024, "343e403b0ff5d06f"),
]


@pytest.mark.parametrize("prefix,length,identity,seed,vocab,expected", FROZEN_PROMPTS)
def test_synthesize_prompt_matches_recorded_digests(prefix, length, identity, seed, vocab, expected):
    tokens = synthesize_prompt(PromptShape(prefix, length), identity, seed, vocab)
    assert len(tokens) == length
    assert hashlib.sha256(",".join(map(str, tokens)).encode()).hexdigest()[:16] == expected


def test_prompt_cache_returns_one_object_and_is_bounded():
    spec = RequestSpec(request_id="r-cache", shape=PromptShape(4, 40), prompt_family_id="fam-cache")
    hits_before = synthesize_prompt.cache_info().hits
    first = prompt_for(spec, 0)
    assert prompt_for(spec, 0) is first
    assert prompt_for(spec, 0) is first
    assert synthesize_prompt.cache_info().hits == hits_before + 2
    assert prompt_for(spec, 1) is not first  # a new corpus seed is a new key

    for i in range(PROMPT_CACHE_SIZE + 10):
        synthesize_prompt(PromptShape(0, 2), f"bound-{i}", 0)
    info = synthesize_prompt.cache_info()
    assert info.maxsize == PROMPT_CACHE_SIZE
    assert info.currsize == PROMPT_CACHE_SIZE


def test_prompt_cache_keys_keep_bool_and_int_apart():
    # stable_u64 encodes True and 1 differently, so the cache must too.
    as_int = synthesize_prompt(PromptShape(4, 8), "fam", 1)
    as_bool = synthesize_prompt(PromptShape(4, 8), "fam", True)
    assert as_int != as_bool
