"""Stable seeded hashing shared by prompt synthesis, the simulator, and fingerprints.

Everything that must reproduce across processes and machines routes through
these helpers.  The builtin ``hash()`` is process-salted and must never be
used for anything that ends up in a trace, a token stream, or a fingerprint.

Encoding contract of ``stable_u64``: each part becomes a one-byte type tag,
the body's length as a little-endian u32, then the body:

========  ===  ==============================================
type      tag  body
========  ===  ==============================================
bool      b    ``\x01`` or ``\x00``
int       i    17 bytes, little-endian two's complement
str       s    UTF-8
bytes     y    the bytes themselves
float     f    IEEE-754 double, little-endian
None      n    empty
========  ===  ==============================================

Type checks use ``isinstance`` in the order above, so a str-Enum encodes as
its string value and an IntEnum as its integer.  The digest is one
blake2b-64 over the concatenated encodings, read as a little-endian integer.
These values are frozen: prompts, block hashes and token streams derive from
them.

The simulator hashes these same encodings through ``u64`` without going
through ``stable_u64``.  ``u64`` feeds its bytes to a copy of one pre-built
empty blake2b-64 state, which costs less than building a state from its
parameters and hashes the same bytes.  The decode runs build their encodings
with ``encode`` and ``encode_int``.  An admission that lacks any of its
prompt's block hashes or digests encodes the whole prompt once
(``encode_ints``, whose every part takes ``INT_WIDTH`` bytes) and derives
all of them from that one encoding: each full block hashes the encodings
of its header, chain hash and adapter followed by its slice of it, and each
digest feeds a blake2b-64 state the encodings of its header and initial
digest and then all of it, so the encoding is not copied.  The encoding is
dropped when the admission ends.
Prompt synthesis hashes a shared head once and each position's encoding
after a copy of it (``stable_u64_positions``).
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections.abc import Iterable, Sequence
from itertools import chain, islice

# Exact ints and strs are most parts (tokens, positions, 64-bit digests, tags
# and adapter names), so encode_parts encodes them inline rather than through
# encode: small non-negative ints come from a precomputed table.  The checks
# are on the exact type, so bool, str-Enum and IntEnum parts always take
# encode.
_INT_HEAD = b"i" + struct.pack("<I", 17)
_INT_TABLE_SIZE = 4096
_INT_TABLE = [_INT_HEAD + i.to_bytes(17, "little", signed=True) for i in range(_INT_TABLE_SIZE)]


def encode_int(n: int) -> bytes:
    """The encoding of an exact-int part."""
    return _INT_TABLE[n] if 0 <= n < _INT_TABLE_SIZE else _INT_HEAD + n.to_bytes(17, "little", signed=True)


def encode(part: object) -> bytes:
    """The encoding of any part."""
    if isinstance(part, bool):  # bool is an int subclass; check first
        tag, body = b"b", b"\x01" if part else b"\x00"
    elif isinstance(part, int):
        tag, body = b"i", part.to_bytes(17, "little", signed=True)
    elif isinstance(part, str):
        tag, body = b"s", part.encode("utf-8")
    elif isinstance(part, bytes):
        tag, body = b"y", part
    elif isinstance(part, float):
        tag, body = b"f", struct.pack("<d", part)
    elif part is None:
        tag, body = b"n", b""
    else:
        raise TypeError(f"unhashable part type: {type(part)!r}")
    return tag + struct.pack("<I", len(body)) + body


INT_WIDTH = len(_INT_HEAD) + 17  # bytes in the encoding of any int part


def encode_parts(parts: Iterable[object]) -> bytes:
    """The concatenated encodings of ``parts``, whose ``u64`` is ``stable_u64(*parts)``."""
    return b"".join([
        (_INT_TABLE[p] if 0 <= p < _INT_TABLE_SIZE else _INT_HEAD + p.to_bytes(17, "little", signed=True))
        if type(p) is int
        else b"s" + len(e := p.encode()).to_bytes(4, "little") + e if type(p) is str
        else encode(p)
        for p in parts
    ])


def encode_ints(parts: Sequence[object]) -> bytes | None:
    """``encode_parts(parts)`` when every part is an int, so that part i's encoding is bytes
    ``[i * INT_WIDTH, (i + 1) * INT_WIDTH)`` of it; None otherwise.

    An encoding starts with its tag, and only an int's tag is ``i``, so the
    tags sit at every INT_WIDTH-th byte exactly when every part is an int.
    """
    code = encode_parts(parts)
    return code if code[::INT_WIDTH] == b"i" * len(parts) else None


def stable_u64(*parts: object) -> int:
    """Collision-resistant 64-bit digest of a heterogeneous tuple.

    Parts are length- and type-prefixed before hashing so that e.g.
    ("ab", "c") and ("a", "bc") cannot collide.
    """
    return u64(encode_parts(parts))


_EMPTY_STATE = hashlib.blake2b(digest_size=8)  # copied by every u64 call, never updated itself


def u64(data: bytes) -> int:
    """The blake2b-64 of ``data`` as a little-endian integer: ``stable_u64`` of the parts it encodes.

    A copy of a pre-built empty state absorbs ``data``: cheaper than building
    the state from its parameters, and the hashed bytes are the same.
    """
    h = _EMPTY_STATE.copy()
    h.update(data)
    return int.from_bytes(h.digest(), "little")


def stable_u64_positions(head: tuple, count: int, modulus: int) -> list[int]:
    """``[stable_u64(*head, i) % modulus for i in range(count)]``, encoding and hashing ``head`` once.

    blake2b is streaming: each position's encoding is fed to a copy of the
    state that has absorbed the head's, so the hashed bytes, and the values,
    are stable_u64's.
    """
    copy = hashlib.blake2b(encode_parts(head), digest_size=8).copy
    from_bytes = int.from_bytes
    values: list[int] = []
    append = values.append
    for code in chain(islice(_INT_TABLE, count), map(encode_int, range(_INT_TABLE_SIZE, count))):
        h = copy()
        h.update(code)
        append(from_bytes(h.digest(), "little") % modulus)
    return values


def canonical_json(obj: object) -> str:
    """Canonical single-line JSON used for fingerprints and stored documents."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def fingerprint(kind: str, signature: dict) -> str:
    """Stable short hex fingerprint over a kind plus normalized evidence."""
    payload = canonical_json({"kind": kind, "signature": signature})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
