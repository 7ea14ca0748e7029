"""The numpy-free cache reader and ``QBits``, the bit view of Q that the
CLI's cached point commands answer from, held to ``QIndex``."""

from __future__ import annotations

import struct
import zlib

import pytest

from sploop import SploopError, build_sieve, lop
from sploop import cachefile


def outcome(f, *args):
    """The value with its type, or the error's type, message and
    ``required``."""
    try:
        value = f(*args)
        return type(value), value
    except SploopError as exc:
        return type(exc), str(exc), getattr(exc, "required", None)


def bits_of(tmp_path, built_at: int, limit: int) -> cachefile.QBits:
    path = tmp_path / f"q{built_at}.spq"
    build_sieve(built_at).save(path)
    file_limit, payload = cachefile.read(path)
    assert file_limit == built_at
    return cachefile.QBits(limit, payload)


@pytest.mark.parametrize("built_at, limit", [
    (8, 8), (9, 9), (117, 117), (1000, 1000), (4097, 4097), (2000, 1000),
])
def test_bit_view_answers_as_the_index(tmp_path, built_at, limit):
    bits, index = bits_of(tmp_path, built_at, limit), build_sieve(limit)
    assert bits.limit == index.limit
    assert bits.max_element == index.max_element
    for x in range(-1, limit + 3):
        for query in ("contains", "successor", "predecessor", "sp_count"):
            assert outcome(getattr(bits, query), x) == \
                outcome(getattr(index, query), x), (query, x)
    count = index.sp_count(limit)
    for r in range(0, count + 2):
        assert outcome(bits.nth_sp, r) == outcome(index.nth_sp, r), r
    members = index.elements.tolist()
    operands = members + [2, limit + 1]  # a non-member, and one past the limit
    for a in operands:
        for b in members if len(members) < 200 else members[::7]:
            assert outcome(lop, bits, a, b) == outcome(lop, index, a, b), (a, b)


def test_padding_bits_are_not_members(tmp_path):
    path = tmp_path / "q.spq"
    build_sieve(117).save(path)
    raw = bytearray(path.read_bytes())
    raw[-5] |= 0b1100_0000  # numbers 118 and 119, past the limit
    raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[16:-4])))
    path.write_bytes(bytes(raw))
    bits = cachefile.QBits(*cachefile.read(path))
    assert bits.sp_count(117) == 25
    assert outcome(bits.successor, 117) == outcome(build_sieve(117).successor, 117)
    assert outcome(bits.nth_sp, 26) == outcome(build_sieve(117).nth_sp, 26)


def test_nth_crosses_blocks(tmp_path):
    # 10**5 numbers take 12,501 payload bytes: three full blocks and a part.
    bits, index = bits_of(tmp_path, 10**5, 10**5), build_sieve(10**5)
    count = index.sp_count(10**5)
    for r in list(range(1, 40)) + list(range(count - 40, count + 1)):
        assert bits.nth_sp(r) == index.nth_sp(r)
    for n in range(0, 10**5 + 1, 4091):
        assert bits.sp_count(n) == index.sp_count(n)
        r = index.sp_count(n)
        if r:
            assert bits.nth_sp(r) == index.nth_sp(r)
