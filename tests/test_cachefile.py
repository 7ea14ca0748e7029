"""The numpy-free cache reader and ``QBits``, the bit view of Q that the
CLI's cached commands answer from, held to ``QIndex``, and the numpy-free
payload builder, held to ``SpSieve.save``."""

from __future__ import annotations

import hashlib
import math
import random
import struct
import zlib

import numpy as np
import pytest

from sploop import (CapacityError, DomainError, MembershipError, QIndex,
                    SploopError, build_sieve, cayley_table, find_gap_run,
                    fixed_point, gap_pairs, lop)
from sploop import cachefile
from sploop.loop_algebra import cayley_rows, widest_gap

from _oracles import is_prime_slow, sp_list_slow


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


# Each query's refusals at limit 117, whose largest SP is 117 = 13 * 3**2
# and which holds 25 SP numbers. The two indexes share one copy of these
# checks, so agreement between them no longer pins the text.
FRONT_ERRORS = [
    ("sp_count", (-1,), DomainError, "need n >= 0, got -1", None),
    ("sp_count", (118,), CapacityError,
     "118 exceeds the limit 117; rebuild with limit >= 118", 118),
    ("successor", (-1,), DomainError, "need x >= 0, got -1", None),
    ("successor", (117,), CapacityError,
     "successor(117) is beyond the largest indexed element 117; rebuild "
     "with a larger limit", 124),  # N(117) = 31 * 2**2
    ("predecessor", (1,), DomainError, "no Q element below 1", None),
    ("predecessor", (119,), CapacityError,
     "predecessor(119) is not covered by limit 117", 118),
    ("nth_sp", (0,), DomainError, "need r >= 1, got 0", None),
    ("nth_sp", (26,), CapacityError,
     "index holds only 25 SP numbers, asked for number 26", None),
    ("prefix", (-1,), MembershipError, "need rank r >= 0, got -1", None),
    ("prefix", (26,), CapacityError, "rank 26 exceeds the 25 indexed SP numbers", None),
    ("gap_pairs", (0, 117), DomainError, "need gap g >= 1, got 0", None),
    ("gap_pairs", (1, 118), CapacityError,
     "118 exceeds the limit 117; rebuild with limit >= 118", 118),
]


@pytest.mark.parametrize("query, args, kind, message, required", FRONT_ERRORS)
def test_refusals_read_as_documented(tmp_path, query, args, kind, message, required):
    for q in (bits_of(tmp_path, 117, 117), build_sieve(117)):
        assert outcome(getattr(q, query), *args) == (kind, message, required)


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
    assert_gap_queries_match(bits, build_sieve(117))


def assert_gap_queries_match(bits, index):
    """The gap query, and the fixed points, runs, pairs and tables read off
    the bits, against the same questions on the index."""
    widest = int(index.gaps.max()) if len(index) > 1 else 0
    for w in range(0, widest + 3):
        assert outcome(bits.first_gap, w) == outcome(index.first_gap, w), w
    members = index.elements.tolist()
    qs = [m for m in members if m <= widest + 20] + members[-3:]
    for q in qs + [2, index.limit + 1]:  # and a non-member, one past the limit
        assert outcome(fixed_point, bits, q) == outcome(fixed_point, index, q), q
    for n in range(0, widest + 2):
        assert outcome(find_gap_run, bits, n) == outcome(find_gap_run, index, n), n
    limit = index.limit
    for g in (0, 1, 2, 3, 4, 9, widest, widest + 1):
        for bound in (-1, 0, 8, limit // 3, limit - 1, limit, limit + 1):
            assert outcome(bits.gap_pairs, g, bound) == outcome(
                lambda: [(p.lo, p.hi) for p in gap_pairs(index, g, bound)]), (g, bound)
            assert outcome(bits.gap_pairs, g, bound) == \
                outcome(index.gap_pairs, g, bound), (g, bound)
    count = len(members) - 1
    ranks = [-1, *range(min(count, 40) + 1), count + 1]
    for r in ranks + [count] if count <= 300 else ranks:
        assert outcome(bits.prefix, r) == outcome(index.prefix, r), r
        assert outcome(lambda: (bits.prefix(r), cayley_rows(bits.prefix(r)))) == \
            outcome(lambda: (list(cayley_table(index, r).members),
                             cayley_table(index, r).to_lists())), r


def assert_drawn_gaps_match(limit, members):
    """The point queries, the gap query and the pairs on bits set at
    members, against an index of 1 and the same members."""
    payload = bytearray(cachefile.payload_size(limit))
    for n in members:
        payload[n >> 3] |= 1 << (n & 7)
    bits = cachefile.QBits(limit, payload)
    index = QIndex(limit, np.array([1] + members, dtype=np.int64))
    assert outcome(lambda: bits.max_element) == outcome(lambda: index.max_element)
    for x in range(-1, limit + 3):
        for query in ("contains", "successor", "predecessor", "sp_count"):
            assert outcome(getattr(bits, query), x) == \
                outcome(getattr(index, query), x), (query, x)
    for r in range(0, len(members) + 2):
        assert outcome(bits.nth_sp, r) == outcome(index.nth_sp, r), r
        assert outcome(bits.prefix, r) == outcome(index.prefix, r), r
    widest = int(index.gaps.max()) if members else 0
    for w in range(0, widest + 3):
        assert bits.first_gap(w) == index.first_gap(w), w
    for g in range(1, 12):
        assert bits.gap_pairs(g, limit) == \
            [(p.lo, p.hi) for p in gap_pairs(index, g, limit)], g


@pytest.mark.parametrize("seed", range(40))
def test_gap_queries_on_drawn_bits(seed):
    # Sparse and dense draws, with members anywhere from 2, so runs of zero
    # bytes start right after a member's byte, or at byte 1.
    rng = random.Random(seed)
    limit = rng.randint(8, 3000)
    density = rng.choice([0.005, 0.02, 0.05, 0.2])
    assert_drawn_gaps_match(
        limit, [n for n in range(2, limit + 1) if rng.random() < density])


@pytest.mark.parametrize("seed", range(40))
def test_gap_queries_in_any_order_on_one_bits_view(seed):
    # Each query finds or reuses the record gaps that the ones before it
    # left, wide and narrow ones in turn, on the bits and on an index, and
    # answers as the first gap of the members at least that wide.
    rng = random.Random(seed)
    limit = rng.randint(8, 3000)
    density = rng.choice([0.005, 0.02, 0.05, 0.2])
    members = [n for n in range(2, limit + 1) if rng.random() < density]
    payload = bytearray(cachefile.payload_size(limit))
    for n in members:
        payload[n >> 3] |= 1 << (n & 7)
    bits = cachefile.QBits(limit, payload)
    index = QIndex(limit, np.array([1] + members, dtype=np.int64))
    widest = int(index.gaps.max()) if members else 0
    gaps = list(zip([1] + members, members))
    for w in rng.choices(range(-1, widest + 3), k=3 * widest + 10):
        want = next(((lo, hi) for lo, hi in gaps if hi - lo >= w), None)
        assert bits.first_gap(w) == index.first_gap(w) == want, w


@pytest.mark.parametrize("provider", ["bits", "index"])
def test_record_gaps_are_walked_once(monkeypatch, provider):
    if provider == "bits":
        q = cachefile.QBits(10**4, cachefile.build_payload(10**4))
    else:
        q = build_sieve(10**4)  # a fresh index, that has walked no record
    walks = []
    gap_from = type(q)._gap_from

    def counted(self, start, w):
        walks.append(start)
        return gap_from(self, start, w)

    monkeypatch.setattr(type(q), "_gap_from", counted)
    assert widest_gap(q) == (7325, 7376)
    # One walk per record gap and one that finds no wider gap, each from
    # the upper end of the record before it.
    assert walks[0] == 1 and len(walks) == len(set(walks))
    walked = len(walks)
    for w in (0, 9, 51, 52, 30, 12):
        q.first_gap(w)
    assert len(walks) == walked


@pytest.mark.parametrize("members", [[8, 16, 31, 48], [15, 16, 39, 40]])
def test_gap_queries_at_byte_edges(members):
    # 16 -> 31 spans 15, and its 14 non-members cover no whole byte; 16 -> 39
    # spans 23, and its 22 cover one: the fewest whole zero bytes each width
    # can hold.
    assert_drawn_gaps_match(50, members)


@pytest.mark.parametrize("limit, members", [
    (8, []), (64, []), (300, []), (300, [2]), (300, [17, 40]), (1000, [9, 990]),
])
def test_queries_on_sets_a_build_never_makes(limit, members):
    # No SP number at all, or the last far below the limit: a built Q always
    # holds 8, and members near its limit.
    assert_drawn_gaps_match(limit, members)


@pytest.mark.parametrize("built_at, limit", [
    (8, 8), (9, 9), (117, 117), (1000, 1000), (4097, 4097), (10**5, 10**5),
    (2000, 1000),
])
def test_gap_queries_answer_as_the_index(tmp_path, built_at, limit):
    assert_gap_queries_match(bits_of(tmp_path, built_at, limit), build_sieve(limit))


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


def test_gap_query_at_1e7(tmp_path, sieve_1e7):
    # The widest gap below 10**7, 207 from 9275836, takes k = 24 zero bytes.
    path = tmp_path / "q.spq"
    sieve_1e7.save(path)
    bits = cachefile.QBits(*cachefile.read(path))
    for w in range(0, 210):
        assert bits.first_gap(w) == sieve_1e7.first_gap(w), w
    assert bits.first_gap(207) == (9275836, 9276043)
    for n in range(1, 61):
        assert find_gap_run(bits, n) == find_gap_run(sieve_1e7, n), n


# -- the payload built without numpy, held to the numpy save ---------------

# SHA-256 of the whole v1 file at 5 * 10**5 and 10**7, as the benchmark pins
# them.
V1_SHA256 = {
    500_000: "14f85f563d06ed2deede8dc52f7036e288965be2e5e4a458dadd7d5eb0b8d851",
    10**7: "5b0c51bc2292ce86d1d1beecdb5d389bb45b8b95c8ce7152677bb37984557f71",
}


def saved_payload(tmp_path, sieve) -> bytes:
    path = tmp_path / f"lib{sieve.limit}.spq"
    sieve.save(path)
    return cachefile.read(path)[1].tobytes()


def test_pure_payload_is_the_save_at_every_small_limit(tmp_path):
    for limit in range(8, 601):
        assert cachefile.build_payload(limit) == \
            saved_payload(tmp_path, build_sieve(limit)), limit


# 131071-131073 cross a byte and the 2**17 slice of the numpy packer;
# 7996 = 4 * 1999 and 17991 = 9 * 1999 put p = 1999 on the k = 2 and k = 3
# strides at the limit; at 20000 = 2 * 100**2, k = 100 joins the loop.
@pytest.mark.parametrize("limit", [131071, 131072, 131073, 7995, 7996,
                                   17990, 17991, 19999, 20000])
def test_pure_payload_is_the_save_at_edges(tmp_path, limit):
    assert cachefile.build_payload(limit) == \
        saved_payload(tmp_path, build_sieve(limit))


def test_pure_payload_keeps_members_on_several_strides():
    # 32 = 2 * 4**2 is also 8 * 2**2, and 72 = 2 * 6**2 also 18 * 2**2 and
    # 8 * 3**2: the stride of a smaller k must not clear them.
    bits = cachefile.QBits(600, cachefile.build_payload(600))
    assert [n for n in range(601) if bits.contains(n) and n > 1] == \
        sp_list_slow(600)
    for limit in (32, 72):
        assert cachefile.QBits(limit, cachefile.build_payload(limit)).contains(limit)


def descending_payload(limit: int) -> bytes:
    """``build_payload`` with the k loop reversed, the order that fails."""
    top = limit // 4
    primes = bytearray(int(is_prime_slow(n)) for n in range(top + 1))
    flags = bytearray(8 * cachefile.payload_size(limit))
    for k in range(math.isqrt(limit // 2), 1, -1):
        flags[k * k : limit + 1 : k * k] = primes[1 : limit // (k * k) + 1]
    return bytes(sum(flags[8 * i + b] << b for b in range(8))
                 for i in range(len(flags) // 8))


def test_descending_k_would_break_from_32():
    for limit in range(8, 200):
        pure = cachefile.build_payload(limit)
        assert (descending_payload(limit) == pure) == (limit < 32), limit


@pytest.mark.parametrize("limit", V1_SHA256)
def test_pure_payload_pins_the_v1_sha256(tmp_path, limit, request):
    sieve = (request.getfixturevalue("sieve_1e7") if limit == 10**7
             else build_sieve(limit))
    payload = cachefile.build_payload(limit)
    assert payload == saved_payload(tmp_path, sieve)
    path = tmp_path / "pure.spq"
    cachefile.QBits(limit, payload).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == V1_SHA256[limit]
