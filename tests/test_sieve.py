from __future__ import annotations

import errno
import os
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sploop import (
    CacheChecksumError,
    CacheError,
    CacheMagicError,
    CacheTruncatedError,
    CacheVersionError,
    CapacityError,
    DomainError,
    MembershipError,
    QIndex,
    SpAp,
    SpSieve,
    build_sieve,
    cayley_table,
    check_adjacency,
    check_twin_shift,
    construct_sp_ap,
    density_table,
    digit_census,
    find_gap_run,
    find_nonassoc_witness,
    fixed_point,
    gap_histogram,
    gap_pairs,
    is_sp,
    load_cache,
    lop,
    save_cache,
    scan_bertrand,
    search_equal_triple,
    verify_bullet_chain,
)

from sploop import cachefile, sieve as sieve_module
from sploop.sieve import (
    DEFAULT_MEMORY_BUDGET,
    _estimate_build_bytes,
    _prime_sieve,
)

from _oracles import primes_upto, q_by_construction, sp_list_slow

FIRST_25 = [8, 12, 18, 20, 27, 28, 32, 44, 45, 48, 50, 52, 63, 68,
            72, 75, 76, 80, 92, 98, 99, 108, 112, 116, 117]


class TestBuild:
    def test_matches_slow_oracle(self):
        sieve = build_sieve(3000)
        assert np.flatnonzero(sieve.flags).tolist() == sp_list_slow(3000)

    def test_matches_construction_oracle(self):
        flags = np.zeros(10**6 + 1, dtype=bool)
        flags[q_by_construction(10**6)[1:]] = True  # every member but 1
        assert np.array_equal(build_sieve(10**6).flags, flags)

    def test_zero_and_one_are_clear(self, sieve_1e4):
        assert not sieve_1e4.flags[0]
        assert not sieve_1e4.flags[1]

    def test_removed_options_are_type_errors(self, index_1e4):
        with pytest.raises(TypeError):
            build_sieve(100, threads=2)
        with pytest.raises(TypeError):
            build_sieve(100, segment_size=8)
        with pytest.raises(TypeError):
            scan_bertrand(index_1e4, 1, 10, threads=2)

    def test_memory_budget(self):
        with pytest.raises(CapacityError):
            build_sieve(10**6, memory_budget=1000)

    @pytest.mark.parametrize("limit", [10**6, 10**7, 3 * 10**7])
    def test_memory_estimate_covers_traced_peak(self, limit):
        tracemalloc.start()
        try:
            build_sieve(limit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _estimate_build_bytes(limit) >= peak

    def test_degenerate_limits(self):
        with pytest.raises(DomainError):
            build_sieve(0)
        tiny = build_sieve(7)
        assert not tiny.flags.any()

    @given(st.integers(min_value=8, max_value=4000))
    @settings(max_examples=30, deadline=None)
    def test_prefix_of_larger_build(self, limit):
        big = build_sieve(4000)
        small = build_sieve(limit)
        assert np.array_equal(small.flags, big.flags[: limit + 1])


class TestCounting:
    def test_known_counts(self, sieve_1e7):
        assert sieve_1e7.sp_count(100) == 21
        assert sieve_1e7.sp_count(117) == 25
        assert sieve_1e7.sp_count(2000) == 307
        assert sieve_1e7.sp_count(10**4) == 1230
        assert sieve_1e7.sp_count(10**5) == 9036
        assert sieve_1e7.sp_count(10**6) == 69179
        assert sieve_1e7.sp_count(10**7) == 553539

    def test_inclusive_boundary(self, sieve_1e4):
        assert sieve_1e4.sp_count(7) == 0
        assert sieve_1e4.sp_count(8) == 1
        assert sieve_1e4.sp_count(116) == 24
        assert sieve_1e4.sp_count(117) == 25

    def test_matches_cumulative_flags(self, sieve_1e4):
        running = np.cumsum(sieve_1e4.flags)
        for n in list(range(0, 200)) + [4095, 4096, 4097, 8191, 9999, 10**4]:
            assert sieve_1e4.sp_count(n) == int(running[n]), n
        # Every n at small limits, on a fresh build and on a trimmed view of
        # a larger one (the CLI's cache-trim path).
        big = build_sieve(5000)
        for limit in (7, 8, 9, 117, 4096, 4097):
            for sieve in (build_sieve(limit), SpSieve(limit, big.flags[: limit + 1])):
                running = np.cumsum(sieve.flags)
                for n in range(limit + 1):
                    assert sieve.sp_count(n) == int(running[n]), (limit, n)

    def test_out_of_range(self, sieve_1e4):
        with pytest.raises(CapacityError):
            sieve_1e4.sp_count(10**4 + 1)
        with pytest.raises(DomainError):
            sieve_1e4.sp_count(-1)

    def test_is_sp_lookup(self, sieve_1e4):
        assert sieve_1e4.is_sp(8)
        assert not sieve_1e4.is_sp(7)
        with pytest.raises(CapacityError):
            sieve_1e4.is_sp(10**5)


class TestQIndex:
    def test_elements_start_with_identity(self, index_117):
        assert index_117.elements[0] == 1
        assert index_117.elements[1:].tolist() == FIRST_25

    def test_from_sieve_shares_the_elements(self):
        sieve = build_sieve(1000)
        index = QIndex.from_sieve(sieve)
        assert np.shares_memory(index.elements, sieve.elements)
        assert QIndex.from_sieve(sieve).elements is index.elements

    def test_from_sieve_peak_stays_near_the_elements(self):
        sieve = build_sieve(10**7)
        tracemalloc.start()
        try:
            elements = QIndex.from_sieve(sieve).elements
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * elements.nbytes

    def test_successor_known(self, index_1e4):
        assert index_1e4.successor(0) == 1
        assert index_1e4.successor(1) == 8
        assert index_1e4.successor(8) == 12
        assert index_1e4.successor(24) == 27
        assert index_1e4.successor(117) == 124

    def test_successor_errors(self, index_117):
        with pytest.raises(DomainError):
            index_117.successor(-1)
        with pytest.raises(CapacityError) as exc:
            index_117.successor(117)
        assert exc.value.required is not None

    def test_successor_required_is_exact(self, index_117):
        # N(117) = 124 = 31 * 2**2; past 2**64 primality is uncertified,
        # so the proven bound 2x stands in.
        for x, required in [(117, 124), (1000, 1004), (2**64, 2**65)]:
            with pytest.raises(CapacityError) as exc:
                index_117.successor(x)
            assert exc.value.required == required

    def test_predecessor_known(self, index_1e4):
        assert index_1e4.predecessor(8) == 1
        assert index_1e4.predecessor(9) == 8
        assert index_1e4.predecessor(13) == 12
        assert index_1e4.predecessor(28) == 27

    def test_predecessor_errors(self, index_117):
        with pytest.raises(DomainError):
            index_117.predecessor(1)
        with pytest.raises(CapacityError):
            index_117.predecessor(500)

    def test_nth_sp_known(self, index_117):
        assert index_117.nth_sp(1) == 8
        assert index_117.nth_sp(5) == 27
        assert index_117.nth_sp(25) == 117
        with pytest.raises(DomainError):
            index_117.nth_sp(0)
        with pytest.raises(CapacityError):
            index_117.nth_sp(26)

    def test_contains(self, index_117):
        assert index_117.contains(1)
        assert index_117.contains(8)
        assert index_117.contains(117)
        assert not index_117.contains(7)
        assert not index_117.contains(0)
        assert not index_117.contains(118)

    def test_successor_of_predecessor_roundtrip(self, index_1e5):
        for q in index_1e5.elements[1:].tolist():
            assert index_1e5.successor(index_1e5.predecessor(q)) == q

    def test_successor_monotone(self, index_1e4):
        succs = [index_1e4.successor(x) for x in range(5000)]
        assert (np.diff(succs) >= 0).all()

    def test_rank_select_duality(self, sieve_1e4, index_1e4):
        for r in range(1, len(index_1e4.elements)):
            n = index_1e4.nth_sp(r)
            assert sieve_1e4.sp_count(n) == r
            assert sieve_1e4.sp_count(n - 1) == r - 1


class TestOneObject:
    def test_builds_and_loads_are_indexes(self, tmp_path):
        sieve = build_sieve(117)
        assert isinstance(sieve, QIndex)
        sieve.save(tmp_path / "q.spq")
        assert isinstance(load_cache(tmp_path / "q.spq"), QIndex)

    def test_from_sieve_returns_the_sieve_with_its_members_listed(self):
        built = build_sieve(10**5)  # holds its members from the start
        assert QIndex.from_sieve(built) is built
        flags = built.flags
        tracemalloc.start()
        try:
            sieve = SpSieve(built.limit, flags)  # lists them as it is made
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert QIndex.from_sieve(sieve) is sieve
        assert held >= sieve.elements.nbytes
        assert np.array_equal(sieve.elements, built.elements)

    def test_queries_before_from_sieve_agree_with_it(self, tmp_path):
        path = tmp_path / "q.spq"
        build_sieve(2000).save(path)
        big = build_sieve(5000)
        makers = {
            "build": lambda: build_sieve(2000),
            "load": lambda: load_cache(path),
            "trim": lambda: SpSieve(2000, big.flags[:2001]),
        }
        queries = {
            "successor": [0, 1, 8, 117, 1990],
            "predecessor": [2, 8, 9, 118, 2001],
            "nth_sp": [1, 25, 307],
            "contains": [0, 1, 7, 8, 117, 1996, 2000, 2001],
        }
        for kind, make in makers.items():
            reference = QIndex.from_sieve(make())
            for name, args in queries.items():
                for x in args:
                    # Each query is the first read of a fresh object's members.
                    got = getattr(make(), name)(x)
                    assert got == getattr(reference, name)(x), (kind, name, x)

    def test_analytics_take_a_plain_index(self, sieve_1e4):
        plain = QIndex(sieve_1e4.limit, sieve_1e4.elements.copy())
        checkpoints = [100, 117, 10**4]
        assert density_table(plain, checkpoints) == density_table(
            sieve_1e4, checkpoints)
        for limit in (0, 7, 117, 10**4):
            assert digit_census(plain, limit) == digit_census(sieve_1e4, limit)

    def test_bound_checks_keep_type_and_required(self, index_117):
        over = construct_sp_ap((5, 11, 17, 23), 3)  # (45, 99, 153, 207)
        capacity = [
            (lambda: index_117.sp_count(118), 118),
            (lambda: index_117.is_sp(118), 118),
            (lambda: density_table(index_117, [100, 118]), 118),
            (lambda: digit_census(index_117, 118), 118),
            (lambda: gap_histogram(index_117, 118), 118),
            (lambda: gap_pairs(index_117, 1, 118), 118),
            (lambda: check_twin_shift(index_117, 118), 118),
            (lambda: verify_bullet_chain(index_117, over), 207),
        ]
        for call, required in capacity:
            with pytest.raises(CapacityError) as exc:
                call()
            assert exc.value.required == required
        for call in (lambda: index_117.sp_count(-1),
                     lambda: digit_census(index_117, -1),
                     lambda: gap_histogram(index_117, -1)):
            with pytest.raises(DomainError):
                call()
        # These check only the upper bound: a negative limit is an empty
        # range, and negative terms fail as non-members.
        assert gap_pairs(index_117, 1, -1) == []
        assert check_twin_shift(index_117, -1) is None
        with pytest.raises(MembershipError):
            verify_bullet_chain(index_117, SpAp(terms=(-8, -4), common_difference=4))


# Calls that limit 117 refuses with a computed ``required``: every SP number
# from 118 to 124 is 124 = 31 * 2**2, so N(117) = 124 and N(118) = 124.
REQUIRED_CALLS = {
    "sp_count": lambda q: q.sp_count(118),
    "successor": lambda q: q.successor(117),
    "predecessor": lambda q: q.predecessor(120),
    "gap_pairs": lambda q: q.gap_pairs(1, 130),
    "lop": lambda q: lop(q, 124, 8),
    "scan_bertrand": lambda q: scan_bertrand(q, 1, 61),
    "check_adjacency": lambda q: check_adjacency(q, 117),
    "check_twin_shift": lambda q: check_twin_shift(q, 130),
    "verify_bullet_chain": lambda q: verify_bullet_chain(
        q, construct_sp_ap((5, 11, 17, 23), 3)),  # (45, 99, 153, 207)
}


@pytest.mark.parametrize("name", REQUIRED_CALLS)
def test_every_required_is_tight(name):
    call = REQUIRED_CALLS[name]
    with pytest.raises(CapacityError) as exc:
        call(build_sieve(117))
    required = exc.value.required
    assert required is not None and required > 117
    call(build_sieve(required))  # answers
    with pytest.raises(CapacityError) as exc:
        call(build_sieve(required - 1))
    assert exc.value.required == required


def outcome(call):
    """A call's result, or its error type and ``required`` when it raises."""
    try:
        return "ok", call()
    except CapacityError as exc:
        return CapacityError, exc.required
    except DomainError:
        return DomainError, None


class TestQFirst:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 9, 25, 49, 10**5, 10**5 + 1])
    def test_odd_only_prime_sieve_matches_the_plain_sieve(self, n):
        assert np.array_equal(_prime_sieve(n), primes_upto(n))

    def test_wheel_prime_sieve_at_every_small_n(self):
        # Every residue mod 6, and 25, 35, 49 and 77, where the two strides
        # of 5 and of 7 start.
        for n in range(601):
            primes = _prime_sieve(n)
            assert primes.dtype == np.int64
            assert np.array_equal(primes, primes_upto(n)), n

    @pytest.mark.parametrize("n", [3 * 2**20 - 8, 3 * 2**20 + 8, 6 * 2**20 + 3])
    @pytest.mark.parametrize("dtype", [np.int64, np.uint32])
    def test_wheel_prime_sieve_at_block_edges(self, n, dtype):
        # Flag j stands for 3j + 1 or 3j + 2, so the first block of 2**20
        # flags ends at 3 * 2**20 and the second at 6 * 2**20.
        assert sieve_module._BLOCK == 2**20
        primes = _prime_sieve(n, dtype)
        assert primes.dtype == dtype
        assert np.array_equal(primes, primes_upto(n))

    def test_build_over_several_sieve_blocks(self):
        # The primes to 7.5e6 take three blocks of the wheel mask.
        limit = 3 * 10**7
        assert np.array_equal(build_sieve(limit).elements,
                              q_by_construction(limit))

    def test_members_are_uint32_below_two_to_the_32(self, index_1e7):
        assert index_1e7.elements.dtype == np.uint32
        assert np.array_equal(index_1e7.elements, q_by_construction(10**7))

    def test_is_sp_leaves_the_flags_unbuilt(self):
        sieve = build_sieve(10**6)
        ns = (0, 1, 7, 8, 12, 117, 999_997, 10**6)
        tracemalloc.start()
        try:
            answers = [sieve.is_sp(n) for n in ns]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert answers == [is_sp(n) for n in ns]
        assert peak < sieve.limit // 10  # the flags would take limit + 1 bytes

    def test_point_queries_never_copy_the_members(self, index_1e7):
        q = index_1e7
        q.first_gap(1)  # makes the gaps, kept, and walks the first records
        calls = {
            "successor": (q.limit // 2,),
            "predecessor": (q.limit + 1,),
            "contains": (q.limit // 3,),
            "sp_count": (q.limit,),
            "nth_sp": (1000,),
            "first_gap": (100,),
        }
        for name, args in calls.items():
            tracemalloc.start()
            try:
                getattr(q, name)(*args)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # A cast of the members would take 4.4 MB.
            assert peak < 64 << 10, name

    @pytest.mark.parametrize("limit", [8, 117, 2000, 10**5])
    def test_uint32_members_answer_as_int64_members(self, limit):
        narrow = build_sieve(limit)
        wide = QIndex(limit, narrow.elements.astype(np.int64))
        rank = min(len(narrow) - 1, 40)
        qs = [int(v) for v in narrow.elements if v <= 250]
        calls = [
            lambda ix: scan_bertrand(ix, 1, limit // 2),
            lambda ix: check_adjacency(ix, limit // 2),
            lambda ix: check_twin_shift(ix, limit),
            lambda ix: [gap_pairs(ix, g, limit) for g in range(1, 5)],
            lambda ix: gap_pairs(ix, 1, -1),
            lambda ix: gap_histogram(ix, limit),
            lambda ix: digit_census(ix, limit),
            lambda ix: [outcome(lambda: fixed_point(ix, q)) for q in qs],
            lambda ix: [outcome(lambda: find_gap_run(ix, n)) for n in range(1, 40)],
            lambda ix: search_equal_triple(ix, rank),
            lambda ix: cayley_table(ix, rank).to_lists(),
            lambda ix: find_nonassoc_witness(ix, rank),
        ]
        for i, call in enumerate(calls):
            assert outcome(lambda: call(narrow)) == outcome(lambda: call(wide)), i


class TestCache:
    def test_roundtrip(self, tmp_path):
        sieve = build_sieve(117)
        path = tmp_path / "q.spq"
        save_cache(sieve, path)
        back = load_cache(path)
        assert back.limit == 117
        assert int(back.flags.sum()) == 25
        assert np.array_equal(back.flags, sieve.flags)

    def test_file_layout(self, tmp_path):
        sieve = build_sieve(117)
        path = tmp_path / "q.spq"
        sieve.save(path)
        raw = path.read_bytes()
        payload_len = (117 + 8) // 8
        assert len(raw) == 16 + payload_len + 4
        assert raw[:4] == b"SPLQ"
        version, limit = struct.unpack_from("<IQ", raw, 4)
        assert version == 1
        assert limit == 117
        payload = raw[16:-4]
        (crc,) = struct.unpack("<I", raw[-4:])
        assert zlib.crc32(payload) & 0xFFFFFFFF == crc
        # bit j of byte i is number 8*i + j
        assert payload[1] & 1  # 8 is SP
        assert not payload[0]  # 0..7 are not

    def test_no_temp_file_left(self, tmp_path):
        sieve = build_sieve(117)
        sieve.save(tmp_path / "q.spq")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["q.spq"]

    @pytest.mark.parametrize("failing", ["write", "fsync"])
    def test_failed_save_keeps_old_cache(self, tmp_path, monkeypatch, failing):
        path = tmp_path / "q.spq"
        build_sieve(117).save(path)
        before = path.read_bytes()

        def disk_full(*_args):
            raise OSError(errno.ENOSPC, "No space left on device")

        class HalfWrite:
            def __init__(self, name, mode):
                self.fh = open(name, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                disk_full()

        if failing == "write":
            monkeypatch.setattr(cachefile, "open", HalfWrite, raising=False)
        else:
            monkeypatch.setattr(cachefile.os, "fsync", disk_full)
        with pytest.raises(OSError):
            build_sieve(2000).save(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["q.spq"]
        assert path.read_bytes() == before

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "q.spq"
        build_sieve(117).save(path)
        raw = path.read_bytes()
        path.write_bytes(b"NOPE" + raw[4:])
        with pytest.raises(CacheMagicError):
            load_cache(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "q.spq"
        build_sieve(117).save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<I", 99) + raw[8:])
        with pytest.raises(CacheVersionError):
            load_cache(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "q.spq"
        build_sieve(117).save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:10])
        with pytest.raises(CacheTruncatedError):
            load_cache(path)
        path.write_bytes(raw[:-3])
        with pytest.raises(CacheTruncatedError):
            load_cache(path)

    def test_bad_checksum(self, tmp_path):
        path = tmp_path / "q.spq"
        build_sieve(117).save(path)
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CacheChecksumError):
            load_cache(path)

    def test_error_types_are_distinct_cache_errors(self):
        kinds = {CacheMagicError, CacheVersionError, CacheTruncatedError,
                 CacheChecksumError}
        assert len(kinds) == 4
        for kind in kinds:
            assert issubclass(kind, CacheError)

    @given(st.integers(min_value=8, max_value=3000))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_any_limit(self, tmp_path_factory, limit):
        sieve = build_sieve(limit)
        path = tmp_path_factory.mktemp("cache") / "q.spq"
        sieve.save(path)
        back = load_cache(path)
        assert back.limit == limit
        assert np.array_equal(back.flags, sieve.flags)

    @pytest.mark.parametrize("limit", [8, 117, 131_071, 131_072, 131_073,
                                       300_000])
    def test_payload_packs_every_member(self, tmp_path, limit):
        # The save packs 2**17 numbers at a time: 0..131071 fill one slice,
        # 131072 and 131073 spill into a second, and 300000 ends mid-byte.
        path = tmp_path / "q.spq"
        build_sieve(limit).save(path)
        flags = np.zeros(limit + 1, dtype=bool)
        flags[q_by_construction(limit)[1:]] = True  # every member but 1
        assert path.read_bytes()[16:-4] == np.packbits(
            flags, bitorder="little").tobytes()

    def test_limit_zero_file_is_refused_as_the_build_refuses_it(self, tmp_path):
        path = tmp_path / "q.spq"
        SpSieve(0, np.zeros(1, dtype=bool)).save(path)
        assert cachefile.read(path)[0] == 0
        with pytest.raises(DomainError, match="need limit >= 1, got 0"):
            load_cache(path)

    def test_limit_past_the_budget_is_refused_before_the_build(
            self, tmp_path, monkeypatch):
        path = tmp_path / "q.spq"
        build_sieve(117).save(path)
        monkeypatch.setattr(sieve_module, "_estimate_build_bytes",
                            lambda limit: DEFAULT_MEMORY_BUDGET + 1)
        with pytest.raises(CapacityError, match="over the"):
            load_cache(path)

    @pytest.mark.parametrize("limit", [10**6, 10**7])
    def test_load_peak_stays_near_the_flags(self, tmp_path, limit):
        path = tmp_path / "q.spq"
        build_sieve(limit).save(path)
        tracemalloc.start()
        try:
            flags = load_cache(path).flags
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * flags.nbytes

    def test_padding_bits_are_not_members(self, tmp_path):
        path = tmp_path / "q.spq"
        build_sieve(117).save(path)
        raw = bytearray(path.read_bytes())
        # 0..117 fill 14 bytes and 6 bits of the 15th; set its last 2 bits.
        raw[-5] |= 0b1100_0000
        raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[16:-4])))
        path.write_bytes(bytes(raw))
        assert load_cache(path).elements.tolist() == [1] + FIRST_25

    def test_trimmed_view_matches_fresh_build(self):
        big = build_sieve(2000)
        trimmed = SpSieve(500, big.flags[:501])
        fresh = build_sieve(500)
        assert np.array_equal(trimmed.flags, fresh.flags)
        assert trimmed.sp_count(500) == fresh.sp_count(500)
