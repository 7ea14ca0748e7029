from __future__ import annotations

import gc
import random
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest

from sploop import (
    CapacityError,
    ChainBrokenError,
    DomainError,
    GapRun,
    NotFoundError,
    QIndex,
    SearchBudgetError,
    SpAp,
    SpPair,
    ValidationError,
    check_adjacency,
    check_twin_shift,
    construct_sp_ap,
    find_gap_run,
    find_prime_ap,
    gap_pairs,
    lop,
    scan_bertrand,
    search_equal_triple,
    sp_ap_from_terms,
    verify_bullet_chain,
)
from sploop import cachefile
from sploop.front import QFront

from _oracles import pairwise_table_slow, search_equal_triple_slow


class TestGapRuns:
    def test_initial_run(self, index_1e4):
        assert find_gap_run(index_1e4, 1) == GapRun(start=1, length=7)
        assert find_gap_run(index_1e4, 7) == GapRun(start=1, length=7)

    def test_first_longer_run(self, index_1e4):
        assert find_gap_run(index_1e4, 8) == GapRun(start=33, length=11)
        assert find_gap_run(index_1e4, 11) == GapRun(start=33, length=11)

    def test_run_invariants(self, sieve_1e4, index_1e4):
        for n in range(1, 26):
            run = find_gap_run(index_1e4, n)
            assert run.length >= n
            lo, hi = run.start, run.start + run.length
            assert not sieve_1e4.flags[lo:hi].any()
            assert lo == 1 or sieve_1e4.flags[lo - 1]
            assert sieve_1e4.flags[hi]

    def test_errors(self, index_117):
        with pytest.raises(DomainError):
            find_gap_run(index_117, 0)
        with pytest.raises(CapacityError) as exc:
            find_gap_run(index_117, 50)
        assert exc.value.required is None


class TestGapPairs:
    def test_twins_to_117(self, index_1e4):
        pairs = gap_pairs(index_1e4, 1, 117)
        assert [(p.lo, p.hi) for p in pairs] == [
            (27, 28), (44, 45), (75, 76), (98, 99), (116, 117)]
        assert all(p.gap == 1 for p in pairs)

    def test_gap_two_to_117(self, index_1e4):
        assert [(p.lo, p.hi) for p in gap_pairs(index_1e4, 2, 117)] == [
            (18, 20), (48, 50), (50, 52)]

    def test_empty_is_fine(self, index_1e4):
        assert gap_pairs(index_1e4, 3, 10) == []

    def test_adjacency_of_pairs(self, index_1e4):
        for p in gap_pairs(index_1e4, 4, 10**4):
            assert index_1e4.successor(p.lo) == p.hi

    def test_errors(self, index_117):
        with pytest.raises(DomainError):
            gap_pairs(index_117, 0, 100)
        with pytest.raises(CapacityError):
            gap_pairs(index_117, 1, 500)

    def test_records_are_the_index_pairs(self, index_1e4):
        for g in (1, 2, 4, 9):
            assert gap_pairs(index_1e4, g, 10**4) == [
                SpPair(lo, hi, g) for lo, hi in index_1e4.gap_pairs(g, 10**4)]

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_collector_left_as_found(self, index_1e4, enabled):
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert gap_pairs(index_1e4, 1, 10**4)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_refused_arguments_leave_the_collector_on(self, index_117):
        assert gc.isenabled()
        for g, limit, error in ((0, 100, DomainError), (1, 500, CapacityError)):
            with pytest.raises(error):
                gap_pairs(index_117, g, limit)
            assert gc.isenabled()


class TestPrimeAp:
    def test_known_progressions(self):
        assert find_prime_ap(1, 10) == (2,)
        assert find_prime_ap(2, 10) == (2, 3)
        assert find_prime_ap(3, 100) == (3, 5, 7)
        assert find_prime_ap(4, 100) == (5, 11, 17, 23)
        assert find_prime_ap(5, 1000) == (5, 11, 17, 23, 29)
        assert find_prime_ap(6, 1000) == (7, 37, 67, 97, 127, 157)

    def test_smallest_last_term_wins(self):
        # at bound 7 the only length-3 progression is (3, 5, 7)
        assert find_prime_ap(3, 7) == (3, 5, 7)

    def test_not_found(self):
        with pytest.raises(NotFoundError):
            find_prime_ap(4, 20)
        with pytest.raises(NotFoundError):
            find_prime_ap(3, 6)

    def test_domain(self):
        with pytest.raises(DomainError):
            find_prime_ap(0, 100)


class TestConstructSpAp:
    def test_worked_example(self):
        ap = construct_sp_ap((41, 47, 53, 59), 2)
        assert ap.terms == (164, 188, 212, 236)
        assert ap.common_difference == 24

    def test_five_terms(self):
        ap = construct_sp_ap((5, 11, 17, 23, 29), 2)
        assert ap.terms == (20, 44, 68, 92, 116)
        assert ap.common_difference == 24

    def test_single_term(self):
        ap = construct_sp_ap((7,), 3)
        assert ap.terms == (63,)
        assert ap.common_difference == 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            construct_sp_ap((4, 6, 8), 2)       # not primes
        with pytest.raises(ValidationError):
            construct_sp_ap((3, 5, 11), 2)      # not a progression
        with pytest.raises(ValidationError):
            construct_sp_ap((7, 5, 3), 2)       # decreasing
        with pytest.raises(ValidationError):
            construct_sp_ap((), 2)
        with pytest.raises(DomainError):
            construct_sp_ap((3, 5, 7), 1)


class TestBulletChain:
    def test_worked_example(self, index_1e4):
        ap = construct_sp_ap((41, 47, 53, 59), 2)
        assert verify_bullet_chain(index_1e4, ap) == 27

    def test_other_chains(self, index_1e4):
        assert verify_bullet_chain(
            index_1e4, construct_sp_ap((5, 11, 17, 23, 29), 2)) == 27
        assert verify_bullet_chain(
            index_1e4, sp_ap_from_terms((8, 12))) == 8

    def test_dual_route_agreement(self, index_1e4):
        for n in (2, 3, 4):
            for r in (2, 3, 5):
                ap = construct_sp_ap(find_prime_ap(n, 100), r)
                value = verify_bullet_chain(index_1e4, ap)
                assert value == index_1e4.successor(ap.common_difference)

    def test_chain_broken_on_fabricated_input(self, index_1e4):
        fake = SpAp(terms=(8, 12, 27), common_difference=4)
        with pytest.raises(ChainBrokenError) as exc:
            verify_bullet_chain(index_1e4, fake)
        assert exc.value.position == 1
        assert exc.value.pair == (12, 27)

    def test_term_validation(self, index_1e4):
        with pytest.raises(ValidationError):
            sp_ap_from_terms((8, 13, 18))
        with pytest.raises(ValidationError):
            sp_ap_from_terms((8, 18, 27))
        with pytest.raises(ValidationError):
            sp_ap_from_terms((8,))
        with pytest.raises(DomainError):
            verify_bullet_chain(index_1e4, SpAp(terms=(8,), common_difference=0))
        with pytest.raises(CapacityError):
            verify_bullet_chain(
                index_1e4, SpAp(terms=(8, 10**5), common_difference=10**5 - 8))


class TestEqualTriples:
    def test_absent_at_small_ranks(self, index_1e4):
        for r in range(7):
            assert search_equal_triple(index_1e4, r) is None

    def test_first_triple(self, index_1e4):
        # (27, 28, 32): all three pairwise differences land below 8
        assert search_equal_triple(index_1e4, 7) == (27, 28, 32)

    def test_triple_really_has_equal_products(self, index_1e4):
        a, b, c = search_equal_triple(index_1e4, 307)
        assert (a, b, c) == (27, 28, 32)
        assert lop(index_1e4, a, b) == lop(index_1e4, b, c) == lop(index_1e4, a, c) == 8

    def test_budget_guard(self, index_1e4):
        with pytest.raises(SearchBudgetError):
            search_equal_triple(index_1e4, 2001)

    def test_rank_capacity(self, index_117):
        with pytest.raises(CapacityError) as raised:
            search_equal_triple(index_117, 100)
        with pytest.raises(CapacityError) as expected:
            index_117.prefix(100)
        assert str(raised.value) == str(expected.value)
        assert raised.value.required is expected.value.required is None

    def test_agrees_with_the_table_scan_at_every_rank(self, index_1e4):
        assert len(index_1e4.elements) - 1 == index_1e4.sp_count(10**4) == 1230
        for r, triple in enumerate(_slow_answers(index_1e4.elements)):
            assert search_equal_triple(index_1e4, r) == triple, r

    def test_agrees_with_the_table_scan_at_1e5(self, index_1e5):
        assert len(index_1e5.elements) - 1 == 9036
        for r in (7, 307, 1000, 1999, 2000):
            assert search_equal_triple(index_1e5, r) == search_equal_triple_slow(
                *pairwise_table_slow(index_1e5.elements, r)), r

    def test_agrees_with_the_table_scan_past_the_first_rows(self):
        # In Q the first triple starts at 27, the sixth member. Members in
        # clusters, with wide gaps between, give long runs of equal values
        # in a row and first triples further in; sparse growing gaps give
        # none at all.
        starts = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            wide = rng.random(80) < 0.15
            clustered = np.where(wide, rng.integers(20, 200, 80),
                                 rng.integers(1, 4, 80))
            growing = rng.integers(1, 4, 80) * np.arange(1, 81)
            for gaps in (clustered, growing):
                elements = np.concatenate([[1], 1 + np.cumsum(gaps)])
                index = QIndex(int(elements[-1]), elements.astype(np.uint32))
                answers = _slow_answers(index.elements)
                for r, triple in enumerate(answers):
                    assert search_equal_triple(index, r) == triple, (seed, r)
                starts.append(int(np.searchsorted(elements, answers[-1][0]))
                              if answers[-1] else None)
        assert None in starts and max(s for s in starts if s is not None) >= 5

    def test_agrees_with_the_table_scan_on_the_bits(self, index_1e4):
        bits = cachefile.QBits(10**4, cachefile.build_payload(10**4))
        for r in range(301):
            assert search_equal_triple(bits, r) == search_equal_triple_slow(
                *pairwise_table_slow(index_1e4.elements, r)), r

    def test_agrees_with_the_table_scan_on_drawn_member_lists(self):
        # Gaps of 1 to 3 with a wide one now and then give runs of several
        # equal values in a row, so a triple's c need not follow its b, and
        # a b can have more than one c.
        firsts = []
        for seed in range(200):
            rng = random.Random(seed)
            gaps = [rng.choice((1, 2, 3, 3, rng.randint(4, 40)))
                    for _ in range(rng.randint(2, 40))]
            members = [1]
            for gap in gaps:
                members.append(members[-1] + gap)
            front = ListFront(members)
            answers = _slow_answers(np.array(members, dtype=np.int64))
            for r, triple in enumerate(answers):
                assert search_equal_triple(front, r) == triple, (seed, r)
            firsts.append(answers[-1] and answers[-1][0])
        assert None in firsts and len(set(firsts)) >= 10

    def test_makes_no_table(self, index_1e5):
        # The 2001 x 2001 int64 table alone would take 32 MB.
        search_equal_triple(index_1e5, 2000)  # warm the index's own arrays
        tracemalloc.start()
        try:
            assert search_equal_triple(index_1e5, 2000) == (27, 28, 32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


class ListFront(QFront):
    """The query front over a plain ascending list of members from 1: the
    checks and ``prefix`` that ``search_equal_triple`` asks for."""

    __slots__ = ("members",)

    def __init__(self, members: list[int]):
        self.limit = members[-1]
        self.members = members

    def _count(self, n: int) -> int:
        return bisect_right(self.members, n) - 1

    def _nth(self, r: int) -> int | None:
        return self.members[r] if r < len(self.members) else None

    def _prefix(self, r: int) -> list[int]:
        return self.members[: r + 1]


def _slow_answers(elements: np.ndarray) -> list[tuple[int, int, int] | None]:
    """The table scan's answer at every rank of strictly increasing members.

    Its answer is the least triple (by rank) within the prefix. If that is
    t at rank R, with c at rank k, then t is also the answer at every rank
    in [k, R]: it lies in those prefixes, and each has only triples of the
    rank-R prefix. So one scan settles a whole range of ranks.
    """
    m, pair = pairwise_table_slow(elements, len(elements) - 1)
    answers = [None] * len(m)
    r = len(m) - 1
    while r >= 0:
        triple = search_equal_triple_slow(m[: r + 1], pair[: r + 1, : r + 1])
        k = m.index(triple[2]) if triple else 0
        answers[k : r + 1] = [triple] * (r + 1 - k)
        r = k - 1
    return answers


class TestBertrand:
    def test_failures_to_100(self, index_1e4):
        assert scan_bertrand(index_1e4, 1, 100) == [1, 2, 3, 4]

    def test_clean_from_8(self, index_1e5):
        assert scan_bertrand(index_1e5, 8, 10**4) == []

    def test_single_points(self, index_1e4):
        assert scan_bertrand(index_1e4, 9, 9) == []
        assert scan_bertrand(index_1e4, 4, 4) == [4]

    def test_capacity(self, index_1e4):
        with pytest.raises(CapacityError):
            scan_bertrand(index_1e4, 1, 10**4)
        with pytest.raises(DomainError):
            scan_bertrand(index_1e4, 0, 10)


class TestAdjacency:
    def test_equal_case(self, index_1e4):
        assert index_1e4.successor(13) == index_1e4.successor(14) == 18

    def test_consecutive_case(self, index_1e4):
        assert index_1e4.successor(26) == 27
        assert index_1e4.successor(27) == 28

    def test_no_violation_to_1e4(self, index_1e5):
        assert check_adjacency(index_1e5, 10**4) is None

    def test_capacity(self, index_117):
        with pytest.raises(CapacityError) as exc:
            check_adjacency(index_117, 117)
        assert exc.value.required == 124  # N(118)


class TestTwinShift:
    def test_single_twin_by_hand(self, index_1e4):
        # twin (27, 28) against x = 8 gives 20 and 27: consecutive in Q
        assert lop(index_1e4, 27, 8) == 20
        assert lop(index_1e4, 28, 8) == 27
        assert index_1e4.successor(20) == 27
        # against x = 12 both give 18
        assert lop(index_1e4, 27, 12) == lop(index_1e4, 28, 12) == 18

    def test_absent_to_117(self, index_1e4):
        assert check_twin_shift(index_1e4, 117) is None

    def test_absent_to_1e4(self, index_1e4):
        assert check_twin_shift(index_1e4, 10**4) is None

    def test_capacity(self, index_117):
        with pytest.raises(CapacityError):
            check_twin_shift(index_117, 500)

    def test_twins_match_gap_pairs(self, index_1e4):
        twins = gap_pairs(index_1e4, 1, 10**4)
        assert all(p.hi == p.lo + 1 for p in twins)
        assert len(twins) > 0


@pytest.mark.parametrize("scan, message", [
    (lambda q: search_equal_triple(q, -1), "need rank r >= 0, got -1"),
    (lambda q: scan_bertrand(q, 5, 4), "need hi >= lo, got [5, 4]"),
    (lambda q: check_adjacency(q, -1), "need t_max >= 0, got -1"),
], ids=["search_equal_triple", "scan_bertrand", "check_adjacency"])
def test_scans_refuse_arguments_below_their_domain(index_117, scan, message):
    for q in (index_117, cachefile.QBits(117, cachefile.build_payload(117))):
        with pytest.raises(DomainError) as exc:
            scan(q)
        assert type(exc.value) is DomainError
        assert str(exc.value) == message
