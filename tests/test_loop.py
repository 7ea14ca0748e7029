from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sploop import (
    CapacityError,
    MembershipError,
    QIndex,
    cayley_table,
    find_nonassoc_witness,
    fixed_point,
    lop,
    sub_loop,
)
from sploop import cachefile
from sploop.loop_algebra import _successors

from _oracles import (lop_slow, nonassoc_witness_slow, pairwise_table_slow,
                      sp_list_slow)


@st.composite
def drawn_prefixes(draw):
    """An index over a drawn strictly increasing array from 1, in either
    member dtype, and a rank into it."""
    gaps = draw(st.lists(st.integers(1, 12), max_size=30))
    members = np.cumsum([1, *gaps]).astype(draw(st.sampled_from([np.int64, np.uint32])))
    return QIndex(int(members[-1]), members), draw(st.integers(0, len(gaps)))


class TestLop:
    def test_worked_examples(self, index_1e4):
        assert lop(index_1e4, 164, 188) == 27
        assert lop(index_1e4, 188, 212) == 27
        assert lop(index_1e4, 212, 236) == 27
        assert lop(index_1e4, 50, 50) == 1
        assert lop(index_1e4, 27, 1) == 27
        assert lop(index_1e4, 8, 12) == 8
        assert lop(index_1e4, 12, 18) == 8
        assert lop(index_1e4, 8, 18) == 12

    def test_membership_enforced(self, index_1e4):
        with pytest.raises(MembershipError):
            lop(index_1e4, 7, 8)
        with pytest.raises(MembershipError):
            lop(index_1e4, 8, 9)
        with pytest.raises(MembershipError):
            lop(index_1e4, 0, 8)
        with pytest.raises(CapacityError):
            lop(index_1e4, 8, 10**5)

    def test_matches_slow_oracle(self, index_117):
        members = [1] + sp_list_slow(117)
        for a in members:
            for b in members:
                assert lop(index_117, a, b) == lop_slow(members, a, b)

    @given(st.data())
    @settings(max_examples=200)
    def test_axioms_sampled(self, index_1e5, data):
        members = index_1e5.elements
        a = int(members[data.draw(st.integers(0, len(members) - 1))])
        b = int(members[data.draw(st.integers(0, len(members) - 1))])
        ab = lop(index_1e5, a, b)
        assert lop(index_1e5, b, a) == ab          # commutative
        assert index_1e5.contains(ab)              # closed
        assert lop(index_1e5, a, a) == 1           # self-inverse
        assert lop(index_1e5, a, 1) == a           # identity
        if a != b:
            assert ab <= max(a, b)                 # bound


class TestSubLoopAndTable:
    def test_members(self, index_1e4):
        assert sub_loop(index_1e4, 0).members == (1,)
        assert sub_loop(index_1e4, 3).members == (1, 8, 12, 18)

    def test_rank_capacity(self, index_117):
        with pytest.raises(CapacityError):
            sub_loop(index_117, 26)

    def test_rank_two_table(self, index_1e4):
        table = cayley_table(index_1e4, 2)
        assert table.order == 3
        assert table.members == (1, 8, 12)
        assert table.to_lists() == [[1, 8, 12], [8, 1, 8], [12, 8, 1]]

    def test_rank_zero_table(self, index_1e4):
        assert cayley_table(index_1e4, 0).to_lists() == [[1]]

    @pytest.mark.parametrize("rank", [0, 1, 5, 307])
    def test_entries_are_the_successors_of_the_differences(self, index_1e4, rank):
        m = cayley_table(index_1e4, rank).members
        assert cayley_table(index_1e4, rank).to_lists() == [
            [index_1e4.successor(abs(a - b)) for b in m] for a in m]

    def test_invariants_to_rank_200(self, index_1e4):
        table = cayley_table(index_1e4, 200)
        m = np.asarray(table.members)
        t = table.entries
        assert (t == t.T).all()
        assert (np.diag(t) == 1).all()
        assert (t[0] == m).all() and (t[:, 0] == m).all()
        assert np.isin(t, m).all()                 # closure inside the prefix
        off = ~np.eye(len(m), dtype=bool)
        assert (t[off] <= np.maximum(m[:, None], m[None, :])[off]).all()


class TestNonAssociativity:
    def test_absent_at_tiny_ranks(self, index_1e4):
        assert find_nonassoc_witness(index_1e4, 0) is None
        assert find_nonassoc_witness(index_1e4, 1) is None

    def test_smallest_witness(self, index_1e4):
        # (8 • 8) • 12 = 1 • 12 = 12 while 8 • (8 • 12) = 8 • 8 = 1
        assert find_nonassoc_witness(index_1e4, 2) == (8, 8, 12)
        assert find_nonassoc_witness(index_1e4, 3) == (8, 8, 12)
        assert find_nonassoc_witness(index_1e4, 50) == (8, 8, 12)

    def test_witness_evaluations(self, index_1e4):
        a, b, c = find_nonassoc_witness(index_1e4, 2)
        left = lop(index_1e4, lop(index_1e4, a, b), c)
        right = lop(index_1e4, a, lop(index_1e4, b, c))
        assert left != right

    @given(drawn_prefixes())
    @settings(max_examples=300, deadline=None)
    def test_prefix_route_matches_the_oracles(self, drawn):
        index, r = drawn
        m, pair = pairwise_table_slow(index.elements, r)
        assert _successors(m) == [index.successor(x) for x in range(m[-1])]
        assert cayley_table(index, r).to_lists() == pair.tolist()
        assert find_nonassoc_witness(index, r) == nonassoc_witness_slow(m, pair)

    @given(drawn_prefixes())
    @settings(max_examples=300, deadline=None)
    def test_bits_route_matches_the_oracle(self, drawn):
        index, r = drawn
        payload = bytearray(cachefile.payload_size(index.limit))
        for n in index.elements[1:].tolist():
            payload[n >> 3] |= 1 << (n & 7)
        bits = cachefile.QBits(index.limit, payload)
        m, pair = pairwise_table_slow(index.elements, r)
        assert find_nonassoc_witness(bits, r) == nonassoc_witness_slow(m, pair)

    def test_distinct_triple_witness(self, index_1e4):
        # the smallest witness with three distinct elements
        left = lop(index_1e4, lop(index_1e4, 8, 12), 18)
        right = lop(index_1e4, 8, lop(index_1e4, 12, 18))
        assert left == 12
        assert right == 1


class TestFixedPoint:
    def test_known_values(self, index_1e4):
        assert fixed_point(index_1e4, 1) == 1
        assert fixed_point(index_1e4, 8) == 44
        assert fixed_point(index_1e4, 12) == 44

    def test_result_is_fixed(self, index_1e7):
        for q in [int(v) for v in index_1e7.elements if v <= 207]:
            a = fixed_point(index_1e7, q)
            assert lop(index_1e7, a, q) == a
            assert a == 1 or index_1e7.predecessor(a) <= a - q

    def test_minimality(self, index_1e7):
        # nothing below the reported fixed point is itself fixed, over the
        # gap characterization: every earlier SP has a closer predecessor
        q = 44
        a = fixed_point(index_1e7, q)
        earlier = index_1e7.elements[(index_1e7.elements > 1)
                                     & (index_1e7.elements < a)]
        gaps = np.diff(np.concatenate(([1], earlier)))
        assert (gaps < q).all()

    def test_membership_enforced(self, index_1e4):
        with pytest.raises(MembershipError):
            fixed_point(index_1e4, 7)

    def test_capacity_when_no_gap_is_wide_enough(self, index_117):
        # widest SP-free stretch below 117 spans 12, so q = 18 cannot land
        with pytest.raises(CapacityError):
            fixed_point(index_117, 18)

    def test_capacity_boundary_at_1e7(self, index_1e7):
        # the widest gap below 10**7 spans 207 (at 9275836 -> 9276043),
        # so 207 is the largest member with a fixed point above it at this
        # limit; 208 still has one below it, since 108 • 208 = 108
        assert int(np.diff(index_1e7.elements).max()) == 207
        assert fixed_point(index_1e7, 207) == 9276043
        with pytest.raises(CapacityError):
            fixed_point(index_1e7, 208)
