"""The gap-array range scans against the per-integer scans they replace.

Every limit from 8 to 2000 is checked on the real index. Q itself never
lists a value twice, so the violation branches of ``check_adjacency`` and
``check_twin_shift`` only fire on drawn sorted arrays with values
injected a second time; those are compared with the oracles too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    adjacency_violation_slow,
    bertrand_failures_slow,
    fixed_point_slow,
    gap_histogram_slow,
    gap_pairs_slow,
    gap_run_slow,
    record_gaps_slow,
    twin_shift_violation_slow,
)
from sploop import (
    CapacityError,
    QIndex,
    SpPair,
    build_sieve,
    cachefile,
    check_adjacency,
    check_twin_shift,
    digit_census,
    find_gap_run,
    fixed_point,
    gap_histogram,
    gap_pairs,
    scan_bertrand,
)
from sploop.loop_algebra import widest_gap
from sploop.sieve import _GAP_BLOCK

TOP = 2000


@pytest.fixture(scope="module")
def indexes():
    """QIndex at every limit from 8 to TOP, cut from one build."""
    elements = QIndex.from_sieve(build_sieve(TOP)).elements
    return [
        QIndex(limit, elements[: np.searchsorted(elements, limit, side="right")])
        for limit in range(8, TOP + 1)
    ]


def gap_run_or_none(index, n):
    try:
        run = find_gap_run(index, n)
    except CapacityError:
        return None
    return run.start, run.length


def fixed_point_or_none(index, q):
    try:
        return fixed_point(index, q)
    except CapacityError:
        return None


def assert_first_gap_queries(index):
    e = index.elements
    gaps = np.diff(e)
    assert np.array_equal(index.gaps, gaps)
    for w in range(int(gaps.max()) + 2):
        hits = np.flatnonzero(gaps >= w)
        want = (int(e[hits[0]]), int(e[hits[0] + 1])) if hits.size else None
        assert index.first_gap(w) == want, w
    i = int(gaps.argmax())
    assert widest_gap(index) == (int(e[i]), int(e[i + 1]))


def assert_scans_match(index):
    """Every rewritten scan agrees with its oracle on this index."""
    e, limit = index.elements, index.limit
    assert_first_gap_queries(index)
    for lo in (1, 5):
        if lo <= limit // 2:
            assert scan_bertrand(index, lo, limit // 2) == \
                bertrand_failures_slow(e, lo, limit // 2)
    t_max = index.max_element - 2
    assert check_adjacency(index, t_max) == adjacency_violation_slow(e, t_max)
    for bound in (8, limit // 3, limit):
        assert check_twin_shift(index, bound) == twin_shift_violation_slow(e, bound)
    widest = int(index.gaps.max())
    for n in range(1, widest + 2):
        assert gap_run_or_none(index, n) == gap_run_slow(e, n), n
    for q in e[(e > 1) & (e <= widest + 20)].tolist():
        assert fixed_point_or_none(index, q) == fixed_point_slow(e, q), q
    for bound in (0, 8, limit // 3, limit):
        for g in (1, 2, 4, 9):
            assert [(p.lo, p.hi) for p in gap_pairs(index, g, bound)] == \
                gap_pairs_slow(e, g, bound)
        assert gap_histogram(index, bound) == gap_histogram_slow(e, bound)


def test_every_limit_to_2000(indexes):
    for index in indexes:
        assert_scans_match(index)


def test_first_gap_at_least_at_1e5(index_1e5):
    assert_first_gap_queries(index_1e5)


def assert_record_gaps(index):
    """The record gaps the front walks, asked for one width past the
    widest, against one running maximum of all the gaps; returns their
    positions in ``gaps``."""
    e = index.elements
    widest = int(index.gaps.max()) if index.gaps.size else -1
    assert index.first_gap(widest + 1) is None
    *records, end = index._records
    assert end is None
    where, _ = record_gaps_slow(index.gaps)
    assert records == [(int(e[i]), int(e[i + 1])) for i in where.tolist()]
    assert all(type(x) is int for gap in records for x in gap)
    return where.tolist()


def index_with_gaps(gaps: list[int]) -> QIndex:
    """A QIndex whose members are 1 and then the running sums of gaps."""
    elements = np.cumsum([1] + gaps).astype(np.uint32)
    return QIndex(int(elements[-1]), elements)


B = _GAP_BLOCK


def test_record_gaps_at_block_edges():
    # Each record is looked for in blocks from the gap after the last one.
    gaps = [2] * (4 * B)
    gaps[B] = 3  # the last gap of the block from 1, exactly as wide as asked
    gaps[2 * B + 1] = 4  # the first of the block after the one from B + 1
    gaps[2 * B + 5] = 6  # and a second record in that same block
    gaps[3 * B + 5] = 9  # the last of the block from 2 * B + 6
    gaps[3 * B + 20] = 9  # the last block's maximum only ties it
    gaps[3 * B + 21] = 8  # below the best, past a tie
    assert assert_record_gaps(index_with_gaps(gaps)) == \
        [0, B, 2 * B + 1, 2 * B + 5, 3 * B + 5]


def test_record_gaps_after_a_tying_block():
    gaps = [1] * (3 * B)
    gaps[5] = 4
    gaps[B + 3] = 4  # the block from 6 only ties the record: skipped
    gaps[2 * B] = 4  # the next is searched, and steps over its tie
    gaps[2 * B + 1] = 5  # to the record right after it
    assert assert_record_gaps(index_with_gaps(gaps)) == [0, 5, 2 * B + 1]


@pytest.mark.parametrize("gaps", [[7], [3, 1, 3, 4, 2, 4, 9], [5] * 100,
                                  list(range(1, 300)), list(range(300, 0, -1))],
                         ids=["one", "short", "flat", "rising", "falling"])
def test_record_gaps_shorter_than_a_block(gaps):
    assert_record_gaps(index_with_gaps(gaps))


@pytest.mark.parametrize("limit, size", [(7, 0), (8, 1)])
def test_record_gaps_with_at_most_one_gap(limit, size):
    index = build_sieve(limit)
    assert index.gaps.size == size
    assert assert_record_gaps(index) == list(range(size))


def test_record_gaps_at_1e7(index_1e7):
    assert index_1e7.gaps.size > 8 * B  # the gaps span 9 blocks
    where = assert_record_gaps(index_1e7)
    assert len(where) == 24
    assert len({i // B for i in where}) == 6  # found in six of the blocks


# Gap positions on both sides of the first block edges, and the last gap.
# The kernels over SP numbers start their blocks at gap 1, one past the
# others, so B + 2 is the second gap of their second block.
EDGES = [B - 1, B, B + 1, B + 2, 2 * B + 6]
EDGE_IDS = ["B-1", "B", "B+1", "B+2", "last"]


def edge_index(at: int, run: list[int]) -> QIndex:
    """1 and the running sums of 2B + 7 gaps of 10, but for the gaps run,
    the last of which is gap at. Its limit, the last member, lies inside
    the third block."""
    gaps = [10] * (2 * B + 7)
    gaps[at + 1 - len(run) : at + 1] = run
    return index_with_gaps(gaps)


def edge_bounds(index: QIndex, at: int) -> list[int]:
    """Bounds that cut Q inside a block: before the run that ends at gap
    at, inside it, at the run's last gap's ends, and at the limit."""
    e = index.elements
    return sorted({int(e[at - 5]), int(e[at]), int(e[at + 1]) - 1,
                   int(e[at + 1]), index.limit})


@pytest.mark.parametrize("at", EDGES, ids=EDGE_IDS)
def test_gap_pairs_at_a_block_edge(at):
    index = edge_index(at, [3])
    e = index.elements
    assert gap_pairs(index, 3, index.limit) == \
        [SpPair(lo=int(e[at]), hi=int(e[at + 1]), gap=3)]
    for bound in edge_bounds(index, at):
        for g in (3, 10):
            assert [(p.lo, p.hi) for p in gap_pairs(index, g, bound)] == \
                gap_pairs_slow(e, g, bound), (bound, g)


@pytest.mark.parametrize("at", EDGES, ids=EDGE_IDS)
def test_a_repeat_at_a_block_edge(at):
    index = edge_index(at, [0])
    e = index.elements
    value = int(e[at])
    assert index._repeats() == [value]
    for t_max in (value - 2, value - 1, index.max_element - 2):
        if t_max + 1 < index.max_element:
            assert check_adjacency(index, t_max) == \
                adjacency_violation_slow(e, t_max), t_max


@pytest.mark.parametrize("at", EDGES, ids=EDGE_IDS)
def test_the_widest_gap_at_a_block_edge(at):
    index = edge_index(at, [50])
    e = index.elements
    assert index.first_gap(50) == (int(e[at]), int(e[at + 1]))
    assert assert_record_gaps(index) == [0, at]
    for bound in edge_bounds(index, at):
        assert gap_histogram(index, bound) == gap_histogram_slow(e, bound), bound


@pytest.mark.parametrize("at", EDGES, ids=EDGE_IDS)
def test_every_final_digit_at_a_block_edge(at):
    # Ten gaps of 1 make eleven consecutive members, which end in every digit.
    index = edge_index(at, [1] * 10)
    sps = index.elements[1:]
    for bound in edge_bounds(index, at):
        counts = np.bincount(sps[sps <= bound] % 10, minlength=10)
        assert digit_census(index, bound).counts == dict(enumerate(counts.tolist()))


@pytest.mark.parametrize("g", [2**32 + 1, 2**70])
def test_gap_pairs_wider_than_any_member(g, indexes):
    bits = cachefile.QBits(TOP, cachefile.build_payload(TOP))
    assert gap_pairs(indexes[-1], g, TOP) == []
    assert gap_pairs(bits, g, TOP) == []


def test_violation_witnesses():
    # 27 listed twice: N(26) = 27 and N(27) = 28 lie two positions apart.
    # The first twin is (27, 28), and x = 27 + 1 - 27 = 1 hits t = 26.
    elements = QIndex.from_sieve(build_sieve(200)).elements
    doubled = np.sort(np.append(elements, 27))
    index = QIndex(200, doubled)
    assert check_adjacency(index, 100) == 26
    assert check_twin_shift(index, 200) == (27, 1, 27)
    assert_scans_match(index)


def test_a_value_listed_three_times():
    # 27 listed three times is repeated twice; the scans answer as the
    # oracles, which see the same value twice.
    elements = QIndex.from_sieve(build_sieve(200)).elements
    tripled = np.sort(np.append(elements, [27, 27]))
    index = QIndex(200, tripled)
    assert index._repeats() == [27, 27]
    for t_max in (25, 26, 100):
        assert check_adjacency(index, t_max) == \
            adjacency_violation_slow(tripled, t_max)
    for bound in (27, 28, 200):
        assert check_twin_shift(index, bound) == \
            twin_shift_violation_slow(tripled, bound)
    assert check_twin_shift(index, 200) == (27, 1, 27)


def assert_bertrand_walk(index):
    """scan_bertrand against the per-integer oracle, for every hi it takes."""
    for lo in (1, 2, 3, 5):
        for hi in range(lo, index.limit // 2 + 1):
            assert scan_bertrand(index, lo, hi) == \
                bertrand_failures_slow(index.elements, lo, hi), (lo, hi)


@pytest.mark.parametrize("members", [
    # The gap (8, 16) is exactly as wide as its lower end: n = 8 fails.
    [1, 8, 16],
    # A failing gap (200, 450) after a long run of narrower gaps.
    [1] + list(range(8, 201, 2)) + [450, 451, 460],
    # The failing gap (60, 130) lies past every hi below 60.
    [1] + list(range(8, 61, 2)) + [130, 131],
], ids=["as-wide-as-its-lower-end", "after-narrow-gaps", "past-hi"])
def test_bertrand_walk_on_chosen_gaps(members):
    elements = np.array(members, dtype=np.int64)
    assert_bertrand_walk(QIndex(2 * members[-1] + 2, elements))


def test_bertrand_walk_without_a_gap():
    index = build_sieve(7)
    assert index.first_gap(0) is None
    assert_bertrand_walk(index)
    assert scan_bertrand(index, 1, 3) == [1, 2, 3]


def test_bertrand_walk_on_bits_answers_as_the_index(indexes):
    payload = cachefile.build_payload(TOP)
    for index in indexes:
        bits = cachefile.QBits(index.limit, payload)
        for lo in (1, 2, 3, 5):
            hi = index.limit // 2
            if lo <= hi:
                assert scan_bertrand(bits, lo, hi) == \
                    scan_bertrand(index, lo, hi), (index.limit, lo)


def test_gap_pairs_on_bits_answers_as_the_index(indexes):
    payload = cachefile.build_payload(TOP)
    for index in indexes:
        bits = cachefile.QBits(index.limit, payload)
        for g in (1, 2, 4, 9):
            assert gap_pairs(bits, g, index.limit) == \
                gap_pairs(index, g, index.limit), (index.limit, g)


@st.composite
def repeated_arrays(draw):
    """A sorted array that starts at 1, with one to three members listed
    twice. Dense draws make twins, and so twin-shift witnesses, common."""
    rest = draw(st.lists(st.integers(2, 80), min_size=10, max_size=60,
                         unique=True))
    elements = sorted([1] + rest)
    twice = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=3,
                          unique=True))
    return np.array(sorted(elements + twice), dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(repeated_arrays())
def test_drawn_arrays_with_a_repeat(elements):
    # limit past the largest member lets scan_bertrand reach n with no
    # successor at all
    index = QIndex(2 * int(elements[-1]), elements)
    e = index.elements
    assert_first_gap_queries(index)
    hi = index.limit // 2
    assert scan_bertrand(index, 1, hi) == bertrand_failures_slow(e, 1, hi)
    t_max = index.max_element - 2
    assert check_adjacency(index, t_max) == adjacency_violation_slow(e, t_max)
    for bound in (int(e[-1]) // 2, index.limit):
        assert check_twin_shift(index, bound) == twin_shift_violation_slow(e, bound)
    for n in range(1, int(index.gaps.max()) + 2):
        assert gap_run_or_none(index, n) == gap_run_slow(e, n), n
    for q in np.unique(e[e > 1]).tolist():
        assert fixed_point_or_none(index, q) == fixed_point_slow(e, q), q
    for bound in (int(e[-1]) // 2, index.limit):
        for g in (1, 2, 3):
            assert [(p.lo, p.hi) for p in gap_pairs(index, g, bound)] == \
                gap_pairs_slow(e, g, bound)
        assert gap_histogram(index, bound) == gap_histogram_slow(e, bound)
