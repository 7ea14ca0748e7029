"""The loop on Q: the binary operation, rank prefixes, fixed points, and
the SP-free runs between members.

Q is {1} together with every SP number, kept in increasing order
1 < sp_1 < sp_2 < ...  The operation is a • b = N(|a - b|), the smallest
member of Q strictly above the absolute difference. 1 is a two-sided
identity, every element is its own inverse, and for a != b the result is
at most max(a, b), so every rank prefix {1, sp_1, ..., sp_r} is closed.
The operation is commutative but not associative; this module can locate
the smallest associativity failure by exhaustive search.

Q elements are plain ints. Membership is validated at each operation's
boundary instead of being wrapped in a dedicated element type.

Fixed points and SP-free runs are read off one gap query that every index
answers: ``first_gap(w)``, the first consecutive members (lo, hi) of Q
with hi - lo >= w, where 1 counts as a member. The one query front in
``front`` answers it by a walk over Q's record gaps, and takes each from
one primitive of the index: ``QIndex`` scans its gaps a block at a time,
and the numpy-free ``cachefile.QBits`` a cache file's bits. ``contains``
and ``successor``, with their checks and errors, come from the same
front, so ``lop``, ``fixed_point`` and ``find_gap_run`` run on either and
fail on either alike.
The table, the non-associativity search and
``theorems.search_equal_triple`` need N only below a rank prefix's top
member, and the prefix's own gaps give it: N(x) is the upper member of the
gap that holds x. ``_successors`` lists it in one merge pass over
consecutive members, without numpy and without the index. Only
``cayley_table`` imports numpy, when called; ``cayley_rows`` is the
table without it, which ``verify.axioms`` checks.
"""

from __future__ import annotations

from itertools import pairwise

from .errors import CapacityError, DomainError, MembershipError, SploopError
from .record import Record

TYPE_CHECKING = False  # as typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .sieve import QIndex


def _check_member(index: QIndex, x: int, name: str) -> None:
    index._check_cover(x)
    if not index.contains(x):
        raise MembershipError(f"{name}={x} is not 1 and not an SP number")


def lop(index: QIndex, a: int, b: int) -> int:
    """a • b: the smallest element of Q strictly greater than |a - b|.

    Both operands must be members of Q within the indexed range. The
    result never needs more range than the operands: for a != b it is at
    most max(a, b), and a • a = 1.
    """
    _check_member(index, a, "a")
    _check_member(index, b, "b")
    return index.successor(abs(a - b))


class SubLoop(Record):
    """The rank-r prefix {1, sp_1, ..., sp_r}, closed under the operation."""

    __slots__ = ("r", "members")


def sub_loop(index: QIndex, r: int) -> SubLoop:
    return SubLoop(r, tuple(index.prefix(r)))


class CayleyTable(Record):
    """Full operation table over a rank prefix.

    entries[i][j] = members[i] • members[j]. Symmetric, identity row and
    column reproduce the member list, diagonal is all 1s. Tables compare
    by identity, and the repr leaves the entries out.
    """

    __slots__ = ("order", "members", "entries")
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"CayleyTable(order={self.order!r}, members={self.members!r})"

    def to_lists(self) -> list[list[int]]:
        return self.entries.tolist()


def cayley_table(index: QIndex, r: int) -> CayleyTable:
    """The (r+1) x (r+1) table over {1, sp_1, ..., sp_r}."""
    import numpy as np

    loop = sub_loop(index, r)
    m = np.asarray(loop.members, dtype=np.int64)
    # Every |m[i] - m[j]| lies in [0, m[-1]), where N is gathered.
    successors = np.asarray(_successors(loop.members), dtype=np.int64)
    entries = successors[np.abs(m[:, None] - m[None, :])]
    return CayleyTable(order=r + 1, members=loop.members, entries=entries)


def find_nonassoc_witness(index: QIndex, r: int) -> tuple[int, int, int] | None:
    """Lexicographically first (a, b, c) in the rank-r prefix cubed with
    (a • b) • c != a • (b • c), or None when the prefix is associative.

    Repeats are allowed: the cube is scanned in row-major order over
    member values, so the returned triple is the smallest witness overall.
    1, a two-sided identity, fails no triple and is skipped at each level:
    else the scan would walk all r**2 pairs with a = 1 first.
    """
    members = index.prefix(r)
    # Every product is a member of the prefix, so each difference below lies
    # in [0, members[-1]), where N is listed.
    successors = _successors(members)
    rest = members[1:]
    for a in rest:
        for b in rest:
            ab = successors[abs(a - b)]
            for c in rest:
                bc = successors[abs(b - c)]
                if successors[abs(ab - c)] != successors[abs(a - bc)]:
                    return a, b, c
    return None


def _successors(members: list[int] | tuple[int, ...]) -> list[int]:
    """N(x) for 0 <= x < members[-1], where members is a rank prefix
    [1, sp_1, ..., sp_r]: one merge pass over consecutive members."""
    successors = [1]  # N(0)
    for lo, hi in pairwise(members):
        successors += [hi] * (hi - lo)  # N(x) = hi for x in [lo, hi)
    return successors


def cayley_rows(members: list[int]) -> list[list[int]]:
    """The entries of ``cayley_table`` over a rank prefix's members, as
    lists and without numpy. Every |a - b| lies in [0, members[-1])."""
    successors = _successors(members)
    return [[successors[abs(a - b)] for b in members] for a in members]


def fixed_point(index: QIndex, q: int) -> int:
    """Least a > q in Q that the operation with q leaves in place.

    For q = 1 that is 1 itself. For larger q it is the upper end of the
    first gap at least q wide: then nothing of Q lies in (a - q, a), so
    a • q = N(a - q) = a, and every a > q with that property closes such a
    gap. A smaller fixed point below q can exist (8 • 12 = 8, while
    fixed_point(12) is 44). The result is re-verified by direct evaluation
    before it is returned.

    Raises CapacityError with ``required=None`` when no gap of width q
    lies below the limit: no limit is known that guarantees one.
    """
    _check_member(index, q, "q")
    if q == 1:
        return 1
    gap = index.first_gap(q)
    if gap is None:
        lo, hi = widest_gap(index)
        raise CapacityError(
            f"no SP-free gap of width {q} below limit {index.limit}; the "
            f"widest spans {hi - lo} ({lo} -> {hi}); a larger limit may hold one",
        )
    a = gap[1]
    if lop(index, a, q) != a:
        raise SploopError(f"internal inconsistency: {a} • {q} != {a}")
    return a


class GapRun(Record):
    """Maximal block of consecutive naturals containing no SP number."""

    __slots__ = ("start", "length")


def find_gap_run(index: QIndex, n: int) -> GapRun:
    """First maximal SP-free run of length at least n, with its full length.

    The run before the first SP number starts at 1; every later run lies
    strictly between two consecutive SP numbers, so it is one gap less one.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    first = _first_run(index)
    if n <= first.length:
        return first
    # Past the first run the gap from 1 is too narrow, so lo is an SP.
    gap = index.first_gap(n + 1)
    if gap is None:
        longest = longest_gap_run(index)
        raise CapacityError(
            f"no SP-free run of length {n} below limit {index.limit}; the "
            f"longest is {longest.length} non-SP numbers from {longest.start}; "
            f"a larger limit may hold one",
        )
    lo, hi = gap
    return GapRun(start=lo + 1, length=hi - lo - 1)


def longest_gap_run(index: QIndex) -> GapRun:
    """The longest run ``find_gap_run`` can return below the index limit,
    the first one on ties. The index must hold an SP number."""
    first = _first_run(index)
    lo, hi = widest_gap(index)
    widest = GapRun(start=lo + 1, length=hi - lo - 1)
    return widest if widest.length > first.length else first


def _first_run(index: QIndex) -> GapRun:
    """1 up to the first SP number, which closes the first gap of Q (the
    first at least 0 wide)."""
    gap = index.first_gap(0)
    if gap is None:
        raise CapacityError(f"no SP numbers below limit {index.limit}")
    return GapRun(start=1, length=gap[1] - 1)


def widest_gap(index: QIndex) -> tuple[int, int] | None:
    """The first of the widest gaps (lo, hi) between consecutive members,
    found by asking for a gap one wider than the last until none is."""
    widest, w = None, 0
    while (gap := index.first_gap(w)) is not None:
        widest, w = gap, gap[1] - gap[0] + 1
    return widest
