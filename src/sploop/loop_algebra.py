"""The loop on Q: the binary operation, rank prefixes, and fixed points.

Q is {1} together with every SP number, kept in increasing order
1 < sp_1 < sp_2 < ...  The operation is a • b = N(|a - b|), the smallest
member of Q strictly above the absolute difference. 1 is a two-sided
identity, every element is its own inverse, and for a != b the result is
at most max(a, b), so every rank prefix {1, sp_1, ..., sp_r} is closed.
The operation is commutative but not associative; this module can locate
the smallest associativity failure by exhaustive search.

Q elements are plain ints. Membership is validated at each operation's
boundary instead of being wrapped in a dedicated element type.

Only ``cayley_table`` and ``find_nonassoc_witness`` import numpy, when
called: ``lop`` and ``fixed_point`` need no more of the index than its
queries, so ``lop`` also runs on the numpy-free ``cachefile.QBits``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CapacityError, MembershipError, SploopError

TYPE_CHECKING = False  # as typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    import numpy as np

    from .sieve import QIndex


def _check_member(index: QIndex, x: int, name: str) -> None:
    if x > index.limit:
        raise CapacityError(
            f"{name}={x} exceeds the index limit {index.limit}", required=x
        )
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


@dataclass(frozen=True)
class SubLoop:
    """The rank-r prefix {1, sp_1, ..., sp_r}, closed under the operation."""

    r: int
    members: tuple[int, ...]


def sub_loop(index: QIndex, r: int) -> SubLoop:
    if r < 0:
        raise MembershipError(f"need rank r >= 0, got {r}")
    if r >= len(index.elements):
        raise CapacityError(
            f"rank {r} exceeds the {len(index.elements) - 1} indexed SP numbers"
        )
    return SubLoop(r, tuple(int(v) for v in index.elements[: r + 1]))


@dataclass(frozen=True, eq=False)
class CayleyTable:
    """Full operation table over a rank prefix.

    entries[i][j] = members[i] • members[j]. Symmetric, identity row and
    column reproduce the member list, diagonal is all 1s.
    """

    order: int
    members: tuple[int, ...]
    entries: np.ndarray = field(repr=False)

    def to_lists(self) -> list[list[int]]:
        return self.entries.tolist()


def cayley_table(index: QIndex, r: int) -> CayleyTable:
    """The (r+1) x (r+1) table over {1, sp_1, ..., sp_r}."""
    import numpy as np

    loop = sub_loop(index, r)
    m = np.asarray(loop.members, dtype=np.int64)  # m[i] - m[j] wraps if unsigned
    # Every |m[i] - m[j]| lies in [0, m[-1]), so one search per value there
    # and a gather replace one search per entry of the (r+1)**2 matrix.
    successors = index.successor_many(np.arange(m[-1]))
    entries = successors[np.abs(m[:, None] - m[None, :])]
    return CayleyTable(order=r + 1, members=loop.members, entries=entries)


def find_nonassoc_witness(index: QIndex, r: int) -> tuple[int, int, int] | None:
    """Lexicographically first (a, b, c) in the rank-r prefix cubed with
    (a • b) • c != a • (b • c), or None when the prefix is associative.

    Repeats are allowed: the cube is scanned in row-major order over
    member values, so the returned triple is the smallest witness overall.
    """
    import numpy as np

    table = cayley_table(index, r)
    m = np.asarray(table.members, dtype=np.int64)
    # The entries come in the members' dtype; unsigned, m[i] - t would wrap.
    t = table.entries.astype(np.int64)
    for i in range(len(m)):
        # left[b, c] = (m[i] • m[b]) • m[c];  right[b, c] = m[i] • (m[b] • m[c])
        left = index.successor_many(np.abs(t[i, :][:, None] - m[None, :]))
        right = index.successor_many(np.abs(int(m[i]) - t))
        diff = left != right
        if diff.any():
            b, c = np.unravel_index(int(np.argmax(diff)), diff.shape)
            return int(m[i]), int(m[b]), int(m[c])
    return None


def fixed_point(index: QIndex, q: int) -> int:
    """Least a > q in Q that the operation with q leaves in place.

    For q = 1 that is 1 itself. For larger q the scan looks for the first
    SP number a whose gap to its Q-predecessor is at least q: then nothing
    of Q lies in (a - q, a), so a • q = N(a - q) = a, and every a > q with
    that property closes such a gap. A smaller fixed point below q can
    exist (8 • 12 = 8, while fixed_point(12) is 44). The result is
    re-verified by direct evaluation before it is returned.

    Raises CapacityError with ``required=None`` when no gap of width q
    lies below the limit: no limit is known that guarantees one.
    """
    _check_member(index, q, "q")
    if q == 1:
        return 1
    i = index.first_gap_at_least(q)
    if i is None:
        w = index.widest_gap()
        raise CapacityError(
            f"no SP-free gap of width {q} below limit {index.limit}; the "
            f"widest spans {int(index.gaps[w])} "
            f"({int(index.elements[w])} -> {int(index.elements[w + 1])}); "
            f"a larger limit may hold one",
        )
    a = int(index.elements[i + 1])
    if lop(index, a, q) != a:
        raise SploopError(f"internal inconsistency: {a} • {q} != {a}")
    return a
