"""The query front that ``QIndex`` and ``cachefile.QBits`` share: every
public question on Q, with its argument checks, error types, messages and
``required`` values, written once and without numpy.

An index supplies only primitives, which the front calls only after its
checks pass, with arguments in the ranges below:

- ``_count(n)``: the number of SP numbers <= n, for 0 <= n <= limit;
- ``_nth(r)``: the r-th SP number, r >= 1, or None past the last;
- ``_next(n)``: the least member of Q >= n, for any n >= 1, or None;
- ``_prev(x)``: the largest member of Q < x, for 2 <= x <= limit + 1;
- ``_has(x)``: membership in Q, for 1 <= x <= limit;
- ``_gap_from(start, w)``: the first consecutive members (lo, hi) with
  lo >= start and hi - lo >= w, or None, for a member start and w >= 0;
- ``_pair_ends(g, limit)``: the lower and the upper members of the
  consecutive SP pairs at gap g >= 1 up to limit <= the index's limit,
  as two lists;
- ``_prefix(r)``: the rank-r prefix, once the r-th SP number exists;
- ``_digit_counts(limit)``: the counts of SP numbers <= limit by final
  digit 0..9, as a list, for 0 <= limit <= the index's limit;
- ``_repeats()``: the values listed more than once, which ``theorems``'
  adjacency and twin-shift checks read.

``first_gap(w)``, the gap query behind fixed points, SP-free runs and the
doubling scan, takes any w and so needs no check; the front walks Q's
record gaps for it with ``_gap_from`` and keeps them.
"""

from __future__ import annotations

from .errors import CapacityError, DomainError, MembershipError
from .spcore import _successor_beyond


class QFront:
    """Q up to ``limit``, asked through checked queries; a subclass supplies
    the primitives the module docstring lists."""

    __slots__ = ("limit", "_records")

    def __init__(self, limit: int):
        self.limit = limit
        self._records = []  # the record gaps behind ``first_gap``

    def _check_cover(self, n: int) -> None:
        """Refuse n above the limit with a CapacityError, ``required=n``."""
        if n > self.limit:
            raise CapacityError(
                f"{n} exceeds the limit {self.limit}; rebuild with limit >= {n}",
                required=n,
            )

    def _check_range(self, n: int) -> None:
        """Refuse n outside [0, limit]: DomainError below 0, CapacityError
        with ``required=n`` above the limit."""
        if n < 0:
            raise DomainError(f"need n >= 0, got {n}")
        self._check_cover(n)

    def _check_gap(self, g: int, limit: int) -> None:
        """Refuse a gap below 1 and a bound above the limit; a negative
        bound is allowed and lists nothing."""
        if g < 1:
            raise DomainError(f"need gap g >= 1, got {g}")
        self._check_cover(limit)

    def sp_count(self, n: int) -> int:
        """Number of SP numbers <= n (inclusive).

        The inclusive convention is deliberate and documented: counts at a
        checkpoint include the checkpoint itself when it is SP.
        """
        self._check_range(n)
        return self._count(n)

    @property
    def max_element(self) -> int:
        return self._prev(self.limit + 1)

    def contains(self, x: int) -> bool:
        """Membership in Q, restricted to the indexed range."""
        return 1 <= x <= self.limit and self._has(x)

    def successor(self, x: int) -> int:
        """N(x): the smallest element of Q strictly greater than x."""
        if x < 0:
            raise DomainError(f"need x >= 0, got {x}")
        n = self._next(x + 1)
        if n is None:
            raise CapacityError(
                f"successor({x}) is beyond the largest indexed element "
                f"{self.max_element}; rebuild with a larger limit",
                required=_successor_beyond(x),
            )
        return n

    def predecessor(self, x: int) -> int:
        """The largest element of Q strictly below x (x >= 2)."""
        if x <= 1:
            raise DomainError(f"no Q element below {x}")
        if x > self.limit + 1:
            raise CapacityError(
                f"predecessor({x}) is not covered by limit {self.limit}",
                required=x - 1,
            )
        return self._prev(x)

    def nth_sp(self, r: int) -> int:
        """The r-th SP number, r >= 1 (the identity 1 is not counted)."""
        if r < 1:
            raise DomainError(f"need r >= 1, got {r}")
        n = self._nth(r)
        if n is None:
            raise CapacityError(
                f"index holds only {self._count(self.limit)} SP numbers, "
                f"asked for number {r}"
            )
        return n

    def prefix(self, r: int) -> list[int]:
        """The rank-r prefix [1, sp_1, ..., sp_r] of Q."""
        if r < 0:
            raise MembershipError(f"need rank r >= 0, got {r}")
        if r and self._nth(r) is None:
            raise CapacityError(
                f"rank {r} exceeds the {self._count(self.limit)} indexed SP numbers"
            )
        return self._prefix(r)

    def gap_pairs(self, g: int, limit: int) -> list[tuple[int, int]]:
        """All consecutive SP pairs (lo, hi) with hi - lo = g and hi <= limit,
        ascending."""
        self._check_gap(g, limit)
        return list(zip(*self._pair_ends(g, limit)))

    def first_gap(self, w: int) -> tuple[int, int] | None:
        """The first consecutive members (lo, hi) of Q with hi - lo >= w,
        1 included, or None when no gap is that wide.

        That gap is a record gap: it is wider than every gap before it.
        The records are found in order, each from the upper end of the
        last one, and kept, so a later call walks on from the widest
        record found so far and never again from 1. The walk starts with
        width 0 from 1, as an index that lists 1 twice has a first record
        of width 0. ``None`` closes the list once Q holds no wider gap.
        """
        records = self._records
        for gap in records:
            if gap is None or gap[1] - gap[0] >= w:
                return gap
        lo, hi = records[-1] if records else (2, 1)
        while (gap := self._gap_from(hi, hi - lo + 1)) is not None:
            records.append(gap)
            lo, hi = gap
            if hi - lo >= w:
                return gap
        records.append(None)
        return None
