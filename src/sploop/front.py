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
- ``_pairs(g, limit)``: the consecutive SP pairs at gap g >= 1 up to
  limit <= the index's limit, as (lo, hi) tuples;
- ``_prefix(r)``: the rank-r prefix, once the r-th SP number exists;
- ``_digit_counts(limit)``: the counts of SP numbers <= limit by final
  digit 0..9, as a list, for 0 <= limit <= the index's limit;
- ``_repeats()``: the values listed more than once, which ``theorems``'
  adjacency and twin-shift checks read;
- ``first_gap(w)``, which takes any w and so needs no check.
"""

from __future__ import annotations

from .errors import CapacityError, DomainError, MembershipError
from .spcore import _successor_beyond


class QFront:
    """Q up to ``limit``, asked through checked queries; a subclass supplies
    the primitives the module docstring lists."""

    __slots__ = ("limit",)

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
        return self._pairs(g, limit)
