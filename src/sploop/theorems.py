"""Constructions and exhaustive verifiers for the structural claims about Q.

Everything here is a desk-scale check, not a proof: SP pairs at a fixed
gap, arithmetic progressions of SP numbers built from prime progressions,
the constant-chain property of those progressions, the search for
equal-product triples, the doubling
property (an SP strictly between n and 2n), successor adjacency, and the
twin-shift adjacency property. Scans either return the first
counterexample or report absence over the whole range.

The range scans ask the index about its gaps and never read its members.
N(n) is constant on each gap [a, b) of consecutive members, so the
doubling property fails there exactly for the n with b >= 2n, which only
a gap at least a wide leaves: the scan reads the record gaps that the
front walks for ``first_gap``. N(t) and N(t+1) are more than one step of Q apart only
where t + 1 is listed twice, so adjacency and the twin shift (adjacency at
t = a - x) read the index's repeated values, ``_repeats``.
``tests/_oracles.py`` keeps the per-integer scans these replace. Nothing
here imports numpy, so every check runs on a ``QIndex`` and on a
``cachefile.QBits`` alike.
"""

from __future__ import annotations

import gc
import math
from bisect import bisect_right
from itertools import compress, count, islice, repeat
from operator import eq

from . import spcore
from .errors import (
    CapacityError,
    ChainBrokenError,
    DomainError,
    NotFoundError,
    SearchBudgetError,
    ValidationError,
)
from .loop_algebra import _successors, lop
from .record import Record
from .spcore import _successor_beyond

TYPE_CHECKING = False  # as typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .sieve import QIndex

TRIPLE_RANK_BUDGET = 2000


class SpPair(Record):
    """Consecutive SP numbers lo < hi with no SP strictly between."""

    __slots__ = ("lo", "hi", "gap")


class SpAp(Record, defaults={"chain_value": None}):
    """Arithmetic progression of SP numbers.

    chain_value, once verified, is the common value of every consecutive
    pair under the loop operation: N(common_difference).
    """

    __slots__ = ("terms", "common_difference", "chain_value")


def gap_pairs(index: QIndex, g: int, limit: int) -> list[SpPair]:
    """All consecutive SP pairs with hi - lo = g and hi <= limit, ascending.

    Each record is made by ``tuple.__new__`` straight from its three ints,
    which skips the compiled ``__new__`` and its argument binding. The
    cycle collector is paused while they are made: instances of a tuple
    subclass stay tracked by it, and though three ints can be part of no
    reference cycle, the collector would make full passes over the growing
    list of them; at 1e8, with 214,712 gap-1 pairs, those passes took most
    of the time. The collector is turned back on only if it was on.
    """
    index._check_gap(g, limit)
    lo, hi = index._pair_ends(g, limit)
    was = gc.isenabled()
    gc.disable()
    try:
        return list(map(tuple.__new__, repeat(SpPair), zip(lo, hi, repeat(g))))
    finally:
        if was:
            gc.enable()


def find_prime_ap(n: int, search_bound: int) -> tuple[int, ...]:
    """Prime arithmetic progression of length n with the smallest last term.

    Last terms are enumerated over primes in increasing order; for each,
    differences are tried in increasing order, so ties on the last term
    resolve to the smallest difference. When the first term exceeds n the
    difference must be a multiple of the primorial of primes below n (a
    necessary condition: otherwise some small prime divides a term), which
    prunes the search without excluding any valid progression.
    """
    if n < 1:
        raise DomainError(f"need length n >= 1, got {n}")
    primorial = math.prod(p for p in range(2, n) if spcore.is_prime(p))
    for last in range(2, search_bound + 1):
        if not spcore.is_prime(last):
            continue
        if n == 1:
            return (last,)
        for d in range(1, (last - 2) // (n - 1) + 1):
            first = last - (n - 1) * d
            if first > n and d % primorial:
                continue
            terms = range(first, last + 1, d)
            if all(spcore.is_prime(t) for t in terms):
                return tuple(terms)
    raise NotFoundError(
        f"no prime progression of length {n} with last term <= {search_bound}; "
        f"raise the bound"
    )


def construct_sp_ap(prime_ap: list[int] | tuple[int, ...], r: int) -> SpAp:
    """Multiply a prime progression through by r**2, giving an SP progression."""
    if r < 2:
        raise DomainError(f"need square root r >= 2, got {r}")
    terms = tuple(prime_ap)
    if not terms:
        raise ValidationError("need at least one prime")
    for p in terms:
        if not spcore.is_prime(p):
            raise ValidationError(f"{p} is not prime")
    diffs = {b - a for a, b in zip(terms, terms[1:])}
    if len(diffs) > 1:
        raise ValidationError(f"terms {terms} are not an arithmetic progression")
    if diffs and min(diffs) <= 0:
        raise ValidationError(f"terms {terms} are not strictly increasing")
    rr = r * r
    sp_terms = tuple(p * rr for p in terms)
    for t in sp_terms:
        if not spcore.is_sp(t):
            raise ValidationError(f"constructed term {t} failed the SP check")
    d = diffs.pop() * rr if diffs else 0
    return SpAp(terms=sp_terms, common_difference=d, chain_value=None)


def sp_ap_from_terms(terms: list[int] | tuple[int, ...]) -> SpAp:
    """Validate raw terms as an SP arithmetic progression."""
    terms = tuple(terms)
    if len(terms) < 2:
        raise ValidationError("need at least two terms")
    for t in terms:
        if not spcore.is_sp(t):
            raise ValidationError(f"{t} is not an SP number")
    diffs = {b - a for a, b in zip(terms, terms[1:])}
    if len(diffs) > 1:
        raise ValidationError(f"terms {terms} are not an arithmetic progression")
    d = diffs.pop()
    if d <= 0:
        raise ValidationError(f"terms {terms} are not strictly increasing")
    return SpAp(terms=terms, common_difference=d, chain_value=None)


def verify_bullet_chain(index: QIndex, ap: SpAp) -> int:
    """Common value of t[i] • t[i+1] across the progression.

    Raises a chain-broken error carrying the first consecutive pair whose
    product differs from the first pair's. For a genuine SP progression
    every difference is the common difference, so the chain value is
    N(common_difference) and the error never fires.
    """
    terms = ap.terms
    if len(terms) < 2:
        raise DomainError("need at least two terms to evaluate the chain")
    index._check_cover(max(terms))
    values = [lop(index, a, b) for a, b in zip(terms, terms[1:])]
    for i, v in enumerate(values[1:], start=1):
        if v != values[0]:
            raise ChainBrokenError(
                f"pair ({terms[i]}, {terms[i + 1]}) gives {v}, "
                f"first pair gave {values[0]}",
                position=i,
                pair=(terms[i], terms[i + 1]),
            )
    return values[0]


def search_equal_triple(index: QIndex, r: int) -> tuple[int, int, int] | None:
    """First distinct a < b < c in the rank-r prefix with
    a • b = b • c = a • c, or None when no such triple exists.

    Pairs (a, b) are taken in lexicographic order, and for the first pair
    that has one, the smallest c. Ranks above the budget are refused.

    Runs of one row suffice. With a = m_i fixed, a • m_j = N(m_j - m_i)
    never falls as j grows, so b < c with a • b = a • c lie in one run of
    equal values of row i. So each row is walked run by run, each run's b
    in order and, for each b, the c after it in order; the first c with
    b • c equal to the run's value ends the search. N comes from one list
    over the prefix's gaps, and no r x r table is made.
    """
    if r < 0:
        raise DomainError(f"need rank r >= 0, got {r}")
    if r > TRIPLE_RANK_BUDGET:
        raise SearchBudgetError(
            f"rank {r} exceeds the enumeration budget {TRIPLE_RANK_BUDGET}"
        )
    members = index.prefix(r)
    # Every difference of two members lies in [0, members[-1]), where N is
    # listed.
    succ = _successors(members)
    for i, a in enumerate(members[:-2]):
        tail = members[i + 1 :]
        row = [succ[v - a] for v in tail]  # row[x] = a • tail[x]
        end = 0
        # Each x with row[x] == row[x + 1]; the first of a run starts it.
        for x in compress(count(), map(eq, row, islice(row, 1, None))):
            if x < end:
                continue
            value = row[x]
            end = bisect_right(row, value, x + 2)
            run = tail[x:end]
            for y, b in enumerate(run, 1):
                for c in run[y:]:
                    if succ[c - b] == value:
                        return a, b, c
    return None


def scan_bertrand(index: QIndex, lo: int, hi: int) -> list[int]:
    """All n in [lo, hi] whose open interval (n, 2n) contains no SP number.

    The check is successor(n) < 2n. The interval is open on both ends, so
    n = 4 fails even though 8 = 2n is SP. For n in a gap [a, b) between
    consecutive members the successor is b, so n fails exactly when
    n <= b // 2, and only a gap at least a wide leaves such an n. The walk
    takes the first gap at least as wide as the last one's b: each gap it
    steps over is narrower than b, which is at most its own lower end.
    """
    if lo < 1:
        raise DomainError(f"need lo >= 1, got {lo}")
    if hi < lo:
        raise DomainError(f"need hi >= lo, got [{lo}, {hi}]")
    if 2 * hi > index.limit:
        raise CapacityError(
            f"the interval ({hi}, {2 * hi}) is not covered by limit "
            f"{index.limit}; rebuild with limit >= {2 * hi}",
            required=2 * hi,
        )
    failures: list[int] = []
    w = 0
    while (gap := index.first_gap(w)) is not None and gap[0] <= hi:
        a, b = gap
        if b - a >= a:
            failures.extend(range(max(a, lo), min(b - 1, b // 2, hi) + 1))
        w = b
    # Past the largest element there is no successor at all.
    failures.extend(range(max(index.max_element, lo), hi + 1))
    return failures


def check_adjacency(index: QIndex, t_max: int) -> int | None:
    """First t <= t_max where N(t) and N(t+1) are neither equal nor
    consecutive in Q, or None when every t passes.

    At most one integer, t + 1, lies in (t, t+1], so the two successors are
    more than one step of Q apart only where t + 1 is listed twice: the
    answer is the least repeated value, less one.
    """
    if t_max < 0:
        raise DomainError(f"need t_max >= 0, got {t_max}")
    if t_max + 1 >= index.max_element:
        raise CapacityError(
            f"t_max {t_max} needs successor coverage past {t_max + 1}; "
            f"largest indexed element is {index.max_element}",
            required=_successor_beyond(t_max + 1),
        )
    repeated = index._repeats()
    return repeated[0] - 1 if repeated and repeated[0] <= t_max + 1 else None


def check_twin_shift(
    index: QIndex, limit: int
) -> tuple[int, int, int] | None:
    """Probe every twin pair (a, a+1) with a+1 <= limit against every
    x in Q below a: the two products a • x and (a+1) • x must be equal or
    consecutive in Q. Returns the first violating (a, x, a • x) or None.

    a • x = N(a - x) and (a+1) • x = N(a - x + 1), so this is adjacency at
    t = a - x: x fails exactly when v = a + 1 - x is listed twice, and then
    a • x = N(v - 1) = v. For each twin the least such x in Q comes from the
    largest repeated value.
    """
    index._check_cover(limit)
    repeated = index._repeats()
    if not repeated:
        return None
    for a, _ in index.gap_pairs(1, limit):
        for v in reversed(repeated):
            x = a + 1 - v
            if x >= a:
                break
            if index.contains(x):
                return a, x, v
    return None
