"""Slow, independent reference implementations used to cross-check the
package. Nothing here imports from sploop: trial division, a plain
Eratosthenes sieve, the p * k**2 construction and direct summation only,
so a bug in the fast paths cannot hide in its own oracle. The one
exception, ``sp_decompose_by_factorize``, reads the exponents off
``sploop.factorize`` (Pollard-Brent), a route that does not pass through
the cube-root split that ``sp_decompose`` takes below 8e9.
"""

from __future__ import annotations

import math

import numpy as np


def is_prime_slow(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_sp_slow(n: int) -> bool:
    """SP by definition: n = p * k**2 for some prime p and k >= 2."""
    for k in range(2, math.isqrt(n // 2) + 1 if n >= 8 else 0):
        kk = k * k
        if n % kk == 0 and is_prime_slow(n // kk):
            return True
    return False


def sp_decompose_by_factorize(n: int):
    """SP decomposition by the exactly-one-odd-exponent rule over a full
    ``sploop.factorize``, as ``sp_decompose`` computed it at every n before
    the cube-root split."""
    from sploop import DomainError, SpDecomposition, factorize

    if n < 0:
        raise DomainError(f"SP membership is defined for n >= 0, got {n}")
    if n <= 1:
        return None
    odd = [p for p, e in factorize(n).items() if e % 2 == 1]
    if len(odd) != 1 or odd[0] == n:
        return None
    p = odd[0]
    return SpDecomposition(n=n, p=p, k=math.isqrt(n // p))


def sp_list_slow(limit: int) -> list[int]:
    return [n for n in range(limit + 1) if is_sp_slow(n)]


def primes_upto(n: int) -> np.ndarray:
    """Primes p <= n by a plain sieve of Eratosthenes."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    composite = np.zeros(n + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, math.isqrt(n) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    return np.flatnonzero(~composite).astype(np.int64)


def q_by_construction(limit: int) -> np.ndarray:
    """Q up to limit, sorted, built as {1} together with every p * k**2
    (p prime, k >= 2) that does not exceed limit. Vectorised over the
    primes, so it reaches 10**7 in well under a second.
    """
    member = np.zeros(limit + 1, dtype=bool)
    if limit >= 1:
        member[1] = True
    primes = primes_upto(limit // 4)
    for k in range(2, math.isqrt(limit // 2) + 1):
        kk = k * k
        member[primes[: np.searchsorted(primes, limit // kk, side="right")] * kk] = True
    return np.flatnonzero(member).astype(np.int64)


def lop_slow(q_sorted: list[int], a: int, b: int) -> int:
    """Linear-scan successor of |a - b| in a sorted member list."""
    d = abs(a - b)
    for q in q_sorted:
        if q > d:
            return q
    raise ValueError("no successor in the supplied list")


def digit1_constant_slow(terms: int = 10**7) -> float:
    """Plain partial sums, no tail correction: chunked numpy summation of
    (m + a)^-2 over m < terms for the four offsets, assembled into the
    digit-1 constant. Each truncated zeta undershoots by about 1/terms;
    the division by 400 brings the assembled error near 1e-9.
    """
    total = 0.0
    chunk = 1 << 20
    for start in range(0, terms, chunk):
        m = np.arange(start, min(start + chunk, terms), dtype=np.float64)
        for a in (0.1, 0.9, 0.3, 0.7):
            total += float(np.sum((m + a) ** -2.0))
    return (total - 4.0) / 400.0


# -- per-integer range scans ----------------------------------------------
#
# Each takes the sorted member array of an index (1 first) and tests one
# integer, or one (twin, x) probe, at a time with searchsorted. The
# package answers the same questions from the gaps between members.


def bertrand_failures_slow(elements: np.ndarray, lo: int, hi: int) -> list[int]:
    """Every n in [lo, hi] with no member in (n, 2n)."""
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    idx = np.searchsorted(elements, ns, side="right")
    succ = elements[np.minimum(idx, len(elements) - 1)]
    bad = (idx >= len(elements)) | (succ >= 2 * ns)
    return [int(n) for n in ns[bad]]


def adjacency_violation_slow(elements: np.ndarray, t_max: int) -> int | None:
    """First t <= t_max whose successors N(t), N(t+1) are more than one
    position apart in the member array."""
    ts = np.arange(0, t_max + 1, dtype=np.int64)
    i1 = np.searchsorted(elements, ts, side="right")
    i2 = np.searchsorted(elements, ts + 1, side="right")
    bad = np.flatnonzero(i2 - i1 > 1)
    return int(ts[bad[0]]) if bad.size else None


def gap_pairs_slow(elements: np.ndarray, g: int, limit: int) -> list[tuple[int, int]]:
    """Consecutive SP pairs (lo, hi) with hi - lo = g and hi <= limit."""
    sps = elements[1:]
    if sps.size < 2:
        return []
    mask = (np.diff(sps) == g) & (sps[1:] <= limit)
    return [(int(sps[j]), int(sps[j + 1])) for j in np.flatnonzero(mask)]


def twin_shift_violation_slow(
    elements: np.ndarray, limit: int
) -> tuple[int, int, int] | None:
    """First twin (a, a+1), a+1 <= limit, and member x < a whose
    successors of a - x and a - x + 1 are more than one position apart,
    as (a, x, N(a - x))."""
    for a, _ in gap_pairs_slow(elements, 1, limit):
        xs = elements[: int(np.searchsorted(elements, a))]
        ts = a - xs
        i1 = np.searchsorted(elements, ts, side="right")
        i2 = np.searchsorted(elements, ts + 1, side="right")
        bad = np.flatnonzero(i2 - i1 > 1)
        if bad.size:
            return a, int(xs[bad[0]]), int(elements[i1[bad[0]]])
    return None


def gap_run_slow(elements: np.ndarray, n: int) -> tuple[int, int] | None:
    """(start, length) of the first maximal run of at least n non-SP
    numbers between 1 and the last SP, or None."""
    sps = elements[1:]
    if n <= int(sps[0]) - 1:
        return 1, int(sps[0]) - 1
    lengths = np.diff(sps) - 1
    hits = np.flatnonzero(lengths >= n)
    if hits.size == 0:
        return None
    return int(sps[hits[0]]) + 1, int(lengths[hits[0]])


def fixed_point_slow(elements: np.ndarray, q: int) -> int | None:
    """Least member a > q whose gap to the member below is at least q
    (so that a • q = a), for q > 1, or None."""
    hits = np.flatnonzero(np.diff(elements) >= q)
    return int(elements[hits[0] + 1]) if hits.size else None


def record_gaps_slow(gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions where the running maximum of gaps rises (position 0
    always), and the gaps there, from one running maximum of the whole
    array."""
    running = np.maximum.accumulate(gaps)
    rising = np.ones(gaps.size, dtype=bool)
    np.greater(running[1:], running[:-1], out=rising[1:])
    where = np.flatnonzero(rising)
    return where, gaps[where]


def gap_histogram_slow(elements: np.ndarray, limit: int) -> dict[int, int]:
    """Counts of the gaps between consecutive SP numbers <= limit."""
    sps = elements[1:]
    sps = sps[sps <= limit]
    if sps.size < 2:
        return {}
    gaps, counts = np.unique(np.diff(sps), return_counts=True)
    return {int(g): int(c) for g, c in zip(gaps, counts)}


# -- the equal-product triple search over a full table ---------------------


def pairwise_table_slow(elements: np.ndarray, r: int) -> tuple[list[int], np.ndarray]:
    """The rank-r prefix m of a member array and the (r+1) x (r+1) table of
    N(|m_i - m_j|), each entry by its own searchsorted."""
    m = elements[: r + 1].astype(np.int64)
    diffs = np.abs(m[:, None] - m[None, :])
    return m.tolist(), elements[np.searchsorted(elements, diffs, side="right")]


def nonassoc_witness_slow(m: list[int], pair: np.ndarray) -> tuple[int, int, int] | None:
    """First (a, b, c) of the members m, in row-major order over the cube,
    with (a • b) • c != a • (b • c), given their table pair; or None."""
    at = {v: i for i, v in enumerate(m)}
    s = len(m)
    for i in range(s):
        for j in range(s):
            for k in range(s):
                left = pair[at[int(pair[i, j])], k]
                right = pair[i, at[int(pair[j, k])]]
                if left != right:
                    return m[i], m[j], m[k]
    return None


def search_equal_triple_slow(
    m: list[int], pair: np.ndarray
) -> tuple[int, int, int] | None:
    """First a < b < c among the members m with a • b = b • c = a • c,
    given their table pair: pairs (a, b) in lexicographic order, then the
    smallest c; or None."""
    s = len(m)
    for i in range(s - 2):
        for j in range(i + 1, s - 1):
            v = pair[i, j]
            hit = np.flatnonzero((pair[j, j + 1 :] == v) & (pair[i, j + 1 :] == v))
            if hit.size:
                k = j + 1 + int(hit[0])
                return m[i], m[j], m[k]
    return None
