"""The verify suites: the paper's lemmas and theorems checked on one Q.

Each suite is a function of Q and keyword options, named as the CLI's
``verify`` options: ``rank``, ``n_max``, ``length``, ``bound``, ``square``,
``lo``, ``hi``, ``t_max``, ``q_max`` and ``max``. ``None`` means the
default, and a suite ignores the options it does not read. It returns its
checks as ``{"name", "ok", "detail"}`` dicts; ``run`` runs named suites on
one Q and returns ``{"suite", "ok", "checks"}`` dicts.

A default that Q is too small for is capped, and a check of its own says
so. An explicit option that would check nothing is a ``DomainError``, and
one past Q's limit a ``CapacityError``; either ends the run. No suite
imports numpy, so each runs alike on a ``QIndex`` and on the bits of a
``cachefile.QBits``: ``axioms`` checks the table as lists from
``cayley_rows``, and ``theorem3``'s search walks lists too.
"""

from __future__ import annotations

from functools import partial
from itertools import count
from operator import eq, le

from . import spcore, theorems
from .errors import CapacityError, DomainError
from .loop_algebra import (
    cayley_rows,
    find_gap_run,
    fixed_point,
    longest_gap_run,
    lop,
    widest_gap,
)


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def axioms(q, *, rank=None, **_):
    rank = rank if rank is not None else q.sp_count(min(2000, q.limit))
    members = q.prefix(rank)
    rows = cayley_rows(members)
    # Below the diagonal max(a, b) is the row's member a, above it the
    # column's member b: members ascend.
    bounded = all(
        max(row[:i], default=a) <= a
        and all(map(le, row[i + 1 :], members[i + 1 :]))
        for i, (a, row) in enumerate(zip(members, rows)))
    return [
        _check("closure", set().union(*rows).issubset(members),
               f"all {len(members) ** 2} products stay in the rank-{rank} prefix"),
        _check("commutativity", all(map(eq, map(tuple, rows), zip(*rows))),
               "table equals its transpose"),
        _check("identity", rows[0] == members == [row[0] for row in rows],
               "row and column of 1 reproduce the members"),
        _check("self_inverse", {row[i] for i, row in enumerate(rows)} == {1},
               "diagonal is all 1s"),
        _check("bound", bounded, "a != b implies a • b <= max(a, b)"),
    ]


def lemma1(q, *, n_max=None, **_):
    checks = []
    if n_max is None:
        # find_gap_run(n) needs a run of length n, so the default stops at
        # the longest run; an explicit --n-max past it is a capacity error.
        longest = longest_gap_run(q)
        n_max = min(25, longest.length)
        if n_max < 25:
            checks.append(_check(
                "default_n_max", True,
                f"--n-max capped at {n_max} (default 25): the longest "
                f"SP-free run below limit {q.limit} is {longest.length} "
                f"non-SP numbers from {longest.start}"))
    elif n_max < 1:
        raise DomainError(f"need --n-max >= 1, got {n_max}")
    for n in range(1, n_max + 1):
        # Checked by factorization, a route that shares nothing with the
        # members the runs were read from.
        run = find_gap_run(q, n)
        lo, hi = run.start, run.start + run.length
        interior_clear = not any(spcore.is_sp(v) for v in range(lo, hi))
        bounded = (lo == 1 or spcore.is_sp(lo - 1)) and spcore.is_sp(hi)
        ok = run.length >= n and interior_clear and bounded
        checks.append(_check(
            f"run_{n}", ok,
            f"{run.length} non-SP numbers from {run.start}"))
    return checks


def _progressions(q, *, dual_route, length=None, bound=None, square=None, **_):
    """lemma2 (``dual_route`` False): prime progressions scale into SP
    progressions; theorem2 (True): the chain value of each equals N of its
    common difference."""
    if length is not None and length < 2:
        raise DomainError(f"need --length >= 2, got {length}")
    max_len = length if length is not None else 4
    bound = bound if bound is not None else 200
    square = square if square is not None else 2
    checks = []
    for n in range(2, max_len + 1):
        primes = theorems.find_prime_ap(n, bound)
        ap = theorems.construct_sp_ap(primes, square)
        if length is None and ap.terms[-1] > q.limit:
            # The least last term never shrinks as the length grows, so no
            # longer default progression fits either; an explicit --length
            # past the limit is a capacity error.
            checks.insert(0, _check(
                "default_length", True,
                f"--length capped at {n - 1} (default {max_len}): the "
                f"length-{n} progression {ap.terms} passes limit "
                f"{q.limit}"))
            break
        value = theorems.verify_bullet_chain(q, ap)
        if dual_route:
            via = q.successor(ap.common_difference)
            checks.append(_check(
                f"chain_{n}", value == via,
                f"terms {ap.terms}: chain value {value}, successor of "
                f"difference {ap.common_difference} is {via}"))
        else:
            checks.append(_check(
                f"progression_{n}", True,
                f"primes {primes} scaled by {square}**2 give SP terms "
                f"{ap.terms}"))
    return checks


lemma2 = partial(_progressions, dual_route=False)
theorem2 = partial(_progressions, dual_route=True)


def lemma3(q, *, lo=None, hi=None, **_):
    lo = lo if lo is not None else 1
    if lo < 1:
        raise DomainError(f"need --from >= 1, got {lo}")
    if hi is None:
        hi = min(10**6, q.limit // 2)
        if lo > hi:
            raise DomainError(f"need --from <= the default --to {hi} "
                              f"(min(10**6, limit // 2)), got {lo}")
    elif lo > hi:
        raise DomainError(f"need --from <= --to {hi}, got {lo}")
    failures = theorems.scan_bertrand(q, lo, hi)
    real = [n for n in failures if n >= 5]
    small = [n for n in failures if n < 5]
    return [_check(
        "doubling", not real,
        f"[{lo}, {hi}]: {len(real)} failures at n >= 5"
        + (f" (first {real[0]})" if real else "")
        + (f"; expected small-n failures {small}" if small else ""))]


def lemma4(q, *, t_max=None, **_):
    t_max = t_max if t_max is not None else min(10**6, q.limit // 2)
    violation = theorems.check_adjacency(q, t_max)
    return [_check(
        "adjacency", violation is None,
        f"t <= {t_max}: "
        + ("no violation" if violation is None else f"violated at t={violation}"))]


def theorem1(q, *, q_max=None, **_):
    checks = []
    if q_max is None:
        # fixed_point(b) needs a gap of width b, so the default stops at
        # the widest gap; an explicit --q-max past it is a capacity error.
        lo, hi = widest_gap(q)
        q_max = min(100, hi - lo)
        left_out = [v for v in q.prefix(q.sp_count(min(100, q.limit)))
                    if v > q_max]
        if left_out:
            checks.append(_check(
                "default_q_max", True,
                f"--q-max capped at the widest gap {hi - lo} "
                f"({lo} -> {hi}): members "
                f"{', '.join(map(str, left_out))} have no fixed "
                f"point above them below limit {q.limit}"))
    elif q_max < 1:
        raise DomainError(f"need --q-max >= 1, got {q_max}")
    for b in q.prefix(q.sp_count(min(q_max, q.limit))):
        a = fixed_point(q, b)
        checks.append(_check(
            f"fixed_point_{b}", lop(q, a, b) == a,
            f"{a} • {b} = {a}"))
    return checks


def theorem3(q, *, rank=None, **_):
    rank = rank if rank is not None else q.sp_count(min(2000, q.limit))
    triple = theorems.search_equal_triple(q, rank)
    if triple is None:
        detail = f"rank {rank}: no equal-product triple"
    else:
        a, b, c = triple
        detail = (f"rank {rank}: counterexample ({a}, {b}, {c}) with "
                  f"common product {lop(q, a, b)}")
    return [_check("no_equal_triple", triple is None, detail)]


def theorem4(q, *, max=None, **_):
    bound = max if max is not None else min(10**5, q.limit)
    q._check_cover(bound)
    lo, first = 1, q._next(2)  # walk the members to the first twin pair
    while first is not None and first - lo > 1:
        lo, first = first, q._next(first + 1)
    if first is None:
        if max is not None:
            raise CapacityError(
                f"no twin pair below limit {q.limit}; a larger limit holds one",
                required=next(n for n in count(3)
                              if spcore.is_sp(n - 1) and spcore.is_sp(n)))
        return [_check(
            "default_max", True,
            f"no twin pair lies below limit {q.limit}, so the default "
            f"--max {bound} has none to probe")]
    if bound < first:
        # No twin pair has both members <= bound, so nothing is checked.
        raise DomainError(f"need --max >= {first}, got {bound}")
    violation = theorems.check_twin_shift(q, bound)
    if violation is None:
        detail = f"twins up to {bound}: products stay equal or adjacent"
    else:
        a, x, product = violation
        detail = f"twin ({a}, {a + 1}) with x={x}: products split apart"
    return [_check("twin_shift", violation is None, detail)]


SUITES = {
    "axioms": axioms,
    "lemma1": lemma1,
    "lemma2": lemma2,
    "lemma3": lemma3,
    "lemma4": lemma4,
    "theorem1": theorem1,
    "theorem2": theorem2,
    "theorem3": theorem3,
    "theorem4": theorem4,
}


def run(q, names, **options) -> list[dict]:
    """The named suites, run in order on Q, with their checks and verdicts."""
    out = []
    for name in names:
        checks = SUITES[name](q, **options)
        out.append({"suite": name, "ok": all(c["ok"] for c in checks),
                    "checks": checks})
    return out
