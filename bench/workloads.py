"""What each benchmark workload runs, and the answers it must give.

Operands come from a seeded ``random.Random``; sploop receives only the
generated numbers. Every workload is closed loop: one operation at a time,
the next one sent after the previous answer is back, with default options
(``threads=1``).
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np

from sploop import (QIndex, SpSieve, cayley_table, check_adjacency,
                    check_twin_shift, construct_sp_ap, digit_census,
                    find_gap_run, find_nonassoc_witness, find_prime_ap,
                    fixed_point, gap_histogram, gap_pairs, is_prime, is_sp,
                    lop, scan_bertrand, search_equal_triple, sp_decompose,
                    verify_bullet_chain)

LIMITS = {"build-1e8": 10**8, "session-1e8": 10**8, "cli-1e7": 10**7}
SELFTEST_LIMIT = 500_000

# Known answers at the limits the benchmark and its self-test run at. The
# hashes pin the bytes of the v1 cache file, which must never change.
SP_COUNT = {SELFTEST_LIMIT: 37_300, 10**7: 553_539, 10**8: 4_597_843}
CACHE_SHA256 = {
    SELFTEST_LIMIT: "14f85f563d06ed2deede8dc52f7036e288965be2e5e4a458dadd7d5eb0b8d851",
    10**7: "5b0c51bc2292ce86d1d1beecdb5d389bb45b8b95c8ce7152677bb37984557f71",
    10**8: "7bf478d7a0fc1805501ac1bfbf977511523ccd136d691a808e693f99f492d226",
}
GAP_RUN_MAX = 60  # find_gap_run is asked for n = 1..GAP_RUN_MAX


def fixed_point_q_max(limit: int) -> int:
    """Largest q asked of fixed_point. Below 10**7 (the self-test) no
    SP-free gap reaches 200, so fixed points exist only for smaller q."""
    return 200 if limit >= 10**7 else 100


def cache_bytes(limit: int) -> int:
    """Size of a v1 cache file: header, one bit per number, CRC."""
    return 16 + (limit + 8) // 8 + 4


def index_gates(limit: int, sieve: SpSieve, index: QIndex) -> list[str]:
    """Failed gate descriptions for a ready index (empty when all pass)."""
    want = SP_COUNT[limit]
    bad = []
    if sieve.sp_count(limit) != want:
        bad.append(f"sp_count({limit}) = {sieve.sp_count(limit)}, want {want}")
    if len(index) != want + 1:
        bad.append(f"len(QIndex) = {len(index)}, want {want + 1}")
    return bad


def cache_gates(limit: int, path: str) -> tuple[list[str], str]:
    """Failed gate descriptions for a cache file, and its SHA-256."""
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    bad = []
    size = os.path.getsize(path)
    if size != cache_bytes(limit):
        bad.append(f"cache file is {size} bytes, want {cache_bytes(limit)}")
    if digest != CACHE_SHA256[limit]:
        bad.append(f"cache SHA-256 {digest} differs from the v1 bytes")
    return bad, digest


# -- point queries --------------------------------------------------------

QUERY_LAYERS = ("sieve.successor", "sieve.predecessor", "sieve.nth_sp",
                "sieve.contains", "sieve.sp_count", "loop.lop",
                "spcore.is_sp", "spcore.sp_decompose")
# Each block of nine queries holds every layer once and successor, the
# query the loop operation rests on, twice. Fixed shares keep the median
# from depending on the seed's draw, and with an odd number of slots the
# median falls inside one layer's latencies, not in a gap between two.
QUERY_MIX = QUERY_LAYERS + ("sieve.successor",)
CHECK_EVERY = 64  # one query in this many is checked by an independent route


def query_plan(rng, index: QIndex, sieve: SpSieve, blocks: int) -> list[tuple]:
    """blocks * 9 seeded point queries as (layer, bound function, args)."""
    limit, top = index.limit, len(index) - 1
    elements = index.elements
    member = lambda: int(elements[rng.randint(0, top)])
    make = {
        "sieve.successor": lambda: (index.successor, (rng.randint(0, index.max_element - 1),)),
        "sieve.predecessor": lambda: (index.predecessor, (rng.randint(2, limit + 1),)),
        "sieve.nth_sp": lambda: (index.nth_sp, (rng.randint(1, top),)),
        "sieve.contains": lambda: (index.contains, (rng.randint(1, limit),)),
        "sieve.sp_count": lambda: (sieve.sp_count, (rng.randint(0, limit),)),
        "loop.lop": lambda: (lambda a, b: lop(index, a, b), (member(), member())),
        "spcore.is_sp": lambda: (is_sp, (rng.randint(1, limit),)),
        "spcore.sp_decompose": lambda: (sp_decompose, (rng.randint(1, limit),)),
    }
    layers = list(QUERY_MIX) * blocks
    rng.shuffle(layers)
    return [(layer, *make[layer]()) for layer in layers]


def _in_q(n: int) -> bool:
    return n == 1 or is_sp(n)


def brute_successor(x: int) -> int:
    y = x + 1
    while not _in_q(y):
        y += 1
    return y


def query_ok(layer: str, args: tuple, result, sieve: SpSieve,
             index: QIndex) -> bool:
    """Check one answer against the sieve-free spcore route, brute force,
    or a second sieve structure (prefix counts against the sorted array)."""
    if layer == "sieve.successor":
        return result == brute_successor(args[0])
    if layer == "sieve.predecessor":
        y = args[0] - 1
        while not _in_q(y):
            y -= 1
        return result == y
    if layer == "sieve.nth_sp":
        return is_sp(result) and sieve.sp_count(result) == args[0] \
            and sieve.sp_count(result - 1) == args[0] - 1
    if layer == "sieve.contains":
        return result == _in_q(args[0])
    if layer == "sieve.sp_count":
        rank = int(np.searchsorted(index.elements, args[0], side="right"))
        return result == max(rank - 1, 0)
    if layer == "loop.lop":
        return result == brute_successor(abs(args[0] - args[1]))
    if layer == "spcore.is_sp":
        return result == bool(sieve.flags[args[0]])
    if layer == "spcore.sp_decompose":
        if result is None:
            return not sieve.flags[args[0]]
        return (result.p * result.k ** 2 == args[0] and result.k >= 2
                and is_prime(result.p) and bool(sieve.flags[args[0]]))
    raise ValueError(layer)


def runs_ok(flags: np.ndarray, runs: list[tuple]) -> bool:
    """Each (n, start, length) is an SP-free run of at least n numbers,
    flanked by SP numbers (or by 1 on the left)."""
    return all(length >= n
               and (start == 1 or flags[start - 1])
               and flags[start + length]
               and not flags[start:start + length].any()
               for n, start, length in runs)


# -- the scan battery -----------------------------------------------------


def battery(index: QIndex, sieve: SpSieve) -> list[tuple]:
    """The fixed range-scan battery as (layer, call, work counts, check).

    ``call(index, sieve)`` runs one scan and ``check(result, index, sieve)``
    judges its answer, so a step holds no arrays and can run against any
    index at this limit. Work counts are computed here, outside any timed
    region.
    """
    limit = index.limit
    half = limit // 2
    twin_max = min(300_000, limit)
    elements = index.elements
    twins = gap_pairs(index, 1, twin_max)
    twin_probes = int(sum(int(np.searchsorted(elements, t.lo)) for t in twins))
    qs = [int(q) for q in elements[elements <= fixed_point_q_max(limit)]]
    adjacent = int(np.count_nonzero(sieve.flags[1:] & sieve.flags[:-1]))

    def gap_runs_ok(runs, ix, sv):
        return runs_ok(sv.flags, [(n, r.start, r.length)
                                  for n, r in zip(range(1, GAP_RUN_MAX + 1), runs)])

    def fixed_ok(points, ix, sv):
        return all(brute_successor(a - q) == a for q, a in zip(qs, points))

    def pairs_ok(pairs, ix, sv):
        return len(pairs) == adjacent and all(p.hi - p.lo == 1 for p in pairs)

    def hist_ok(hist, ix, sv):
        return sum(hist.values()) == len(ix) - 2 and hist.get(1) == adjacent

    return [
        ("theorems.scan_bertrand", lambda ix, sv: scan_bertrand(ix, 1, half),
         {"ints": half}, lambda r, ix, sv: r == [1, 2, 3, 4]),
        ("theorems.check_adjacency", lambda ix, sv: check_adjacency(ix, half),
         {"ints": half + 1}, lambda r, ix, sv: r is None),
        ("theorems.check_twin_shift", lambda ix, sv: check_twin_shift(ix, twin_max),
         {"twins": len(twins), "pairs": twin_probes}, lambda r, ix, sv: r is None),
        ("theorems.find_gap_run",
         lambda ix, sv: [find_gap_run(ix, n) for n in range(1, GAP_RUN_MAX + 1)],
         {"calls": GAP_RUN_MAX}, gap_runs_ok),
        ("loop.fixed_point", lambda ix, sv: [fixed_point(ix, q) for q in qs],
         {"calls": len(qs)}, fixed_ok),
        ("theorems.gap_pairs", lambda ix, sv: gap_pairs(ix, 1, limit),
         {"elements": len(index)}, pairs_ok),
        ("analytics.gap_histogram", lambda ix, sv: gap_histogram(ix, limit),
         {"elements": len(index)}, hist_ok),
        ("analytics.digit_census", lambda ix, sv: digit_census(sv, limit),
         {"ints": limit + 1},
         lambda r, ix, sv: sum(r.counts.values()) == SP_COUNT[limit]),
        ("theorems.search_equal_triple", lambda ix, sv: search_equal_triple(ix, 2000),
         {"pairs": 2001 ** 2}, lambda r, ix, sv: r == (27, 28, 32)),
    ]


def verify_extras(index: QIndex, sieve: SpSieve) -> list[tuple]:
    """Calls that ``verify --suite all`` makes beyond the battery, with the
    suites' default arguments, and the ``nonassoc`` command's search, as
    (layer, thunk, check)."""
    rank = sieve.sp_count(min(2000, index.limit))
    prime_aps = {2: (2, 3), 3: (3, 5, 7), 4: (5, 11, 17, 23)}
    sp_aps = [construct_sp_ap(p, 2) for p in prime_aps.values()]
    return [
        ("loop.cayley_table", lambda: cayley_table(index, rank),
         lambda t: t.order == rank + 1),
        ("loop.nonassoc", lambda: find_nonassoc_witness(index, rank),
         lambda w: w == (8, 8, 12)),
        ("theorems.find_prime_ap", lambda: [find_prime_ap(n, 200) for n in prime_aps],
         lambda r: r == list(prime_aps.values())),
        ("theorems.verify_bullet_chain",
         lambda: [verify_bullet_chain(index, ap) for ap in sp_aps],
         lambda r: r == [brute_successor(ap.common_difference) for ap in sp_aps]),
    ]


# -- the CLI --------------------------------------------------------------

CACHED_COMMANDS = ("op", "succ", "pred", "count", "nth", "fixed-point",
                   "gap-run", "pairs", "table")
COLD_COMMANDS = ("op", "succ", "count", "nth")


def cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def cli_argv(limit: int, cache: str | None, *args) -> list[str]:
    argv = [sys.executable, "-m", "sploop", "--limit", str(limit)]
    if cache:
        argv += ["--cache", cache]
    return argv + [str(a) for a in args]


def cli_command(kind: str, rng, index: QIndex, sieve: SpSieve) -> tuple:
    """Seeded arguments for one invocation, and a check of its exit code and
    JSON output. Point answers are checked as in ``query_ok``; the others
    against the flags of an independent build, by brute force, or, for
    "least" and "first", against the library on that build."""
    limit, top = index.limit, len(index) - 1
    elements, flags = index.elements, sieve.flags

    def point(layer, args, key):
        return lambda out: query_ok(layer, args, out[key], sieve, index)

    if kind == "op":
        a, b = (int(elements[rng.randint(0, top)]) for _ in range(2))
        args, want = ["op", a, b], point("loop.lop", (a, b), "result")
    elif kind == "succ":
        x = rng.randint(0, index.max_element - 1)
        args, want = ["succ", x], point("sieve.successor", (x,), "successor")
    elif kind == "pred":
        x = rng.randint(2, limit + 1)
        args, want = ["pred", x], point("sieve.predecessor", (x,), "predecessor")
    elif kind == "count":
        n = rng.randint(0, limit)
        args, want = ["count", n], point("sieve.sp_count", (n,), "sp_count")
    elif kind == "nth":
        r = rng.randint(1, top)
        args, want = ["nth", r], point("sieve.nth_sp", (r,), "sp")
    elif kind == "fixed-point":
        qs = elements[elements <= fixed_point_q_max(limit)]
        q = int(qs[rng.randrange(len(qs))])
        args = ["fixed-point", q]
        want = lambda out: (brute_successor(out["fixed_point"] - q) == out["fixed_point"]
                            == fixed_point(index, q))
    elif kind == "gap-run":
        n = rng.randint(1, GAP_RUN_MAX)
        args = ["gap-run", n]
        want = lambda out: (runs_ok(flags, [(n, out["start"], out["length"])])
                            and out["start"] == find_gap_run(index, n).start)
    elif kind == "pairs":
        g, m = rng.randint(1, 12), rng.randint(1_000, 100_000)
        sps = np.flatnonzero(flags[:m + 1])
        lo = sps[:-1][np.diff(sps) == g]
        args = ["pairs", "--gap", g, "--max", m]
        want = lambda out: out["pairs"] == [[int(v), int(v) + g] for v in lo]
    elif kind == "table":
        r = rng.randint(1, 30)
        members = [1] + [int(v) for v in np.flatnonzero(flags)[:r]]
        args = ["table", "--rank", r]
        want = lambda out: out["entries"] == [
            [brute_successor(abs(a - b)) for b in members] for a in members]
    else:
        raise ValueError(kind)
    return args, lambda code, out: code == 0 and want(out)


def verify_all_ok(code: int, out: dict) -> bool:
    """``verify --suite all`` exits 1 with exactly theorem3 failing: the
    triple (27, 28, 32) is the paper's honest finding, not a failure."""
    failing = [s for s in out["suites"] if not s["ok"]]
    return code == 1 and [s["suite"] for s in failing] == ["theorem3"] \
        and "(27, 28, 32)" in failing[0]["checks"][0]["detail"]
