"""Command-line surface for the package.

Every operation is reachable as a subcommand. Results go to stdout in the
selected format (json by default, csv, or plain); diagnostics go to
stderr. Exit codes:

  0  success, or the checked claim held
  1  a counterexample or broken chain was found
  2  usage error (bad arguments, non-member operands, malformed or unusable cache)
  3  capacity exceeded (enlarge --limit or the relevant search bound)

The sieve bound is the global --limit flag (default 10**7). With --cache
the given file is read and checked when it exists and covers the
requested limit, and left as it is; otherwise Q is built and saved there.
Results with and without a cache are identical.

Every handler takes Q from ``_index``, by one rule: the cache file's bits
(``cachefile.QBits``) when it exists and covers the limit, else bits built
without numpy (``cachefile.build_payload``) up to ``PURE_BUILD_MAX``, else
a numpy ``SpSieve``. So no command imports numpy at a limit up to
``PURE_BUILD_MAX``; the numpy-using modules are imported inside the
functions that use them, and ``verify`` imports the suites of
``verify.py``, which need no numpy.

The outputs that grow with the result (list, pairs and table) reach
``_emit`` as generators, so only the chosen format is rendered.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import signal
import sys
import time
from collections.abc import Iterable
from itertools import chain

from . import cachefile
from .errors import (
    CacheError,
    CapacityError,
    ChainBrokenError,
    DomainError,
    MembershipError,
    NotFoundError,
    SearchBudgetError,
    SploopError,
    ValidationError,
)
from .loop_algebra import (
    cayley_rows,
    find_gap_run,
    find_nonassoc_witness,
    fixed_point,
    lop,
)

DEFAULT_LIMIT = 10_000_000
# The largest limit at which Q is built without numpy: that build costs
# ~10 ns a number, numpy's ~1.3 ns plus its import (they met between 1.5e7
# and 1.75e7 on a 2-core x86 host).
PURE_BUILD_MAX = 15_000_000
# ``verify.SUITES``'s names, for --suite; only ``verify`` imports the suites.
SUITE_NAMES = ("axioms", "lemma1", "lemma2", "lemma3", "lemma4",
               "theorem1", "theorem2", "theorem3", "theorem4")

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("global options")
    g.add_argument("--limit", type=int, default=argparse.SUPPRESS,
                   help=f"sieve bound (default {DEFAULT_LIMIT})")
    g.add_argument("--cache", default=argparse.SUPPRESS, metavar="PATH",
                   help="sieve cache file: loaded when fresh, else built and saved")
    g.add_argument("--format", choices=("json", "csv", "plain"),
                   default=argparse.SUPPRESS, help="output format (default json)")
    g.add_argument("-v", "--verbose", action="store_true", default=argparse.SUPPRESS,
                   help="progress notes on stderr")

    parser = argparse.ArgumentParser(
        prog="sploop",
        parents=[common],
        description="SP numbers and the loop they form: queries, searches, "
                    "and claim verification suites.",
    )
    sub = parser.add_subparsers(required=True, metavar="COMMAND")

    def cmd(name: str, handler, help_text: str, subs=sub) -> argparse.ArgumentParser:
        p = subs.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = cmd("build", _cmd_build,
            "build the sieve (and optionally write a cache file)")
    p.add_argument("--out", metavar="PATH", help="write the sieve cache here")

    p = cmd("list", _cmd_list, "list SP numbers")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--max", type=int, help="list SP numbers <= MAX")
    group.add_argument("--count", type=int, help="list the first COUNT SP numbers")

    p = cmd("count", _cmd_count, "count SP numbers <= N")
    p.add_argument("n", type=int)

    p = cmd("succ", _cmd_succ, "smallest element of Q strictly greater than X")
    p.add_argument("x", type=int)

    p = cmd("pred", _cmd_pred, "largest element of Q strictly below X")
    p.add_argument("x", type=int)

    p = cmd("nth", _cmd_nth, "the R-th SP number")
    p.add_argument("r", type=int)

    p = cmd("op", _cmd_op, "the loop operation A • B")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)

    p = cmd("table", _cmd_table,
            "full operation table over the rank-R prefix of Q")
    p.add_argument("--rank", type=int, required=True)

    p = cmd("nonassoc", _cmd_nonassoc,
            "smallest associativity failure in the rank-R prefix")
    p.add_argument("--rank", type=int, required=True)

    p = cmd("fixed-point", _cmd_fixed_point, "least a > q in Q with a • q = a")
    p.add_argument("q", type=int)

    p = cmd("gap-run", _cmd_gap_run,
            "first run of at least N consecutive non-SP numbers")
    p.add_argument("n", type=int)

    p = cmd("pairs", _cmd_pairs, "consecutive SP pairs at a fixed gap")
    p.add_argument("--gap", type=int, required=True)
    p.add_argument("--max", type=int, help="largest pair member (default --limit)")

    ap_parser = sub.add_parser("ap", parents=[common],
                               help="arithmetic progressions of SP numbers")
    ap_sub = ap_parser.add_subparsers(required=True, metavar="ACTION")
    p = cmd("find", _cmd_ap_find,
            "find a prime progression, optionally scaled by a square", ap_sub)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--bound", type=int, required=True,
                   help="largest allowed last term of the prime progression")
    p.add_argument("--square", type=int, metavar="R",
                   help="also emit the SP progression with terms prime * R**2")
    p = cmd("verify", _cmd_ap_verify,
            "check terms form an SP progression with a constant chain", ap_sub)
    p.add_argument("terms", type=_int_list, metavar="T1,T2,...")

    p = cmd("triples", _cmd_triples,
            "search the rank-R prefix for an equal-product triple")
    p.add_argument("--rank", type=int, required=True)

    p = cmd("bertrand", _cmd_bertrand,
            "find n in [FROM, TO] with no SP strictly between n and 2n")
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)

    p = cmd("census", _cmd_census, "final-digit census of SP numbers <= MAX")
    p.add_argument("--max", type=int, required=True)

    p = cmd("density", _cmd_density, "sp_count(n) * ln(n) / n against zeta(2) - 1")
    p.add_argument("--checkpoints", type=_int_list, required=True,
                   metavar="N1,N2,...")

    p = cmd("zeta", _cmd_zeta, "certified Hurwitz zeta(2, a) evaluation")
    p.add_argument("--a", type=float, required=True)

    p = cmd("verify", _cmd_verify, "run a named verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    p.add_argument("--rank", type=int, help="prefix rank (axioms, theorem3)")
    p.add_argument("--n-max", type=int,
                   help="largest run length (lemma1; default 25, capped at "
                        "the longest run)")
    p.add_argument("--length", type=int,
                   help="largest progression length (lemma2, theorem2; "
                        "default 4, capped at the terms below --limit)")
    p.add_argument("--bound", type=int, help="prime search bound (lemma2, theorem2)")
    p.add_argument("--square", type=int, help="square root for scaling (lemma2, theorem2)")
    p.add_argument("--from", dest="lo", type=int, help="scan start (lemma3)")
    p.add_argument("--to", dest="hi", type=int, help="scan end (lemma3)")
    p.add_argument("--t-max", type=int, help="largest t checked (lemma4)")
    p.add_argument("--q-max", type=int,
                   help="largest q checked (theorem1; default 100, capped at "
                        "the widest gap)")
    p.add_argument("--max", type=int, help="largest twin member (theorem4)")

    return parser


# -- sieve acquisition ----------------------------------------------------


def _index(args):
    """Q up to --limit. A --cache file that exists is read and checked
    first, so a malformed one fails; when it covers the limit its bits
    answer, and it is left as it is. Otherwise Q is built, as bits without
    numpy up to ``PURE_BUILD_MAX``, else as a numpy ``SpSieve``, and saved
    to --cache."""
    if args.cache and os.path.exists(args.cache):
        limit, payload = cachefile.read(args.cache)
        if limit >= args.limit:
            if args.verbose:
                print(f"loaded cache {args.cache} (limit {limit})", file=sys.stderr)
            return cachefile.QBits(args.limit, payload)
        del payload  # not held through the build
    started = time.monotonic()
    if args.limit <= PURE_BUILD_MAX:
        q = cachefile.QBits(args.limit, cachefile.build_payload(args.limit))
    else:
        from .sieve import build_sieve

        q = build_sieve(args.limit)
    if args.verbose:
        print(f"built sieve to {args.limit} in {time.monotonic() - started:.2f}s",
              file=sys.stderr)
    if args.cache:
        q.save(args.cache)
        if args.verbose:
            print(f"saved cache {args.cache}", file=sys.stderr)
    return q


# -- output ---------------------------------------------------------------


def _emit(args, payload: dict, plain_lines: Iterable[str],
          csv_rows: Iterable[list] | None = None) -> None:
    """Print the result in the chosen format; without ``csv_rows`` the csv
    is the payload's keys and values. The lines and rows are iterated only
    when their format is chosen, so a handler whose output grows with the
    result passes generators, and the formats not chosen are never made."""
    if args.format == "json":
        print(json.dumps(payload))
    elif args.format == "plain":
        for line in plain_lines:
            print(line)
    else:
        if csv_rows is None:
            keys = list(payload)
            csv_rows = [keys, [payload[k] for k in keys]]
        writer = csv.writer(sys.stdout, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)


# -- command handlers -----------------------------------------------------


def _cmd_build(args) -> int:
    q = _index(args)
    count, largest = q.sp_count(q.limit), q.max_element
    out = getattr(args, "out", None)
    if out:
        q.save(out)
    payload = {"limit": q.limit, "sp_count": count, "max_sp": largest,
               "out": out}
    plain = [f"limit {q.limit}: {count} SP numbers, largest {largest}"]
    if out:
        plain.append(f"cache written to {out}")
    _emit(args, payload, plain)
    return EXIT_OK


def _cmd_list(args) -> int:
    q = _index(args)
    if args.count is not None:
        if args.count < 0:
            raise DomainError(f"need --count >= 0, got {args.count}")
        count = q.sp_count(q.limit)
        if args.count > count:
            raise CapacityError(
                f"only {count} SP numbers below limit {q.limit}, "
                f"asked for {args.count}")
        rank = args.count
    else:
        bound = args.max if args.max is not None else q.limit
        rank = q.sp_count(max(bound, 0))  # refuses a bound past the limit
    values = q.prefix(rank)[1:]
    payload = {"limit": q.limit, "sp": values}
    _emit(args, payload, map(str, values),
          chain([["sp"]], ([v] for v in values)))
    return EXIT_OK


def _cmd_count(args) -> int:
    q = _index(args)
    c = q.sp_count(args.n)
    _emit(args, {"n": args.n, "sp_count": c}, [str(c)])
    return EXIT_OK


def _cmd_succ(args) -> int:
    q = _index(args)
    v = q.successor(args.x)
    _emit(args, {"x": args.x, "successor": v}, [str(v)])
    return EXIT_OK


def _cmd_pred(args) -> int:
    q = _index(args)
    v = q.predecessor(args.x)
    _emit(args, {"x": args.x, "predecessor": v}, [str(v)])
    return EXIT_OK


def _cmd_nth(args) -> int:
    q = _index(args)
    v = q.nth_sp(args.r)
    _emit(args, {"r": args.r, "sp": v}, [str(v)])
    return EXIT_OK


def _cmd_op(args) -> int:
    q = _index(args)
    v = lop(q, args.a, args.b)
    _emit(args, {"a": args.a, "b": args.b, "result": v}, [str(v)])
    return EXIT_OK


def _cmd_table(args) -> int:
    q = _index(args)
    members = q.prefix(args.rank)
    entries = cayley_rows(members)
    payload = {"rank": args.rank, "members": members, "entries": entries}
    # One %-format per line: a format spec parsed per entry took 3.4 s of a
    # rank-2000 table.
    line = " ".join([f"%{len(str(members[-1]))}s"] * (len(members) + 1))
    plain = chain([line % ("*", *members)],
                  (line % (m, *row) for m, row in zip(members, entries)))
    csv_rows = chain([[""] + members],
                     ([m] + row for m, row in zip(members, entries)))
    _emit(args, payload, plain, csv_rows)
    return EXIT_OK


def _cmd_nonassoc(args) -> int:
    q = _index(args)
    witness = find_nonassoc_witness(q, args.rank)
    payload = {"rank": args.rank,
               "witness": list(witness) if witness else None}
    if witness:
        a, b, c = witness
        left = lop(q, lop(q, a, b), c)
        right = lop(q, a, lop(q, b, c))
        payload["left"] = left
        payload["right"] = right
        plain = [f"({a} • {b}) • {c} = {left}  !=  "
                 f"{a} • ({b} • {c}) = {right}"]
    else:
        plain = [f"rank {args.rank}: associative (no witness)"]
    _emit(args, payload, plain)
    return EXIT_OK


def _cmd_fixed_point(args) -> int:
    q = _index(args)
    a = fixed_point(q, args.q)
    _emit(args, {"q": args.q, "fixed_point": a}, [str(a)])
    return EXIT_OK


def _cmd_gap_run(args) -> int:
    q = _index(args)
    run = find_gap_run(q, args.n)
    payload = {"n": args.n, "start": run.start, "length": run.length}
    _emit(args, payload,
          [f"{run.length} consecutive non-SP numbers starting at {run.start}"])
    return EXIT_OK


def _cmd_pairs(args) -> int:
    q = _index(args)
    bound = args.max if args.max is not None else q.limit
    pairs = q.gap_pairs(args.gap, bound)
    payload = {"gap": args.gap, "max": bound, "pairs": [list(p) for p in pairs]}
    plain = (f"({lo}, {hi})" for lo, hi in pairs) if pairs else ["none"]
    csv_rows = chain([["lo", "hi", "gap"]],
                     ([lo, hi, args.gap] for lo, hi in pairs))
    _emit(args, payload, plain, csv_rows)
    return EXIT_OK


def _cmd_ap_find(args) -> int:
    from . import theorems

    primes = theorems.find_prime_ap(args.length, args.bound)
    payload = {"length": args.length, "bound": args.bound,
               "primes": list(primes), "square": args.square,
               "terms": None, "common_difference": None}
    plain = [f"primes: {', '.join(str(p) for p in primes)}"]
    if args.square is not None:
        ap = theorems.construct_sp_ap(primes, args.square)
        payload["terms"] = list(ap.terms)
        payload["common_difference"] = ap.common_difference
        plain.append(f"terms: {', '.join(str(t) for t in ap.terms)}")
        plain.append(f"common difference: {ap.common_difference}")
    _emit(args, payload, plain)
    return EXIT_OK


def _cmd_ap_verify(args) -> int:
    from . import theorems

    if len(args.terms) < 2:
        # Not a falsified progression: there is nothing to check.
        raise DomainError("need at least two terms")
    try:
        ap = theorems.sp_ap_from_terms(args.terms)
    except ValidationError as exc:
        print(f"falsifying input: {exc}", file=sys.stderr)
        return EXIT_FINDING
    q = _index(args)
    value = theorems.verify_bullet_chain(q, ap)
    via_difference = q.successor(ap.common_difference)
    verified = value == via_difference
    payload = {"terms": list(ap.terms),
               "common_difference": ap.common_difference,
               "chain_value": value,
               "successor_of_difference": via_difference,
               "verified": verified}
    plain = [f"chain value {value}; successor of difference "
             f"{ap.common_difference} is {via_difference}; "
             f"{'verified' if verified else 'MISMATCH'}"]
    _emit(args, payload, plain)
    return EXIT_OK if verified else EXIT_FINDING


def _cmd_triples(args) -> int:
    from . import theorems

    q = _index(args)
    triple = theorems.search_equal_triple(q, args.rank)
    payload = {"rank": args.rank,
               "triple": list(triple) if triple else None}
    if triple:
        a, b, c = triple
        common = lop(q, a, b)
        payload["product"] = common
        plain = [f"equal-product triple: ({a}, {b}, {c}), every pair gives {common}"]
    else:
        plain = [f"rank {args.rank}: no equal-product triple"]
    _emit(args, payload, plain)
    return EXIT_FINDING if triple else EXIT_OK


def _cmd_bertrand(args) -> int:
    from . import theorems

    q = _index(args)
    if args.lo < 1:
        raise DomainError(f"need --from >= 1, got {args.lo}")
    if args.lo > args.hi:
        raise DomainError(f"need --from <= --to {args.hi}, got {args.lo}")
    failures = theorems.scan_bertrand(q, args.lo, args.hi)
    real = [n for n in failures if n >= 5]
    payload = {"from": args.lo, "to": args.hi, "failures": failures,
               "failures_from_5": real}
    plain = [f"failures in [{args.lo}, {args.hi}]: "
             f"{', '.join(str(n) for n in failures) or 'none'}"]
    if real:
        plain.append(f"counterexamples at n >= 5: "
                     f"{', '.join(str(n) for n in real)}")
    csv_rows = [["n"]] + [[n] for n in failures]
    _emit(args, payload, plain, csv_rows)
    return EXIT_FINDING if real else EXIT_OK


def _cmd_census(args) -> int:
    from . import analytics

    q = _index(args)
    result = analytics.digit_census(q, args.max)
    total = sum(result.counts.values())
    payload = {"limit": result.limit,
               "counts": {str(d): result.counts[d] for d in range(10)},
               "sp_count": total,
               "digit1_count": result.counts[1],
               "digit1_target": result.digit1_target}
    plain = [f"digit {d}: {result.counts[d]}" for d in range(10)]
    plain.append(f"total {total}; modeled digit-1 count "
                 f"{result.digit1_target:.3f}")
    csv_rows = [["digit", "count"]] + [[d, result.counts[d]] for d in range(10)]
    _emit(args, payload, plain, csv_rows)
    return EXIT_OK


def _cmd_density(args) -> int:
    from . import analytics

    q = _index(args)
    rows = analytics.density_table(q, args.checkpoints)
    payload = {"target": analytics.DENSITY_TARGET,
               "rows": [{"n": r.n, "sp_count": r.sp_count, "ratio": r.ratio,
                         "target": r.target, "abs_error": r.abs_error}
                        for r in rows]}
    plain = [f"n={r.n}: count {r.sp_count}, ratio {r.ratio:.6f}, "
             f"abs error {r.abs_error:.6f}" for r in rows]
    csv_rows = [["n", "sp_count", "ratio", "target", "abs_error"]]
    csv_rows += [[r.n, r.sp_count, repr(r.ratio), repr(r.target),
                  repr(r.abs_error)] for r in rows]
    _emit(args, payload, plain, csv_rows)
    return EXIT_OK


def _cmd_zeta(args) -> int:
    from . import analytics

    ev = analytics.hurwitz_zeta2(args.a)
    payload = {"a": ev.a, "value": ev.value,
               "abs_error_bound": ev.abs_error_bound, "terms": ev.terms}
    plain = [f"zeta(2, {ev.a}) = {ev.value!r} "
             f"(error bound {ev.abs_error_bound:.2e}, {ev.terms} summed terms)"]
    _emit(args, payload, plain)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify

    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    q = _index(args)
    suites = verify.run(
        q, names, rank=args.rank, n_max=args.n_max, length=args.length,
        bound=args.bound, square=args.square, lo=args.lo, hi=args.hi,
        t_max=args.t_max, q_max=args.q_max, max=args.max)
    all_ok = all(s["ok"] for s in suites)
    payload = {"limit": q.limit, "ok": all_ok, "suites": suites}
    plain = []
    csv_rows = [["suite", "check", "ok", "detail"]]
    for s in suites:
        for c in s["checks"]:
            status = "ok" if c["ok"] else "FAIL"
            plain.append(f"[{status}] {s['suite']}.{c['name']}: {c['detail']}")
            csv_rows.append([s["suite"], c["name"], c["ok"], c["detail"]])
        plain.append(f"suite {s['suite']}: "
                     + ("verified" if s["ok"] else "FOUND A COUNTEREXAMPLE"))
    _emit(args, payload, plain, csv_rows)
    return EXIT_OK if all_ok else EXIT_FINDING


def dispatch(argv: list[str]) -> int:
    """Parse argv, run the subcommand, and return the exit code."""
    parser = _build_parser()
    try:
        # The global flags default to SUPPRESS, so the subparsers' copies of
        # them leave these values alone unless the flag is given.
        args = parser.parse_args(argv, argparse.Namespace(
            limit=DEFAULT_LIMIT, cache=None, format="json", verbose=False))
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    if args.limit < 8:
        print(f"--limit must be at least 8 (the first SP number), got "
              f"{args.limit}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args)
    except ChainBrokenError as exc:
        print(f"chain broken at position {exc.position}, pair {exc.pair}: "
              f"{exc}", file=sys.stderr)
        return EXIT_FINDING
    except (CapacityError, NotFoundError, SearchBudgetError) as exc:
        hint = ""
        if isinstance(exc, CapacityError) and exc.required is not None:
            hint = f" (try --limit {exc.required})"
        print(f"capacity: {exc}{hint}", file=sys.stderr)
        return EXIT_CAPACITY
    except (DomainError, MembershipError, ValidationError, CacheError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SploopError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    if hasattr(signal, "SIGPIPE"):
        # A reader that closes stdout early (``sploop list | head``) ends the
        # run quietly, as it does for coreutils.
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(dispatch(sys.argv[1:]))
