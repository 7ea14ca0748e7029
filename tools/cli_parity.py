"""CLI parity: a fixed list of invocations, each run through in-process
``sploop.cli.dispatch``, printed as one line of argv, exit code and the
sha256 of stdout and of stderr.

    PYTHONPATH=<tree>/src python3 tools/cli_parity.py > <tree>.txt

Run it on two trees and ``diff`` the outputs: equal lines mean the two
trees print the same bytes and exit alike. The runs happen in a temporary
directory with a fixed cache file name, so that the ``-v`` notes name the
same path every time; the build time in the "built sieve" note is masked
before hashing. The list covers ``verify`` with each suite and ``all``,
with default and explicit options and with options a suite does not read,
the other commands in the three formats at limits 8 to 10**4, the
commands besides the cached ones that read Q (``verify``, ``bertrand``,
``triples``, ``ap verify``, ``list``, ``census``, ``density`` and
``nonassoc``) the same way on a fresh cache, and a sample of every
command that reads Q with no cache, a new, fresh, larger, smaller (stale)
and corrupt cache file, with and without ``-v``. It uses the standard
library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile

from sploop.cli import dispatch

LIMITS = (8, 9, 27, 28, 117, 1000, 10**4)
FORMATS = ("json", "csv", "plain")
CACHE = "q.spq"

VERIFY = [["--suite", name] for name in (
    "axioms", "lemma1", "lemma2", "lemma3", "lemma4",
    "theorem1", "theorem2", "theorem3", "theorem4", "all")] + [
    ["--suite", "axioms", "--rank", "5"],
    ["--suite", "axioms", "--t-max", "3"],
    ["--suite", "lemma1", "--n-max", "5"],
    ["--suite", "lemma1", "--rank", "5"],
    ["--suite", "lemma1", "--n-max", "0"],
    ["--suite", "lemma2", "--length", "3", "--bound", "100", "--square", "3"],
    ["--suite", "lemma2", "--length", "1"],
    ["--suite", "lemma3", "--from", "2", "--to", "4"],
    ["--suite", "lemma3", "--from", "60"],
    ["--suite", "lemma3", "--from", "0"],
    ["--suite", "lemma3", "--from", "3", "--to", "2"],
    ["--suite", "lemma3", "--to", "1000000"],
    ["--suite", "lemma4", "--t-max", "3"],
    ["--suite", "lemma4", "--t-max", "990"],
    ["--suite", "theorem1", "--q-max", "12"],
    ["--suite", "theorem1", "--q-max", "2000"],
    ["--suite", "theorem1", "--q-max", "0"],
    ["--suite", "theorem2", "--length", "4"],
    ["--suite", "theorem2", "--bound", "10"],
    ["--suite", "theorem3", "--rank", "10"],
    ["--suite", "theorem3", "--max", "50"],
    ["--suite", "theorem4", "--max", "28"],
    ["--suite", "theorem4", "--max", "27"],
    ["--suite", "theorem4", "--max", "100"],
    ["--suite", "all", "--rank", "5", "--n-max", "3", "--length", "2",
     "--from", "1", "--to", "4", "--t-max", "3", "--q-max", "8", "--max", "28"],
]

CACHED = [["op", "164", "188"], ["succ", "24"], ["pred", "13"],
          ["count", "117"], ["nth", "25"], ["fixed-point", "12"],
          ["gap-run", "8"], ["pairs", "--gap", "1"], ["table", "--rank", "5"],
          ["build"]]

OTHERS = [["bertrand", "--from", "1", "--to", "4"],
          ["bertrand", "--from", "0", "--to", "4"],
          ["bertrand", "--from", "3", "--to", "2"],
          ["triples", "--rank", "10"],
          ["ap", "find", "--length", "3", "--bound", "100"],
          ["ap", "find", "--length", "4", "--bound", "200", "--square", "2"],
          ["ap", "verify", "164,188,212,236"],
          ["ap", "verify", "8,12"],
          ["census", "--max", "100"],
          ["density", "--checkpoints", "3,8"],
          ["list", "--max", "117"],
          ["list", "--count", "5"],
          ["nonassoc", "--rank", "10"],
          ["zeta", "--a", "0.5"]]

# The commands besides the cached ones that answer from a fresh cache's bits.
CHECKS = [["verify"] + argv for argv in VERIFY] + [
    argv for argv in OTHERS if argv[0] not in ("ap", "zeta")
    or argv[:2] == ["ap", "verify"]]

# The commands run on each cache state.
CACHE_RUNS = CACHED + [["list", "--count", "3"], ["census", "--max", "20"],
                       ["density", "--checkpoints", "3,8"],
                       ["nonassoc", "--rank", "3"],
                       ["verify", "--suite", "lemma4"],
                       ["verify", "--suite", "all"],
                       ["bertrand", "--from", "1", "--to", "14"],
                       ["triples", "--rank", "7"],
                       ["ap", "verify", "8,12"],
                       ["ap", "verify", "164,188,212,236"]]


def invocations():
    """(cache state, argv) pairs, in a fixed order."""
    yield None, ["verify", "--help"]
    yield None, ["--help"]
    for limit in LIMITS:
        for fmt in FORMATS:
            common = ["--limit", str(limit), "--format", fmt]
            for argv in VERIFY:
                yield None, common + ["verify"] + argv
            for argv in CACHED + OTHERS:
                yield None, common + argv
            yield None, common + ["bertrand", "--from", "1",
                                  "--to", str(limit // 2)]
            yield None, common + ["census", "--max", str(limit)]
    for limit in LIMITS:
        for fmt in FORMATS:
            for argv in CHECKS:
                yield "fresh", ["--limit", str(limit), "--cache", CACHE,
                                "--format", fmt] + argv
    for limit in (28, 1000, 10**4):
        for state in ("none", "new", "fresh", "larger", "stale", "corrupt"):
            cache = [] if state == "none" else ["--cache", CACHE]
            for verbose in ([], ["-v"]):
                for argv in CACHE_RUNS:
                    yield state, ["--limit", str(limit)] + cache + verbose + argv


def prepare(state: str | None, limit: int) -> None:
    """Leave the cache file as the state names it."""
    if os.path.exists(CACHE):
        os.remove(CACHE)
    built_at = {"fresh": limit, "larger": 2 * limit, "stale": limit // 2}
    if state in built_at:
        call(["--limit", str(built_at[state]), "build", "--out", CACHE])
    elif state == "corrupt":
        with open(CACHE, "wb") as f:
            f.write(b"not a cache file")


def call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal
    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="sploop-parity-") as tmp:
        os.chdir(tmp)
        try:
            for state, argv in invocations():
                prepare(state, int(argv[1]) if state else 0)
                code, out, err = call(argv)
                err = re.sub(r" in \d+\.\d\ds$", " in <t>s", err, flags=re.M)
                print(f"{state or '-'}\t{' '.join(argv)}\t{code}\t"
                      f"{sha(out)}\t{sha(err)}")
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main())
