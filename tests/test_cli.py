from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import signal
import subprocess
import sys

import pytest

import sploop
import sploop.cli
import sploop.sieve
from sploop import SpSieve, build_sieve, load_cache
from sploop.cli import dispatch

FIRST_25 = [8, 12, 18, 20, 27, 28, 32, 44, 45, 48, 50, 52, 63, 68,
            72, 75, 76, 80, 92, 98, 99, 108, 112, 116, 117]


def run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv: str) -> tuple[int, dict]:
    code, out, _ = run(*argv)
    return code, json.loads(out)


class TestQueries:
    def test_list_count(self):
        code, payload = run_json("list", "--count", "25", "--limit", "200")
        assert code == 0
        assert payload["sp"] == FIRST_25

    def test_list_max(self):
        code, payload = run_json("list", "--max", "20", "--limit", "100")
        assert code == 0
        assert payload["sp"] == [8, 12, 18, 20]

    def test_list_max_at_the_edges(self):
        assert run_json("list", "--max", "-5", "--limit", "100") == (
            0, {"limit": 100, "sp": []})
        code, _, err = run("list", "--max", "101", "--limit", "100")
        assert code == 3
        assert err.endswith("(try --limit 101)\n")

    def test_list_too_many(self):
        code, _, err = run("list", "--count", "100", "--limit", "117")
        assert code == 3
        assert "capacity" in err

    def test_op(self):
        code, payload = run_json("op", "164", "188", "--limit", "1000")
        assert code == 0
        assert payload["result"] == 27

    def test_op_non_member(self):
        code, _, err = run("op", "7", "8", "--limit", "1000")
        assert code == 2
        assert "not" in err

    def test_succ_pred_nth_count(self):
        assert run_json("succ", "24", "--limit", "1000")[1]["successor"] == 27
        assert run_json("pred", "13", "--limit", "1000")[1]["predecessor"] == 12
        assert run_json("nth", "25", "--limit", "1000")[1]["sp"] == 117
        assert run_json("count", "117", "--limit", "1000")[1]["sp_count"] == 25

    def test_succ_capacity(self):
        code, _, err = run("succ", "999", "--limit", "1000")
        assert code == 3
        assert "--limit" in err

    def test_succ_capacity_names_the_successor(self):
        code, _, err = run("succ", "1000", "--limit", "1000")
        assert code == 3
        assert "(try --limit 1004)" in err  # N(1000) = 1004 = 251 * 2**2

    def test_global_flag_position_is_flexible(self):
        before = run("--limit", "1000", "op", "212", "236")
        after = run("op", "212", "236", "--limit", "1000")
        assert before == after

    def test_table(self):
        code, payload = run_json("table", "--rank", "2", "--limit", "1000")
        assert code == 0
        assert payload["entries"] == [[1, 8, 12], [8, 1, 8], [12, 8, 1]]

    def test_nonassoc(self):
        code, payload = run_json("nonassoc", "--rank", "3", "--limit", "1000")
        assert code == 0
        assert payload["witness"] == [8, 8, 12]
        assert payload["left"] != payload["right"]

    def test_fixed_point(self):
        code, payload = run_json("fixed-point", "8", "--limit", "1000")
        assert code == 0
        assert payload["fixed_point"] == 44

    def test_fixed_point_capacity(self):
        code, _, err = run("fixed-point", "117", "--limit", "1000")
        assert code == 3
        # no limit is known to hold a gap of width 117, so none is suggested
        assert "width 117" in err and "--limit" not in err

    def test_gap_run(self):
        code, payload = run_json("gap-run", "8", "--limit", "1000")
        assert code == 0
        assert (payload["start"], payload["length"]) == (33, 11)

    def test_gap_run_capacity(self):
        code, _, err = run("gap-run", "40", "--limit", "1000")
        assert code == 3
        # the longest run below 1000 is named; no limit is known to hold 40
        assert "26 non-SP numbers from 802" in err and "--limit" not in err

    def test_pairs(self):
        code, payload = run_json("pairs", "--gap", "1", "--max", "117",
                                 "--limit", "1000")
        assert code == 0
        assert payload["pairs"] == [[27, 28], [44, 45], [75, 76],
                                    [98, 99], [116, 117]]

    def test_census(self):
        code, payload = run_json("census", "--max", "117", "--limit", "1000")
        assert code == 0
        assert payload["counts"]["8"] == 7
        assert payload["digit1_count"] == 0
        assert payload["sp_count"] == 25

    def test_zeta(self):
        code, payload = run_json("zeta", "--a", "1.0")
        assert code == 0
        assert payload["value"] == pytest.approx(1.6449340668482264, abs=1e-10)
        assert payload["abs_error_bound"] <= 1e-10

    def test_zeta_domain(self):
        assert run("zeta", "--a", "-1")[0] == 2

    def test_density_json(self):
        code, payload = run_json("density", "--checkpoints", "100,1000",
                                 "--limit", "10000")
        assert code == 0
        assert [r["n"] for r in payload["rows"]] == [100, 1000]
        assert payload["rows"][0]["sp_count"] == 21

    def test_density_csv_column_order(self):
        code, out, _ = run("density", "--checkpoints", "100", "--limit",
                           "10000", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,sp_count,ratio,target,abs_error"
        assert lines[1].startswith("100,21,")

    def test_plain_format(self):
        code, out, _ = run("op", "164", "188", "--limit", "1000",
                           "--format", "plain")
        assert code == 0
        assert out.strip() == "27"


# Byte for byte, as each format printed them before the formats were built
# only when chosen; with a cache, table and pairs read its bits.
PINNED_OUTPUT = [
    (("table", "--rank", "3"), "csv",
     ",1,8,12,18\n1,1,8,12,18\n8,8,1,8,12\n12,12,8,1,8\n18,18,12,8,1\n"),
    (("table", "--rank", "3"), "plain",
     " *  1  8 12 18\n 1  1  8 12 18\n 8  8  1  8 12\n12 12  8  1  8\n"
     "18 18 12  8  1\n"),
    (("pairs", "--gap", "1", "--max", "117"), "csv",
     "lo,hi,gap\n27,28,1\n44,45,1\n75,76,1\n98,99,1\n116,117,1\n"),
    (("pairs", "--gap", "1", "--max", "117"), "plain",
     "(27, 28)\n(44, 45)\n(75, 76)\n(98, 99)\n(116, 117)\n"),
    # No two SP numbers up to 117 lie 27 apart.
    (("pairs", "--gap", "27", "--max", "117"), "csv", "lo,hi,gap\n"),
    (("pairs", "--gap", "27", "--max", "117"), "plain", "none\n"),
    (("verify", "--suite", "lemma3", "--to", "100"), "csv",
     'suite,check,ok,detail\nlemma3,doubling,True,"[1, 100]: 0 failures at '
     'n >= 5; expected small-n failures [1, 2, 3, 4]"\n'),
    (("verify", "--suite", "lemma3", "--to", "100"), "plain",
     "[ok] lemma3.doubling: [1, 100]: 0 failures at n >= 5; expected small-n "
     "failures [1, 2, 3, 4]\nsuite lemma3: verified\n"),
]


@pytest.mark.parametrize("argv, fmt, text", PINNED_OUTPUT,
                         ids=[f"{' '.join(a)}-{f}" for a, f, _ in PINNED_OUTPUT])
def test_csv_and_plain_output_is_pinned(tmp_path, argv, fmt, text):
    cache = str(tmp_path / "q.spq")
    run("build", "--limit", "1000", "--out", cache)
    for cached in ((), ("--cache", cache)):
        assert run("--limit", "1000", "--format", fmt, *cached, *argv) == \
            (0, text, "")


class TestFindings:
    def test_triples_found_is_exit_1(self):
        code, payload = run_json("triples", "--rank", "7", "--limit", "1000")
        assert code == 1
        assert payload["triple"] == [27, 28, 32]
        assert payload["product"] == 8

    def test_triples_absent_is_exit_0(self):
        code, payload = run_json("triples", "--rank", "6", "--limit", "1000")
        assert code == 0
        assert payload["triple"] is None

    def test_triples_budget(self):
        assert run("triples", "--rank", "2001", "--limit", "1000")[0] == 3

    def test_bertrand_small_failures_are_expected(self):
        code, payload = run_json("bertrand", "--from", "1", "--to", "100",
                                 "--limit", "1000")
        assert code == 0
        assert payload["failures"] == [1, 2, 3, 4]
        assert payload["failures_from_5"] == []

    def test_ap_verify_good_chain(self):
        code, payload = run_json("ap", "verify", "164,188,212,236",
                                 "--limit", "1000")
        assert code == 0
        assert payload["chain_value"] == 27
        assert payload["successor_of_difference"] == 27
        assert payload["verified"] is True

    def test_ap_verify_non_sp_term_is_exit_1(self):
        code, _, err = run("ap", "verify", "164,188,213", "--limit", "1000")
        assert code == 1
        assert "falsifying" in err

    def test_ap_verify_non_progression_is_exit_1(self):
        code, _, err = run("ap", "verify", "8,27,45", "--limit", "1000")
        assert code == 1
        assert "falsifying" in err

    @pytest.mark.parametrize("terms", ["8", ""])
    def test_ap_verify_fewer_than_two_terms_is_a_usage_error(self, terms):
        code, out, err = run("ap", "verify", terms, "--limit", "1000")
        assert (code, out) == (2, "")
        assert err == "error: need at least two terms\n"

    def test_ap_find(self):
        code, payload = run_json("ap", "find", "--length", "4", "--bound",
                                 "100", "--square", "2")
        assert code == 0
        assert payload["primes"] == [5, 11, 17, 23]
        assert payload["terms"] == [20, 44, 68, 92]
        assert payload["common_difference"] == 24

    def test_ap_find_not_found(self):
        assert run("ap", "find", "--length", "4", "--bound", "20")[0] == 3


class TestUsage:
    def test_unknown_command(self):
        assert run("frobnicate")[0] == 2

    def test_missing_command(self):
        assert run()[0] == 2

    def test_limit_floor(self):
        code, _, err = run("--limit", "5", "list")
        assert code == 2
        assert "at least 8" in err

    def test_threads_floor(self):
        assert run("list", "--count", "1", "--threads", "0")[0] == 2

    def test_help_exits_zero(self):
        assert run("--help")[0] == 0

    def test_bad_checkpoint_list(self):
        assert run("density", "--checkpoints", "10,zap", "--limit", "100")[0] == 2

    def test_closed_stdout_pipe_ends_quietly(self):
        src = os.path.dirname(os.path.dirname(sploop.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "sploop", "--limit", "1000000", "list",
             "--format", "plain"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.readline() == b"8\n"
        proc.stdout.close()  # the list is far larger than the pipe buffer
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == -signal.SIGPIPE
        assert "error:" not in err and "Traceback" not in err


class TestDeterminismAndCache:
    def test_idempotent_output(self):
        first = run("list", "--max", "117", "--limit", "117")
        second = run("list", "--max", "117", "--limit", "117")
        assert first == second

    def test_cache_written_then_used(self, tmp_path):
        cache = str(tmp_path / "q.spq")
        fresh = run("count", "117", "--limit", "100000")
        primed = run("count", "117", "--limit", "100000", "--cache", cache)
        assert os.path.exists(cache)
        reused = run("count", "117", "--limit", "100000", "--cache", cache)
        assert fresh == primed == reused

    def test_cache_trimmed_for_smaller_limit(self, tmp_path):
        cache = str(tmp_path / "q.spq")
        run("build", "--limit", "100000", "--cache", cache)
        small_cached = run("list", "--max", "117", "--limit", "50000",
                           "--cache", cache)
        small_fresh = run("list", "--max", "117", "--limit", "50000")
        assert small_cached == small_fresh
        assert load_cache(cache).limit == 100000  # trim does not rewrite

    def test_stale_cache_is_rebuilt(self, tmp_path):
        cache = str(tmp_path / "q.spq")
        run("build", "--limit", "1000", "--cache", cache)
        code, payload = run_json("count", "50000", "--limit", "50000",
                                 "--cache", cache)
        assert code == 0
        assert load_cache(cache).limit == 50000

    def test_corrupt_cache_is_a_usage_error(self, tmp_path):
        cache = tmp_path / "q.spq"
        cache.write_bytes(b"not a cache at all")
        code, _, err = run("count", "117", "--limit", "1000",
                           "--cache", str(cache))
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["op", "8", "12", "--cache", "{tmp}"],
        ["op", "8", "12", "--cache", "{tmp}/missing/q.spq"],
        ["build", "--out", "{tmp}/missing/q.spq"],
    ], ids=["cache-is-a-directory", "cache-dir-missing", "out-dir-missing"])
    def test_unusable_cache_path_is_a_usage_error(self, tmp_path, argv):
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, out, err = run(*argv, "--limit", "1000")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and str(tmp_path) in err
        assert "Traceback" not in err

    def test_build_out(self, tmp_path):
        out_path = str(tmp_path / "built.spq")
        code, payload = run_json("build", "--limit", "117", "--out", out_path)
        assert code == 0
        assert payload["sp_count"] == 25
        assert payload["max_sp"] == 117
        assert load_cache(out_path).limit == 117

    def test_threads_is_a_usage_error(self):
        code, out, _ = run("bertrand", "--from", "1", "--to", "1000",
                           "--limit", "10000", "--threads", "4")
        assert code == 2
        assert out == ""

    def test_verbose_notes_go_to_stderr_only(self, tmp_path):
        argv = ("count", "117", "--limit", "100000", "--cache")
        quiet, loud = str(tmp_path / "quiet.spq"), str(tmp_path / "loud.spq")
        code, out, err = run(*argv, quiet)
        assert (code, err) == (0, "")
        built = run(*argv, loud, "-v")
        assert built[:2] == (code, out)
        assert "built sieve to 100000" in built[2]
        assert f"saved cache {loud}" in built[2]
        assert run(*argv, quiet) == (code, out, "")
        loaded = run(*argv, loud, "-v")
        assert loaded[:2] == (code, out)
        assert loaded[2] == f"loaded cache {loud} (limit 100000)\n"
        assert run(*argv, loud, "-vv") == loaded

    @pytest.mark.parametrize("built_at", [1000, 2000])
    def test_verbose_cached_gap_run_notes_only_the_load(self, tmp_path, built_at):
        cache = tmp_path / "q.spq"
        run("build", "--limit", str(built_at), "--out", str(cache))
        before = cache.read_bytes()
        for command in (["gap-run", "8"], ["list", "--max", "117"],
                        ["census", "--max", "1000"],
                        ["density", "--checkpoints", "3,1000"],
                        ["nonassoc", "--rank", "10"]):
            argv = ("--limit", "1000", "--cache", str(cache), *command)
            quiet = run(*argv)
            assert quiet[2] == "" and quiet[:2] == run("--limit", "1000", *command)[:2]
            assert run(*argv, "-v") == (
                *quiet[:2], f"loaded cache {cache} (limit {built_at})\n")
        assert cache.read_bytes() == before

    def test_saves_never_build_the_flags(self, tmp_path, monkeypatch):
        def built(_sieve):
            raise AssertionError("the flags were built")

        monkeypatch.setattr(SpSieve, "flags", property(built))
        paths = [tmp_path / name for name in ("lib.spq", "out.spq", "cache.spq")]
        build_sieve(10**4).save(paths[0])
        assert run("build", "--limit", "10000", "--out", str(paths[1]))[0] == 0
        numpy_route(monkeypatch)
        assert run("list", "--limit", "10000", "--cache", str(paths[2]))[0] == 0
        assert len({path.read_bytes() for path in paths}) == 1


POINT_COMMANDS = (["op", "164", "188"], ["succ", "24"], ["pred", "13"],
                  ["count", "117"], ["nth", "25"])
CACHED_COMMANDS = POINT_COMMANDS + (
    ["fixed-point", "12"], ["gap-run", "8"], ["pairs", "--gap", "1"],
    ["table", "--rank", "5"])

# The other commands that read Q: on a fresh cache they take its bits too.
READ_ONLY = (["verify", "--suite", "all"], ["bertrand", "--from", "1", "--to", "500"],
             ["triples", "--rank", "10"], ["ap", "verify", "164,188,212,236"],
             ["list", "--count", "5"], ["census", "--max", "1000"],
             ["density", "--checkpoints", "3,1000"], ["nonassoc", "--rank", "10"])

# The commands that read no Q; with the ones above, every subcommand.
NO_Q = (["ap", "find", "--length", "3", "--bound", "100"], ["zeta", "--a", "0.5"])

# The capacity and membership edges of the point commands at limit 1000,
# whose largest SP is 981 = 109 * 3**2 and which holds 169 SP numbers.
POINT_EDGES = POINT_COMMANDS + (
    ["succ", "980"], ["succ", "981"], ["succ", "1000"], ["succ", "0"],
    ["succ", "-1"], ["pred", "1001"], ["pred", "1002"], ["pred", "2"],
    ["pred", "1"], ["count", "1000"], ["count", "1001"], ["count", "-1"],
    ["count", "0"], ["nth", "169"], ["nth", "170"], ["nth", "0"],
    ["op", "981", "8"], ["op", "1004", "8"], ["op", "7", "8"], ["op", "1", "1"],
)

# The same for the gap commands: the widest gap below 1000 spans 27, from
# 801 to 828, and the longest SP-free run is 26 numbers from 802.
GAP_EDGES = CACHED_COMMANDS[len(POINT_COMMANDS):] + (
    ["fixed-point", "117"], ["fixed-point", "7"], ["fixed-point", "1"],
    ["fixed-point", "27"], ["fixed-point", "1004"], ["gap-run", "40"],
    ["gap-run", "26"], ["gap-run", "27"], ["gap-run", "0"],
    ["pairs", "--gap", "0"], ["pairs", "--gap", "27"],
    ["pairs", "--gap", "1", "--max", "1001"], ["pairs", "--gap", "1", "--max", "-1"],
    ["pairs", "--gap", "2", "--max", "1000"], ["table", "--rank", "0"],
    ["table", "--rank", "-1"], ["table", "--rank", "169"], ["table", "--rank", "170"],
)


# The edges of list, census, density and nonassoc at limit 1000.
LIST_EDGES = READ_ONLY[4:] + (
    ["census", "--max", "0"], ["census", "--max", "7"], ["census", "--max", "8"],
    ["census", "--max", "1001"], ["density", "--checkpoints", "1001"],
    ["nonassoc", "--rank", "-1"], ["nonassoc", "--rank", "0"],
    ["nonassoc", "--rank", "1"], ["nonassoc", "--rank", "2"],
    ["nonassoc", "--rank", "169"], ["nonassoc", "--rank", "170"],
    ["list", "--count", "169"], ["list", "--count", "170"],
    ["list", "--max", "-5"], ["list", "--max", "1001"],
)


def numpy_route(monkeypatch):
    """Make every CLI build in this process take the numpy route."""
    monkeypatch.setattr(sploop.cli, "PURE_BUILD_MAX", 0)


def in_a_new_process(argvs: list[list[str]]) -> list[list]:
    """[exit code, stdout, stderr, whether numpy is loaded] after each argv,
    dispatched in turn in one new interpreter."""
    script = (
        "import contextlib, io, json, sys, sploop.cli\n"
        "rows = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = sploop.cli.dispatch(argv)\n"
        "    rows.append([code, out.getvalue(), err.getvalue(),\n"
        "                 'numpy' in sys.modules])\n"
        "print(json.dumps(rows))\n")
    src = os.path.dirname(os.path.dirname(sploop.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestCachedPointRoute:
    def test_cached_point_commands_never_import_numpy(self, tmp_path, monkeypatch):
        cache, built, out = (tmp_path / name for name in ("q.spq", "b.spq", "o.spq"))
        assert run("build", "--limit", "1000", "--out", str(cache))[0] == 0
        before = cache.stat()
        commands = [*CACHED_COMMANDS, ["build"]]
        argvs = ([["--limit", "1000", "--cache", str(cache)] + c for c in commands]
                 + [["--limit", "1000"] + c for c in commands]
                 + [["--limit", "1000", "--cache", str(built), "count", "117"],
                    ["--limit", "1000", "build", "--out", str(out)]])
        rows = in_a_new_process(argvs)
        assert [numpy for *_, numpy in rows] == [False] * len(argvs)
        numpy_route(monkeypatch)
        assert [row[:3] for row in rows[:-2]] == [
            list(run("--limit", "1000", *c)) for c in commands * 2]
        after = cache.stat()
        assert (after.st_ino, after.st_mtime_ns, after.st_size) == \
            (before.st_ino, before.st_mtime_ns, before.st_size)
        library = tmp_path / "lib.spq"
        build_sieve(1000).save(library)
        assert built.read_bytes() == out.read_bytes() == cache.read_bytes() \
            == library.read_bytes()
        code, payload = run_json("fixed-point", "12", "--limit", "1000",
                                 "--cache", str(cache))
        assert (code, payload["fixed_point"]) == (0, 44)

    def test_read_only_checks_on_a_fresh_cache_never_import_numpy(
            self, tmp_path, monkeypatch):
        cache = tmp_path / "q.spq"
        assert run("build", "--limit", "1000", "--out", str(cache))[0] == 0
        before = cache.read_bytes()
        rows = in_a_new_process(
            [["--limit", "1000", "--cache", str(cache)] + c for c in READ_ONLY])
        assert [numpy for *_, numpy in rows] == [False] * len(READ_ONLY)
        assert [code for code, *_ in rows] == [1, 0, 1, 0, 0, 0, 0, 0]
        numpy_route(monkeypatch)
        assert [row[:3] for row in rows] == [
            list(run("--limit", "1000", *c)) for c in READ_ONLY]
        assert cache.read_bytes() == before

    def test_no_command_imports_numpy_up_to_the_crossover(self, tmp_path):
        def subcommands(parser):
            return next(action.choices for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))

        top = subcommands(sploop.cli._build_parser())
        commands = (*CACHED_COMMANDS, ["build"], *READ_ONLY, *NO_Q)
        assert {c[0] for c in commands} == set(top)
        assert {c[1] for c in commands if c[0] == "ap"} == set(subcommands(top["ap"]))
        cache = tmp_path / "q.spq"
        assert run("build", "--limit", "1000", "--out", str(cache))[0] == 0
        rows = in_a_new_process(
            [["--limit", "1000", *cached, *c] for cached in ([], ["--cache", str(cache)])
             for c in commands])
        assert [numpy for *_, numpy in rows] == [False] * len(rows)
        assert [row[:3] for row in rows[len(commands):]] == \
            [row[:3] for row in rows[:len(commands)]]

    @pytest.mark.parametrize("argv", POINT_EDGES + GAP_EDGES + LIST_EDGES,
                             ids=" ".join)
    def test_uncached_answers_match_the_built_index(self, monkeypatch, argv):
        pure = run("--limit", "1000", *argv)
        numpy_route(monkeypatch)
        assert pure == run("--limit", "1000", *argv)

    @pytest.mark.parametrize("argv, code, tail", [
        (["op", "1004", "8"], 3, "(try --limit 1004)\n"),  # required = x
        (["pred", "1002"], 3, "(try --limit 1001)\n"),  # required = x - 1
        (["succ", "981"], 3, "(try --limit 1004)\n"),  # N(981) = 251 * 2**2
        (["op", "7", "8"], 2, "a=7 is not 1 and not an SP number\n"),
    ])
    def test_uncached_edges_exit_as_documented(self, argv, code, tail):
        result = run("--limit", "1000", *argv)
        assert result[:2] == (code, "") and result[2].endswith(tail)

    @pytest.mark.parametrize("argv", [*CACHED_COMMANDS, ["build"], *READ_ONLY],
                             ids=" ".join)
    def test_the_crossover_picks_the_route(self, monkeypatch, argv):
        def refused(*_args, **_kwargs):
            raise AssertionError("the refused route was taken")

        expected = run("--limit", "1000", *argv)
        monkeypatch.setattr(sploop.cli, "PURE_BUILD_MAX", 1000)
        monkeypatch.setattr(sploop.sieve, "build_sieve", refused)
        assert run("--limit", "1000", *argv) == expected
        monkeypatch.undo()
        monkeypatch.setattr(sploop.cli, "PURE_BUILD_MAX", 999)
        monkeypatch.setattr(sploop.cachefile, "build_payload", refused)
        assert run("--limit", "1000", *argv) == expected

    def test_build_out_from_a_larger_cache_is_a_direct_build(self, tmp_path):
        cache, trimmed, direct = (str(tmp_path / name)
                                  for name in ("c.spq", "t.spq", "d.spq"))
        run("build", "--limit", "2000", "--out", cache)
        before = open(cache, "rb").read()
        code, payload = run_json("--limit", "1000", "--cache", cache,
                                 "build", "--out", trimmed)
        assert (code, payload) == (0, {**run_json(
            "--limit", "1000", "build", "--out", direct)[1], "out": trimmed})
        assert open(trimmed, "rb").read() == open(direct, "rb").read()
        assert open(cache, "rb").read() == before

    @pytest.mark.parametrize("argv", POINT_EDGES + GAP_EDGES + LIST_EDGES,
                             ids=" ".join)
    def test_cached_answers_match_the_built_index(self, tmp_path, argv):
        cache = str(tmp_path / "q.spq")
        run("build", "--limit", "1000", "--out", cache)
        fresh = run("--limit", "1000", *argv)
        assert run("--limit", "1000", "--cache", cache, *argv) == fresh
        assert run("--limit", "1000", "--cache", cache, "-v", *argv) == (
            *fresh[:2], f"loaded cache {cache} (limit 1000)\n" + fresh[2])

    @pytest.mark.parametrize("argv", POINT_EDGES + GAP_EDGES + LIST_EDGES,
                             ids=" ".join)
    def test_cache_built_larger_is_trimmed(self, tmp_path, argv):
        cache = tmp_path / "q.spq"
        run("build", "--limit", "2000", "--out", str(cache))
        before = cache.read_bytes()
        assert run("--limit", "1000", "--cache", str(cache), *argv) == \
            run("--limit", "1000", *argv)
        assert cache.read_bytes() == before

    def test_cache_below_the_limit_is_rebuilt(self, tmp_path):
        cache = str(tmp_path / "q.spq")
        run("build", "--limit", "2000", "--out", cache)
        for argv in (["succ", "2999"], ["count", "3000"], ["nth", "200"]):
            assert run("--limit", "3000", "--cache", cache, *argv) == \
                run("--limit", "3000", *argv)
        assert load_cache(cache).limit == 3000

    @pytest.mark.parametrize("damage", ["magic", "version", "truncated",
                                        "short", "checksum"])
    def test_malformed_cache_fails_as_it_does_for_list(self, tmp_path, damage):
        cache = tmp_path / "q.spq"
        run("build", "--limit", "1000", "--out", str(cache))
        raw = bytearray(cache.read_bytes())
        if damage == "magic":
            raw[:4] = b"NOPE"
        elif damage == "version":
            raw[4] = 2
        elif damage == "truncated":
            del raw[-3:]
        elif damage == "short":
            del raw[10:]
        else:
            raw[20] ^= 0xFF
        cache.write_bytes(bytes(raw))
        listed = run("list", "--limit", "1000", "--cache", str(cache))
        assert listed[:2] == (2, "") and listed[2].startswith("error: ")
        for argv in CACHED_COMMANDS:
            assert run("--limit", "1000", "--cache", str(cache), *argv) == listed


class TestVerifySuites:
    def test_axioms(self):
        code, payload = run_json("verify", "--suite", "axioms",
                                 "--limit", "10000", "--rank", "100")
        assert code == 0
        names = [c["name"] for c in payload["suites"][0]["checks"]]
        assert names == ["closure", "commutativity", "identity",
                         "self_inverse", "bound"]

    def test_lemma1(self):
        code, payload = run_json("verify", "--suite", "lemma1",
                                 "--limit", "100000", "--n-max", "12")
        assert code == 0
        assert len(payload["suites"][0]["checks"]) == 12

    def test_lemma2_and_theorem2(self):
        for suite in ("lemma2", "theorem2"):
            code, payload = run_json("verify", "--suite", suite,
                                     "--limit", "10000")
            assert code == 0, suite
            assert payload["ok"] is True

    def test_lemma3(self):
        code, payload = run_json("verify", "--suite", "lemma3",
                                 "--limit", "100000", "--to", "10000")
        assert code == 0

    def test_lemma4(self):
        code, payload = run_json("verify", "--suite", "lemma4",
                                 "--limit", "100000", "--t-max", "10000")
        assert code == 0

    def test_lemma4_capacity_names_the_exact_limit(self):
        argv = ("verify", "--suite", "lemma4", "--t-max", "990", "--limit")
        code, _, err = run(*argv, "1000")
        assert code == 3
        assert "(try --limit 1004)" in err
        assert run(*argv, "1003")[0] == 3
        assert run(*argv, "1004")[0] == 0

    def test_theorem1(self):
        code, payload = run_json("verify", "--suite", "theorem1",
                                 "--limit", "1000000", "--q-max", "50")
        assert code == 0

    def test_all_at_small_limit(self):
        # the widest gap below 1e4 spans 51, so theorem1's default q-max of
        # 100 is capped there and the members above it are named
        code, payload = run_json("verify", "--suite", "all", "--limit", "10000")
        assert code == 1
        failing = [s["suite"] for s in payload["suites"] if not s["ok"]]
        assert failing == ["theorem3"]
        theorem1 = next(s for s in payload["suites"] if s["suite"] == "theorem1")
        note = theorem1["checks"][0]
        assert note["name"] == "default_q_max" and note["ok"]
        assert "widest gap 51 (7325 -> 7376)" in note["detail"]
        assert "52, 63, 68, 72, 75, 76, 80, 92, 98, 99 have" in note["detail"]
        assert theorem1["checks"][-1]["name"] == "fixed_point_50"

    @pytest.mark.parametrize("limit", [50, 100, 500])
    def test_all_below_the_default_run_length(self, limit):
        # below limit ~830 no SP-free run reaches lemma1's default n-max of
        # 25, and below 92 the default length-4 progression does not fit
        code, payload = run_json("verify", "--suite", "all", "--limit", str(limit))
        assert code == 1
        failing = [s["suite"] for s in payload["suites"] if not s["ok"]]
        assert failing == ["theorem3"]
        suites = {s["suite"]: s["checks"] for s in payload["suites"]}
        longest = {50: 11, 100: 11, 500: 23}[limit]
        assert suites["lemma1"][0]["name"] == "default_n_max"
        assert f"capped at {longest} " in suites["lemma1"][0]["detail"]
        assert suites["lemma1"][-1]["name"] == f"run_{longest}"
        lengths = [2, 3] if limit < 92 else [2, 3, 4]
        for suite, check in (("lemma2", "progression"), ("theorem2", "chain")):
            names = [c["name"] for c in suites[suite]]
            assert names == ["default_length"] * (limit < 92) + [
                f"{check}_{n}" for n in lengths], suite

    def test_explicit_run_length_or_progression_past_limit(self):
        code, _, err = run("verify", "--suite", "lemma1", "--limit", "500",
                           "--n-max", "24")
        assert code == 3
        assert "the longest is 23 non-SP numbers from 213" in err
        code, _, err = run("verify", "--suite", "theorem2", "--limit", "50",
                           "--length", "4")
        assert code == 3
        assert "92 exceeds the limit 50" in err and "(try --limit 92)" in err

    @pytest.mark.parametrize("suite, option, value", [
        ("lemma1", "--n-max", "0"),
        ("theorem1", "--q-max", "0"),
        ("lemma2", "--length", "1"),
        ("theorem2", "--length", "1"),
    ])
    def test_explicit_bound_that_checks_nothing_is_a_usage_error(
            self, suite, option, value):
        code, out, err = run("verify", "--suite", suite, "--limit", "1000",
                             option, value)
        assert (code, out) == (2, "")
        assert err == f"error: need {option} >= {int(value) + 1}, got {value}\n"

    def test_theorem1_explicit_q_max_past_widest_gap(self):
        code, _, err = run("verify", "--suite", "theorem1", "--limit",
                           "10000", "--q-max", "52")
        assert code == 3
        assert "width 52" in err

    def test_theorem1_q_max_past_the_limit_takes_every_member(self):
        # every member up to 1000 is checked, and the first without a gap
        # that wide is 28
        code, _, err = run("verify", "--suite", "theorem1", "--limit",
                           "1000", "--q-max", "2000")
        assert code == 3
        assert "no SP-free gap of width 28 below limit 1000" in err

    def test_theorem3_reports_the_counterexample(self):
        code, payload = run_json("verify", "--suite", "theorem3",
                                 "--limit", "10000", "--rank", "10")
        assert code == 1
        check = payload["suites"][0]["checks"][0]
        assert check["ok"] is False
        assert "(27, 28, 32)" in check["detail"]

    def test_theorem4(self):
        code, payload = run_json("verify", "--suite", "theorem4",
                                 "--limit", "10000", "--max", "1000")
        assert code == 0

    @pytest.mark.parametrize("value", ["-5", "0", "27"])
    def test_theorem4_max_below_the_first_twin_is_a_usage_error(self, value):
        argv = ("verify", "--suite", "theorem4", "--limit", "1000", "--max")
        code, out, err = run(*argv, value)
        assert (code, out) == (2, "")
        assert err == f"error: need --max >= 28, got {value}\n"
        assert run(*argv, "28")[0] == 0

    def test_theorem4_max_without_a_twin_below_the_limit(self):
        code, out, err = run("verify", "--suite", "theorem4", "--limit", "20",
                             "--max", "20")
        assert (code, out) == (3, "")
        assert "no twin pair below limit 20" in err

    def test_theorem4_without_a_twin_asks_for_the_first_one(self):
        # (27, 28) is the first twin pair, so limit 27 holds none and 28 does.
        assert run("verify", "--suite", "theorem4", "--limit", "27",
                   "--max", "27") == (3, "", "capacity: no twin pair below "
                                      "limit 27; a larger limit holds one "
                                      "(try --limit 28)\n")
        code, payload = run_json("verify", "--suite", "theorem4",
                                 "--limit", "28", "--max", "28")
        assert (code, payload["ok"]) == (0, True)

    def test_theorem4_max_past_a_limit_without_a_twin(self):
        # The bound is refused before the missing twin, with its required.
        assert run("verify", "--suite", "theorem4", "--limit", "20",
                   "--max", "30") == (3, "", "capacity: 30 exceeds the limit "
                                      "20; rebuild with limit >= 30 (try --limit 30)\n")

    @pytest.mark.parametrize("limit", [8, 27])
    def test_theorem4_default_without_a_twin_below_the_limit(self, limit):
        code, payload = run_json("verify", "--suite", "theorem4",
                                 "--limit", str(limit))
        assert code == 0
        assert payload["suites"][0]["checks"] == [{
            "name": "default_max", "ok": True,
            "detail": f"no twin pair lies below limit {limit}, so the "
                      f"default --max {limit} has none to probe"}]

    def test_verify_all_never_imports_numpy_ma(self):
        # np.unique imports numpy.ma on its first call, about 12 ms.
        src = os.path.dirname(os.path.dirname(sploop.__file__))
        script = (
            "import contextlib, io, sys, sploop.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    sploop.cli.dispatch(['--limit', '10000', 'verify', '--suite', 'all'])\n"
            "assert 'numpy' not in sys.modules\n"
            "assert 'numpy.ma' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr

    def test_only_verify_imports_the_suites_and_ap_find_and_zeta_no_numpy(
            self, tmp_path):
        cache = str(tmp_path / "q.spq")
        assert run("--limit", "1000", "build", "--out", cache)[0] == 0
        src = os.path.dirname(os.path.dirname(sploop.__file__))
        script = (
            "import contextlib, io, json, sys, sploop.cli\n"
            "rows = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = sploop.cli.dispatch(argv)\n"
            "    rows.append([code, sorted({'numpy', 'sploop.verify'}\n"
            "                              & set(sys.modules))])\n"
            "print(json.dumps(rows))\n")
        argvs = [["--limit", "1000", "--cache", cache, "succ", "24"],
                 ["ap", "find", "--length", "3", "--bound", "100"],
                 ["ap", "find", "--length", "4", "--bound", "200", "--square", "2"],
                 ["zeta", "--a", "0.5"],
                 ["--limit", "1000", "--cache", cache, "verify", "--suite", "lemma4"]]
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, []]] * 4 + [
            [0, ["sploop.verify"]]]

    def test_verify_all_never_builds_the_flags(self, monkeypatch):
        def built(_sieve):
            raise AssertionError("the flags were built")

        numpy_route(monkeypatch)
        monkeypatch.setattr(SpSieve, "flags", property(built))
        code, payload = run_json("verify", "--suite", "all", "--limit", "10000")
        assert code == 1
        assert [s["suite"] for s in payload["suites"] if not s["ok"]] == ["theorem3"]

    def test_plain_output_lists_checks(self):
        code, out, _ = run("verify", "--suite", "axioms", "--limit", "10000",
                           "--rank", "20", "--format", "plain")
        assert code == 0
        assert "[ok] axioms.closure" in out
