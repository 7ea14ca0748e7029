"""The verify suites as library functions, against the CLI that renders
them: ``verify.run`` on a built Q gives the ``suites`` field of
``sploop verify --format json``, and refuses where the CLI exits 2 or 3.
On the bits of a ``cachefile.QBits`` it gives what it gives on the built
Q, refusals included."""

from __future__ import annotations

import contextlib
import io
import json
from functools import lru_cache

import pytest

from sploop import CapacityError, NotFoundError, SearchBudgetError, SploopError
from sploop import build_sieve, cachefile, cli, verify
from sploop.loop_algebra import cayley_rows

FLAGS = {"rank": "--rank", "n_max": "--n-max", "length": "--length",
         "bound": "--bound", "square": "--square", "lo": "--from", "hi": "--to",
         "t_max": "--t-max", "q_max": "--q-max", "max": "--max"}

EXPLICIT = {
    "axioms": {"rank": 5},
    "lemma1": {"n_max": 3},
    "lemma2": {"length": 3, "bound": 100, "square": 3},
    "lemma3": {"lo": 2, "hi": 4},
    "lemma4": {"t_max": 3},
    "theorem1": {"q_max": 12},
    "theorem2": {"length": 2, "square": 2},
    "theorem3": {"rank": 7},
    "theorem4": {"max": 28},
}

LIMITS = (8, 9, 27, 28, 117, 1000)


@lru_cache(maxsize=None)
def built(limit: int):
    return build_sieve(limit)


@lru_cache(maxsize=None)
def payload(limit: int) -> bytes:
    return cachefile.build_payload(limit)


def outcome(q, names: list[str], options: dict):
    """The suites' result, or the refusal's type, message and ``required``."""
    try:
        return verify.run(q, names, **options)
    except SploopError as exc:
        return type(exc), str(exc), getattr(exc, "required", None)


def dispatch(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_run_matches_the_cli(limit: int, names: list[str], options: dict):
    suite = names[0] if len(names) == 1 else "all"
    argv = ["--limit", str(limit), "verify", "--suite", suite]
    for key, value in options.items():
        argv += [FLAGS[key], str(value)]
    code, out, err = dispatch(*argv)
    if code in (0, 1):
        suites = verify.run(built(limit), names, **options)
        assert suites == json.loads(out)["suites"]
        assert code == (0 if all(s["ok"] for s in suites) else 1)
    else:
        with pytest.raises(SploopError) as info:
            verify.run(built(limit), names, **options)
        capacity = (CapacityError, NotFoundError, SearchBudgetError)
        assert code == (3 if isinstance(info.value, capacity) else 2)
        assert str(info.value) in err


@pytest.mark.parametrize("explicit", [False, True], ids=["default", "explicit"])
@pytest.mark.parametrize("name", list(verify.SUITES))
@pytest.mark.parametrize("limit", LIMITS)
def test_each_suite_is_what_the_cli_prints(limit, name, explicit):
    assert_run_matches_the_cli(limit, [name], EXPLICIT[name] if explicit else {})


@pytest.mark.parametrize("limit", LIMITS)
def test_all_suites_with_every_option(limit):
    options = {k: v for opts in EXPLICIT.values() for k, v in opts.items()}
    assert_run_matches_the_cli(limit, list(verify.SUITES), options)


@pytest.mark.parametrize("explicit", [False, True], ids=["default", "explicit"])
@pytest.mark.parametrize("name", list(verify.SUITES))
@pytest.mark.parametrize("limit", LIMITS + (10**4,))
def test_each_suite_on_the_bits_is_the_suite_on_the_sieve(limit, name, explicit):
    options = EXPLICIT[name] if explicit else {}
    bits = cachefile.QBits(limit, payload(limit))
    assert outcome(bits, [name], options) == outcome(built(limit), [name], options)


@pytest.mark.parametrize("limit", LIMITS + (10**4,))
def test_all_suites_on_one_bits_view_are_the_suites_on_the_sieve(limit):
    # One QBits keeps the record gaps each suite finds for the next.
    names = list(verify.SUITES)
    bits = cachefile.QBits(limit, payload(limit))
    assert outcome(bits, names, {}) == outcome(built(limit), names, {})
    for name in names:
        assert outcome(bits, [name], {}) == outcome(built(limit), [name], {})


def broken_rows(edits: dict):
    """``cayley_rows`` with the entries at (i, j) replaced by
    ``edits[i, j](members)``."""
    def rows(members):
        table = cayley_rows(members)
        for (i, j), entry in edits.items():
            table[i][j] = entry(members)
        return table
    return rows


@pytest.mark.parametrize("edits, failing", [
    ({(2, 3): lambda m: 2}, {"closure", "commutativity"}),
    ({(4, 2): lambda m: 1}, {"commutativity"}),
    ({(0, 3): lambda m: m[4], (3, 0): lambda m: m[4]}, {"identity", "bound"}),
    ({(3, 3): lambda m: m[1]}, {"self_inverse"}),
    ({(3, 2): lambda m: m[5], (2, 3): lambda m: m[5]}, {"bound"}),
    ({(3, 2): lambda m: m[5]}, {"commutativity", "bound"}),
    ({(2, 3): lambda m: m[5]}, {"commutativity", "bound"}),
    ({(5, 1): lambda m: m[6], (1, 5): lambda m: m[6]}, {"bound"}),
], ids=["closure", "commutativity", "identity", "self-inverse",
        "bound-beside-the-diagonal", "bound-below-only", "bound-above-only",
        "bound-off-the-diagonal"])
def test_each_axiom_check_fails_on_its_broken_entry(monkeypatch, edits, failing):
    q = built(1000)
    assert all(c["ok"] for c in verify.axioms(q, rank=10))
    monkeypatch.setattr(verify, "cayley_rows", broken_rows(edits))
    checks = verify.axioms(q, rank=10)
    assert {c["name"] for c in checks if not c["ok"]} == failing


def test_suite_names_are_the_cli_choices():
    assert cli.SUITE_NAMES == tuple(verify.SUITES)


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_a_suite_ignores_the_options_it_does_not_read(name):
    q = built(1000)
    unread = {k: v for opts in EXPLICIT.values() for k, v in opts.items()
              if k not in EXPLICIT[name]}
    assert verify.SUITES[name](q, **unread) == verify.SUITES[name](q)


@pytest.mark.parametrize("argv", [
    ("--suite", "lemma1", "--rank", "5"),
    ("--suite", "axioms", "--t-max", "3"),
    ("--suite", "theorem4", "--from", "2", "--n-max", "0"),
], ids=" ".join)
@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_an_unread_option_leaves_stdout_as_it_is(argv, fmt):
    common = ("--limit", "1000", "--format", fmt, "verify")
    assert dispatch(*common, *argv) == dispatch(*common, *argv[:2])


def test_lemma3_names_the_default_to_it_refused():
    argv = ("--limit", "100", "verify", "--suite", "lemma3", "--from", "60")
    assert dispatch(*argv) == (2, "", "error: need --from <= the default --to "
                               "50 (min(10**6, limit // 2)), got 60\n")
    # An explicit --to is named as given.
    assert dispatch(*argv, "--to", "50") == (
        2, "", "error: need --from <= --to 50, got 60\n")
    assert dispatch(*argv[:-1], "50")[0] == 0


@pytest.mark.parametrize("command", [("bertrand",), ("verify", "--suite", "lemma3")])
def test_bertrand_refusals_name_from_and_to(command):
    argv = ("--limit", "100", *command)
    assert dispatch(*argv, "--from", "60", "--to", "50") == (
        2, "", "error: need --from <= --to 50, got 60\n")
    assert dispatch(*argv, "--from", "0", "--to", "50") == (
        2, "", "error: need --from >= 1, got 0\n")
    assert dispatch(*argv, "--from", "50", "--to", "50")[0] == 0
