"""A mutation run: each mutant is one exact text edit to the package, and
the tests named beside it must fail once the edit is made.

    python3 tools/mutants.py

For each mutant the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, applies the edit there and
runs ``pytest -x -q`` on the mutant's test node ids. The mutant is
"killed" when pytest reports a failed test, "survived" when the tests
pass, and "no longer applies" when its old text is not in the file exactly
once. Any other pytest exit (a node id that is not found, a usage error)
or a run past the timeout is reported as "error". First the named tests are run once on the
unmutated copy, which must pass them. The script exits 1 if any mutant
survived, no longer applies or met an error. It uses the standard library
only and never writes into the tree it reads.

A fast path or a check added to the package adds its mutants here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SPCORE = "src/sploop/spcore.py"
FRONT = "src/sploop/front.py"
QBITS = "src/sploop/cachefile.py"
SIEVE = "src/sploop/sieve.py"
LOOP = "src/sploop/loop_algebra.py"
THEOREMS = "src/sploop/theorems.py"
CLI = "src/sploop/cli.py"
VERIFY = "src/sploop/verify.py"
RECORD = "src/sploop/record.py"

ACCEPTANCE = "tests/test_acceptance.py::test_criterion_0"
SPCORE_TESTS = "tests/test_spcore.py::"
CACHEFILE = "tests/test_cachefile.py::"
CLI_TESTS = "tests/test_cli.py::"
LOOP_TESTS = "tests/test_loop.py::"
SIEVE_TESTS = "tests/test_sieve.py::"
RECORD_TESTS = "tests/test_records.py::"
GAP_TESTS = "tests/test_gap_kernels.py::"
TRIPLES = "tests/test_theorems.py::TestEqualTriples::"
VERIFY_TESTS = "tests/test_verify.py::"
ANALYTICS_TESTS = "tests/test_analytics.py::"

# (name, file, old text, new text, test node ids that must fail)
MUTANTS = [
    # The trusted route: trial division to the cube root below 8e9.
    ("spcore: cube stop with >=", SPCORE,
     "if cube > m:", "if cube >= m:",
     [SPCORE_TESTS + "TestSpDecompose::test_first_25"]),
    ("spcore: cofactor-is-prime case dropped", SPCORE,
     "    if odd is None and _strong_probable_prime(m):\n        return m\n", "",
     [SPCORE_TESTS + "TestSpDecompose::test_first_25"]),
    ("spcore: a cofactor taken as prime untested", SPCORE,
     "if odd is None and _strong_probable_prime(m):",
     "if odd is None:",
     [SPCORE_TESTS + "TestSplitRoute::test_designed_cases"]),
    ("spcore: cofactor-is-a-square case dropped", SPCORE,
     "if r * r == m:\n        return odd", "if m == 1:\n        return odd",
     [SPCORE_TESTS + "TestSpDecompose::test_first_25"]),
    ("spcore: the split past 8e9", SPCORE,
     "if n < _SPLIT_MAX:", "if n < 1 << 64:",
     [SPCORE_TESTS + "TestSplitRoute::test_designed_cases"]),
    ("spcore: three witnesses at their bound", SPCORE,
     "if n < _MR_SMALL_MAX else", "if n <= _MR_SMALL_MAX else",
     [SPCORE_TESTS + "TestIsPrime::test_strong_pseudoprimes_at_the_base_set_bounds"]),
    # The query front and the primitives of the two indexes.
    ("front: successor message", FRONT,
     "rebuild with a larger limit", "rebuild with a higher limit",
     [CACHEFILE + "test_refusals_read_as_documented"]),
    ("front: successor asks _next(x)", FRONT,
     "n = self._next(x + 1)", "n = self._next(x)",
     [ACCEPTANCE + "6_fixed_points"]),
    ("front: _check_cover refuses the limit", FRONT,
     "if n > self.limit:", "if n >= self.limit:",
     [ACCEPTANCE + "4_loop_axioms"]),
    ("front: max_element below the limit", FRONT,
     "return self._prev(self.limit + 1)", "return self._prev(self.limit)",
     [CACHEFILE + "test_refusals_read_as_documented"]),
    ("front: _check_gap takes 0", FRONT,
     "if g < 1:", "if g < 0:",
     [CACHEFILE + "test_refusals_read_as_documented"]),
    ("front: nth_sp count off by one", FRONT,
     'f"index holds only {self._count(self.limit)} SP numbers, "',
     'f"index holds only {self._count(self.limit - 1)} SP numbers, "',
     [CACHEFILE + "test_refusals_read_as_documented"]),
    ("front: prefix checks rank r + 1", FRONT,
     "if r and self._nth(r) is None:", "if r and self._nth(r + 1) is None:",
     [ACCEPTANCE + "4_loop_axioms"]),
    ("front: contains without its upper bound", FRONT,
     "return 1 <= x <= self.limit and self._has(x)",
     "return 1 <= x and self._has(x)",
     [CACHEFILE + "test_gap_queries_on_drawn_bits[1]"]),
    ("front: _check_range takes -1", FRONT,
     "        if n < 0:\n", "        if n < -1:\n",
     [CACHEFILE + "test_bit_view_answers_as_the_index[8-8]"]),
    ("front: predecessor refuses limit + 1", FRONT,
     "if x > self.limit + 1:", "if x >= self.limit + 1:",
     [SIEVE_TESTS + "TestOneObject::test_queries_before_from_sieve_agree_with_it"]),
    ("front: predecessor asks for x", FRONT,
     "required=x - 1,", "required=x,",
     [SIEVE_TESTS + "test_every_required_is_tight[predecessor]"]),
    ("qbits: _next without its n <= 1 case", QBITS,
     "        if n <= 1:\n            return 1", "        if n < 1:\n            return 1",
     [CACHEFILE + "test_bit_view_answers_as_the_index[8-8]"]),
    ("qbits: _prev starts at x", QBITS,
     "for n in range(x - 1, 1, -1):", "for n in range(x, 1, -1):",
     [CACHEFILE + "test_bit_view_answers_as_the_index[8-8]"]),
    ("qbits: _nth block test with >", QBITS,
     "if seen + inside >= r:", "if seen + inside > r:",
     [CACHEFILE + "test_bit_view_answers_as_the_index[8-8]"]),
    ("qindex: _count ranks left", SIEVE,
     'return _rank(self.elements[1:], n, "right")',
     'return _rank(self.elements[1:], n, "left")',
     [ACCEPTANCE + "7_equal_triple_absence"]),
    ("qindex: _next ranks right", SIEVE,
     "i = _rank(elements, n)\n", 'i = _rank(elements, n, "right")\n',
     [ACCEPTANCE + "5_non_associativity"]),
    ("qindex: _nth one short", SIEVE,
     "if r < len(elements) else None", "if r < len(elements) - 1 else None",
     [ACCEPTANCE + "4_loop_axioms"]),
    # The checks outside the front that refuse through _check_cover.
    ("theorems: check_twin_shift without _check_cover", THEOREMS,
     "    index._check_cover(limit)\n    repeated", "    repeated",
     [SIEVE_TESTS + "TestOneObject::test_bound_checks_keep_type_and_required"]),
    ("theorems: verify_bullet_chain without _check_cover", THEOREMS,
     "    index._check_cover(max(terms))\n", "",
     [CLI_TESTS + "TestVerifySuites::test_explicit_run_length_or_progression_past_limit"]),
    ("theorems: gap_pairs without _check_gap", THEOREMS,
     "    index._check_gap(g, limit)\n", "",
     [CACHEFILE + "test_padding_bits_are_not_members"]),
    ("verify: theorem4 without _check_cover", VERIFY,
     "    q._check_cover(bound)\n    lo, first", "    lo, first",
     [CLI_TESTS + "TestVerifySuites::test_theorem4_max_past_a_limit_without_a_twin"]),
    ("loop: _check_member without _check_cover", LOOP,
     "    index._check_cover(x)\n", "",
     [LOOP_TESTS + "TestLop::test_membership_enforced"]),
    # N read off a rank prefix.
    ("loop: N(0) = 0 in _successors", LOOP,
     "successors = [1]  # N(0)", "successors = [0]  # N(0)",
     [LOOP_TESTS + "TestNonAssociativity::test_prefix_route_matches_the_oracles"]),
    ("loop: one N too many per gap", LOOP,
     "[hi] * (hi - lo)", "[hi] * (hi - lo + 1)",
     [LOOP_TESTS + "TestNonAssociativity::test_prefix_route_matches_the_oracles"]),
    ("loop: witness search reads N(b • c) for the right side", LOOP,
     "!= successors[abs(a - bc)]", "!= bc",
     [LOOP_TESTS + "TestNonAssociativity::test_prefix_route_matches_the_oracles"]),
    ("loop: witness search skips the first SP with 1", LOOP,
     "rest = members[1:]", "rest = members[2:]",
     [LOOP_TESTS + "TestNonAssociativity::test_bits_route_matches_the_oracle"]),
    ("sieve: flags listed one number high", SIEVE,
     "np.add(hits, lo, out=", "np.add(hits, lo + 1, out=",
     [SIEVE_TESTS + "TestOneObject::test_from_sieve_returns_the_sieve_with_its_members_listed"]),
    ("cli: list takes a negative --max", CLI,
     "rank = q.sp_count(max(bound, 0))", "rank = q.sp_count(bound)",
     [CLI_TESTS + "TestQueries::test_list_max_at_the_edges"]),
    ("verify: theorem1 q-max not clamped to the limit", VERIFY,
     "q.sp_count(min(q_max, q.limit))", "q.sp_count(q_max)",
     [CLI_TESTS + "TestVerifySuites::test_theorem1_q_max_past_the_limit_takes_every_member"]),
    ("verify: theorem1 default not clamped to the limit", VERIFY,
     "q.sp_count(min(100, q.limit))", "q.sp_count(100)",
     [CLI_TESTS + "TestVerifySuites::test_all_below_the_default_run_length[50]"]),
    # Earlier fast paths: the wheel sieve, the equal-triple search and the
    # numpy-free payload.
    ("sieve: wrong second wheel start", SIEVE,
     "k * (k - 2 * (i & 1) + 4) // 3", "k * (k - 2 * (i & 1) + 2) // 3",
     [SIEVE_TESTS + "TestQFirst::test_wheel_prime_sieve_at_every_small_n"]),
    ("sieve: last block left unstruck", SIEVE,
     "range(_BLOCK, size + _BLOCK, _BLOCK)", "range(_BLOCK, size, _BLOCK)",
     [SIEVE_TESTS + "TestQFirst::test_wheel_prime_sieve_at_block_edges"]),
    ("cachefile: descending k in the payload", QBITS,
     "for k in range(2, math.isqrt(limit // 2) + 1):",
     "for k in range(math.isqrt(limit // 2), 1, -1):",
     [CACHEFILE + "test_pure_payload_keeps_members_on_several_strides"]),
    ("cli: crossover with <", CLI,
     "args.limit <= PURE_BUILD_MAX", "args.limit < PURE_BUILD_MAX",
     [CLI_TESTS + "TestCachedPointRoute::test_the_crossover_picks_the_route"]),
    # Records as tuples, a gap w wide found block by block, and the digit
    # census one np.bincount per block of members.
    ("record: __eq__ defers to the other class", RECORD,
     "return other.__class__ is self.__class__ and tuple.__eq__(self, other)",
     "return (tuple.__eq__(self, other) if other.__class__ is self.__class__\n"
     "                else NotImplemented)",
     [RECORD_TESTS + "test_a_record_never_equals_a_plain_tuple"]),
    ("loop: CayleyTable without __ne__", LOOP,
     "    __ne__ = object.__ne__\n", "",
     [RECORD_TESTS + "test_cayley_tables_differ_by_identity_in_both_operators"]),
    ("qindex: record block test with >", SIEVE,
     "block.max() >= w", "block.max() > w",
     [GAP_TESTS + "test_record_gaps_at_block_edges"]),
    ("qindex: record block starts one gap late", SIEVE,
     "self._gap_blocks(_rank(elements, start))",
     "self._gap_blocks(_rank(elements, start) + 1)",
     [GAP_TESTS + "test_record_gaps_at_block_edges"]),
    ("qindex: record block drops its last gap", SIEVE,
     "(block >= w).argmax()", "(block[:-1] >= w).argmax()",
     [GAP_TESTS + "test_record_gaps_at_block_edges"]),
    ("qindex: digit census counts range(9)", SIEVE,
     "return counts.tolist()", "return counts[:9].tolist()",
     [ANALYTICS_TESTS + "TestDigitCensus::test_census_at_117"]),
    # Every QIndex gap kernel reads the gaps a block at a time.
    ("qindex: gap blocks drop the gap across each edge", SIEVE,
     "elements[i : i + _GAP_BLOCK + 1]", "elements[i : i + _GAP_BLOCK]",
     [GAP_TESTS + "test_the_widest_gap_at_a_block_edge[B-1]"]),
    ("qindex: gap histogram drops its counts at a wider gap", SIEVE,
     "part[: counts.size] += counts\n", "",
     [GAP_TESTS + "test_the_widest_gap_at_a_block_edge[B+2]"]),
    ("qindex: pair ends one gap late in each block", SIEVE,
     "hits = i + np.flatnonzero(block == g)",
     "hits = i + 1 + np.flatnonzero(block == g)",
     [GAP_TESTS + "test_gap_pairs_at_a_block_edge[B]"]),
    ("qindex: digit census blocks drop their last member", SIEVE,
     "x = sps[i : i + _GAP_BLOCK]", "x = sps[i : i + _GAP_BLOCK - 1]",
     [GAP_TESTS + "test_every_final_digit_at_a_block_edge[B+1]"]),
    # The doubling scan walks the record gaps, the repeats come from one
    # primitive, and theorem4 walks the members to the first twin pair.
    # (``w = b - a`` is left out: it finds the same gap again and loops.)
    ("theorems: doubling walk skips a gap as wide as its lower end", THEOREMS,
     "if b - a >= a:", "if b - a > a:",
     [GAP_TESTS + "test_bertrand_walk_on_chosen_gaps[as-wide-as-its-lower-end]"]),
    ("theorems: doubling walk asks for a gap one too wide", THEOREMS,
     "        w = b\n", "        w = b + 1\n",
     [GAP_TESTS + "test_bertrand_walk_on_chosen_gaps[as-wide-as-its-lower-end]"]),
    ("qindex: _repeats reads gaps of 1", SIEVE,
     "block == 0", "block == 1",
     [GAP_TESTS + "test_a_value_listed_three_times"]),
    ("verify: theorem4 twin walk stops one member early", VERIFY,
     "while first is not None and first - lo > 1:",
     "while first is not None and q._next(first + 1) - first > 1:",
     [CLI_TESTS + "TestVerifySuites::"
      "test_theorem4_max_below_the_first_twin_is_a_usage_error"]),
    # Q from one acquisition function, and the suites' options passed on.
    ("cli: a cache at exactly the limit is rebuilt and saved over", CLI,
     "if limit >= args.limit:", "if limit > args.limit:",
     [CLI_TESTS + "TestDeterminismAndCache::"
      "test_verbose_cached_gap_run_notes_only_the_load[1000]"]),
    ("cli: _cmd_verify drops one option", CLI,
     "t_max=args.t_max, q_max=args.q_max,", "t_max=args.t_max,",
     [CLI_TESTS + "TestVerifySuites::"
      "test_theorem1_q_max_past_the_limit_takes_every_member"]),
    # The read-only checks on the bits: the triple search and the axioms
    # over lists, the record gaps that the front walks and keeps, and the
    # pairs at a gap.
    ("theorems: triple runs cut to two values", THEOREMS,
     "end = bisect_right(row, value, x + 2)", "end = x + 2",
     [TRIPLES + "test_agrees_with_the_table_scan_on_drawn_member_lists"]),
    ("theorems: triple run ends one value early", THEOREMS,
     "run = tail[x:end]", "run = tail[x : end - 1]",
     [TRIPLES + "test_agrees_with_the_table_scan_on_drawn_member_lists"]),
    ("theorems: triple search takes the last c", THEOREMS,
     "for c in run[y:]:", "for c in reversed(run[y:]):",
     [TRIPLES + "test_agrees_with_the_table_scan_on_drawn_member_lists"]),
    ("theorems: triple search skips a run that starts where one ends", THEOREMS,
     "if x < end:", "if x <= end:",
     [TRIPLES + "test_agrees_with_the_table_scan_on_drawn_member_lists"]),
    ("verify: axioms bound skips the entry right of the diagonal", VERIFY,
     "all(map(le, row[i + 1 :], members[i + 1 :]))",
     "all(map(le, row[i + 2 :], members[i + 2 :]))",
     [VERIFY_TESTS + "test_each_axiom_check_fails_on_its_broken_entry"
      "[bound-above-only]"]),
    ("verify: axioms bound without the part left of the diagonal", VERIFY,
     "max(row[:i], default=a) <= a\n        and ", "",
     [VERIFY_TESTS + "test_each_axiom_check_fails_on_its_broken_entry"
      "[bound-below-only]"]),
    ("front: next record one wider than needed", FRONT,
     "self._gap_from(hi, hi - lo + 1)", "self._gap_from(hi, hi - lo + 2)",
     [CACHEFILE + "test_gap_queries_in_any_order_on_one_bits_view"]),
    ("front: records walked again from 1", FRONT,
     "lo, hi = records[-1] if records else (2, 1)", "lo, hi = 2, 1",
     [CACHEFILE + "test_record_gaps_are_walked_once"]),
    ("front: the record walk starts at width 1", FRONT,
     "else (2, 1)", "else (1, 1)",
     [GAP_TESTS + "test_drawn_arrays_with_a_repeat"]),
    ("qbits: pair ends without the gap", QBITS,
     "return lo, [a + g for a in lo]", "return lo, [a + 1 for a in lo]",
     [GAP_TESTS + "test_gap_pairs_on_bits_answers_as_the_index"]),
    # The digit census counted off the bits, five planes of bytes as ints.
    ("qbits: digit census mask one bit off", QBITS,
     r'b"\x01" * ((len(bits)', r'b"\x02" * ((len(bits)',
     [ANALYTICS_TESTS + "TestDigitCensusOnBits::test_every_limit_of_one_view"]),
    ("qbits: digit census plane digit one off", QBITS,
     "counts[(8 * r + j) % 10]", "counts[(8 * r + j + 1) % 10]",
     [ANALYTICS_TESTS + "TestDigitCensusOnBits::test_every_limit_of_one_view"]),
    ("qbits: digit census cuts the bits below the limit", QBITS,
     "bits[-1] &= (2 << (limit & 7)) - 1  # no member past the limit\n        # Byte",
     "bits[-1] &= (1 << (limit & 7)) - 1  # no member past the limit\n        # Byte",
     [ANALYTICS_TESTS + "TestDigitCensusOnBits::test_every_limit_of_one_view"]),
    ("qbits: digit census mask one byte short", QBITS,
     "(len(bits) + 4) // 5", "len(bits) // 5",
     [ANALYTICS_TESTS + "TestDigitCensusOnBits::test_every_limit_of_one_view"]),
]


def copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def pytest(tree: Path, nodes: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *nodes],
        cwd=tree, env=env, capture_output=True, text=True, timeout=900)


def run_mutant(file: str, old: str, new: str, nodes: list[str]) -> str:
    with tempfile.TemporaryDirectory(prefix="sploop-mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        path = tree / file
        text = path.read_text()
        if text.count(old) != 1:
            return "no longer applies"
        path.write_text(text.replace(old, new))
        try:
            code = pytest(tree, nodes).returncode
        except subprocess.TimeoutExpired:
            return "error (timeout)"
    return {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")


def main() -> int:
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="sploop-mutant-") as tmp:
        copy_tree(Path(tmp))
        nodes = sorted({n for *_, ns in MUTANTS for n in ns})
        clean = pytest(Path(tmp), nodes)
    if clean.returncode != 0:
        print(clean.stdout[-3000:])
        print("the unmutated tree fails the named tests")
        return 1
    bad = 0
    for name, file, old, new, nodes in MUTANTS:
        result = run_mutant(file, old, new, nodes)
        bad += result != "killed"
        print(f"{result:>18}  {name}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} killed in "
          f"{time.monotonic() - started:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
