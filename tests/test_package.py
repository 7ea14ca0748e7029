"""The package's public names, which it imports from their modules on
first use."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import sploop

PUBLIC = [
    "DENSITY_TARGET",
    "CacheChecksumError",
    "CacheError",
    "CacheMagicError",
    "CacheTruncatedError",
    "CacheVersionError",
    "CapacityError",
    "CayleyTable",
    "ChainBrokenError",
    "DensityRow",
    "DigitCensus",
    "DomainError",
    "GapRun",
    "HurwitzEval",
    "MembershipError",
    "NotFoundError",
    "QIndex",
    "SearchBudgetError",
    "SpAp",
    "SpDecomposition",
    "SpPair",
    "SpSieve",
    "SploopError",
    "SubLoop",
    "ValidationError",
    "build_sieve",
    "cayley_table",
    "check_adjacency",
    "check_twin_shift",
    "construct_sp_ap",
    "density_table",
    "digit1_constant",
    "digit_census",
    "factorize",
    "find_gap_run",
    "find_nonassoc_witness",
    "find_prime_ap",
    "fixed_point",
    "gap_histogram",
    "gap_pairs",
    "hurwitz_zeta2",
    "is_prime",
    "is_sp",
    "load_cache",
    "lop",
    "save_cache",
    "scan_bertrand",
    "search_equal_triple",
    "sp_ap_from_terms",
    "sp_decompose",
    "sub_loop",
    "verify_bullet_chain",
]


def test_all_is_unchanged():
    assert sploop.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in sploop.__all__:
        value = getattr(sploop, name)
        module = sys.modules[f"sploop.{sploop._HOME[name]}"]
        assert value is getattr(module, name), name


def test_star_import_binds_every_public_name():
    scope = {}
    exec("from sploop import *", scope)
    assert set(scope) - {"__builtins__"} == set(PUBLIC)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sploop.no_such_name


def test_import_loads_no_numpy():
    code = ("import sys, sploop; "
            "from sploop import is_sp, lop, CapacityError; "
            "print('numpy' in sys.modules); "
            "import sploop.cli; "
            "print('numpy' in sys.modules, 'dataclasses' in sys.modules, "
            "'inspect' in sys.modules)")
    src = os.path.dirname(os.path.dirname(sploop.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (0, "False\nFalse False False\n"), \
        proc.stderr
