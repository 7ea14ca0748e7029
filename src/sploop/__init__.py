"""SP numbers (a prime times a square larger than 1), the loop Q they
form under a • b = N(|a - b|), and verifiers for the structure's claims.

The public names are imported from their modules on first use (PEP 562),
so ``import sploop`` and the CLI's cached point commands never load numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, in the order of ``__all__``, and the module it lives in.
_HOME = {
    "DENSITY_TARGET": "analytics",
    "CacheChecksumError": "errors",
    "CacheError": "errors",
    "CacheMagicError": "errors",
    "CacheTruncatedError": "errors",
    "CacheVersionError": "errors",
    "CapacityError": "errors",
    "CayleyTable": "loop_algebra",
    "ChainBrokenError": "errors",
    "DensityRow": "analytics",
    "DigitCensus": "analytics",
    "DomainError": "errors",
    "GapRun": "loop_algebra",
    "HurwitzEval": "analytics",
    "MembershipError": "errors",
    "NotFoundError": "errors",
    "QIndex": "sieve",
    "SearchBudgetError": "errors",
    "SpAp": "theorems",
    "SpDecomposition": "spcore",
    "SpPair": "theorems",
    "SpSieve": "sieve",
    "SploopError": "errors",
    "SubLoop": "loop_algebra",
    "ValidationError": "errors",
    "build_sieve": "sieve",
    "cayley_table": "loop_algebra",
    "check_adjacency": "theorems",
    "check_twin_shift": "theorems",
    "construct_sp_ap": "theorems",
    "density_table": "analytics",
    "digit1_constant": "analytics",
    "digit_census": "analytics",
    "factorize": "spcore",
    "find_gap_run": "loop_algebra",
    "find_nonassoc_witness": "loop_algebra",
    "find_prime_ap": "theorems",
    "fixed_point": "loop_algebra",
    "gap_histogram": "analytics",
    "gap_pairs": "theorems",
    "hurwitz_zeta2": "analytics",
    "is_prime": "spcore",
    "is_sp": "spcore",
    "load_cache": "sieve",
    "lop": "loop_algebra",
    "save_cache": "sieve",
    "scan_bertrand": "theorems",
    "search_equal_triple": "theorems",
    "sp_ap_from_terms": "theorems",
    "sp_decompose": "spcore",
    "sub_loop": "loop_algebra",
    "verify_bullet_chain": "theorems",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
