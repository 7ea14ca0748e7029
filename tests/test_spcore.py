from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sploop import DomainError, SpDecomposition, factorize, is_prime, is_sp, sp_decompose

from _oracles import is_prime_slow, is_sp_slow, sp_decompose_by_factorize

FIRST_25 = [8, 12, 18, 20, 27, 28, 32, 44, 45, 48, 50, 52, 63, 68,
            72, 75, 76, 80, 92, 98, 99, 108, 112, 116, 117]


class TestIsPrime:
    def test_small_values(self):
        for n in range(200):
            assert is_prime(n) == is_prime_slow(n), n

    def test_large_prime(self):
        assert is_prime(2**61 - 1)
        assert is_prime(10**9 + 7)

    def test_strong_pseudoprimes(self):
        # composites that fool single-base Miller-Rabin runs
        assert not is_prime(3215031751)
        assert not is_prime(3825123056546413051)

    def test_large_composite(self):
        assert not is_prime((2**31 - 1) * (2**13 - 1))

    def test_strong_pseudoprimes_at_the_base_set_bounds(self):
        # 4759123141 is the least strong pseudoprime to bases 2, 7 and 61,
        # the witnesses below it; 2152302898747 to bases 2, 3, 5, 7 and 11;
        # 314821 and 2269093 to bases 2 and 7.
        for n in (4759123141, 2152302898747, 314821, 2269093):
            assert not is_prime(n), n
            assert not is_prime_slow(n), n

    def test_matches_oracle_around_the_base_set_bound(self):
        rng = random.Random(4759123141)
        draws = [rng.randrange(4_700_000_000, 4_800_000_000) | 1 for _ in range(150)]
        for n in draws + [4759123141 + d for d in range(-40, 41, 2)]:
            assert is_prime(n) == is_prime_slow(n), n

    def test_domain(self):
        with pytest.raises(DomainError):
            is_prime(-1)
        with pytest.raises(DomainError):
            is_prime(2**64)

    @given(st.integers(min_value=0, max_value=10**5))
    def test_matches_oracle(self, n):
        assert is_prime(n) == is_prime_slow(n)


class TestFactorize:
    def test_known(self):
        assert factorize(1) == {}
        assert factorize(2) == {2: 1}
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(117) == {3: 2, 13: 1}
        assert factorize(2**10) == {2: 10}

    def test_semiprime_beyond_trial_range(self):
        assert factorize(101 * 103) == {101: 1, 103: 1}
        assert factorize(99991 * 99989) == {99989: 1, 99991: 1}

    def test_refuses_n_below_1(self):
        with pytest.raises(DomainError) as exc:
            factorize(0)
        assert type(exc.value) is DomainError
        assert str(exc.value) == "factorization needs n >= 1, got 0"

    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=200)
    def test_roundtrip(self, n):
        factors = factorize(n)
        assert math.prod(p**e for p, e in factors.items()) == n
        for p in factors:
            assert is_prime(p)


class TestSpDecompose:
    def test_known_decompositions(self):
        assert sp_decompose(8) == SpDecomposition(8, 2, 2)
        assert sp_decompose(12) == SpDecomposition(12, 3, 2)
        assert sp_decompose(18) == SpDecomposition(18, 2, 3)
        assert sp_decompose(27) == SpDecomposition(27, 3, 3)
        assert sp_decompose(45) == SpDecomposition(45, 5, 3)
        assert sp_decompose(72) == SpDecomposition(72, 2, 6)
        assert sp_decompose(117) == SpDecomposition(117, 13, 3)
        assert sp_decompose(200) == SpDecomposition(200, 2, 10)

    def test_non_members(self):
        # primes have k = 1; squares of composites have no odd exponent
        for n in (0, 1, 2, 7, 13, 30, 36, 100, 121, 210):
            assert sp_decompose(n) is None, n

    def test_decomposition_identity(self):
        for n in range(3000):
            d = sp_decompose(n)
            if d is not None:
                assert d.p * d.k * d.k == n
                assert is_prime(d.p)
                assert d.k >= 2

    def test_first_25(self):
        found = [n for n in range(118) if is_sp(n)]
        assert found == FIRST_25

    def test_exhaustive_against_oracle(self):
        for n in range(3000):
            assert is_sp(n) == is_sp_slow(n), n

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=300)
    def test_matches_oracle_sampled(self, n):
        assert is_sp(n) == is_sp_slow(n)

    @given(st.integers(min_value=2, max_value=997),
           st.integers(min_value=2, max_value=50))
    def test_constructed_products_are_sp(self, p, k):
        if is_prime(p):
            assert is_sp(p * k * k)


def _designed_cases() -> list[int]:
    # Factors on both sides of 2000, the end of the trial-division table.
    near = [p for p in range(1990, 2100) if is_prime_slow(p)]
    cases = []
    for p in near:
        cases += [p * p, p**3, 7 * p * p, 11 * p**3, 3 * p]
        for q in near:
            # 4pq leaves the cofactor pq, which Miller-Rabin alone rejects.
            cases += [p * q, p * q * q, 5 * p * q * q, 4 * p * q]
    big = 4294967291  # the largest prime below 2**32
    return cases + [big * big, 3 * big * big, 2**64 - 59, 561, 41041,
                    825265, 321197185, 3215031751, 3 * 2**32]


class TestSplitRoute:
    """``sp_decompose`` splits n < 8e9 by trial division to the cube root;
    it must answer as the full factorization does, and past 2**64 refuse as
    before."""

    def test_every_n_below_2e5(self):
        for n in range(200_000):
            assert sp_decompose(n) == sp_decompose_by_factorize(n), n

    @pytest.mark.parametrize("decade", range(1, 20))
    def test_seeded_draws_in_each_decade(self, decade):
        rng = random.Random(decade)
        hi = min(10 ** (decade + 1), 2**64) - 1
        for _ in range(300):
            n = rng.randint(10**decade, hi)
            assert sp_decompose(n) == sp_decompose_by_factorize(n), n

    def test_designed_cases(self):
        for n in _designed_cases():
            assert sp_decompose(n) == sp_decompose_by_factorize(n), n

    def test_refuses_a_negative_n(self):
        with pytest.raises(DomainError) as exc:
            is_sp(-1)
        assert type(exc.value) is DomainError
        assert str(exc.value) == "SP membership is defined for n >= 0, got -1"

    def test_past_2_64_as_before(self):
        assert not is_sp(2**64)
        assert is_sp(3 * 2**64)
        with pytest.raises(DomainError):
            is_sp(2**64 + 1)
