"""Definitional layer: primality, factorization, and SP membership.

A square-prime (SP) number is n = p * k**2 with p prime and k >= 2.
Equivalently, n has exactly one prime factor with odd exponent and is not
itself prime. This module is the slow, trusted route; bulk generation lives
in the sieve module.

``sp_decompose`` splits n below 2000**3 = 8e9 by trial division to the
cube root: once every prime below p is divided out and p**3 exceeds the
cofactor, the cofactor is 1, a prime, a prime square or a product of two
distinct primes, and one primality test and one ``isqrt`` tell which
(Crandall and Pomerance, *Prime Numbers*, 2005, section 3). From 8e9 up it
reads the exponents off ``factorize``, which ends in Pollard-Brent.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .record import Record

# Witness sets proven deterministic: the first below 4,759,123,141, the
# smallest strong pseudoprime to bases 2, 7 and 61 (Jaeschke, Math. Comp.
# 61 (1993)), the second for every n < 2**64.
_MR_SMALL_MAX = 4_759_123_141
_MR_SMALL_BASES = (2, 7, 61)
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97,
)

# The 303 primes below 2000, each with its cube: trial division by them
# splits every n < 2000**3. Sieving out the multiples of 2 to 44 leaves the
# primes, as 45**2 > 2000; it takes well under a millisecond at import.
_SPLIT_PRIMES = tuple((p, p**3) for p in sorted(set(range(2, 2000)).difference(
    *(range(q * q, 2000, q) for q in range(2, 45)))))
_SPLIT_MAX = 2000**3


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64.

    Strong-pseudoprime test against a fixed witness set, three bases below
    4,759,123,141 and seven above; exact over the full 64-bit range, no
    probabilistic answers.
    """
    if n < 0 or n >= 1 << 64:
        raise DomainError(f"primality is certified only for 0 <= n < 2**64, got {n}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    return _strong_probable_prime(n)


def _strong_probable_prime(n: int) -> bool:
    """``is_prime`` past its trial divisions: the strong-pseudoprime test
    for an n < 2**64 that is odd or below 8."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_SMALL_BASES if n < _MR_SMALL_MAX else _MR_BASES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """Return a nontrivial factor of composite n (Brent's cycle variant).

    Deterministic: the polynomial constant c walks 1, 2, 3, ... so repeated
    runs factor identically.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        y, r, q = 2, 1, 1
        g, x, ys = 1, 2, 2
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # backtrack one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"factor search exhausted for {n}")  # pragma: no cover


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise DomainError(f"factorization needs n >= 1, got {n}")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack.extend((r, r))
            continue
        d = _pollard_brent(m)
        stack.extend((d, m // d))
    return factors


class SpDecomposition(Record):
    """The unique (p, k) with n = p * k**2, p prime, k >= 2."""

    __slots__ = ("n", "p", "k")


def _lone_odd_prime(n: int) -> int | None:
    """The prime with odd exponent in 1 < n < 2000**3, or None unless there
    is exactly one.

    Divides out each prime p below 2000 while p**3 <= the cofactor m. When
    that stops, every prime factor of m is at least p and m < p**3 (past
    the table, m has no factor below 2003 and m < 2003**3), so m is 1, a
    prime, a prime square or a product of two distinct primes.
    """
    odd = None
    m = n
    for p, cube in _SPLIT_PRIMES:
        if cube > m:
            break
        if m % p == 0:
            m //= p
            e = 1
            while m % p == 0:
                m //= p
                e += 1
            if e & 1:
                if odd is not None:
                    return None
                odd = p
    r = math.isqrt(m)
    if r * r == m:
        return odd
    if odd is None and _strong_probable_prime(m):
        return m
    return None


def sp_decompose(n: int) -> SpDecomposition | None:
    """Return the unique prime-times-square decomposition, or None.

    Uses the exactly-one-odd-exponent characterization: if a single prime p
    carries an odd exponent, then n = p * k**2 with k = sqrt(n / p), and
    k >= 2 exactly when n is not the prime p itself. Below 2000**3 = 8e9
    the odd primes come from trial division to the cube root; from there
    on, from ``factorize``.
    """
    if n < 0:
        raise DomainError(f"SP membership is defined for n >= 0, got {n}")
    if n <= 1:
        return None
    if n < _SPLIT_MAX:
        p = _lone_odd_prime(n)
    else:
        odd = [p for p, e in factorize(n).items() if e % 2 == 1]
        p = odd[0] if len(odd) == 1 else None
    if p is None or p == n:
        return None
    k = math.isqrt(n // p)
    return SpDecomposition(n=n, p=p, k=k)


def is_sp(n: int) -> bool:
    """True iff n is a square-prime number (n = p * k**2, k >= 2)."""
    return sp_decompose(n) is not None


def _successor_beyond(x: int) -> int:
    """N(x), x >= 1: the first ``is_sp`` hit above x while primality is
    certified (below 2**64), else 2x. 2x is a proven bound: by Bertrand's
    postulate a prime p lies in (x/4, x/2], and 4p in (x, 2x] is SP."""
    return next((n for n in range(x + 1, 1 << 64) if is_sp(n)), 2 * x)
