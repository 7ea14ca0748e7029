"""Bulk SP generation and the one object that answers every question on Q.

``QIndex`` holds Q, 1 followed by every SP <= limit in ascending order,
and answers counts, N(x) and the other order queries from that array.
``SpSieve`` is a ``QIndex`` made by the sieve: it adds the flag per
number, ``is_sp`` and the cache file, and lists its members from the
flags the first time they are read. ``build_sieve`` and ``load_cache``
return one; no second object is needed to query it.

The sieve is k-major: primes p <= limit/4 are sieved once, then one flat
pass over k from 2 up to sqrt(limit/2) marks every product p * k**2 within
range. Uniqueness of the prime-times-square decomposition means each SP
number is marked exactly once, so the pass needs no segments or locks.

Memory cost: one byte per number in [0, limit] for the flags (numpy bool),
8 bytes per SP for the sorted members once a query asks for them, and 8
more for their gaps once a gap question is asked. The build also holds
the primes <= limit/4 and their products with 4, 8 bytes each. The cache
file stores one bit per number. A 10**8 build peaks near 125 MB and takes
12.5 MB on disk.
"""

from __future__ import annotations

import math
import os
import struct
import zlib

import numpy as np

from . import spcore
from .errors import (
    CacheChecksumError,
    CacheMagicError,
    CacheTruncatedError,
    CacheVersionError,
    CapacityError,
    DomainError,
)

DEFAULT_MEMORY_BUDGET = 4 << 30

CACHE_MAGIC = b"SPLQ"
CACHE_VERSION = 1
_HEADER = struct.Struct("<4sIQ")
_CRC = struct.Struct("<I")
_SLICE = 1 << 20  # flags per flatnonzero call when listing the members


def _prime_sieve(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (ordinary sieve of Eratosthenes)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def _estimate_build_bytes(limit: int) -> int:
    """Bound on ``build_sieve``'s peak: the flags or the base-prime mask (never
    alive together), each beside two prime-sized arrays (the primes and
    their k = 2 products), plus 1 MiB of slack."""
    pmax = max(limit // 4, 2)
    # pi(x) < 1.25506 x / ln x for x > 1 (Rosser and Schoenfeld, 1962).
    primes = int(1.3 * pmax / math.log(pmax)) * 8
    return max(limit + 1, pmax + 1) + 2 * primes + (1 << 20)


def _successor_beyond(x: int) -> int:
    """N(x), x >= 1: the first ``spcore.is_sp`` hit above x while primality
    is certified (below 2**64), else 2x. 2x is a proven bound: by Bertrand's
    postulate a prime p lies in (x/4, x/2], and 4p in (x, 2x] is SP."""
    return next((n for n in range(x + 1, 1 << 64) if spcore.is_sp(n)), 2 * x)


class QIndex:
    """Sorted members of Q (1 followed by every SP <= limit) with counts and
    order queries.

    ``gaps`` and the record gaps behind ``first_gap_at_least`` are computed
    on first use and kept: a caller that never asks a gap question never
    pays their memory (8 bytes per element). ``elements`` is a property,
    which ``SpSieve`` fills on first use, so each query reads it once.
    """

    __slots__ = ("limit", "_elements", "_gaps", "_records")

    def __init__(self, limit: int, elements: np.ndarray | None):
        self.limit = limit
        self._elements = elements
        self._gaps = None
        self._records = None

    @property
    def elements(self) -> np.ndarray:
        """1 followed by every SP <= limit, ascending."""
        return self._elements

    @staticmethod
    def from_sieve(sieve: SpSieve) -> QIndex:
        """The sieve itself, which is already an index, with its members
        listed now instead of at its first query."""
        sieve.elements  # the first read lists them
        return sieve

    def _check_range(self, n: int) -> None:
        """Refuse n outside [0, limit]: DomainError below 0, CapacityError
        with ``required=n`` above the limit."""
        if n < 0:
            raise DomainError(f"need n >= 0, got {n}")
        if n > self.limit:
            raise CapacityError(
                f"{n} exceeds the limit {self.limit}; rebuild with limit >= {n}",
                required=n,
            )

    def sp_count(self, n: int) -> int:
        """Number of SP numbers <= n (inclusive), by binary search.

        The inclusive convention is deliberate and documented: counts at a
        checkpoint include the checkpoint itself when it is SP.
        """
        self._check_range(n)
        return int(np.searchsorted(self.elements[1:], n, side="right"))

    @property
    def gaps(self) -> np.ndarray:
        """``np.diff(elements)``: gaps[i] = elements[i+1] - elements[i]."""
        if self._gaps is None:
            self._gaps = np.diff(self.elements)
        return self._gaps

    def _record_gaps(self) -> tuple[np.ndarray, np.ndarray]:
        """Positions where the running maximum of ``gaps`` rises, and the
        gaps there, which strictly increase. The first i with gaps[i] >= w
        is always one of these positions."""
        if self._records is None:
            gaps = self.gaps
            running = np.maximum.accumulate(gaps)
            rising = np.ones(gaps.size, dtype=bool)
            np.greater(running[1:], running[:-1], out=rising[1:])
            where = np.flatnonzero(rising)
            self._records = (where, gaps[where])
        return self._records

    def first_gap_at_least(self, w: int) -> int | None:
        """Least i with gaps[i] >= w, or None when no gap is that wide."""
        where, widths = self._record_gaps()
        k = int(np.searchsorted(widths, w))
        return int(where[k]) if k < where.size else None

    def widest_gap(self) -> int | None:
        """Least i where gaps[i] is largest, or None when there are no gaps."""
        where, _ = self._record_gaps()
        return int(where[-1]) if where.size else None

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def max_element(self) -> int:
        return int(self.elements[-1])

    def contains(self, x: int) -> bool:
        """Membership in Q, restricted to the indexed range."""
        if x < 1 or x > self.limit:
            return False
        elements = self.elements
        i = int(np.searchsorted(elements, x))
        return i < len(elements) and int(elements[i]) == x

    def successor(self, x: int) -> int:
        """N(x): the smallest element of Q strictly greater than x."""
        if x < 0:
            raise DomainError(f"need x >= 0, got {x}")
        elements = self.elements
        if x >= int(elements[-1]):
            raise CapacityError(
                f"successor({x}) is beyond the largest indexed element "
                f"{int(elements[-1])}; rebuild with a larger limit",
                required=_successor_beyond(x),
            )
        return int(elements[np.searchsorted(elements, x, side="right")])

    def successor_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized successor over a non-negative int array."""
        if xs.size and int(xs.min()) < 0:
            raise DomainError("successor_many needs non-negative inputs")
        if xs.size and int(xs.max()) >= self.max_element:
            raise CapacityError(
                f"successor of {int(xs.max())} is beyond the largest indexed "
                f"element {self.max_element}",
                required=_successor_beyond(int(xs.max())),
            )
        return self.elements[np.searchsorted(self.elements, xs, side="right")]

    def predecessor(self, x: int) -> int:
        """The largest element of Q strictly below x (x >= 2)."""
        if x <= 1:
            raise DomainError(f"no Q element below {x}")
        if x > self.limit + 1:
            raise CapacityError(
                f"predecessor({x}) is not covered by limit {self.limit}",
                required=x,
            )
        elements = self.elements
        return int(elements[np.searchsorted(elements, x, side="left") - 1])

    def nth_sp(self, r: int) -> int:
        """The r-th SP number, r >= 1 (the identity 1 is not counted)."""
        if r < 1:
            raise DomainError(f"need r >= 1, got {r}")
        elements = self.elements
        if r >= len(elements):
            raise CapacityError(
                f"index holds only {len(elements) - 1} SP numbers, "
                f"asked for number {r}"
            )
        return int(elements[r])


class SpSieve(QIndex):
    """A ``QIndex`` made by the sieve: flags over [0, limit] with flag i set
    iff i is SP, from which the members are listed on first use."""

    __slots__ = ("flags",)

    def __init__(self, limit: int, flags: np.ndarray):
        super().__init__(limit, None)
        self.flags = flags

    @property
    def elements(self) -> np.ndarray:
        """1 followed by every SP <= limit, ascending int64, made from the
        flags on first use and kept: a sieve that is only saved, loaded or
        asked ``is_sp`` never holds it. Filled 1 MiB of flags at a time, so
        making it needs little more memory than the array itself."""
        if self._elements is None:
            elements = np.empty(1 + np.count_nonzero(self.flags), dtype=np.int64)
            elements[0] = 1
            at = 1
            for lo in range(0, self.flags.size, _SLICE):
                hits = np.flatnonzero(self.flags[lo : lo + _SLICE])
                np.add(hits, lo, out=elements[at : at + hits.size])
                at += hits.size
            self._elements = elements
        return self._elements

    def is_sp(self, n: int) -> bool:
        """Flag lookup; raises when n is outside the sieved range."""
        self._check_range(n)
        return bool(self.flags[n])

    # -- cache -----------------------------------------------------------

    def save(self, path) -> None:
        """Write the v1 cache file: a 16-byte header (magic, version,
        limit), one bit per number in [0, limit], then the payload's CRC-32."""
        payload = np.packbits(self.flags, bitorder="little").tobytes()
        blob = (
            _HEADER.pack(CACHE_MAGIC, CACHE_VERSION, self.limit)
            + payload
            + _CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF)
        )
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:  # path keeps its old file; drop the partial tmp
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    @classmethod
    def load(cls, path) -> SpSieve:
        """Read a cache file, rejecting malformed input with distinct errors."""
        data = np.fromfile(path, dtype=np.uint8)
        magic = data[:4].tobytes()
        if len(data) >= 4 and magic != CACHE_MAGIC:
            raise CacheMagicError(f"bad magic {magic!r}, expected {CACHE_MAGIC!r}")
        if len(data) < _HEADER.size:
            raise CacheTruncatedError(
                f"file is {len(data)} bytes, shorter than the {_HEADER.size}-byte header"
            )
        _, version, limit = _HEADER.unpack_from(data)
        if version != CACHE_VERSION:
            raise CacheVersionError(f"unsupported cache version {version}")
        payload_len = (limit + 8) // 8  # ceil((limit + 1) / 8)
        expected = _HEADER.size + payload_len + _CRC.size
        if len(data) != expected:
            raise CacheTruncatedError(
                f"file is {len(data)} bytes, header promises {expected}"
            )
        payload = data[_HEADER.size : _HEADER.size + payload_len]
        (crc,) = _CRC.unpack_from(data, expected - _CRC.size)
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise CacheChecksumError("payload CRC-32 mismatch")
        bits = np.unpackbits(payload, count=limit + 1, bitorder="little")
        return cls(limit, bits.view(bool))  # unpacked bits are 0 or 1


def save_cache(sieve: SpSieve, destination) -> None:
    sieve.save(destination)


def load_cache(source) -> SpSieve:
    return SpSieve.load(source)


def build_sieve(limit: int, *, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> SpSieve:
    """Sieve all SP numbers in [0, limit].

    One pass over k marks p * k**2 for every prime p <= limit // k**2, so
    by uniqueness of the decomposition each SP is hit exactly once.
    """
    if limit < 1:
        raise DomainError(f"need limit >= 1, got {limit}")
    need = _estimate_build_bytes(limit)
    if need > memory_budget:
        raise CapacityError(
            f"limit {limit} needs about {need} bytes, over the {memory_budget}-byte budget"
        )
    primes = _prime_sieve(limit // 4)
    flags = np.zeros(limit + 1, dtype=bool)
    for k in range(2, math.isqrt(limit // 2) + 1):
        kk = k * k
        flags[primes[: np.searchsorted(primes, limit // kk, side="right")] * kk] = True
    return SpSieve(limit, flags)
