"""The v1 cache file, and Q read straight off its bits, with the standard
library alone.

Layout: a 16-byte header (magic ``SPLQ``, version 1, limit, little-endian),
one bit per number in [0, limit] (bit n % 8 of byte n // 8, set iff n is
SP; padding bits past the limit are not members), then the payload's
CRC-32. ``read`` and ``write`` are the only code that knows the header and
the checks; ``SpSieve`` packs the payload with numpy (its load checks the
file, then builds), and ``build_payload`` builds it from byte slices.
``QBits``, the only reader of the bits, answers every CLI command from
them without importing numpy: the point questions, the counts by final
digit, the first gap at least w wide from a member, the pairs at a gap,
and the rank prefix. Its checks and errors, and the record-gap walk
behind fixed points, SP-free runs and the doubling scan, are the
``front`` module's, shared with ``QIndex``; ``QBits`` reads the
primitives that module lists off the bits.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from itertools import islice, pairwise, takewhile

from .errors import (
    CacheChecksumError,
    CacheMagicError,
    CacheTruncatedError,
    CacheVersionError,
)
from .front import QFront

MAGIC = b"SPLQ"
VERSION = 1
_HEADER = struct.Struct("<4sIQ")
_CRC = struct.Struct("<I")
_BLOCK = 4096  # payload bytes per bit count when nth_sp looks for a rank


def payload_size(limit: int) -> int:
    """Bytes of one bit per number in [0, limit]: ceil((limit + 1) / 8)."""
    return limit // 8 + 1


def read(path) -> tuple[int, memoryview]:
    """The limit and payload of a cache file, rejecting malformed input with
    distinct errors. The payload is a view of the file's bytes, not a copy."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:4]
    if len(data) >= 4 and magic != MAGIC:
        raise CacheMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if len(data) < _HEADER.size:
        raise CacheTruncatedError(
            f"file is {len(data)} bytes, shorter than the {_HEADER.size}-byte header"
        )
    _, version, limit = _HEADER.unpack_from(data)
    if version != VERSION:
        raise CacheVersionError(f"unsupported cache version {version}")
    size = payload_size(limit)
    expected = _HEADER.size + size + _CRC.size
    if len(data) != expected:
        raise CacheTruncatedError(
            f"file is {len(data)} bytes, header promises {expected}"
        )
    payload = memoryview(data)[_HEADER.size : _HEADER.size + size]
    (crc,) = _CRC.unpack_from(data, expected - _CRC.size)
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CacheChecksumError("payload CRC-32 mismatch")
    return limit, payload


def write(path, limit: int, payload) -> None:
    """Write a cache file for the bytes-like payload of one bit per number in
    [0, limit]. The file is written beside path, synced, then renamed over
    it, so path holds the old file or the whole new one."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, limit))
            fh.write(payload)
            fh.write(_CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:  # path keeps its old file; drop the partial tmp
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def build_payload(limit: int) -> bytes:
    """The v1 payload of Q up to limit >= 8, built without numpy.

    An odd-only sieve flags the primes to limit // 4, a byte per number.
    Then, for k = 2, 3, ... ascending, byte j * k**2 is assigned prime(j).
    No OR is needed: a member n = p * j**2 lies on the k**2 stride just when
    k divides j, every k < j writes prime(p * (j/k)**2) = 0, and k = j
    writes 1 last. A non-member is only ever written 0. (Descending k fails
    from 32 = 2 * 4**2 on, which k = 2 then resets as 8 * 2**2.) Every
    eighth flag from b is bit b of the payload's bytes.
    """
    top = limit // 4
    primes = bytearray(top + 1)
    primes[2], primes[3::2] = 1, b"\x01" * len(range(3, top + 1, 2))
    for p in range(3, math.isqrt(top) + 1, 2):
        if primes[p]:
            primes[p * p :: 2 * p] = bytes(len(range(p * p, top + 1, 2 * p)))
    flags = bytearray(8 * payload_size(limit))
    for k in range(2, math.isqrt(limit // 2) + 1):
        flags[k * k : limit + 1 : k * k] = primes[1 : limit // (k * k) + 1]
    bits = 0
    for b in range(8):
        bits |= int.from_bytes(flags[b::8], "little") << b
    return bits.to_bytes(payload_size(limit), "little")


class QBits(QFront):
    """Q up to limit, read off a v1 payload's bits: every CLI command
    without numpy. The queries and their checks are the ``front``
    module's, shared with ``QIndex``, so each gives the same
    answer, error type, message and ``required`` as on a ``QIndex`` of
    that limit; this class supplies the primitives, read off the bits.

    ``successor`` and ``predecessor`` step along the bits, which stays
    short: no gap in Q below 10**7 is wider than 207. A payload from a cache
    built at a larger limit is cut to this limit.
    """

    __slots__ = ("_bits",)

    def __init__(self, limit: int, payload):
        super().__init__(limit)
        bits = bytearray(payload[: payload_size(limit)])
        bits[-1] &= (2 << (limit & 7)) - 1  # no member past the limit
        self._bits = bits

    def save(self, path) -> None:
        """Write the v1 cache file of Q up to this limit."""
        write(path, self.limit, self._bits)

    def _has(self, x: int) -> bool:
        return x == 1 or bool(self._bits[x >> 3] >> (x & 7) & 1)

    def _next(self, n: int) -> int | None:
        """The least member >= n, or None when none is below the limit."""
        if n <= 1:
            return 1  # bit 1 is never set: 1 is in Q but is not SP
        bits, i = self._bits, n >> 3
        if i >= len(bits):
            return None
        byte = bits[i] >> (n & 7) << (n & 7)  # without the bits below n
        while not byte:
            i += 1
            if i == len(bits):
                return None
            byte = bits[i]
        return 8 * i + (byte & -byte).bit_length() - 1

    def _prev(self, x: int) -> int:
        for n in range(x - 1, 1, -1):
            if self._has(n):
                return n
        return 1

    def _sps(self):
        """Every SP up to the limit, ascending."""
        for i, byte in enumerate(self._bits):
            while byte:
                yield 8 * i + (byte & -byte).bit_length() - 1
                byte &= byte - 1  # clear the lowest set bit

    def _count(self, n: int) -> int:
        head = int.from_bytes(self._bits[: n >> 3], "little").bit_count()
        tail = self._bits[n >> 3] & ((2 << (n & 7)) - 1)
        return head + tail.bit_count()

    def _nth(self, r: int) -> int | None:
        """Counts whole blocks of ``_BLOCK`` bytes up to the one that holds
        the r-th SP number, then that block's bytes, then the byte's bits."""
        bits, seen = self._bits, 0
        for lo in range(0, len(bits), _BLOCK):
            inside = int.from_bytes(bits[lo : lo + _BLOCK], "little").bit_count()
            if seen + inside >= r:
                break
            seen += inside
        else:
            return None
        for i, byte in enumerate(bits[lo : lo + _BLOCK], start=lo):
            if seen + byte.bit_count() >= r:
                break
            seen += byte.bit_count()
        for _ in range(r - seen - 1):
            byte &= byte - 1  # clear the lowest set bit
        return 8 * i + (byte & -byte).bit_length() - 1

    def _prefix(self, r: int) -> list[int]:
        return [1, *islice(self._sps(), r)]

    def _gap_from(self, start: int, w: int) -> tuple[int, int] | None:
        """The first consecutive members (lo, hi) with start <= lo and
        hi - lo >= w, for a member start, or None when there is none.

        The w - 1 numbers strictly between such lo and hi are not SP, so
        they cover at least k = (w - 8) // 8 whole zero bytes. For k >= 1,
        ``find`` goes from one run of k zero bytes to the next, and the
        gap around each is measured exactly; narrower gaps are found by
        walking the members from start.
        """
        k = (w - 8) // 8
        if k < 1:
            lo = start
            while (hi := self._next(lo + 1)) is not None:
                if hi - lo >= w:
                    return lo, hi
                lo = hi
            return None
        # Byte start >> 3 holds start, so the runs of zero bytes above
        # start begin past it.
        bits, zeros, at = self._bits, bytes(k), (start >> 3) + 1
        while (j := bits.find(zeros, at)) >= 0:
            hi = self._next(8 * (j + k))
            if hi is None:
                return None
            # Byte j - 1 is not zero, or find would have stopped there: it
            # holds the last member below byte j, or it is byte 0, whose
            # only member is 1, which is not SP.
            lo = 8 * (j - 1) + (bits[j - 1] or 2).bit_length() - 1
            if hi - lo >= w:
                return lo, hi
            at = (hi >> 3) + 1  # the next run of zero bytes starts past hi
        return None

    def _pair_ends(self, g: int, limit: int) -> tuple[list[int], list[int]]:
        sps = takewhile(limit.__ge__, self._sps())
        lo = [a for a, b in pairwise(sps) if b - a == g]
        return lo, [a + g for a in lo]

    def _digit_counts(self, limit: int) -> list[int]:
        bits = self._bits[: payload_size(limit)]
        bits[-1] &= (2 << (limit & 7)) - 1  # no member past the limit
        # Byte i holds 8i, ..., 8i + 7, and 8i ends in 8r % 10 for every
        # i = r (mod 5), so bit j of each such byte is a number that ends
        # in (8r + j) % 10. Each plane of bytes r, r + 5, ... is read as one
        # int, and its bits j are counted against one 0x01 per byte.
        ones = int.from_bytes(b"\x01" * ((len(bits) + 4) // 5), "little")
        counts = [0] * 10
        for r in range(5):
            plane = int.from_bytes(bits[r::5], "little")
            for j in range(8):
                counts[(8 * r + j) % 10] += (plane >> j & ones).bit_count()
        return counts

    def _repeats(self) -> list[int]:
        """Values listed more than once: none, as a bit lists each once."""
        return []
