"""Bulk SP generation and the one object that answers every question on Q.

``QIndex`` holds Q, 1 followed by every SP <= limit in ascending order,
from construction, and answers counts, N(x) and the other order queries
from that array.
The queries, their checks and errors, and the walk over Q's record gaps
behind ``first_gap``, live in the ``front`` module, shared with the
numpy-free ``cachefile.QBits``; ``QIndex`` supplies the primitives it
lists, each a ``searchsorted``, a slice of the members, or a scan of the
members or their gaps one block of ``_GAP_BLOCK`` at a time.
No other module indexes the members or their gaps: they ask the front,
or a ``QIndex`` primitive such as ``_gap_counts`` or ``_repeats``.
``SpSieve`` is a ``QIndex`` made by the sieve or read from the cache: it
adds the flag per number, ``is_sp`` and the cache file. ``build_sieve``
and ``load_cache`` return one; no second object is needed to query it.

Q is built first. Every SP number has exactly one form p * k**2, so Q is
1 together with the union of the arrays ``primes[:m] * k**2``, k from 2 up
to sqrt(limit/2): the primes p <= limit/4 come from a sieve of
Eratosthenes on the mod-6 wheel, struck one cache-sized block at a time,
one pass over k writes each product once into one array, and one in-place
sort orders it. The flags are made from the members only when something
asks for them.

The v1 file format, its checks and its durable write live in the
numpy-free ``cachefile`` module; ``SpSieve`` packs the payload from the
members. Every bit of a cache file is fixed by its limit, so a load checks
the file and then builds Q to that limit, which costs less than decoding
the bits.

Memory cost: 4 bytes per SP for the sorted members while limit < 2**32
(8 past it); a scan of their gaps holds one block of them at a time, and
no gap array is kept. A build also holds the primes <= limit/4 (4 bytes
each) and, while it sieves them, one byte per number prime to 6 up to
limit/4, about limit/12 bytes. A save holds the file's one bit per
number, and so does a load until its build returns.
The flags, if asked for, take one byte per number in [0, limit]. A 10**8
build holds 18 MB of members, peaks near 25 MB and takes 12.5 MB on disk;
its flags would take 100 MB more.
"""

from __future__ import annotations

import math

import numpy as np

from . import cachefile
from .errors import CapacityError, DomainError
from .front import QFront

DEFAULT_MEMORY_BUDGET = 4 << 30

_SLICE = 1 << 17  # numbers per slice when listing or packing the members
_SCATTER = 1 << 13  # members per fancy-index write when making the flags
_BLOCK = 1 << 20  # wheel flags per block of the base prime sieve
_GAP_BLOCK = 1 << 16  # gaps or members per block of a scan over Q


def _member_dtype(limit: int) -> type:
    """uint32 while every number up to limit fits in it, else int64."""
    return np.uint32 if limit < 1 << 32 else np.int64


def _rank(a: np.ndarray, x: int, side: str = "left") -> int:
    """``a.searchsorted(x, side)`` for a sorted a and an int x, with x cast
    to a's dtype first: numpy otherwise casts the whole of a to a common
    dtype on every call (about 10 ms at 4.6M uint32 members). An x outside
    the dtype's range ranks before or after all of a."""
    try:
        needle = a.dtype.type(x)
    except OverflowError:
        return 0 if x < 0 else a.size
    return int(a.searchsorted(needle, side=side))


def _prime_sieve(n: int, dtype: type = np.int64) -> np.ndarray:
    """All primes <= n, ascending, by a sieve of Eratosthenes on the mod-6
    wheel: flag j stands for (3j + 1) | 1, the numbers 1, 5, 7, 11, 13, ...
    prime to 6, so the mask is about n / 3 bytes, and each prime k strikes
    two strides of 2k from its two multiples prime to 6.

    The head of the mask, up to the flag of sqrt(n), is sieved first and
    yields the sieving primes; the rest is struck one block of ``_BLOCK``
    flags at a time, so each prime's writes stay in the cache."""
    small = [p for p in (2, 3) if p <= n]
    size = (n + 1) // 3 + ((n + 1) % 6 == 2)  # flags for the numbers <= n
    if size < 2:
        return np.array(small, dtype=dtype)
    mask = np.ones(size, dtype=bool)
    mask[0] = False  # 1
    head = min(math.isqrt(n) // 3 + 1, size)
    strides = []  # [step, start, start] per sieving prime; starts to strike
    for i in range(1, head):
        if mask[i]:
            k = (3 * i + 1) | 1
            stride = [2 * k, k * k // 3, k * (k - 2 * (i & 1) + 4) // 3]
            _strike(mask, stride, head)
            strides.append(stride)
    for hi in range(_BLOCK, size + _BLOCK, _BLOCK):
        for stride in strides:
            _strike(mask, stride, min(hi, size))
    hits = np.flatnonzero(mask)
    # Freed before the primes are allocated, so that the mask and the
    # positions leave one heap hole that the members fit in. Listed a block
    # at a time beside the mask instead, build-1e8 read 8-14 MB more peak RSS.
    del mask
    primes = np.empty(len(small) + hits.size, dtype=dtype)
    primes[: len(small)] = small
    out = primes[len(small) :]
    np.multiply(hits, 3, out=out, casting="unsafe")
    out += 1
    out |= 1
    return primes


def _strike(mask: np.ndarray, stride: list[int], hi: int) -> None:
    """Clear the flags below hi on both progressions of ``stride``,
    [step, start, start], and move each start to its first flag >= hi."""
    step = stride[0]
    for s in (1, 2):
        at = stride[s]
        if at < hi:
            mask[at:hi:step] = False
            stride[s] = at + (hi - at + step - 1) // step * step


def _estimate_build_bytes(limit: int) -> int:
    """Bound on ``build_sieve``'s peak, the larger of its two phases plus
    1 MiB of slack: the int64 positions of the primes beside the mod-6
    wheel mask and then beside the primes themselves, then the primes
    beside the members and the per-k arrays."""
    pmax = max(limit // 4, 2)
    size = np.dtype(_member_dtype(limit)).itemsize
    # pi(x) < 1.25506 x / ln x for x > 1 (Rosser and Schoenfeld, 1962).
    primes = int(1.3 * pmax / math.log(pmax))
    ks = np.arange(2, math.isqrt(limit // 2) + 1, dtype=np.float64)
    x = limit / (ks * ks)  # >= 2 for every k, so each log is positive
    members = 1 + ks.size + int((1.25506 * x / np.log(x)).sum())
    sieving = 8 * primes + max(pmax // 3 + 2, primes * size)
    filling = (primes + members) * size + 4 * 8 * ks.size
    return max(sieving, filling) + (1 << 20)


class QIndex(QFront):
    """Sorted members of Q, held in ``elements`` from construction, and the
    ``front`` module's primitives over them. Every scan of the gaps reads
    ``_gap_blocks``, one block of ``_GAP_BLOCK`` gaps at a time, so no
    array of all the gaps is made or kept: at 1e8 that array would take
    18 MB beside the members, and making it cost more than the scans.
    """

    __slots__ = ("elements",)

    def __init__(self, limit: int, elements: np.ndarray):
        super().__init__(limit)
        self.elements = elements

    @staticmethod
    def from_sieve(sieve: SpSieve) -> QIndex:
        """The sieve itself, which is already an index."""
        return sieve

    def _count(self, n: int) -> int:
        return _rank(self.elements[1:], n, "right")

    def _nth(self, r: int) -> int | None:
        elements = self.elements
        return int(elements[r]) if r < len(elements) else None

    def _next(self, n: int) -> int | None:
        elements = self.elements
        i = _rank(elements, n)
        return int(elements[i]) if i < len(elements) else None

    def _prev(self, x: int) -> int:
        elements = self.elements
        return int(elements[_rank(elements, x) - 1])

    def _has(self, x: int) -> bool:
        elements = self.elements
        i = _rank(elements, x)
        return i < len(elements) and int(elements[i]) == x

    def _prefix(self, r: int) -> list[int]:
        return self.elements[: r + 1].tolist()

    @property
    def gaps(self) -> np.ndarray:
        """``np.diff(elements)``, made afresh on each call: gaps[i] =
        elements[i+1] - elements[i]. The gap scans never make it; they
        read ``_gap_blocks``."""
        return np.diff(self.elements)

    def _gap_blocks(self, lo: int = 0, hi: int | None = None):
        """The gaps between ``elements[lo:hi]``, ``_GAP_BLOCK`` of them at
        a time, as (i, gaps[i : i + _GAP_BLOCK]) for ascending i: each block
        is made from the members it spans, so no array larger than a block
        is made."""
        elements = self.elements[lo:hi]
        for i in range(0, elements.size - 1, _GAP_BLOCK):
            yield lo + i, np.diff(elements[i : i + _GAP_BLOCK + 1])

    def _gap_from(self, start: int, w: int) -> tuple[int, int] | None:
        """The first consecutive members (lo, hi) with start <= lo and
        hi - lo >= w, or None when there is none.

        The gaps are read from the rank of start a block at a time: a block
        whose maximum is below w is skipped, and in the first one that
        reaches it the gap is the first at least w wide. The front's record
        walk asks this once per record gap (28 at 1e8) and once past the
        widest, and no running maximum of all gaps is made."""
        elements = self.elements
        for i, block in self._gap_blocks(_rank(elements, start)):
            if block.max() >= w:
                i += int((block >= w).argmax())
                return int(elements[i]), int(elements[i + 1])
        return None

    def _pair_ends(self, g: int, limit: int) -> tuple[list[int], list[int]]:
        """The lower and the upper members of the pairs ``gap_pairs`` lists,
        for arguments that ``_check_gap`` passed."""
        elements, lo, hi = self.elements, [], []
        for i, block in self._gap_blocks(1, self._count(limit) + 1):
            hits = i + np.flatnonzero(block == g)
            lo += elements[hits].tolist()
            hi += elements[hits + 1].tolist()
        return lo, hi

    def _gap_counts(self, limit: int) -> dict[int, int]:
        """Counts of the gaps between consecutive SP numbers <= limit, by
        width: one ``np.bincount`` per block, summed."""
        counts = np.zeros(0, dtype=np.intp)
        for _, block in self._gap_blocks(1, self._count(limit) + 1):
            part = np.bincount(block)
            if part.size > counts.size:  # a gap wider than any before
                part[: counts.size] += counts
                counts = part
            else:
                counts[: part.size] += part
        return {int(g): int(counts[g]) for g in np.flatnonzero(counts)}

    def _digit_counts(self, limit: int) -> list[int]:
        # x - x // 10 * 10, as numpy's % takes about 4 times as long.
        sps = self.elements[1 : self._count(limit) + 1]
        counts = np.zeros(10, dtype=np.intp)
        for i in range(0, sps.size, _GAP_BLOCK):
            x = sps[i : i + _GAP_BLOCK]
            counts += np.bincount(x - x // 10 * 10, minlength=10)
        return counts.tolist()

    def _repeats(self) -> list[int]:
        """Values listed more than once, ascending, once per extra listing."""
        elements, repeated = self.elements, []
        for i, block in self._gap_blocks():
            repeated += elements[i + np.flatnonzero(block == 0)].tolist()
        return repeated

    def __len__(self) -> int:
        return len(self.elements)


class SpSieve(QIndex):
    """A ``QIndex`` made by the sieve, which also answers ``is_sp`` and
    writes the cache file.

    It holds its members from construction. ``build_sieve``, and so
    ``load``, make them directly; ``SpSieve(limit, flags)``, from flags over
    [0, limit] with flag i set iff i is SP, lists them from the flags a
    slice at a time, so listing needs little more memory than the members
    themselves. The flags are kept, or made from the members on first use.
    """

    __slots__ = ("_flags",)

    def __init__(self, limit: int, flags: np.ndarray):
        elements = np.empty(1 + np.count_nonzero(flags), dtype=_member_dtype(limit))
        elements[0] = 1
        at = 1
        for lo in range(0, flags.size, _SLICE):
            hits = np.flatnonzero(flags[lo : lo + _SLICE])
            np.add(hits, lo, out=elements[at : at + hits.size], casting="unsafe")
            at += hits.size
        super().__init__(limit, elements)
        self._flags = flags

    @classmethod
    def _from_elements(cls, limit: int, elements: np.ndarray) -> SpSieve:
        """A sieve over [0, limit] that holds only its members, Q up to limit."""
        sieve = cls.__new__(cls)
        QIndex.__init__(sieve, limit, elements)
        sieve._flags = None
        return sieve

    @property
    def flags(self) -> np.ndarray:
        """Bool per number in [0, limit], set iff the number is SP. A sieve
        made from its members makes the flags on first use and keeps them,
        writing a few thousand members at a time so the index temporaries
        stay small."""
        if self._flags is None:
            flags = np.zeros(self.limit + 1, dtype=bool)
            sps = self.elements[1:]  # 1 is in Q but is not SP
            for lo in range(0, sps.size, _SCATTER):
                flags[sps[lo : lo + _SCATTER]] = True
            self._flags = flags
        return self._flags

    def is_sp(self, n: int) -> bool:
        """Membership of n > 1 in Q, which never makes the flags; raises
        when n is outside the sieved range."""
        self._check_range(n)
        return n > 1 and self.contains(n)

    # -- cache -----------------------------------------------------------

    def save(self, path) -> None:
        """Write the v1 cache file (``cachefile``): a 16-byte header, one bit
        per number in [0, limit], then the payload's CRC-32. The bits are
        packed from the members a slice at a time; the flags are not made."""
        payload = np.empty(cachefile.payload_size(self.limit), dtype=np.uint8)
        sps = self.elements[1:]  # 1 is in Q but is not SP
        for lo in range(0, self.limit + 1, _SLICE):
            hi = min(lo + _SLICE, self.limit + 1)
            bits = np.zeros(hi - lo, dtype=bool)
            bits[sps[_rank(sps, lo) : _rank(sps, hi)] - lo] = True
            payload[lo // 8 : (hi + 7) // 8] = np.packbits(bits, bitorder="little")
        cachefile.write(path, self.limit, payload)

    @classmethod
    def load(cls, path) -> SpSieve:
        """Q up to a cache file's limit. The file is read and checked, with a
        distinct error for each fault, then Q is built to its limit: every
        bit of the file is fixed by the limit, and a build costs less than
        decoding them. So a limit of 0 raises ``build_sieve``'s DomainError,
        and one past its memory budget its CapacityError, before the build
        allocates."""
        limit, payload = cachefile.read(path)
        # Held until the build returns: freed before it, at 10**8 glibc kept
        # the build's sieve mask on the heap (+7.5 MB peak RSS, session-1e8).
        return build_sieve(limit)


def save_cache(sieve: SpSieve, destination) -> None:
    sieve.save(destination)


def load_cache(source) -> SpSieve:
    return SpSieve.load(source)


def build_sieve(limit: int, *, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> SpSieve:
    """Q up to limit: 1 and every SP number in [0, limit], as a sieve that
    holds only its members.

    One pass over k writes p * k**2 for every prime p <= limit // k**2 into
    one array, which one sort then orders. By uniqueness of the
    decomposition each SP is written exactly once.
    """
    if limit < 1:
        raise DomainError(f"need limit >= 1, got {limit}")
    need = _estimate_build_bytes(limit)
    if need > memory_budget:
        raise CapacityError(
            f"limit {limit} needs about {need} bytes, over the {memory_budget}-byte budget"
        )
    dtype = _member_dtype(limit)
    primes = _prime_sieve(limit // 4, dtype)
    ks = np.arange(2, math.isqrt(limit // 2) + 1, dtype=np.int64)
    counts = primes.searchsorted((limit // (ks * ks)).astype(dtype), side="right")
    elements = np.empty(1 + int(counts.sum()), dtype=dtype)
    elements[0] = 1
    at = 1
    for k, m in zip(ks.tolist(), counts.tolist()):
        np.multiply(primes[:m], k * k, out=elements[at : at + m])
        at += m
    elements.sort()
    return SpSieve._from_elements(limit, elements)
