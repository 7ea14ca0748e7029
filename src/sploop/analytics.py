"""Distribution studies: density against (zeta(2)-1) * n/ln n, final-digit
census with the digit-1 constant, gap statistics, and the certified
Hurwitz zeta evaluations behind the digit-1 constant.

All logarithms are natural logarithms. The density comparison is a trend
check: the ratio sp_count(n) * ln(n) / n drifts toward zeta(2) - 1 but the
second-order term keeps the constant itself out of reach at desk scale,
so only the shrinking of the absolute error across decades is asserted.
The module imports no numpy; ``gap_histogram`` reads a ``QIndex``
primitive, which does.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .record import Record

TYPE_CHECKING = False  # as typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .sieve import QIndex

DENSITY_TARGET = math.pi * math.pi / 6 - 1

_ZETA_TOL = 1e-10
_ROUNDING_MARGIN = 2e-13


class HurwitzEval(Record):
    """One certified evaluation of zeta(2, a) = sum of (m + a)^-2, m >= 0."""

    __slots__ = ("a", "value", "abs_error_bound", "terms")


def hurwitz_zeta2(a: float) -> HurwitzEval:
    """zeta(2, a) by direct summation plus an Euler-Maclaurin tail.

    The first M terms are summed exactly (math.fsum); the tail from M on
    is 1/(M+a) + 1/(2(M+a)^2) + 1/(6(M+a)^3) - 1/(30(M+a)^5) with
    truncation error below (M+a)^-7 / 42. M grows until that bound plus a
    rounding margin sits safely under 1e-10.
    """
    if not 0 < a <= 2:
        raise DomainError(f"need 0 < a <= 2, got {a}")
    m = 16
    while (m + a) ** -7 / 42 > _ZETA_TOL / 100:
        m *= 2
    head = math.fsum((i + a) ** -2 for i in range(m))
    x = m + a
    tail = 1 / x + 1 / (2 * x * x) + 1 / (6 * x**3) - 1 / (30 * x**5)
    bound = x**-7 / 42 + _ROUNDING_MARGIN
    return HurwitzEval(a=a, value=head + tail, abs_error_bound=bound, terms=m)


def digit1_constant() -> float:
    """(zeta(2,.1) + zeta(2,.9) + zeta(2,.3) + zeta(2,.7) - 4) / 400.

    The four offsets are the residues mod 10 whose squares end in 1; the
    constant scales n/ln n into the expected count of SP numbers with
    final digit 1.
    """
    parts = [hurwitz_zeta2(a).value for a in (0.1, 0.9, 0.3, 0.7)]
    return (math.fsum(parts) - 4) / 400


class DensityRow(Record):
    __slots__ = ("n", "sp_count", "ratio", "target", "abs_error")


def density_table(index: QIndex, checkpoints: list[int]) -> list[DensityRow]:
    """One row per checkpoint: ratio = sp_count(n) * ln(n) / n vs the target."""
    rows = []
    for n in checkpoints:
        if n < 3:
            raise DomainError(f"checkpoints must be >= 3, got {n}")
        count = index.sp_count(n)
        ratio = count * math.log(n) / n
        rows.append(
            DensityRow(
                n=n,
                sp_count=count,
                ratio=ratio,
                target=DENSITY_TARGET,
                abs_error=abs(ratio - DENSITY_TARGET),
            )
        )
    return rows


class DigitCensus(Record):
    __slots__ = ("limit", "counts", "digit1_target")


def digit_census(index: QIndex, limit: int) -> DigitCensus:
    """Exact counts of SP numbers <= limit by final decimal digit.

    digit1_target is the modeled count digit1_constant() * limit / ln(limit),
    reported for side-by-side comparison; it is not a tolerance assertion.
    """
    index._check_range(limit)
    target = digit1_constant() * limit / math.log(limit) if limit >= 2 else 0.0
    return DigitCensus(limit=limit, counts=dict(enumerate(index._digit_counts(limit))),
                       digit1_target=target)


def gap_histogram(index: QIndex, limit: int) -> dict[int, int]:
    """Counts of consecutive-SP gaps among SP numbers <= limit."""
    index._check_range(limit)
    return index._gap_counts(limit)
