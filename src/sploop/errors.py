"""Exception hierarchy shared by every module in the package.

The split mirrors how the CLI reports failures: domain and membership
problems are caller mistakes, capacity problems mean "rebuild with a larger
limit", and chain/validation problems are findings about the inputs.
"""


class SploopError(Exception):
    """Base class for all package errors."""


class DomainError(SploopError):
    """An argument lies outside the documented domain of an operation."""


class MembershipError(SploopError):
    """An operand was required to be a member of Q but is not."""


class CapacityError(SploopError):
    """The answer is not covered by the current sieve or index.

    Carries ``required`` when a sufficient limit is known, so callers can
    rebuild instead of guessing.
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class SearchBudgetError(SploopError):
    """A guarded enumeration was asked to exceed its budget."""


class NotFoundError(SploopError):
    """A bounded search was exhausted without a hit; raise the bound."""


class ValidationError(SploopError):
    """Input terms fail structural validation (not prime, not an AP, ...)."""


class ChainBrokenError(SploopError):
    """Two consecutive pair-products in a chain disagree.

    ``position`` is the index of the first offending pair and ``pair`` its
    two operand terms, whose product differs from the first pair's.
    """

    def __init__(self, message: str, position: int, pair: tuple[int, int]):
        super().__init__(message)
        self.position = position
        self.pair = pair


class CacheError(SploopError):
    """Base class for cache-file problems."""


class CacheMagicError(CacheError):
    """The file does not start with the expected magic bytes."""


class CacheVersionError(CacheError):
    """The file declares a format version this code does not speak."""


class CacheTruncatedError(CacheError):
    """The file is shorter (or longer) than its header promises."""


class CacheChecksumError(CacheError):
    """The payload does not match its recorded CRC-32."""
