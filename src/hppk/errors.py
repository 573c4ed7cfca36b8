"""Exception taxonomy shared by all hppk modules."""


class HppkError(Exception):
    """Base class for every error raised by this package."""


class CapacityExceeded(HppkError):
    """An integer left the 256-bit envelope the arithmetic is specified for."""


class NotCoprime(HppkError):
    """Modular inverse requested for an element that has no inverse."""


class DegenerateEquation(HppkError):
    """A linear or quadratic congruence collapsed to no usable equation."""


class AllZeroNoise(HppkError):
    """Encryption refused: an all-zero noise vector makes the ciphertext trivial."""


class ZeroDenominator(HppkError):
    """Block decryption hit a zero divisor while forming the factor ratio."""


class NoValidRoot(HppkError):
    """No unique root of the decryption equation passed flag verification."""


class PayloadTooLarge(HppkError):
    """Formatted plaintext does not fit below the field prime."""


class MalformedEncoding(HppkError):
    """A serialized key or ciphertext has the wrong length or an out-of-range value."""


class DecapsFailure(HppkError):
    """A block failed to decrypt during decapsulation.

    Attributes:
      block_index: zero-based index of the failing block.
      cause: the underlying block-level error.
    """

    def __init__(self, block_index, cause):
        super().__init__(f"block {block_index}: {cause!r}")
        self.block_index = block_index
        self.cause = cause


class NoConsistentRatio(HppkError):
    """The given matrices are not consistent with any product-form factor ratio."""


class SearchSpaceTooLarge(HppkError):
    """An exhaustive oracle was asked to enumerate beyond its guard bound."""
