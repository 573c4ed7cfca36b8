"""Parameter sets: field prime, polynomial orders, noise count, ring width.

Every size and loop bound in the package derives from these five numbers.
The six shipped production profiles all use the largest 64-bit prime
2**64 - 59 and a 136-bit ring (2 * 64 + 8, which covers the term-count
margin for every shipped shape and fixes 17-byte coefficients):

    label        prime bits  base_degree  factor_degree  noise_vars
    level1-nb1   64          1            1              3
    level3-nb1   64          1            1              4
    level5-nb1   64          1            1              5
    level1-nb2   64          2            1              3
    level3-nb2   64          2            1              4
    level5-nb2   64          2            1              5

The "toy" profile (p = 13, 13-bit ring, 2 noise variables) exists for
known-answer tests and the attack oracles only; the CLI refuses it
without --insecure-test-profile.
"""

from dataclasses import dataclass, field
from functools import cached_property

from .modmath import WIDE_BITS, is_prime_64

DEFAULT_PRIME_64 = (1 << 64) - 59

SHARED_SECRET_BYTES = 32

_FLAG_BITS = 8  # width of the CRC flag prepended when factor_degree = 2


@dataclass(frozen=True)
class ParameterSet:
    """HPPK shape: everything else in the package is derived from this.

    prime          field prime p; message, noise, and factor coefficients
                   live in F_p
    base_degree    order of the base polynomial in the message variable
    factor_degree  order of the two factor polynomials f1, f2 (1 or 2)
    noise_vars     number of noise variables
    ring_bits      exact bit length of the hidden ring modulus; defaults
                   to 2 * prime_bits + 8, and value_bits may not exceed
                   the 256-bit capacity of the arithmetic
    """

    prime: int
    base_degree: int
    factor_degree: int
    noise_vars: int
    ring_bits: int = 0
    label: str = field(default="custom", compare=False)

    def __post_init__(self):
        if self.prime.bit_length() > 64 or not is_prime_64(self.prime):
            raise ValueError("prime must be a prime below 2**64")
        if self.prime < 3:
            raise ValueError("prime must be odd")
        if self.factor_degree not in (1, 2):
            raise ValueError("factor_degree must be 1 or 2")
        if self.base_degree < 1:
            raise ValueError("base_degree must be at least 1")
        if self.noise_vars < 2:
            raise ValueError("at least 2 noise variables required")
        if self.ring_bits == 0:
            object.__setattr__(self, "ring_bits", 2 * self.prime_bits + 8)
        if self.ring_bits <= 2 * self.prime_bits + self.term_count.bit_length():
            raise ValueError(
                "ring_bits must exceed 2*prime_bits + bit_length(term_count)"
            )
        if self.value_bits > WIDE_BITS:
            raise ValueError(
                f"ciphertext values need {self.value_bits} bits, "
                f"more than the {WIDE_BITS}-bit capacity"
            )
        if self.factor_degree == 2 and self.prime_bits <= _FLAG_BITS:
            raise ValueError("prime too small to carry an 8-bit flag")

    # -- polynomial shape

    @cached_property
    def prime_bits(self):
        return self.prime.bit_length()

    @cached_property
    def message_degree(self):
        """Degree in the message variable of the public polynomials."""
        return self.base_degree + self.factor_degree

    @cached_property
    def term_count(self):
        """Monomials per public polynomial: (message_degree + 1) * noise_vars."""
        return (self.message_degree + 1) * self.noise_vars

    # -- per-block payload and KEM block count

    @cached_property
    def payload_bits(self):
        """Secret bits carried per block (flag byte excluded when degree 2)."""
        if self.factor_degree == 1:
            return self.prime_bits
        return self.prime_bits - _FLAG_BITS

    @cached_property
    def block_count(self):
        """Blocks per 32-byte shared secret."""
        return -(-8 * SHARED_SECRET_BYTES // self.payload_bits)

    # -- wire widths (bytes)

    @cached_property
    def coeff_bytes(self):
        return (self.ring_bits + 7) // 8

    @cached_property
    def value_bits(self):
        """Every unreduced ciphertext value is below 2**value_bits.

        A value sums term_count products of a ring coefficient below
        2**ring_bits and a monomial below p, so bit_length(term_count)
        margin bits cover it; the margin is at least 8, which fixes the
        wire widths of every shipped profile.
        """
        return self.ring_bits + self.prime_bits + max(8, self.term_count.bit_length())

    @cached_property
    def value_bytes(self):
        """Width of one unreduced ciphertext value on the wire."""
        return (self.value_bits + 7) // 8

    @property
    def public_key_bytes(self):
        return 2 * (self.message_degree + 1) * self.noise_vars * self.coeff_bytes

    @property
    def secret_key_bytes(self):
        return 3 * self.coeff_bytes + 2 * (self.factor_degree + 1) * 8

    @property
    def ciphertext_bytes(self):
        return self.block_count * 2 * self.value_bytes


def _production(label, base_degree, noise_vars):
    return ParameterSet(
        prime=DEFAULT_PRIME_64,
        base_degree=base_degree,
        factor_degree=1,
        noise_vars=noise_vars,
        ring_bits=136,
        label=label,
    )


PARAMETER_SETS = {
    "level1-nb1": _production("level1-nb1", 1, 3),
    "level3-nb1": _production("level3-nb1", 1, 4),
    "level5-nb1": _production("level5-nb1", 1, 5),
    "level1-nb2": _production("level1-nb2", 2, 3),
    "level3-nb2": _production("level3-nb2", 2, 4),
    "level5-nb2": _production("level5-nb2", 2, 5),
    "toy": ParameterSet(
        prime=13, base_degree=1, factor_degree=1, noise_vars=2,
        ring_bits=13, label="toy",
    ),
}

PRODUCTION_LABELS = tuple(k for k in PARAMETER_SETS if k != "toy")


def by_level(level, nb):
    """Look up a production profile by security level (1, 3, 5) and base order."""
    label = f"level{level}-nb{nb}"
    if label not in PARAMETER_SETS:
        raise KeyError(f"no such configuration: level={level}, nb={nb}")
    return PARAMETER_SETS[label]
