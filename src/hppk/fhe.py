"""Coefficient-wise homomorphic encryption over a hidden ring.

A key is a pair (S, R): S is a secret ring modulus and R a unit of Z_S.
HomomorphicKey checks both when it is built; masking needs only R, and the
first decryption derives R^-1 mod S (invert_units: one inversion for a
private key's two units).  A polynomial is a coefficient matrix (rows x
cols); one with T terms is a 1 x T matrix.  Encrypting multiplies every
coefficient by R mod S.  The variables stay in F_p, so anyone can still
evaluate the cipher polynomial: the sum of coefficient * monomial value
over the integers, with the coefficients and a table of their monomial
values mod p both read flat, row-major.  Whoever holds (S, R) unmasks with
R^-1 mod S and reduces mod p to recover the polynomial value.

Correctness needs the plain integer sum to stay below S, which the ring
size condition bit_length(S) > 2*bit_length(p) + bit_length(term_count)
guarantees.  The operator is additively and scalar-multiplicatively
homomorphic; it does not support multiplying two ciphertexts.

Two polynomials of one shape evaluated at one table can share a single
evaluation: when every plain integer sum of the first stays below
2**width, the coefficients stack(a, b, width) = a + (b << width)
evaluate to v_a + (v_b << width), and the low width bits and the rest
are the two values exactly.
"""

import operator
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .errors import NotCoprime
from .modmath import batch_inverse, ensure_wide


@dataclass(frozen=True)
class HomomorphicKey:
    """The pair (S, R): a ring modulus and a unit of Z_S.

    R^-1 mod S is derived on first use, by invert_units.  A modulus that
    is not an int raises TypeError, a negative one or one wider than 256 bits
    CapacityExceeded.  mult outside (0, S) raises ValueError, so S >= 2,
    and a non-unit NotCoprime.
    """

    modulus: int
    mult: int

    def __post_init__(self):
        ensure_wide(self.modulus, "ring modulus")
        if not 0 < self.mult < self.modulus:
            raise ValueError("multiplier must lie in (0, S)")
        if gcd(self.mult, self.modulus) != 1:
            raise NotCoprime("multiplier is not a unit of the ring")

    @cached_property
    def mult_inv(self):
        return invert_units(self)[0]


def invert_units(*keys):
    """R^-1 of keys over one modulus S: one batch_inverse fills the mult_inv
    cache of those that lack it, as each mult was checked a unit when built."""
    todo = [key for key in keys if "mult_inv" not in key.__dict__]
    if todo:
        for key, inv in zip(todo, batch_inverse([k.mult for k in todo], todo[0].modulus)):
            key.__dict__["mult_inv"] = inv
    return [key.mult_inv for key in keys]


def ring_gen(bits, rng):
    """Uniformly random ring modulus with exactly the requested bit length.

    The top bit is forced so serialization widths derived from the bit
    length are exact.
    """
    if bits < 2:
        raise ValueError("ring modulus needs at least 2 bits")
    return (1 << (bits - 1)) | rng.bits(bits - 1)


def he_keygen(modulus, rng):
    """Sample a unit of Z_S by rejection: zero and non-units are redrawn."""
    while True:
        r = rng.below(modulus)
        if r and gcd(r, modulus) == 1:
            return HomomorphicKey(modulus, r)


def encrypt_value(key, value):
    """The coefficient operator: R * value mod S."""
    return key.mult * value % key.modulus


def encrypt_coeffs(key, rows):
    """Encrypt every coefficient of a matrix, keeping its shape."""
    r, s = key.mult, key.modulus
    return tuple([tuple([r * c % s for c in row]) for row in rows])


def eval_cipher_poly(coeffs, values):
    """sum(coeff * monomial value) over the integers; no final reduction.

    Both are flat sequences in one order: values holds the value mod p of
    the monomial of each coefficient, so the caller fixes both the
    variables and the monomial shape.  A coefficient matrix is read
    row-major, as stack lays it out.
    """
    return sum(map(operator.mul, coeffs, values))


def stack(a, b, width):
    """Entry-wise a + (b << width) of two coefficient matrices of one shape,
    each given flat and row-major, the layout eval_cipher_poly reads.

    eval_cipher_poly of the result is v_a + (v_b << width), which splits
    back into v_a and v_b only when v_a < 2**width; the caller bounds the
    entries of a so that it is.
    """
    return tuple([x + (y << width) for x, y in zip(a, b)])


def decrypt_value(key, value, prime):
    """Undo the ring mask and reduce mod prime.

    R^-1 * value mod S is the plain integer sum, so reducing it mod p
    gives the plain polynomial value.  Correct only when value came from
    eval_cipher_poly under the matching key and the ring size condition
    held; a wrong key yields garbage by design.
    """
    return key.mult_inv * value % key.modulus % prime


def decrypt_coeffs(key, rows, prime):
    """Recover a plain coefficient matrix mod prime from its encryption."""
    return tuple(tuple(decrypt_value(key, c, prime) for c in row) for row in rows)
