"""HPPK block cipher core: key construction, block encryption and decryption.

A key pair starts from a base polynomial b (degree base_degree in the
message variable, linear in each noise variable) and two factor
polynomials f1, f2 over F_p.  The plain public maps are the products
p1 = b*f1 and p2 = b*f2, held as (message_degree+1) x noise_vars
coefficient matrices; the published key masks each map with its own
hidden-ring key.  b is used only to build the products and is
discarded.  Masking, evaluation and unmasking all go through fhe.

Encrypting evaluates both cipher maps against one monomial table of the
secret x and fresh noise, over the integers, in one pass: the public key
stacks its maps as p1 + (p2 << value_bits), cached flat in the order the
table is built, and the ring-size bound keeps the first value below
2**value_bits, so the one evaluation splits into value1 (its low
value_bits bits) and value2 (the rest).  Decrypting unmasks both values
to c1 = b(x)f1(x) and c2 = b(x)f2(x) mod p; the base polynomial cancels
from c2*f1(x) - c1*f2(x) = 0 (mod p), a linear (factor_degree 1) or
quadratic (factor_degree 2) congruence in x that is solved without first
forming the ratio c1/c2.  Degree-2 profiles embed an 8-bit CRC flag in
the plaintext so the right root can be identified.

Both directions take a whole ciphertext at once.  encrypt_blocks looks
up the stacked key, value_bits and the low mask once per ciphertext and
evaluates each block's table against them; encrypt_block is its
one-block case, behind the entry checks of a caller's secret and noise.
decrypt_blocks decrypts all blocks of one ciphertext together, for both
factor degrees: one modular inversion mod p serves every block's
divisor, each degree-2 block takes one square root, and the earliest
failing block is the one reported.  decrypt_block is its one-block case.

A key's checks against a profile live in private_key and PublicKey.stacked.

A ciphertext value is checked once, where it enters.  A parsed value
meets kem.deserialize_ct's width rule: below 2**value_bits <= 2**256,
and never negative.  A value encrypt_blocks computes needs no check:
PublicKey.stacked admits only entries in [0, 2**ring_bits), and the
ring-size bound then keeps each map's evaluation below 2**value_bits.
So both build their BlockCiphertext through _make, and only a block
built by hand meets the constructor's capacity check.
"""

from dataclasses import dataclass
from typing import NamedTuple

from . import fhe
from .errors import (
    AllZeroNoise,
    DecapsFailure,
    DegenerateEquation,
    NoValidRoot,
    PayloadTooLarge,
    ZeroDenominator,
)
from .modmath import batch_inverse, ensure_wide, sqrt_mod
# block calls no mod_inverse; perfbench/tests/test_perfbench.py's
# test_tracer_wraps_import_sites_and_restores_them needs the name bound here
from .modmath import mod_inverse  # noqa: F401

_CRC_POLY = 0x07  # x^8 + x^2 + x + 1, MSB first, init 0, no final xor


@dataclass(frozen=True)
class PrivateKey:
    """The two hidden-ring keys, over one shared modulus, and f1, f2."""

    key1: fhe.HomomorphicKey
    key2: fhe.HomomorphicKey
    f1: tuple
    f2: tuple

    def __post_init__(self):
        if self.key1.modulus != self.key2.modulus:
            raise ValueError("both multipliers must belong to one hidden ring")
        if len(self.f1) != len(self.f2):
            raise ValueError("factor polynomials must have equal length")
        if self.f1[-1] == 0 or self.f2[-1] == 0:
            raise ValueError("factor polynomials need nonzero leading coefficients")

    @property
    def modulus(self):
        return self.key1.modulus

    @property
    def r1(self):
        return self.key1.mult

    @property
    def r2(self):
        return self.key2.mult


@dataclass(frozen=True)
class PublicKey:
    """Two cipher coefficient matrices, (message_degree+1) rows x noise_vars cols."""

    p1: tuple
    p2: tuple

    def __post_init__(self):
        for mat in (self.p1, self.p2):
            widths = {len(row) for row in mat}
            if len(widths) != 1:
                raise ValueError("ragged coefficient matrix")
        if len(self.p1) != len(self.p2) or len(self.p1[0]) != len(self.p2[0]):
            raise ValueError("matrices must share one shape")

    @property
    def shape(self):
        return len(self.p1), len(self.p1[0])

    def stacked(self, params, entries=None):
        """fhe.stack of both maps at value_bits, checked and built once per profile.

        The public key's one profile check, in one pass over its entries flat,
        map 1 then map 2, row-major (the wire order): the parse's own, or the
        maps flattened here.  The stack is flat too, as fhe.eval_cipher_poly
        reads it.  The matrices must have the profile's (message_degree+1) x
        noise_vars shape, and the split of a stacked evaluation is exact only
        when every entry lies in [0, 2**ring_bits), so that each map's value
        stays below 2**value_bits; anything else raises ValueError.  The stack
        is kept outside the dataclass fields, unseen by equality, hash, repr
        and the wire format, and is checked and rebuilt when another
        ParameterSet object asks for it.
        """
        cached = self.__dict__.get("_stacked")
        if cached is None or cached[0] is not params:
            if self.shape != (params.message_degree + 1, params.noise_vars):
                raise ValueError("public key shape does not match the parameter set")
            if entries is None:
                entries = [c for mat in (self.p1, self.p2) for row in mat for c in row]
            if min(entries) < 0 or max(entries) >= 1 << params.ring_bits:
                raise ValueError("public key coefficient outside [0, 2**ring_bits)")
            half = len(entries) // 2
            cached = params, fhe.stack(entries[:half], entries[half:], params.value_bits)
            object.__setattr__(self, "_stacked", cached)
        return cached[1]


class _BlockValues(NamedTuple):
    value1: int
    value2: int


class BlockCiphertext(_BlockValues):
    """Two unreduced integer evaluations of the cipher maps, as a value tuple.

    The constructor holds a hand-built block to the 256-bit capacity
    contract (TypeError or CapacityExceeded).  encrypt_blocks and
    kem.deserialize_ct build through _make, which checks nothing: their
    values are bounded where they enter (see the module docstring).
    """

    __slots__ = ()

    def __new__(cls, value1, value2):
        return super().__new__(
            cls, ensure_wide(value1, "ciphertext value"), ensure_wide(value2, "ciphertext value")
        )


# -- CRC flag handling (factor_degree = 2 profiles)


def _crc8_byte(crc):
    """Shift one byte's worth of bits through the CRC register."""
    for _ in range(8):
        crc = ((crc << 1) ^ _CRC_POLY) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
    return crc


_CRC8_TABLE = tuple(_crc8_byte(i) for i in range(256))


def crc8(data):
    """CRC-8, polynomial 0x07, init 0x00, MSB first, no reflection or xorout."""
    crc = 0
    for byte in data:
        crc = _CRC8_TABLE[crc ^ byte]
    return crc


def _payload_width(params):
    return (params.payload_bits + 7) // 8


def format_plaintext(payload, params):
    """Prefix the payload with its CRC-8: flag in the top 8 bits, payload below.

    The CRC is taken over the payload encoded as fixed-width little-endian
    bytes.  Raises PayloadTooLarge when the payload does not fit in
    payload_bits or the formatted value reaches the prime.
    """
    if params.factor_degree < 2:
        raise ValueError("formatted plaintexts are used by degree-2 profiles only")
    if not 0 <= payload < 1 << params.payload_bits:
        raise PayloadTooLarge(f"payload needs more than {params.payload_bits} bits")
    flag = crc8(payload.to_bytes(_payload_width(params), "little"))
    formatted = (flag << params.payload_bits) | payload
    if formatted >= params.prime:
        raise PayloadTooLarge("formatted plaintext reaches the field prime")
    return formatted


def extract_payload(formatted, params):
    return formatted & ((1 << params.payload_bits) - 1)


def verify_flag(formatted, params):
    """True iff the top 8 bits equal the CRC-8 of the remaining bits."""
    payload = extract_payload(formatted, params)
    flag = formatted >> params.payload_bits
    return flag == crc8(payload.to_bytes(_payload_width(params), "little"))


# -- key construction


def build_plain_central_map(base_rows, factor, prime):
    """Multiply the base polynomial by one factor, column by column.

    base_rows is (base_degree+1) x noise_vars; factor has factor_degree+1
    coefficients, ascending.  Row i of the output collects every product
    base[s][j] * factor[t] with s + t = i, mod prime: a per-column
    convolution, summed in place and reduced once per entry.
    """
    out = [[0] * len(base_rows[0]) for _ in range(len(base_rows) + len(factor) - 1)]
    for s, row in enumerate(base_rows):
        for t, f in enumerate(factor):
            acc = out[s + t]
            for j, c in enumerate(row):
                acc[j] += c * f
    return tuple([tuple(map(prime.__rmod__, row)) for row in out])


def _proportional(f1, f2, prime):
    """True when f2 is a scalar multiple of f1 mod prime (2 x k rank <= 1)."""
    for i in range(len(f1)):
        for k in range(i + 1, len(f1)):
            if (f1[i] * f2[k] - f1[k] * f2[i]) % prime != 0:
                return False
    return True


def _sample_factor(prime, degree, rng):
    coeffs = rng.below_many(prime, degree + 1)
    while coeffs[-1] == 0:
        coeffs[-1] = rng.below(prime)
    return coeffs


def _sample_base(params, rng):
    m = params.noise_vars
    flat = rng.below_many(params.prime, (params.base_degree + 1) * m)
    return [flat[i : i + m] for i in range(0, len(flat), m)]


def _zero_mod(rows, prime):
    """True when every entry of the matrix is 0 mod prime."""
    return not any(c % prime for row in rows for c in row)


def _assemble(params, sk, base_rows):
    """Build both products b*f1, b*f2 and mask each under its own key."""
    p = params.prime
    pk = PublicKey(
        fhe.encrypt_coeffs(sk.key1, build_plain_central_map(base_rows, sk.f1, p)),
        fhe.encrypt_coeffs(sk.key2, build_plain_central_map(base_rows, sk.f2, p)),
    )
    return sk, pk


def private_key(params, modulus, r1, r2, f1, f2):
    """A private key checked against the profile: a ring_bits-wide modulus,
    factor_degree + 1 coefficients in [0, p) per factor, factors not
    proportional mod p.  Raises ValueError, or NotCoprime for a non-unit.
    """
    p = params.prime
    if ensure_wide(modulus, "ring modulus").bit_length() != params.ring_bits:
        raise ValueError("ring modulus has the wrong bit length")
    if len(f1) != params.factor_degree + 1 or len(f2) != params.factor_degree + 1:
        raise ValueError("factor length does not match the parameter set")
    if not all(0 <= c < p for c in (*f1, *f2)):
        raise ValueError("factor coefficient outside [0, p)")
    key1, key2 = (fhe.HomomorphicKey(modulus, r) for r in (r1, r2))
    sk = PrivateKey(key1, key2, tuple(f1), tuple(f2))
    if _proportional(sk.f1, sk.f2, p):
        raise ValueError("factor polynomials are proportional mod p")
    return sk


def keypair_from_values(params, modulus, r1, r2, f1, f2, base_rows):
    """Assemble a key pair from explicit private values (fixtures, KATs).

    Raises ValueError for a base matrix of the wrong shape or zero mod p.
    """
    if len(base_rows) != params.base_degree + 1 or any(
        len(row) != params.noise_vars for row in base_rows
    ):
        raise ValueError("base matrix shape does not match the parameter set")
    if _zero_mod(base_rows, params.prime):
        raise ValueError("base matrix is zero mod p")
    return _assemble(params, private_key(params, modulus, r1, r2, f1, f2), base_rows)


def sample_keypair(params, ring_bits, rng):
    """Sample a key pair of the profile's shape over a ring_bits-wide ring.

    Draw order is fixed (it is the seeded-KAT contract): ring modulus,
    r1, r2, f1 coefficients ascending, f2 likewise, then the base matrix
    row-major.  Constraints are enforced by resampling: multipliers must
    be units, leading factor coefficients nonzero, f2 is redrawn whole
    while proportional to f1, and the base matrix is redrawn whole while
    it is zero mod p (its key would publish zero maps).  The base matrix
    is discarded after the products are built.
    """
    p = params.prime
    modulus = fhe.ring_gen(ring_bits, rng)
    key1 = fhe.he_keygen(modulus, rng)
    key2 = fhe.he_keygen(modulus, rng)
    f1 = _sample_factor(p, params.factor_degree, rng)
    f2 = _sample_factor(p, params.factor_degree, rng)
    while _proportional(f1, f2, p):
        f2 = _sample_factor(p, params.factor_degree, rng)
    base_rows = _sample_base(params, rng)
    while _zero_mod(base_rows, p):
        base_rows = _sample_base(params, rng)
    return _assemble(params, PrivateKey(key1, key2, tuple(f1), tuple(f2)), base_rows)


def keygen(params, rng):
    """Sample a key pair over the profile's ring (see sample_keypair)."""
    return sample_keypair(params, params.ring_bits, rng)


# -- block encryption / decryption


def monomial_table(params, x, noise):
    """Values (x**i * noise_j) mod p, row-major over the (message_degree+1)
    x noise_vars positions of a coefficient matrix: the flat layout that
    fhe.eval_cipher_poly reads and PublicKey.stacked caches.

    x and every noise value must already lie in [0, p), so the first row
    is the noise itself: encrypt_block checks them, and kem.encaps draws
    them below p.
    """
    p = params.prime
    table = [*noise]
    # the entry one row down, noise_vars places on, is this one times x
    for i in range(params.message_degree * len(table)):
        table.append(table[i] * x % p)
    return table


def encrypt_blocks(pk, params, draws):
    """Every block of one ciphertext, one per (x, noise) draw, as a tuple.

    The stacked key, value_bits and the low mask are looked up once per
    ciphertext; each block is one evaluation of the stacked key against
    its monomial table, split into value1 (the low value_bits bits) and
    value2 (the rest).  The draws are not checked: each x and noise value
    must lie in [0, p), with one noise value per noise variable, not all
    zero (encrypt_block checks one block; kem.encaps draws them so).  The
    blocks are built unchecked: the stacked key's entry check and the
    ring-size bound already keep both values in [0, 2**value_bits).
    """
    stacked = pk.stacked(params)
    w = params.value_bits
    low = (1 << w) - 1
    blocks = []
    for x, noise in draws:
        v = fhe.eval_cipher_poly(stacked, monomial_table(params, x, noise))
        blocks.append(BlockCiphertext._make((v & low, v >> w)))
    return tuple(blocks)


def encrypt_block(pk, params, x, noise):
    """Evaluate both cipher maps over the integers; no final reduction.

    The entry checks of one block's secret and noise, then its one-block
    case of encrypt_blocks.  Raises ValueError for a secret or noise
    value outside [0, p) or a noise vector of the wrong length, and
    AllZeroNoise for an all-zero one.
    """
    p = params.prime
    if not 0 <= x < p:
        raise ValueError("secret must lie in [0, p)")
    if len(noise) != params.noise_vars:
        raise ValueError("need one value per noise variable")
    if min(noise) < 0 or max(noise) >= p:
        raise ValueError("noise values must lie in [0, p)")
    if not any(noise):
        raise AllZeroNoise("all-zero noise would produce a trivial ciphertext")
    return encrypt_blocks(pk, params, ((x, noise),))[0]


def _flagged_root(coeffs, inv, params):
    """The payload of the one root of a degree-2 block whose CRC flag verifies.

    coeffs are (d0, d1, d2) of c2*f1(x) - c1*f2(x) mod p, and inv inverts
    the block's divisor: 2*d2 for a quadratic, d1 when d2 vanishes and
    the block is linear.  A quadratic takes one square root.
    """
    p = params.prime
    d0, d1, d2 = coeffs
    if d2:
        roots = [(s - d1) * inv % p for s in sqrt_mod(d1 * d1 - 4 * d2 * d0, p)]
    else:
        roots = [-d0 * inv % p]
    verified = [r for r in roots if verify_flag(r, params)]
    if len(verified) != 1:
        raise NoValidRoot(f"{len(verified)} roots passed flag verification")
    return extract_payload(verified[0], params)


def decrypt_blocks(sk, params, blocks):
    """The payload of every block of one ciphertext, with one inversion mod p.

    The first pass unmasks each block to c1 = b(x)f1(x) and c2 = b(x)f2(x)
    mod p and forms the coefficients of c2*f1(x) - c1*f2(x), of which the
    block secret is a root; c2 itself is never inverted.  Each block's
    divisor is d1 for a linear equation (factor_degree 1, or a degree-2
    block whose quadratic coefficient vanishes) and 2*d2 for a quadratic.
    The pass stops at the first block that raises ZeroDenominator (c2 = 0
    mod p) or DegenerateEquation (no nonzero divisor).  One batch_inverse
    then inverts the divisors of the blocks before it, and the second pass
    solves them in order: x = -d0/d1 for factor_degree 1, and for
    factor_degree 2 the payload of the one root, found with one square
    root, whose CRC flag verifies (else NoValidRoot).

    Raises DecapsFailure(k, cause) for the earliest failing block k,
    whichever pass found its failure.
    """
    p = params.prime
    key1, key2, f1, f2 = sk.key1, sk.key2, sk.f1, sk.f2
    fhe.invert_units(key1, key2)  # both units at once, on the key's first decrypt
    quadratic = params.factor_degree == 2
    equations, divisors = [], []
    failure = None
    for k, ct in enumerate(blocks):
        c1 = fhe.decrypt_value(key1, ct.value1, p)
        c2 = fhe.decrypt_value(key2, ct.value2, p)
        coeffs = [(c2 * a - c1 * b) % p for a, b in zip(f1, f2)]
        try:
            if c2 == 0:
                raise ZeroDenominator("second map evaluates to 0 mod p")
            if quadratic and coeffs[2]:
                divisors.append(2 * coeffs[2] % p)
            elif coeffs[1]:
                divisors.append(coeffs[1])
            else:
                raise DegenerateEquation("linear coefficient vanishes mod p")
        except (ZeroDenominator, DegenerateEquation) as err:
            failure = DecapsFailure(k, err)
            break
        equations.append(coeffs)
    payloads = []
    for k, (coeffs, inv) in enumerate(zip(equations, batch_inverse(divisors, p))):
        if not quadratic:
            payloads.append(-coeffs[0] * inv % p)
            continue
        try:
            payloads.append(_flagged_root(coeffs, inv, params))
        except NoValidRoot as err:
            raise DecapsFailure(k, err) from err
    if failure is not None:
        raise failure from failure.cause
    return payloads


def decrypt_block(sk, params, ct):
    """Recover the block secret from a ciphertext made under the matching key.

    The one-block case of decrypt_blocks: x for factor_degree 1, the
    flag-verified payload for factor_degree 2.  Raises the block's own
    error (ZeroDenominator, DegenerateEquation or NoValidRoot).
    """
    try:
        return decrypt_blocks(sk, params, (ct,))[0]
    except DecapsFailure as err:
        raise err.cause from None
