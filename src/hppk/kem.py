"""Multi-block KEM over HPPK blocks, plus the byte-exact wire formats.

A shared secret is 32 bytes split across block_count blocks of
payload_bits each; block k contributes bits [k*payload_bits,
(k+1)*payload_bits) of the secret, and the total is truncated to 256
bits.  The secret is the raw concatenation of the block payloads; no KDF
is applied.

All integers travel little-endian at fixed widths derived from the
parameter set: ring coefficients in coeff_bytes, unreduced ciphertext
values in value_bytes, factor coefficients in 8 bytes.  Serialized keys
carry no parameter header; the parameter set travels out of band.

File extensions: .hpk public key, .hsk secret key, .hct ciphertext,
.hss shared secret (32 raw bytes).
"""

from dataclasses import dataclass

from . import fhe
from .block import (
    BlockCiphertext,
    PrivateKey,
    PublicKey,
    _proportional,
    decrypt_block,
    encrypt_block,
    format_plaintext,
    linear_fraction,
)
from .errors import (
    DecapsFailure,
    HppkError,
    MalformedEncoding,
    NotCoprime,
    PayloadTooLarge,
)
from .modmath import batch_inverse, mod_inverse
from .params import SHARED_SECRET_BYTES


@dataclass(frozen=True)
class KemCiphertext:
    blocks: tuple

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("at least one block required")


def _sample_noise(params, rng):
    while True:
        noise = [rng.below(params.prime) for _ in range(params.noise_vars)]
        if any(noise):
            return noise


def _sample_block_secret(params, rng):
    """Returns (encrypted value, carried payload) for one block."""
    if params.factor_degree == 1:
        x = rng.below(params.prime)
        return x, x
    while True:
        payload = rng.bits(params.payload_bits)
        try:
            return format_plaintext(payload, params), payload
        except PayloadTooLarge:
            continue


def _pack_payloads(payloads, params):
    """Concatenate payloads bitwise, low block first, truncated to 256 bits."""
    acc = 0
    for k, payload in enumerate(payloads):
        acc |= payload << (k * params.payload_bits)
    total_bits = min(8 * SHARED_SECRET_BYTES, len(payloads) * params.payload_bits)
    acc &= (1 << total_bits) - 1
    return acc.to_bytes((total_bits + 7) // 8, "little")


def encaps(pk, params, rng):
    """Encapsulate a fresh 32-byte shared secret under pk.

    Per block, in draw order: the block secret, then one noise value per
    noise variable (the whole noise vector is redrawn if all zero).
    Returns (KemCiphertext, shared secret bytes).
    """
    blocks = []
    payloads = []
    for _ in range(params.block_count):
        x, payload = _sample_block_secret(params, rng)
        noise = _sample_noise(params, rng)
        blocks.append(encrypt_block(pk, params, x, noise))
        payloads.append(payload)
    return KemCiphertext(tuple(blocks)), _pack_payloads(payloads, params)


def decaps(sk, params, ct):
    """Recover the shared secret; any block error is wrapped with its index.

    Blocks are checked in order and the first failure is raised.  For
    factor_degree 1 every block is first reduced to a checked fraction
    (block.linear_fraction); all denominators are then inverted with one
    modular inversion.  Degree-2 blocks go through decrypt_block.
    """
    solve = linear_fraction if params.factor_degree == 1 else decrypt_block
    results = []
    for k, blk in enumerate(ct.blocks):
        try:
            results.append(solve(sk, params, blk))
        except HppkError as err:
            raise DecapsFailure(k, err) from err
    if params.factor_degree == 1:
        p = params.prime
        inverses = batch_inverse([den for _, den in results], p)
        results = [num * inv % p for (num, _), inv in zip(results, inverses)]
    return _pack_payloads(results, params)


# -- wire formats


def _chunk(data, width):
    return [
        int.from_bytes(data[i : i + width], "little")
        for i in range(0, len(data), width)
    ]


def serialize_pk(pk, params):
    """Both matrices row-major (row index outer, column inner), map 1 then map 2."""
    w = params.coeff_bytes
    out = bytearray()
    for mat in (pk.p1, pk.p2):
        for row in mat:
            for c in row:
                out += c.to_bytes(w, "little")
    return bytes(out)


def deserialize_pk(data, params):
    if len(data) != params.public_key_bytes:
        raise MalformedEncoding(
            f"public key must be {params.public_key_bytes} bytes, got {len(data)}"
        )
    entries = _chunk(data, params.coeff_bytes)
    limit = 1 << params.ring_bits
    if any(e >= limit for e in entries):
        raise MalformedEncoding("coefficient exceeds the ring width")
    rows = params.message_degree + 1
    cols = params.noise_vars
    half = rows * cols
    mats = []
    for off in (0, half):
        mats.append(
            tuple(
                tuple(entries[off + i * cols + j] for j in range(cols))
                for i in range(rows)
            )
        )
    return PublicKey(mats[0], mats[1])


def serialize_sk(sk, params):
    """Modulus, r1, r2 at coefficient width, then f1 and f2 ascending, 8 bytes each."""
    w = params.coeff_bytes
    out = bytearray()
    for v in (sk.modulus, sk.r1, sk.r2):
        out += v.to_bytes(w, "little")
    for f in (sk.f1, sk.f2):
        for c in f:
            out += c.to_bytes(8, "little")
    return bytes(out)


def deserialize_sk(data, params):
    if len(data) != params.secret_key_bytes:
        raise MalformedEncoding(
            f"secret key must be {params.secret_key_bytes} bytes, got {len(data)}"
        )
    w = params.coeff_bytes
    modulus, r1, r2 = _chunk(data[: 3 * w], w)
    if modulus.bit_length() != params.ring_bits:
        raise MalformedEncoding("ring modulus has the wrong bit length")
    if not (0 < r1 < modulus and 0 < r2 < modulus):
        raise MalformedEncoding("multiplier is not a unit of the ring")
    ring = fhe.HiddenRing(modulus)
    try:
        key1, key2 = [
            fhe.HomomorphicKey(ring, r, mod_inverse(r, modulus)) for r in (r1, r2)
        ]
    except NotCoprime as err:
        raise MalformedEncoding("multiplier is not a unit of the ring") from err
    coeffs = _chunk(data[3 * w :], 8)
    if any(c >= params.prime for c in coeffs):
        raise MalformedEncoding("factor coefficient exceeds the prime")
    k = params.factor_degree + 1
    f1, f2 = tuple(coeffs[:k]), tuple(coeffs[k:])
    if f1[-1] == 0 or f2[-1] == 0:
        raise MalformedEncoding("factor polynomial has a zero leading coefficient")
    if _proportional(f1, f2, params.prime):
        raise MalformedEncoding("factor polynomials are proportional")
    return PrivateKey(key1, key2, f1, f2)


def serialize_ct(ct, params):
    """Blocks in order, (value1, value2) per block, value_bytes each."""
    w = params.value_bytes
    out = bytearray()
    for blk in ct.blocks:
        out += blk.value1.to_bytes(w, "little")
        out += blk.value2.to_bytes(w, "little")
    return bytes(out)


def deserialize_ct(data, params):
    """Strict inverse of serialize_ct."""
    if len(data) != params.ciphertext_bytes:
        raise MalformedEncoding(
            f"ciphertext must be {params.ciphertext_bytes} bytes, got {len(data)}"
        )
    w = params.value_bytes
    values = _chunk(data, w)
    limit = 1 << params.value_bits
    if any(v >= limit for v in values):
        raise MalformedEncoding("ciphertext value exceeds its width bound")
    blocks = tuple(
        BlockCiphertext(values[2 * k], values[2 * k + 1])
        for k in range(params.block_count)
    )
    return KemCiphertext(blocks)
