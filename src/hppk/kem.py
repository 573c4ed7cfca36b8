"""Multi-block KEM over HPPK blocks, plus the byte-exact wire formats.

A shared secret is 32 bytes split across block_count blocks of
payload_bits each; block k contributes bits [k*payload_bits,
(k+1)*payload_bits) of the secret, and the total is truncated to 256
bits.  The secret is the raw concatenation of the block payloads; no KDF
is applied.

Encapsulation draws a whole ciphertext, then hands its draws to
block.encrypt_blocks, which looks up the stacked key once for all of its
blocks.  A factor-degree-1 ciphertext takes one below_many for every
block's secret and noise, topped up only by zero-noise redraws, and
reads the values and bytes of drawing block by block (see encaps, whose
draw order is the wire contract).  Decapsulation hands the whole
ciphertext to block.decrypt_blocks: one modular inversion mod p for all
of its blocks, for either factor degree, one square root per degree-2
block, and a DecapsFailure naming the earliest failing block and its
cause.  decaps and serialize_ct take only a ciphertext of the profile's
block_count blocks (ValueError otherwise), the one count deserialize_ct
parses.

All integers travel little-endian at fixed widths derived from the
parameter set: ring coefficients in coeff_bytes, unreduced ciphertext
values in value_bytes, factor coefficients in 8 bytes.  Serialized keys
carry no parameter header; the parameter set travels out of band.

The key parsers only split bytes: block.private_key and PublicKey.stacked
check the keys, and their rejections are re-raised as MalformedEncoding.
A ciphertext's values are checked once, by deserialize_ct's width rule;
encaps needs no check, as block.encrypt_blocks' values are bounded by
the stacked key's entry check and the ring-size bound (see block).
Ciphertexts are value tuples, and both build theirs unchecked through
_make; only the public constructors check what a caller builds by hand.

File extensions: .hpk public key, .hsk secret key, .hct ciphertext,
.hss shared secret (32 raw bytes).
"""

from itertools import chain
from typing import NamedTuple

from .block import (
    BlockCiphertext,
    PublicKey,
    decrypt_blocks,
    encrypt_blocks,
    format_plaintext,
    private_key,
)
from .errors import MalformedEncoding, NotCoprime, PayloadTooLarge
# kem calls no mod_inverse; perfbench/tests/test_perfbench.py's
# test_tracer_wraps_import_sites_and_restores_them needs the name bound here
from .modmath import mod_inverse  # noqa: F401
from .params import SHARED_SECRET_BYTES


class _KemBlocks(NamedTuple):
    blocks: tuple


class KemCiphertext(_KemBlocks):
    """A ciphertext's blocks, as a value tuple.

    The constructor rejects an empty ciphertext (ValueError); encaps and
    deserialize_ct build through _make, as their block_count is at least 1.
    decaps and serialize_ct reject any other count than the profile's.
    """

    __slots__ = ()

    def __new__(cls, blocks):
        if not blocks:
            raise ValueError("at least one block required")
        return super().__new__(cls, blocks)


def _draw_linear_blocks(params, rng):
    """(x, noise) per block for factor_degree 1, from one draw per ciphertext.

    One below_many gives every block's secret and noise, read in order:
    x, then one noise value per noise variable.  An all-zero noise vector
    takes the next noise_vars values instead, and each such redraw
    extends the draw by noise_vars values at its end, so the whole
    ciphertext reads exactly the values, and the bytes, of drawing each
    block and each redraw separately.
    """
    p, m = params.prime, params.noise_vars
    values = rng.below_many(p, params.block_count * (1 + m))
    draws, at = [], 0
    for _ in range(params.block_count):
        x, noise = values[at], values[at + 1 : at + 1 + m]
        at += 1 + m
        while not any(noise):
            values += rng.below_many(p, m)
            noise = values[at : at + m]
            at += m
        draws.append((x, noise))
    return draws


def _sample_block(params, rng):
    """((x, noise), payload) for one factor_degree 2 block.

    A payload is drawn until it formats, then the noise, which is redrawn
    whole while it is all zero.
    """
    p, m = params.prime, params.noise_vars
    while True:
        payload = rng.bits(params.payload_bits)
        try:
            x = format_plaintext(payload, params)
            break
        except PayloadTooLarge:
            continue
    noise = rng.below_many(p, m)
    while not any(noise):
        noise = rng.below_many(p, m)
    return (x, noise), payload


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

    The draw order is the wire contract.  For factor_degree 1, one
    below_many(p, block_count * (1 + noise_vars)) gives each block's
    secret, then its noise values, block by block; an all-zero noise
    vector takes the next noise_vars values, and one further below_many
    per redraw tops the draw up (see _draw_linear_blocks).  For
    factor_degree 2, each block draws a payload, redrawn until it
    formats, then its noise, redrawn whole while it is all zero.  Either
    way the values and bytes are those of drawing block by block.
    block.encrypt_blocks then encrypts the whole ciphertext.  Returns
    (KemCiphertext, shared secret bytes).
    """
    if params.factor_degree == 1:
        draws = _draw_linear_blocks(params, rng)
        payloads = [x for x, _ in draws]
    else:
        draws, payloads = zip(*[_sample_block(params, rng) for _ in range(params.block_count)])
    blocks = encrypt_blocks(pk, params, draws)
    return KemCiphertext._make((blocks,)), _pack_payloads(payloads, params)


def _check_block_count(ct, params):
    if len(ct.blocks) != params.block_count:
        raise ValueError(
            f"ciphertext has {len(ct.blocks)} blocks, the profile {params.block_count}"
        )


def decaps(sk, params, ct):
    """Recover the shared secret; a block error is raised as DecapsFailure.

    block.decrypt_blocks takes the whole ciphertext: one modular
    inversion for all of its blocks, whatever the factor degree, and one
    square root per degree-2 block.  The earliest failing block is
    reported, with its index and cause.  Raises ValueError for a
    ciphertext whose block count is not the profile's.
    """
    _check_block_count(ct, params)
    return _pack_payloads(decrypt_blocks(sk, params, ct.blocks), params)


# -- wire formats


def _pack(*runs):
    """Each run is (values, width): every value little-endian at its width."""
    return b"".join([v.to_bytes(w, "little") for values, w in runs for v in values])


def _unpack(data, what, *runs):
    """Inverse of _pack for (count, width) runs; the one length check."""
    size = sum(count * width for count, width in runs)
    if len(data) != size:
        raise MalformedEncoding(f"{what} must be {size} bytes, got {len(data)}")
    values, at, from_bytes = [], 0, int.from_bytes
    for count, width in runs:
        values += [from_bytes(data[i : i + width], "little")
                   for i in range(at, at + count * width, width)]
        at += count * width
    return values


def serialize_pk(pk, params):
    """Both matrices row-major (row index outer, column inner), map 1 then map 2."""
    return _pack((chain.from_iterable(pk.p1 + pk.p2), params.coeff_bytes))


def deserialize_pk(data, params):
    """Strict inverse of serialize_pk; the flat entries are checked and stacked in one pass."""
    n, cols = params.message_degree + 1, params.noise_vars
    entries = _unpack(data, "public key", (2 * n * cols, params.coeff_bytes))
    rows = [tuple(entries[i : i + cols]) for i in range(0, 2 * n * cols, cols)]
    pk = PublicKey(tuple(rows[:n]), tuple(rows[n:]))
    try:
        pk.stacked(params, entries)
    except ValueError as err:
        raise MalformedEncoding(f"public key: {err}") from err
    return pk


def serialize_sk(sk, params):
    """Modulus, r1, r2 at coefficient width, then f1 and f2 ascending, 8 bytes each."""
    return _pack(((sk.modulus, sk.r1, sk.r2), params.coeff_bytes), (sk.f1 + sk.f2, 8))


def deserialize_sk(data, params):
    """Strict inverse of serialize_sk; block.private_key checks the values."""
    k = params.factor_degree + 1
    runs = (3, params.coeff_bytes), (2 * k, 8)
    modulus, r1, r2, *coeffs = _unpack(data, "secret key", *runs)
    try:
        return private_key(params, modulus, r1, r2, coeffs[:k], coeffs[k:])
    except (ValueError, NotCoprime) as err:
        raise MalformedEncoding(f"secret key: {err}") from err


def serialize_ct(ct, params):
    """Blocks in order, (value1, value2) per block, value_bytes each.

    Raises ValueError for a ciphertext whose block count is not the
    profile's, which deserialize_ct would reject.
    """
    _check_block_count(ct, params)
    return _pack((chain.from_iterable(ct.blocks), params.value_bytes))


def deserialize_ct(data, params):
    """Strict inverse of serialize_ct, and the one check of a parsed value.

    Every value must lie below 2**value_bits, at most 2**256, which is
    stricter than the capacity contract, and from_bytes never gives a
    negative; so the blocks are built unchecked.
    """
    values = _unpack(data, "ciphertext", (2 * params.block_count, params.value_bytes))
    if max(values) >= 1 << params.value_bits:
        raise MalformedEncoding("ciphertext value exceeds its width bound")
    blocks = map(BlockCiphertext._make, zip(values[::2], values[1::2]))
    return KemCiphertext._make((tuple(blocks),))
