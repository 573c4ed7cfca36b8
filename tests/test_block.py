import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hppk import fhe
from hppk.block import (
    PrivateKey,
    PublicKey,
    build_plain_central_map,
    crc8,
    decrypt_block,
    encrypt_block,
    extract_payload,
    format_plaintext,
    keygen,
    keypair_from_values,
    monomial_table,
    verify_flag,
)
from hppk.errors import AllZeroNoise, CapacityExceeded, NoValidRoot, ZeroDenominator
from hppk.modmath import mod_inverse
from hppk.params import DEFAULT_PRIME_64, PARAMETER_SETS, ParameterSet
from hppk.rng import DeterministicStream

from stub_rng import StubRng

TOY_B = ((8, 5), (7, 11))

# stub draws replaying the toy private key through keygen:
# ring bits, r1, r2, f1, f2, base row-major
TOY_KEYGEN_DRAWS = [6798 - 4096, 4267, 6475, 4, 9, 10, 7, 8, 5, 7, 11]

TOY_P1 = ((5208, 2677), (4413, 6149), (6149, 146))
TOY_P2 = ((6152, 3245), (3891, 6152), (3568, 2922))


def test_build_plain_central_map_toy():
    assert build_plain_central_map(TOY_B, (4, 9), (10, 7), 13) == (
        ((6, 7), (9, 11), (11, 8)),
        ((2, 11), (9, 2), (10, 12)),
    )


@st.composite
def _convolution_inputs(draw):
    p = draw(st.sampled_from([13, 251, 65521, (1 << 61) - 1, (1 << 64) - 59]))
    base_degree, factor_degree = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    noise_vars = draw(st.integers(2, 5))
    coeff = st.integers(0, p - 1)
    row = st.lists(coeff, min_size=noise_vars, max_size=noise_vars)
    base = draw(st.lists(row, min_size=base_degree + 1, max_size=base_degree + 1))
    factor = st.lists(coeff, min_size=factor_degree + 1, max_size=factor_degree + 1)
    return base, draw(factor), draw(factor), p


def _product_reference(base, factor, p):
    """b*f mod p, one product at a time."""
    expected = [[0] * len(base[0]) for _ in range(len(base) + len(factor) - 1)]
    for s, row in enumerate(base):
        for t, f in enumerate(factor):
            for j, c in enumerate(row):
                expected[s + t][j] = (expected[s + t][j] + c * f) % p
    return tuple(map(tuple, expected))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_convolution_inputs())
def test_build_plain_central_map_matches_a_per_product_reference(inputs):
    base, f1, f2, p = inputs
    assert build_plain_central_map(base, f1, f2, p) == (
        _product_reference(base, f1, p), _product_reference(base, f2, p)
    )


def test_build_plain_central_map_identity_factor():
    doubled = tuple(tuple(2 * c % 13 for c in row) for row in TOY_B)
    assert build_plain_central_map(TOY_B, (1,), (2,), 13) == (TOY_B, doubled)


def test_build_plain_central_map_widest_plain_sum():
    # every coefficient p - 1: a middle row of a degree-3 base times a
    # degree-2 factor sums 3 products of (p - 1)**2, which needs all
    # 2*64 + bit_length(3) = 130 bits of the packed shift
    p = DEFAULT_PRIME_64
    base = [[p - 1] * 3 for _ in range(4)]
    factor = (p - 1,) * 3
    assert 3 * (p - 1) ** 2 >= 1 << 129
    maps = build_plain_central_map(base, factor, factor, p)
    assert maps == (_product_reference(base, factor, p),) * 2
    assert maps[0][2] == (3,) * 3


def test_keygen_replays_toy_vector(toy_params):
    sk, pk = keygen(toy_params, StubRng(TOY_KEYGEN_DRAWS))
    assert (sk.modulus, sk.r1, sk.r2) == (6798, 4267, 6475)
    assert (sk.f1, sk.f2) == ((4, 9), (10, 7))
    assert pk.p1 == TOY_P1
    assert pk.p2 == TOY_P2


def test_keygen_shapes_level1():
    params = PARAMETER_SETS["level1-nb1"]
    sk, pk = keygen(params, DeterministicStream(b"\x01" * 32))
    assert pk.shape == (3, 3)  # 2 * 3 * 3 = 18 entries across both maps
    assert all(c < 1 << 136 for row in pk.p1 + pk.p2 for c in row)
    assert sk.modulus.bit_length() == 136


def test_keygen_resamples_proportional_factors(toy_params):
    # first f2 draw is 2*f1 mod 13, which must be rejected
    draws = [6798 - 4096, 4267, 6475, 4, 9, 8, 5, 10, 7, 8, 5, 7, 11]
    sk, _ = keygen(toy_params, StubRng(draws))
    assert sk.f2 == (10, 7)


def test_keygen_redraws_zero_leading_coefficient(toy_params):
    draws = [6798 - 4096, 4267, 6475, 4, 0, 9, 10, 7, 8, 5, 7, 11]
    sk, _ = keygen(toy_params, StubRng(draws))
    assert sk.f1 == (4, 9)


def test_keygen_redraws_zero_base_matrix(toy_params):
    # a zero base would publish two zero maps that no block decrypts under
    draws = [6798 - 4096, 4267, 6475, 4, 9, 10, 7, 0, 0, 0, 0, 8, 5, 7, 11]
    _, pk = keygen(toy_params, StubRng(draws))
    assert (pk.p1, pk.p2) == (TOY_P1, TOY_P2)


def test_monomial_table_toy(toy_params):
    # row-major over the 3 x 2 coefficient positions
    assert monomial_table(toy_params, 8, (3, 6)) == [3, 6, 11, 9, 10, 7]


def test_encrypt_block_toy(toy_params, toy_keypair):
    _, pk = toy_keypair
    ct = encrypt_block(pk, toy_params, 8, (3, 6))
    assert (ct.value1, ct.value2) == (198082, 192229)


def test_encrypt_block_rejects_all_zero_noise(toy_params, toy_keypair):
    _, pk = toy_keypair
    with pytest.raises(AllZeroNoise):
        encrypt_block(pk, toy_params, 8, (0, 0))


def test_encrypt_block_validates_ranges(toy_params, toy_keypair):
    _, pk = toy_keypair
    with pytest.raises(ValueError):
        encrypt_block(pk, toy_params, 13, (3, 6))
    with pytest.raises(ValueError):
        encrypt_block(pk, toy_params, 8, (3,))


# ring_bits 184 puts value_bits at 256, the widest admissible profile
RING184 = ParameterSet(
    prime=DEFAULT_PRIME_64, base_degree=1, factor_degree=1, noise_vars=3,
    ring_bits=184,
)


def _filled(params, value):
    return ((value,) * params.noise_vars,) * (params.message_degree + 1)


@pytest.mark.parametrize("params", [RING184, PARAMETER_SETS["toy"]],
                         ids=["ring184", "toy"])
def test_stacked_evaluation_splits_at_the_proof_width(params):
    # every coefficient and every monomial value at its maximum: the
    # largest sum the ring-size proof has to cover
    p, w = params.prime, params.value_bits
    top = _filled(params, (1 << params.ring_bits) - 1)
    table = [p - 1] * params.term_count
    flat = [c for row in top for c in row]
    v1 = fhe.eval_cipher_poly(flat, table)
    assert v1 < 1 << w
    v = fhe.eval_cipher_poly(fhe.stack(flat, flat, w), table)
    assert (v & ((1 << w) - 1), v >> w) == (v1, v1)
    # x = 1 and noise p - 1 make every monomial value p - 1
    ct = encrypt_block(PublicKey(top, top), params, 1, [p - 1] * params.noise_vars)
    assert (ct.value1, ct.value2) == (v1, v1)


@pytest.mark.parametrize("params", [RING184, PARAMETER_SETS["toy"]],
                         ids=["ring184", "toy"])
@pytest.mark.parametrize("bad, which", [
    ("wide", 1), ("wide", 2), ("negative", 1), ("negative", 2),
])
def test_encrypt_block_rejects_entries_outside_the_ring(params, bad, which):
    good = _filled(params, 1)
    entry = 1 << params.ring_bits if bad == "wide" else -1
    rows = [list(row) for row in good]
    rows[-1][-1] = entry
    odd = tuple(tuple(row) for row in rows)
    pk = PublicKey(odd, good) if which == 1 else PublicKey(good, odd)
    with pytest.raises(ValueError):
        encrypt_block(pk, params, 1, [1] * params.noise_vars)


def test_decrypt_block_toy(toy_params, toy_keypair, toy_block):
    sk, _ = toy_keypair
    # intermediate residues and the factor ratio, step by step
    c1 = fhe.decrypt_value(sk.key1, toy_block.value1, 13)
    c2 = fhe.decrypt_value(sk.key2, toy_block.value2, 13)
    assert (c1, c2) == (8, 9)
    assert c1 * mod_inverse(c2, 13) % 13 == 11
    assert decrypt_block(sk, toy_params, toy_block) == 8


def test_decrypt_same_secret_any_noise(toy_params, toy_keypair):
    sk, pk = toy_keypair
    rng = random.Random(1)
    seen = set()
    zero_evals = 0
    for _ in range(200):
        noise = (rng.randrange(13), rng.randrange(13))
        if noise == (0, 0):
            continue
        ct = encrypt_block(pk, toy_params, 8, noise)
        seen.add((ct.value1, ct.value2))
        try:
            assert decrypt_block(sk, toy_params, ct) == 8
        except ZeroDenominator:
            # base polynomial hit 0 mod p: probability 1/p per draw, so
            # visible at p = 13 and negligible at the production prime
            zero_evals += 1
    assert len(seen) > 100
    assert zero_evals < 40


def test_decrypt_zero_denominator(toy_params, toy_keypair, toy_block):
    sk, _ = toy_keypair
    forged = type(toy_block)(toy_block.value1, 0)
    with pytest.raises(ZeroDenominator):
        decrypt_block(sk, toy_params, forged)


def test_factorization_identity_random_keys():
    params = PARAMETER_SETS["level1-nb2"]
    rng = DeterministicStream(b"\x02" * 32)
    p = params.prime
    sk, pk = keygen(params, rng)
    plain1 = fhe.decrypt_coeffs(sk.key1, pk.p1, p)
    plain2 = fhe.decrypt_coeffs(sk.key2, pk.p2, p)
    check = random.Random(2)
    for _ in range(100):
        x = check.randrange(p)
        noise = [check.randrange(p) for _ in range(params.noise_vars)]
        powers = [pow(x, i, p) for i in range(params.message_degree + 1)]
        v1 = sum(
            plain1[i][j] * powers[i] * noise[j]
            for i in range(len(plain1))
            for j in range(params.noise_vars)
        ) % p
        v2 = sum(
            plain2[i][j] * powers[i] * noise[j]
            for i in range(len(plain2))
            for j in range(params.noise_vars)
        ) % p
        f1x = sum(c * powers[i] for i, c in enumerate(sk.f1)) % p
        f2x = sum(c * powers[i] for i, c in enumerate(sk.f2)) % p
        # p1 = b*f1 and p2 = b*f2 pointwise: cross-multiplying removes b
        assert v1 * f2x % p == v2 * f1x % p


def test_ratio_identity_on_ciphertexts():
    params = PARAMETER_SETS["level1-nb1"]
    rng = DeterministicStream(b"\x03" * 32)
    sk, pk = keygen(params, rng)
    p = params.prime
    check = random.Random(3)
    for _ in range(100):
        x = check.randrange(p)
        noise = [check.randrange(p) for _ in range(params.noise_vars)]
        if all(v == 0 for v in noise):
            continue
        ct = encrypt_block(pk, params, x, noise)
        c1 = fhe.decrypt_value(sk.key1, ct.value1, p)
        c2 = fhe.decrypt_value(sk.key2, ct.value2, p)
        f1x = sum(c * pow(x, i, p) for i, c in enumerate(sk.f1)) % p
        f2x = sum(c * pow(x, i, p) for i, c in enumerate(sk.f2)) % p
        assert c1 * f2x % p == c2 * f1x % p


def test_ciphertext_bound():
    params = PARAMETER_SETS["level5-nb2"]
    rng = DeterministicStream(b"\x04" * 32)
    sk, pk = keygen(params, rng)
    bound = params.term_count * (1 << params.ring_bits) * params.prime
    check = random.Random(4)
    for _ in range(50):
        x = check.randrange(params.prime)
        noise = [check.randrange(1, params.prime) for _ in range(params.noise_vars)]
        ct = encrypt_block(pk, params, x, noise)
        assert ct.value1 < bound and ct.value2 < bound


# -- CRC flag plumbing (degree-2 profiles)

DEG2 = ParameterSet(
    prime=(1 << 61) - 1, base_degree=1, factor_degree=2, noise_vars=2,
    label="deg2-test",
)


def test_crc8_known_check_value():
    assert crc8(b"123456789") == 0xF4  # standard check input for this variant
    assert crc8(b"\x00") == 0


def test_crc8_matches_bitwise_reference():
    def bitwise(data):
        crc = 0
        for byte in data:
            crc ^= byte
            for _ in range(8):
                crc = ((crc << 1) ^ 0x07) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
        return crc

    rng = random.Random(10)
    for n in range(40):
        data = rng.randbytes(n)
        assert crc8(data) == bitwise(data)


def test_format_plaintext_structure():
    assert format_plaintext(0, DEG2) == crc8(b"\x00" * 7) << DEG2.payload_bits
    v = 0x00DEAD_BEEF_1234
    formatted = format_plaintext(v, DEG2)
    assert extract_payload(formatted, DEG2) == v
    assert verify_flag(formatted, DEG2)


def test_format_plaintext_roundtrip_many():
    rng = random.Random(5)
    for _ in range(10_000):
        v = rng.getrandbits(DEG2.payload_bits)
        try:
            formatted = format_plaintext(v, DEG2)
        except Exception:
            continue  # formatted value collided with the prime bound
        assert extract_payload(formatted, DEG2) == v
        assert verify_flag(formatted, DEG2)


def test_single_bit_flips_always_detected():
    rng = random.Random(6)
    for _ in range(1000):
        v = rng.getrandbits(DEG2.payload_bits)
        formatted = format_plaintext(v, DEG2)
        for bit in range(DEG2.prime_bits):
            corrupted = formatted ^ (1 << bit)
            assert not verify_flag(corrupted, DEG2)


def test_format_plaintext_payload_too_large():
    from hppk.errors import PayloadTooLarge

    with pytest.raises(PayloadTooLarge):
        format_plaintext(1 << DEG2.payload_bits, DEG2)


def test_degree2_block_roundtrip():
    rng = DeterministicStream(b"\x05" * 32)
    sk, pk = keygen(DEG2, rng)
    check = random.Random(7)
    hits = 0
    ambiguous = 0
    while hits < 200:
        payload = check.getrandbits(DEG2.payload_bits)
        try:
            x = format_plaintext(payload, DEG2)
        except Exception:
            continue
        noise = [check.randrange(1, DEG2.prime) for _ in range(DEG2.noise_vars)]
        ct = encrypt_block(pk, DEG2, x, noise)
        try:
            assert decrypt_block(sk, DEG2, ct) == payload
        except NoValidRoot:
            # the second quadratic root verifies by luck about once in 2^8
            ambiguous += 1
        hits += 1
    assert ambiguous <= 3


def test_degree2_garbage_has_no_valid_root():
    rng = DeterministicStream(b"\x06" * 32)
    sk, pk = keygen(DEG2, rng)
    # a random x that is NOT flag-formatted decrypts to no verified root
    check = random.Random(8)
    rejections = 0
    for _ in range(50):
        x = check.randrange(DEG2.prime)
        if verify_flag(x, DEG2):
            continue
        noise = [check.randrange(1, DEG2.prime) for _ in range(DEG2.noise_vars)]
        ct = encrypt_block(pk, DEG2, x, noise)
        try:
            decrypt_block(sk, DEG2, ct)
        except NoValidRoot:
            rejections += 1
    assert rejections > 40  # the stray root verifying by luck is a 1/256 event


def test_degree2_stray_root_rate():
    # an honest block's equation has the true root and a stray one; the
    # stray root's top 8 bits are near uniform, so its flag matches the
    # CRC-8 of its payload 1 time in 2^8 and the block raises NoValidRoot.
    # The bound, 4 sigma of the binomial at the pinned 20,480 blocks, was
    # fixed before the first run; it excludes the rates 2^-9 and 2^-7.
    blocks = ambiguous = 0
    for k in range(10):
        rng = DeterministicStream(f"deg2-stray-root-{k}".encode())
        sk, pk = keygen(DEG2, rng)
        for _ in range(2048):
            payload = rng.bits(DEG2.payload_bits)
            noise = rng.below_many(DEG2.prime, DEG2.noise_vars)
            ct = encrypt_block(pk, DEG2, format_plaintext(payload, DEG2), noise)
            blocks += 1
            try:
                assert decrypt_block(sk, DEG2, ct) == payload
            except NoValidRoot:
                ambiguous += 1
    predicted = 2**-8
    sigma = (blocks * predicted * (1 - predicted)) ** 0.5
    assert blocks == 20_480
    assert abs(ambiguous - blocks * predicted) < 4 * sigma


def test_degree2_vanishing_quadratic_is_solved_by_its_linear_root():
    # f1 - f2 = x - x0: every block that encrypts x0 unmasks to c1 = c2,
    # so the quadratic coefficient c2*f1[2] - c1*f2[2] of its equation
    # vanishes and x0 is the root of the linear rest
    p = DEG2.prime
    payload = 0x0012_3456_789A_BCDE
    x0 = format_plaintext(payload, DEG2)
    ring, _ = keygen(DEG2, DeterministicStream(b"deg2-linear/ring"))
    sk, pk = keypair_from_values(
        DEG2, ring.modulus, ring.r1, ring.r2, (5, 7, 1), ((5 + x0) % p, 6, 1), TOY_B
    )
    rng = random.Random(11)
    for _ in range(20):
        noise = [rng.randrange(1, p) for _ in range(DEG2.noise_vars)]
        ct = encrypt_block(pk, DEG2, x0, noise)
        c1 = fhe.decrypt_value(sk.key1, ct.value1, p)
        c2 = fhe.decrypt_value(sk.key2, ct.value2, p)
        assert c1 == c2 != 0
        assert (c2 * sk.f1[2] - c1 * sk.f2[2]) % p == 0
        assert decrypt_block(sk, DEG2, ct) == payload


def test_keypair_from_values_rejects_proportional(toy_params):
    with pytest.raises(ValueError):
        keypair_from_values(toy_params, 6798, 4267, 6475, (4, 9), (8, 5), TOY_B)


@pytest.mark.parametrize("base", [((0, 0), (0, 0)), ((13, 0), (0, 26))])
def test_keypair_from_values_rejects_zero_base(toy_params, base):
    with pytest.raises(ValueError, match="zero mod p"):
        keypair_from_values(toy_params, 6798, 4267, 6475, (4, 9), (10, 7), base)


@pytest.mark.parametrize("modulus, error", [
    (6798.0, TypeError),
    (1 << 256, CapacityExceeded),
], ids=["float", "2^256"])
def test_keypair_from_values_rejects_moduli_that_are_not_wide_ints(
    toy_params, modulus, error
):
    with pytest.raises(error):
        keypair_from_values(toy_params, modulus, 4267, 6475, (4, 9), (10, 7), TOY_B)


@pytest.mark.parametrize("shift", [13, -13, 13 * 3**70], ids=["p", "minus-p", "wide"])
def test_keypair_from_values_reduces_its_base_mod_p(toy_params, toy_keypair, shift):
    # a base entry moved by a multiple of p, to p or more or below 0,
    # gives the same key pair as the base in [0, p)
    base = [list(row) for row in TOY_B]
    base[0][0] += shift
    assert base[0][0] >= 13 or base[0][0] < 0
    assert keypair_from_values(
        toy_params, 6798, 4267, 6475, (4, 9), (10, 7), base
    ) == toy_keypair


def test_private_key_rejects_keys_over_two_moduli():
    # 6799 = 13 * 523 and 4267 = 17 * 251: one unit, valid under either modulus
    key1, key2 = fhe.HomomorphicKey(6798, 4267), fhe.HomomorphicKey(6799, 4267)
    PrivateKey(key1, key1, (4, 9), (10, 7))
    with pytest.raises(ValueError, match="one hidden ring"):
        PrivateKey(key1, key2, (4, 9), (10, 7))
