import random

import pytest

from hppk import fhe
from hppk.errors import NotCoprime
from hppk.rng import DeterministicStream

from stub_rng import StubRng


def _random_prime(rng, bits):
    from hppk.modmath import is_prime_64

    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime_64(p):
            return p


def test_ring_gen_toy_value():
    ring = fhe.ring_gen(13, StubRng([6798 - 4096]))
    assert ring.modulus == 6798
    assert ring.bit_length == 13


def test_ring_gen_exact_bit_length():
    rng = DeterministicStream(b"ring-bits")
    for _ in range(1000):
        assert fhe.ring_gen(136, rng).bit_length == 136


def test_ring_gen_rejects_tiny_widths():
    with pytest.raises(ValueError):
        fhe.ring_gen(1, StubRng([0]))


def test_he_keygen_toy_keys():
    ring = fhe.HiddenRing(6798)
    key1 = fhe.he_keygen(ring, StubRng([4267]))
    assert (key1.mult, key1.mult_inv) == (4267, 6379)
    key2 = fhe.he_keygen(ring, StubRng([6475]))
    assert key2.mult == 6475
    assert key2.mult * key2.mult_inv % 6798 == 1


def test_homomorphic_key_derives_its_inverse():
    ring = fhe.HiddenRing(6798)
    key = fhe.HomomorphicKey(ring, 6475)
    assert key.mult_inv == 5893
    assert key == fhe.HomomorphicKey(fhe.HiddenRing(6798), 6475)
    assert hash(key) == hash(fhe.HomomorphicKey(ring, 6475))
    assert "mult_inv" not in repr(key)
    with pytest.raises(TypeError):
        fhe.HomomorphicKey(ring, 6475, 5893)


def test_homomorphic_key_inverts_once_on_first_use(monkeypatch):
    calls = []
    real = fhe.mod_inverse

    def counted(a, m):
        calls.append(m)
        return real(a, m)

    monkeypatch.setattr(fhe, "mod_inverse", counted)
    rng = DeterministicStream(b"lazy-inverse")
    ring = fhe.ring_gen(136, rng)
    key = fhe.he_keygen(ring, rng)
    assert calls == []
    assert key.mult_inv == pow(key.mult, -1, ring.modulus)
    assert fhe.decrypt_value(key, fhe.encrypt_value(key, 1234), 1 << 64) == 1234
    assert calls == [ring.modulus]
    assert key == fhe.HomomorphicKey(ring, key.mult)


@pytest.mark.parametrize("mult", [0, 6798, 6799, -1])
def test_homomorphic_key_rejects_multipliers_outside_the_ring(mult):
    with pytest.raises(ValueError):
        fhe.HomomorphicKey(fhe.HiddenRing(6798), mult)


@pytest.mark.parametrize("mult", [2, 33, 103, 6798 - 103])
def test_homomorphic_key_rejects_non_units(mult):
    # 6798 = 2 * 3 * 11 * 103
    with pytest.raises(NotCoprime):
        fhe.HomomorphicKey(fhe.HiddenRing(6798), mult)


def test_he_keygen_rejects_non_units():
    ring = fhe.HiddenRing(8)
    key = fhe.he_keygen(ring, StubRng([2, 5]))  # gcd(2, 8) = 2, so 2 is skipped
    assert key.mult == 5


# the toy key's plain map b*f1, and both maps masked under R1 = 4267, R2 = 6475
TOY_PLAIN1 = ((6, 7), (9, 11), (11, 8))
TOY_CIPHER1 = ((5208, 2677), (4413, 6149), (6149, 146))
TOY_CIPHER2 = ((6152, 3245), (3891, 6152), (3568, 2922))
# monomial values x**i * noise_j mod 13 at x = 8, noise = (3, 6)
TOY_TABLE = ((3, 6), (11, 9), (10, 7))


def test_encrypt_coeffs_toy_values():
    ring = fhe.HiddenRing(6798)
    key = fhe.HomomorphicKey(ring, 4267)
    assert fhe.encrypt_value(key, 6) == 5208
    assert fhe.encrypt_value(key, 9) == 4413
    assert fhe.encrypt_value(key, 0) == 0
    assert fhe.encrypt_coeffs(key, TOY_PLAIN1) == TOY_CIPHER1
    assert fhe.decrypt_coeffs(key, TOY_CIPHER1, 13) == TOY_PLAIN1


def test_eval_cipher_poly_toy_values():
    assert fhe.eval_cipher_poly(TOY_CIPHER1, TOY_TABLE) == 198082
    assert fhe.eval_cipher_poly(TOY_CIPHER1, ((0, 0),) * 3) == 0
    assert fhe.eval_cipher_poly(TOY_CIPHER2, TOY_TABLE) == 192229


def test_decrypt_value_toy():
    ring = fhe.HiddenRing(6798)
    key1 = fhe.HomomorphicKey(ring, 4267)
    # 6*3 + 9*11 + 11*10 + 7*6 + 11*9 + 8*7
    assert fhe.eval_cipher_poly(TOY_PLAIN1, TOY_TABLE) == 424
    # reducing by S itself leaves the unmasked plain integer sum
    assert fhe.decrypt_value(key1, 198082, ring.modulus) == 424
    assert fhe.decrypt_value(key1, 198082, 13) == 8
    key2 = fhe.HomomorphicKey(ring, 6475)
    assert fhe.decrypt_value(key2, 192229, 13) == 9
    assert fhe.decrypt_value(key1, 0, ring.modulus) == 0
    assert fhe.decrypt_value(key1, 0, 13) == 0


def _monomial_row(monomials, assignment, p):
    """1 x T table: each monomial's value mod p, in exponent-vector order."""
    row = []
    for exponents in monomials:
        v = 1
        for value, e in zip(assignment, exponents):
            v = v * pow(value, e, p) % p
        row.append(v)
    return (tuple(row),)


def _random_roundtrip(rng, p, monomials, nvars):
    term_count = len(monomials)
    ring_bits = 2 * p.bit_length() + term_count.bit_length() + 1
    ring = fhe.ring_gen(ring_bits, _wrap(rng))
    key = fhe.he_keygen(ring, _wrap(rng))
    rows = (tuple(rng.randrange(p) for _ in monomials),)
    assignment = tuple(rng.randrange(p) for _ in range(nvars))
    table = _monomial_row(monomials, assignment, p)
    cipher = fhe.encrypt_coeffs(key, rows)
    assert fhe.decrypt_coeffs(key, cipher, p) == rows
    value = fhe.eval_cipher_poly(cipher, table)
    assert value < term_count * ring.modulus * p
    assert fhe.decrypt_value(key, value, p) == fhe.eval_cipher_poly(rows, table) % p


class _wrap:
    """Adapt random.Random to the bits/below interface."""

    def __init__(self, rng):
        self._rng = rng

    def bits(self, k):
        return self._rng.getrandbits(k)

    def below(self, n):
        return self._rng.randrange(n)


def test_roundtrip_linear_and_quadratic_shapes():
    rng = random.Random(0xFEE1)
    for trial in range(400):
        bits = rng.choice((4, 16, 31, 64))
        p = _random_prime(rng, bits)
        m = rng.randint(2, 4)
        if trial % 2 == 0:
            monomials = tuple(
                tuple(1 if k == j else 0 for k in range(m)) for j in range(m)
            )
        else:
            monomials = tuple(
                tuple(
                    (1 if k == i else 0) + (1 if k == j else 0) for k in range(m)
                )
                for i in range(m)
                for j in range(i, m)
            )
        _random_roundtrip(rng, p, monomials, m)


def test_additive_homomorphism():
    rng = random.Random(0xADD)
    for _ in range(2000):
        ring = fhe.ring_gen(rng.randint(64, 200), _wrap(rng))
        key = fhe.he_keygen(ring, _wrap(rng))
        p = _random_prime(rng, rng.choice((8, 32, 64)))
        a, b = rng.randrange(p), rng.randrange(p)
        s = ring.modulus
        lhs = fhe.encrypt_value(key, a + b)
        rhs = (fhe.encrypt_value(key, a) + fhe.encrypt_value(key, b)) % s
        assert lhs == rhs


def test_scalar_multiplicative_homomorphism():
    rng = random.Random(0x5CA1A2)
    for _ in range(2000):
        ring = fhe.ring_gen(rng.randint(64, 200), _wrap(rng))
        key = fhe.he_keygen(ring, _wrap(rng))
        p = _random_prime(rng, rng.choice((8, 32, 64)))
        a = rng.randrange(p)
        scalar = rng.randrange(p)
        cipher = fhe.encrypt_coeffs(key, ((a,),))
        assert (
            fhe.eval_cipher_poly(cipher, ((scalar,),))
            == fhe.encrypt_value(key, a) * scalar
        )
