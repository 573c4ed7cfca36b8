import random
import sys

import pytest

from hppk import fhe
from hppk.errors import CapacityExceeded, NotCoprime
from hppk.modmath import mod_inverse
from hppk.rng import DeterministicStream

from stub_rng import StubRng


def _random_prime(rng, bits):
    from hppk.modmath import is_prime_64

    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime_64(p):
            return p


def test_ring_gen_toy_value():
    assert fhe.ring_gen(13, StubRng([6798 - 4096])) == 6798


def test_ring_gen_exact_bit_length():
    rng = DeterministicStream(b"ring-bits")
    for _ in range(1000):
        assert fhe.ring_gen(136, rng).bit_length() == 136


def test_ring_gen_rejects_tiny_widths():
    with pytest.raises(ValueError):
        fhe.ring_gen(1, StubRng([0]))


def test_he_keygen_toy_keys():
    key1 = fhe.he_keygen(6798, StubRng([4267]))
    assert (key1.modulus, key1.mult, key1.mult_inv) == (6798, 4267, 6379)
    key2 = fhe.he_keygen(6798, StubRng([6475]))
    assert key2.mult == 6475
    assert key2.mult * key2.mult_inv % 6798 == 1


def test_homomorphic_key_derives_its_inverse():
    key = fhe.HomomorphicKey(6798, 6475)
    assert key.mult_inv == 5893
    assert key == fhe.HomomorphicKey(6798, 6475)
    assert hash(key) == hash(fhe.HomomorphicKey(6798, 6475))
    assert "mult_inv" not in repr(key)
    with pytest.raises(TypeError):
        fhe.HomomorphicKey(6798, 6475, 5893)


def test_homomorphic_key_inverts_once_on_first_use(monkeypatch):
    calls = []

    def counted(a, m):
        calls.append(m)
        return mod_inverse(a, m)

    # a lone key inverts through modmath.batch_inverse, so every hppk module
    # that binds mod_inverse counts it
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hppk" and getattr(module, "mod_inverse", None) is mod_inverse:
            monkeypatch.setattr(module, "mod_inverse", counted)
    rng = DeterministicStream(b"lazy-inverse")
    modulus = fhe.ring_gen(136, rng)
    key = fhe.he_keygen(modulus, rng)
    assert calls == []
    assert key.mult_inv == pow(key.mult, -1, modulus)
    assert fhe.decrypt_value(key, fhe.encrypt_value(key, 1234), 1 << 64) == 1234
    assert calls == [modulus]
    assert key == fhe.HomomorphicKey(modulus, key.mult)


@pytest.mark.parametrize("mult", [0, 6798, 6799, -1])
def test_homomorphic_key_rejects_multipliers_outside_the_ring(mult):
    with pytest.raises(ValueError):
        fhe.HomomorphicKey(6798, mult)


@pytest.mark.parametrize("mult", [2, 33, 103, 6798 - 103])
def test_homomorphic_key_rejects_non_units(mult):
    # 6798 = 2 * 3 * 11 * 103
    with pytest.raises(NotCoprime):
        fhe.HomomorphicKey(6798, mult)


@pytest.mark.parametrize("modulus, error", [
    (6798.0, TypeError),
    (True, TypeError),
    (1 << 256, CapacityExceeded),
    (-6798, CapacityExceeded),
    (0, ValueError),
    (1, ValueError),
], ids=["float", "bool", "2^256", "negative", "zero", "one"])
def test_homomorphic_key_rejects_bad_moduli(modulus, error):
    with pytest.raises(error):
        fhe.HomomorphicKey(modulus, 1)


def test_he_keygen_rejects_non_units():
    # gcd(2, 8) = 2, so 2 is skipped, and so is a zero draw
    for draws in ([2, 5], [0, 2, 5]):
        assert fhe.he_keygen(8, StubRng(draws)).mult == 5


# the toy key's plain map b*f1, and both maps masked under R1 = 4267, R2 = 6475
TOY_PLAIN1 = ((6, 7), (9, 11), (11, 8))
TOY_CIPHER1 = ((5208, 2677), (4413, 6149), (6149, 146))
TOY_CIPHER2 = ((6152, 3245), (3891, 6152), (3568, 2922))
# monomial values x**i * noise_j mod 13 at x = 8, noise = (3, 6), row-major
TOY_TABLE = (3, 6, 11, 9, 10, 7)


def _flat(rows):
    """A coefficient matrix row-major, as eval_cipher_poly reads it."""
    return [c for row in rows for c in row]


def test_encrypt_coeffs_toy_values():
    key = fhe.HomomorphicKey(6798, 4267)
    assert fhe.encrypt_value(key, 6) == 5208
    assert fhe.encrypt_value(key, 9) == 4413
    assert fhe.encrypt_value(key, 0) == 0
    assert fhe.encrypt_coeffs(key, TOY_PLAIN1) == TOY_CIPHER1
    assert fhe.decrypt_coeffs(key, TOY_CIPHER1, 13) == TOY_PLAIN1


def test_eval_cipher_poly_toy_values():
    assert fhe.eval_cipher_poly(_flat(TOY_CIPHER1), TOY_TABLE) == 198082
    assert fhe.eval_cipher_poly(_flat(TOY_CIPHER1), (0,) * 6) == 0
    assert fhe.eval_cipher_poly(_flat(TOY_CIPHER2), TOY_TABLE) == 192229


def test_decrypt_value_toy():
    key1 = fhe.HomomorphicKey(6798, 4267)
    # 6*3 + 9*11 + 11*10 + 7*6 + 11*9 + 8*7
    assert fhe.eval_cipher_poly(_flat(TOY_PLAIN1), TOY_TABLE) == 424
    # reducing by S itself leaves the unmasked plain integer sum
    assert fhe.decrypt_value(key1, 198082, 6798) == 424
    assert fhe.decrypt_value(key1, 198082, 13) == 8
    key2 = fhe.HomomorphicKey(6798, 6475)
    assert fhe.decrypt_value(key2, 192229, 13) == 9
    assert fhe.decrypt_value(key1, 0, 6798) == 0
    assert fhe.decrypt_value(key1, 0, 13) == 0


def _monomial_row(monomials, assignment, p):
    """Each monomial's value mod p, in exponent-vector order."""
    row = []
    for exponents in monomials:
        v = 1
        for value, e in zip(assignment, exponents):
            v = v * pow(value, e, p) % p
        row.append(v)
    return row


def _random_roundtrip(rng, p, monomials, nvars):
    term_count = len(monomials)
    ring_bits = 2 * p.bit_length() + term_count.bit_length() + 1
    key = fhe.he_keygen(fhe.ring_gen(ring_bits, _wrap(rng)), _wrap(rng))
    rows = (tuple(rng.randrange(p) for _ in monomials),)
    assignment = tuple(rng.randrange(p) for _ in range(nvars))
    table = _monomial_row(monomials, assignment, p)
    cipher = fhe.encrypt_coeffs(key, rows)
    assert fhe.decrypt_coeffs(key, cipher, p) == rows
    value = fhe.eval_cipher_poly(cipher[0], table)
    assert value < term_count * key.modulus * p
    assert fhe.decrypt_value(key, value, p) == fhe.eval_cipher_poly(rows[0], table) % p


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
        modulus = fhe.ring_gen(rng.randint(64, 200), _wrap(rng))
        key = fhe.he_keygen(modulus, _wrap(rng))
        p = _random_prime(rng, rng.choice((8, 32, 64)))
        a, b = rng.randrange(p), rng.randrange(p)
        lhs = fhe.encrypt_value(key, a + b)
        rhs = (fhe.encrypt_value(key, a) + fhe.encrypt_value(key, b)) % modulus
        assert lhs == rhs


def test_scalar_multiplicative_homomorphism():
    rng = random.Random(0x5CA1A2)
    for _ in range(2000):
        modulus = fhe.ring_gen(rng.randint(64, 200), _wrap(rng))
        key = fhe.he_keygen(modulus, _wrap(rng))
        p = _random_prime(rng, rng.choice((8, 32, 64)))
        a = rng.randrange(p)
        scalar = rng.randrange(p)
        cipher = fhe.encrypt_coeffs(key, ((a,),))
        assert (
            fhe.eval_cipher_poly(cipher[0], (scalar,))
            == fhe.encrypt_value(key, a) * scalar
        )
