import itertools
import random
from math import gcd

import pytest

from hppk.errors import CapacityExceeded, DegenerateEquation, NotCoprime
from hppk.modmath import (
    WIDE_BITS,
    batch_inverse,
    ensure_wide,
    is_prime_64,
    mod_inverse,
    poly_divmod,
    poly_gcd,
    poly_mulmod,
    poly_roots,
    poly_split,
    poly_sub,
    poly_trim,
    solve_linear,
    solve_quadratic,
    sqrt_mod,
)


def test_ensure_wide_accepts_256_bit_range():
    assert ensure_wide(0) == 0
    assert ensure_wide((1 << WIDE_BITS) - 1) == (1 << WIDE_BITS) - 1
    with pytest.raises(CapacityExceeded):
        ensure_wide(1 << WIDE_BITS)
    with pytest.raises(CapacityExceeded):
        ensure_wide(-1)


def test_mod_inverse_known_values():
    assert mod_inverse(9, 13) == 3  # 9*3 = 27 = 1 (mod 13)
    assert mod_inverse(4267, 6798) == 6379
    assert 4267 * 6379 % 6798 == 1
    assert mod_inverse(6475, 6798) == 5893


def test_mod_inverse_rejects_common_factor():
    with pytest.raises(NotCoprime):
        mod_inverse(6, 9)


def test_mod_inverse_domain():
    with pytest.raises(ValueError):
        mod_inverse(0, 7)
    with pytest.raises(ValueError):
        mod_inverse(7, 7)


def test_mod_inverse_random_trials():
    rng = random.Random(0xA11CE)
    trials = 0
    while trials < 10_000:
        bits = rng.randint(64, 256)
        m = rng.getrandbits(bits) | 1 << (bits - 1)
        a = rng.randrange(1, m)
        if gcd(a, m) != 1:
            continue
        assert a * mod_inverse(a, m) % m == 1
        trials += 1


def test_batch_inverse_matches_mod_inverse():
    rng = random.Random(0xBA7C)
    p = (1 << 64) - 59
    for n in (1, 2, 5, 64):
        values = [rng.randrange(1, p) for _ in range(n)]
        assert batch_inverse(values, p) == [mod_inverse(v, p) for v in values]
    s = 6798  # composite modulus: units only
    units = [v for v in range(1, 200) if gcd(v, s) == 1]
    assert batch_inverse(units, s) == [mod_inverse(v, s) for v in units]


def test_sqrt_mod_examples():
    assert sqrt_mod(4, 13) == [2, 11]
    assert sqrt_mod(0, 13) == [0]
    assert sqrt_mod(5, 13) == []  # 5 is a non-residue mod 13


# 257 = 2**8 + 1, 7681 = 15 * 2**9 + 1 and 12289 = 3 * 2**12 + 1 take the
# Tonelli-Shanks loop through many rounds.
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 29, 41, 73, 97, 257, 7681, 12289])
def test_sqrt_mod_matches_enumeration_small_primes(p):
    roots = {a: [] for a in range(p)}
    for r in range(p):
        roots[r * r % p].append(r)
    for a in range(p):
        assert sqrt_mod(a, p) == roots[a]


def test_sqrt_mod_large_prime_roundtrip():
    p = (1 << 64) - 59
    rng = random.Random(3)
    for _ in range(200):
        r = rng.randrange(1, p)
        roots = sqrt_mod(r * r % p, p)
        assert r in roots or p - r in roots
        for root in roots:
            assert root * root % p == r * r % p


def test_sqrt_mod_large_prime_non_residues():
    p = (1 << 64) - 59
    assert sqrt_mod(3, p) == []  # Euler's criterion: 3**((p-1)/2) = -1 mod p
    rng = random.Random(9)
    non_residues = 0
    for _ in range(200):
        a = rng.randrange(1, p)
        if pow(a, (p - 1) // 2, p) == p - 1:
            assert sqrt_mod(a, p) == []
            non_residues += 1
    assert non_residues > 50


def test_solve_linear_examples():
    assert solve_linear(10, 2, 13) == 8
    assert solve_linear(1, 11, 13) == 11
    with pytest.raises(DegenerateEquation):
        solve_linear(0, 5, 13)


def test_solve_quadratic_examples():
    assert solve_quadratic(1, 0, -1, 13) == [1, 12]
    assert solve_quadratic(1, 1, 1, 5) == []  # discriminant 2, non-residue mod 5
    assert solve_quadratic(0, 10, -2, 13) == [8]  # linear fallback
    with pytest.raises(DegenerateEquation):
        solve_quadratic(0, 0, 3, 13)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 31, 97])
def test_solve_quadratic_matches_enumeration(p):
    rng = random.Random(p)
    for _ in range(300):
        a, b, c = rng.randrange(p), rng.randrange(p), rng.randrange(p)
        if a == 0 and b == 0:
            continue
        expected = sorted(x for x in range(p) if (a * x * x + b * x + c) % p == 0)
        assert solve_quadratic(a, b, c, p) == expected


def test_is_prime_64_examples():
    assert is_prime_64(13)
    assert not is_prime_64(6798)
    assert is_prime_64((1 << 64) - 59)
    assert not is_prime_64(1)
    assert is_prime_64(2)


def test_is_prime_64_matches_trial_division():
    def trial(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    rng = random.Random(17)
    for n in list(range(2, 600)) + [rng.randrange(1 << 28) for _ in range(300)]:
        assert is_prime_64(n) == trial(n)


def test_is_prime_64_rejects_out_of_range():
    with pytest.raises(ValueError):
        is_prime_64(1 << 64)


# -- polynomials over F_p


def _mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return poly_trim(out, p)


def _evaluate(f, x, p):
    value = 0
    for c in reversed(f):
        value = (value * x + c) % p
    return value


@pytest.mark.parametrize("p", [3, 13, 251])
def test_poly_divmod_gcd_and_mulmod_identities(p):
    rng = random.Random(p)

    def draw(n):
        return poly_trim([rng.randrange(p) for _ in range(n)], p)

    for _ in range(200):
        f, g, common = draw(rng.randrange(8)), draw(rng.randrange(1, 6)), draw(3)
        if not g or not common:
            continue
        q, r = poly_divmod(f, g, p)
        assert len(r) < len(g) and r == poly_trim(r, p)
        assert poly_sub(f, _mul(q, g, p), p) == r
        h = poly_gcd(_mul(f, common, p), _mul(g, common, p), p)
        assert h[-1] == 1
        assert poly_divmod(h, common, p)[1] == []
        assert poly_divmod(_mul(g, common, p), h, p)[1] == []
        assert poly_divmod(_mul(f, common, p), h, p)[1] == []
        assert poly_mulmod(f, common, g, p) == poly_divmod(_mul(f, common, p), g, p)[1]


@pytest.mark.parametrize("p", [3, 5, 13, 37])
def test_poly_roots_match_enumeration(p):
    rng = random.Random(p)
    for degree in range(7):
        for _ in range(40):
            f = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
            expected = [x for x in range(p) if _evaluate(f, x, p) == 0]
            assert poly_roots(f, p) == expected


@pytest.mark.parametrize("p", [3, 5, 7])
def test_poly_split_returns_the_factors_of_every_pair(p):
    linear = [[a, 1] for a in range(p)]
    irreducible = [
        [a0, a1, 1] for a0 in range(p) for a1 in range(p)
        if all(_evaluate([a0, a1, 1], x, p) for x in range(p))
    ]
    assert len(irreducible) == (p * p - p) // 2
    for d, factors in ((1, linear), (2, irreducible)):
        for f, g in itertools.combinations(factors, 2):
            split = poly_split(_mul(f, g, p), d, p)
            assert sorted(split) == sorted([f, g])
