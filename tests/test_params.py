import pytest

from hppk.params import DEFAULT_PRIME_64, PARAMETER_SETS, ParameterSet, by_level


def test_production_configurations_match_expected_tuples():
    expected = {
        "level1-nb1": (64, 1, 1, 3),
        "level3-nb1": (64, 1, 1, 4),
        "level5-nb1": (64, 1, 1, 5),
        "level1-nb2": (64, 2, 1, 3),
        "level3-nb2": (64, 2, 1, 4),
        "level5-nb2": (64, 2, 1, 5),
    }
    for label, (pbits, nb, deg, m) in expected.items():
        params = PARAMETER_SETS[label]
        assert params.prime == DEFAULT_PRIME_64
        assert params.prime_bits == pbits
        assert params.base_degree == nb
        assert params.factor_degree == deg
        assert params.noise_vars == m
        assert params.ring_bits == 136
        assert params.ring_bits > 2 * pbits + params.term_count.bit_length()


def test_by_level_lookup():
    assert by_level(3, 2) is PARAMETER_SETS["level3-nb2"]
    with pytest.raises(KeyError):
        by_level(2, 1)


def test_derived_quantities():
    params = PARAMETER_SETS["level1-nb1"]
    assert params.message_degree == 2
    assert params.term_count == 9
    assert params.payload_bits == 64
    assert params.block_count == 4
    assert (params.coeff_bytes, params.value_bytes) == (17, 26)


def test_ring_bits_default_rule():
    params = ParameterSet(prime=13, base_degree=1, factor_degree=1,
                          noise_vars=2, label="defaulted")
    assert params.ring_bits == 16  # 2 * prime_bits + 8


def test_validation_rejects_bad_shapes():
    good = dict(prime=13, base_degree=1, factor_degree=1, noise_vars=2)
    with pytest.raises(ValueError):
        ParameterSet(**{**good, "prime": 15})
    with pytest.raises(ValueError):
        ParameterSet(**{**good, "factor_degree": 3})
    with pytest.raises(ValueError):
        ParameterSet(**{**good, "noise_vars": 1})
    with pytest.raises(ValueError):
        ParameterSet(**{**good, "base_degree": 0})
    with pytest.raises(ValueError):
        ParameterSet(**good, ring_bits=11)  # needs > 2*4 + 3
    with pytest.raises(ValueError):
        # an 8-bit CRC flag cannot fit under a 4-bit prime
        ParameterSet(**{**good, "factor_degree": 2})


@pytest.mark.parametrize("ring_bits", [200, 260])
def test_rejects_values_wider_than_capacity(ring_bits):
    # 64-bit prime and 8 margin bits: ring_bits 200 needs 272-bit values
    with pytest.raises(ValueError):
        ParameterSet(prime=DEFAULT_PRIME_64, base_degree=1, factor_degree=1,
                     noise_vars=3, ring_bits=ring_bits)


def test_toy_profile_shape():
    toy = PARAMETER_SETS["toy"]
    assert (toy.prime, toy.base_degree, toy.factor_degree, toy.noise_vars) == (
        13, 1, 1, 2
    )
    assert toy.ring_bits == 13
    assert toy.payload_bits == 4
    assert toy.block_count == 64


def test_cached_sizes_stay_out_of_equality():
    a = ParameterSet(prime=DEFAULT_PRIME_64, base_degree=2, factor_degree=1,
                     noise_vars=4)
    b = ParameterSet(prime=DEFAULT_PRIME_64, base_degree=2, factor_degree=1,
                     noise_vars=4)
    sizes = (a.prime_bits, a.message_degree, a.term_count, a.payload_bits,
             a.block_count, a.coeff_bytes, a.value_bits, a.value_bytes)
    assert sizes == (64, 3, 16, 64, 4, 17, 208, 26)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_a_second_profile_on_a_prime_skips_its_primality_test():
    from hppk.modmath import is_prime_64

    ParameterSet(prime=65521, base_degree=1, factor_degree=1, noise_vars=2)
    before = is_prime_64.cache_info()
    ParameterSet(prime=65521, base_degree=2, factor_degree=1, noise_vars=3)
    after = is_prime_64.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
