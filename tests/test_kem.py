import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hppk import fhe, kem
from hppk import kat
from hppk.block import (
    BlockCiphertext,
    PublicKey,
    decrypt_block,
    encrypt_block,
    encrypt_blocks,
    format_plaintext,
    keygen,
    keypair_from_values,
    monomial_table,
)
from hppk.errors import (
    CapacityExceeded,
    DecapsFailure,
    DegenerateEquation,
    MalformedEncoding,
    NotCoprime,
    NoValidRoot,
    PayloadTooLarge,
    ZeroDenominator,
)
from hppk.modmath import WIDE_BITS, ensure_wide, mod_inverse
from hppk.params import DEFAULT_PRIME_64, PARAMETER_SETS, ParameterSet
from hppk.rng import DeterministicStream

# byte sizes the wire format must reproduce exactly
EXPECTED_SIZES = {
    "level1-nb1": (306, 83, 208),
    "level3-nb1": (408, 83, 208),
    "level5-nb1": (510, 83, 208),
    "level1-nb2": (408, 83, 208),
    "level3-nb2": (544, 83, 208),
    "level5-nb2": (680, 83, 208),
}


@pytest.mark.parametrize("label", sorted(EXPECTED_SIZES))
def test_serialized_sizes_match_expected(label):
    params = PARAMETER_SETS[label]
    pk_len, sk_len, ct_len = EXPECTED_SIZES[label]
    assert params.public_key_bytes == pk_len
    assert params.secret_key_bytes == sk_len
    assert params.ciphertext_bytes == ct_len
    rng = DeterministicStream(label.encode())
    sk, pk = keygen(params, rng)
    ct, ss = kem.encaps(pk, params, rng)
    assert len(kem.serialize_pk(pk, params)) == pk_len
    assert len(kem.serialize_sk(sk, params)) == sk_len
    assert len(kem.serialize_ct(ct, params)) == ct_len
    assert len(ss) == 32


@pytest.mark.parametrize("label", sorted(EXPECTED_SIZES))
def test_roundtrip_each_profile(label):
    params = PARAMETER_SETS[label]
    rng = DeterministicStream(b"rt" + label.encode())
    for _ in range(50):
        sk, pk = keygen(params, rng)
        ct, ss = kem.encaps(pk, params, rng)
        assert kem.decaps(sk, params, ct) == ss


def test_distinct_ciphertexts_and_secrets():
    params = PARAMETER_SETS["level1-nb1"]
    rng = DeterministicStream(b"distinct")
    _, pk = keygen(params, rng)
    seen_ct = set()
    seen_ss = set()
    for _ in range(1000):
        ct, ss = kem.encaps(pk, params, rng)
        seen_ct.add(kem.serialize_ct(ct, params))
        seen_ss.add(ss)
    assert len(seen_ct) == 1000
    assert len(seen_ss) == 1000


# the toy vector's block, which decrypts to x = 8
TOY_GOOD = BlockCiphertext(198082, 192229)


def _toy_ciphertext(params, *blocks):
    """A whole toy ciphertext: these blocks, then TOY_GOOD up to block_count."""
    return kem.KemCiphertext(blocks + (TOY_GOOD,) * (params.block_count - len(blocks)))


def test_toy_single_block_decaps(toy_params, toy_keypair):
    # the one toy block, in each of the profile's 64 four-bit places
    sk, _ = toy_keypair
    assert toy_params.block_count == 64
    assert kem.decaps(sk, toy_params, _toy_ciphertext(toy_params)) == b"\x88" * 32


@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_ciphertext_of_another_block_count_is_rejected(count):
    # level1-nb1 takes 4 blocks: 2 of them decapsulated to a 16-byte secret,
    # 5 decrypted the fifth and dropped it, and serialize_ct wrote a wire
    # that deserialize_ct rejects
    params = PARAMETER_SETS["level1-nb1"]
    rng = DeterministicStream(b"block-count")
    sk, pk = keygen(params, rng)
    ct, _ = kem.encaps(pk, params, rng)
    assert len(ct.blocks) == params.block_count == 4
    wrong = kem.KemCiphertext((ct.blocks * 2)[:count])
    with pytest.raises(ValueError, match="blocks"):
        kem.decaps(sk, params, wrong)
    with pytest.raises(ValueError, match="blocks"):
        kem.serialize_ct(wrong, params)


def test_decaps_failure_carries_block_index(toy_params, toy_keypair):
    sk, pk = toy_keypair
    good = TOY_GOOD
    bad = BlockCiphertext(198082, 0)
    ct = _toy_ciphertext(toy_params, good, good, bad)
    with pytest.raises(DecapsFailure) as err:
        kem.decaps(sk, toy_params, ct)
    assert err.value.block_index == 2
    assert isinstance(err.value.cause, ZeroDenominator)


def _crafted_block(sk, c1, c2):
    """A block whose values unmask to c1, c2 under sk."""
    return BlockCiphertext(
        fhe.encrypt_value(sk.key1, c1), fhe.encrypt_value(sk.key2, c2)
    )


def _toy_failures(sk):
    # toy f1 = (4, 9), f2 = (10, 7): with c1 = 9, c2 = 7 the x coefficient
    # 7*9 - 9*7 of c2*f1 - c1*f2 vanishes
    return {
        ZeroDenominator: _crafted_block(sk, 8, 0),
        DegenerateEquation: _crafted_block(sk, 9, 7),
    }


@pytest.mark.parametrize("cause", [ZeroDenominator, DegenerateEquation])
def test_decaps_failure_in_middle_block(toy_params, toy_keypair, cause):
    sk, _ = toy_keypair
    good = TOY_GOOD
    bad = _toy_failures(sk)[cause]
    ct = _toy_ciphertext(toy_params, good, good, bad, good, good)
    with pytest.raises(DecapsFailure) as err:
        kem.decaps(sk, toy_params, ct)
    assert err.value.block_index == 2
    assert isinstance(err.value.cause, cause)


@pytest.mark.parametrize("first", [ZeroDenominator, DegenerateEquation])
def test_decaps_reports_earliest_failure(toy_params, toy_keypair, first):
    sk, _ = toy_keypair
    good = TOY_GOOD
    bad = _toy_failures(sk)
    second = DegenerateEquation if first is ZeroDenominator else ZeroDenominator
    ct = _toy_ciphertext(toy_params, good, bad[first], good, bad[second])
    with pytest.raises(DecapsFailure) as err:
        kem.decaps(sk, toy_params, ct)
    assert err.value.block_index == 1
    assert isinstance(err.value.cause, first)


def test_decaps_matches_per_block_decryption(toy_params, toy_keypair):
    sk, pk = toy_keypair
    rng = DeterministicStream(b"toy-batch")
    blocks = []
    while len(blocks) < toy_params.block_count:
        noise = [rng.below(12) + 1, rng.below(13)]
        blk = encrypt_block(pk, toy_params, rng.below(13), noise)
        try:
            blocks.append((blk, decrypt_block(sk, toy_params, blk)))
        except (ZeroDenominator, DegenerateEquation):
            continue
    ct = kem.KemCiphertext(tuple(b for b, _ in blocks))
    expected = sum(x << (4 * k) for k, (_, x) in enumerate(blocks))
    assert kem.decaps(sk, toy_params, ct) == expected.to_bytes(32, "little")


@pytest.mark.parametrize("label", sorted(EXPECTED_SIZES))
def test_key_serialization_roundtrip(label):
    params = PARAMETER_SETS[label]
    rng = DeterministicStream(b"ser" + label.encode())
    for i in range(1000):
        sk, pk = keygen(params, rng)
        assert kem.deserialize_pk(kem.serialize_pk(pk, params), params) == pk
        assert kem.deserialize_sk(kem.serialize_sk(sk, params), params) == sk
        if i < 100:
            ct, _ = kem.encaps(pk, params, rng)
            assert kem.deserialize_ct(kem.serialize_ct(ct, params), params) == ct


def test_deserialize_rejects_wrong_lengths():
    params = PARAMETER_SETS["level1-nb1"]
    with pytest.raises(MalformedEncoding):
        kem.deserialize_pk(b"\x00" * 307, params)
    with pytest.raises(MalformedEncoding):
        kem.deserialize_sk(b"\x00" * 82, params)
    with pytest.raises(MalformedEncoding):
        kem.deserialize_ct(b"\x00" * 207, params)


def test_deserialize_sk_validates_fields():
    params = PARAMETER_SETS["level1-nb1"]
    rng = DeterministicStream(b"skval")
    sk, _ = keygen(params, rng)
    blob = bytearray(kem.serialize_sk(sk, params))
    # clear the modulus: bit length check must fire
    blob[: params.coeff_bytes] = b"\x00" * params.coeff_bytes
    with pytest.raises(MalformedEncoding):
        kem.deserialize_sk(bytes(blob), params)
    # out-of-range factor coefficient
    blob2 = bytearray(kem.serialize_sk(sk, params))
    blob2[3 * params.coeff_bytes : 3 * params.coeff_bytes + 8] = b"\xff" * 8
    with pytest.raises(MalformedEncoding):
        kem.deserialize_sk(bytes(blob2), params)
    # proportional factor polynomials are rejected
    blob3 = bytearray(kem.serialize_sk(sk, params))
    off = 3 * params.coeff_bytes
    doubled = [(2 * c) % params.prime for c in sk.f1]
    for i, c in enumerate(doubled):
        blob3[off + 16 + 8 * i : off + 24 + 8 * i] = c.to_bytes(8, "little")
    if doubled[-1] != 0:
        with pytest.raises(MalformedEncoding):
            kem.deserialize_sk(bytes(blob3), params)


def test_deserialize_ct_admits_worst_case_value():
    # term_count 1020 needs 10 margin bits, more than the 8 every shipped
    # profile reserves
    params = ParameterSet(
        prime=DEFAULT_PRIME_64, base_degree=1, factor_degree=1, noise_vars=340,
        ring_bits=139,
    )
    assert params.term_count == 1020
    worst = params.term_count * ((1 << params.ring_bits) - 1) * (params.prime - 1)
    assert worst.bit_length() == params.value_bits == 213
    ct = kem.KemCiphertext((BlockCiphertext(worst, worst),) * params.block_count)
    blob = kem.serialize_ct(ct, params)
    assert kem.deserialize_ct(blob, params) == ct


def test_parsers_total_at_widest_custom_profile():
    # ring_bits 184 puts value_bits exactly at the 256-bit capacity
    params = ParameterSet(
        prime=DEFAULT_PRIME_64, base_degree=1, factor_degree=1, noise_vars=3,
        ring_bits=184,
    )
    assert params.value_bits == 256
    # all-ones values sit just below each width bound, so pk and ct parse
    pk = kem.deserialize_pk(b"\xff" * params.public_key_bytes, params)
    assert pk.p1[0][0] == (1 << 184) - 1
    ct = kem.deserialize_ct(b"\xff" * params.ciphertext_bytes, params)
    assert ct.blocks[0].value1 == (1 << 256) - 1
    with pytest.raises(MalformedEncoding):  # r1 = S is not a unit
        kem.deserialize_sk(b"\xff" * params.secret_key_bytes, params)


def test_deserialize_ct_rejects_oversized_values(toy_params):
    # toy value width is 4 bytes but only 25 bits are admissible
    blob = b"\xff\xff\xff\xff" * 2 * toy_params.block_count
    with pytest.raises(MalformedEncoding):
        kem.deserialize_ct(blob, toy_params)


def test_deterministic_replay_is_bit_exact():
    params = PARAMETER_SETS["level3-nb2"]
    out = []
    for _ in range(2):
        rng = DeterministicStream(b"\x21" * 32)
        sk, pk = keygen(params, rng)
        ct, ss = kem.encaps(pk, params, rng)
        out.append(
            (
                kem.serialize_pk(pk, params),
                kem.serialize_sk(sk, params),
                kem.serialize_ct(ct, params),
                ss,
            )
        )
    assert out[0] == out[1]


def test_degree2_kem_roundtrip():
    params = ParameterSet(
        prime=(1 << 61) - 1, base_degree=1, factor_degree=2, noise_vars=2,
        label="deg2-kem",
    )
    assert params.payload_bits == 53
    assert params.block_count == 5
    rng = DeterministicStream(b"deg2")
    failures = 0
    for _ in range(40):
        sk, pk = keygen(params, rng)
        ct, ss = kem.encaps(pk, params, rng)
        assert len(ss) == 32
        try:
            assert kem.decaps(sk, params, ct) == ss
        except DecapsFailure as err:
            # root ambiguity: the stray root verifies once in 2^8 blocks
            from hppk.errors import NoValidRoot

            assert isinstance(err.cause, NoValidRoot)
            failures += 1
    assert failures <= 2


def test_toy_full_kem_blocks(toy_params):
    # at p = 13 a block hits a zero denominator with probability about 2/13
    # (see test_toy_zero_denominator_rate), so a full 64-block secret rarely
    # survives; check block-level correctness
    rng = DeterministicStream(b"toy-kem")
    sk, pk = keygen(toy_params, rng)
    ct, ss = kem.encaps(pk, toy_params, rng)
    assert len(ct.blocks) == 64
    assert len(ss) == 32
    secret_int = int.from_bytes(ss, "little")
    ok = 0
    for k, blk in enumerate(ct.blocks):
        expected = (secret_int >> (4 * k)) & 0xF
        try:
            assert decrypt_block(sk, toy_params, blk) == expected
            ok += 1
        except ZeroDenominator:
            pass
    assert ok >= 40  # expectation is 64 * (1 - 25/169), about 55


@st.composite
def _parameter_sets(draw):
    """Valid custom profiles; factor degree 2 only where the flag fits."""
    prime = draw(st.sampled_from([13, 257, 65537, DEFAULT_PRIME_64]))
    bits = prime.bit_length()
    factor_degree = draw(st.sampled_from([1, 2] if bits > 8 else [1]))
    base_degree = draw(st.integers(1, 3))
    noise_vars = draw(st.integers(2, 5))
    terms = (base_degree + factor_degree + 1) * noise_vars
    lowest = 2 * bits + terms.bit_length() + 1
    highest = WIDE_BITS - bits - max(8, terms.bit_length())
    ring_bits = draw(st.integers(lowest, min(highest, lowest + 32)))
    return ParameterSet(prime=prime, base_degree=base_degree,
                        factor_degree=factor_degree, noise_vars=noise_vars,
                        ring_bits=ring_bits)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_parameter_sets(), st.binary(min_size=8, max_size=8))
def test_random_profile_round_trips(params, seed):
    rng = DeterministicStream(seed)
    sk, pk = keygen(params, rng)
    assert kem.deserialize_pk(kem.serialize_pk(pk, params), params) == pk
    assert kem.deserialize_sk(kem.serialize_sk(sk, params), params) == sk
    ct, ss = kem.encaps(pk, params, rng)
    assert kem.deserialize_ct(kem.serialize_ct(ct, params), params) == ct
    try:
        assert kem.decaps(sk, params, ct) == ss
    except DecapsFailure as err:
        assert isinstance(err.cause, (ZeroDenominator, DegenerateEquation, NoValidRoot))


def test_stacked_key_cache_is_invisible():
    params = PARAMETER_SETS["level1-nb1"]
    _, pk = keygen(params, DeterministicStream(b"cache-invisible"))
    before = hash(pk), repr(pk), kem.serialize_pk(pk, params)
    kem.encaps(pk, params, DeterministicStream(b"cache-invisible/encaps"))
    assert pk.stacked(params) is pk.stacked(params)  # cached by encaps
    wire = kem.deserialize_pk(kem.serialize_pk(pk, params), params)
    assert pk == wire and wire == pk
    assert hash(wire) == hash(pk)
    assert (hash(pk), repr(pk), kem.serialize_pk(pk, params)) == before


def test_one_key_under_two_ring_widths():
    # same shape and prime, value_bits 208 and 256: a cached stack of one
    # width split at the other would mix the two maps
    narrow = PARAMETER_SETS["level1-nb1"]
    wide = ParameterSet(
        prime=DEFAULT_PRIME_64, base_degree=1, factor_degree=1, noise_vars=3,
        ring_bits=184,
    )
    _, pk = keygen(narrow, DeterministicStream(b"two-widths"))
    x, noise = 5, [7, 0, DEFAULT_PRIME_64 - 2]
    for params in (narrow, wide, narrow, wide):
        table = monomial_table(params, x, noise)
        expected = BlockCiphertext(*(
            fhe.eval_cipher_poly([c for row in m for c in row], table)
            for m in (pk.p1, pk.p2)
        ))
        assert encrypt_block(pk, params, x, noise) == expected
    # a key over a wider ring is over-wide for the narrow profile, also
    # after a profile of the same value width, with a 32-bit prime and a
    # 168-bit ring, has cached its stack
    same_width = ParameterSet(
        prime=(1 << 32) - 5, base_degree=1, factor_degree=1, noise_vars=3,
        ring_bits=168,
    )
    assert same_width.value_bits == narrow.value_bits
    _, wide_pk = keygen(same_width, DeterministicStream(b"two-widths/wide"))
    encrypt_block(wide_pk, same_width, x, [7, 0, 11])
    with pytest.raises(ValueError):
        encrypt_block(wide_pk, narrow, x, [7, 0, 11])


def test_key_checked_under_its_profile_only():
    # equal ring and value widths, transposed shapes: only the shape tells
    # the two profiles apart
    own, other = PARAMETER_SETS["level1-nb2"], PARAMETER_SETS["level3-nb1"]
    assert (own.message_degree + 1, own.noise_vars) == (4, 3)
    assert (other.message_degree + 1, other.noise_vars) == (3, 4)
    assert (own.ring_bits, own.value_bits) == (other.ring_bits, other.value_bits)
    _, pk = keygen(own, DeterministicStream(b"two-shapes"))
    encrypt_block(pk, own, 5, [1, 2, 3])
    with pytest.raises(ValueError, match="shape"):
        encrypt_block(pk, other, 5, [1, 2, 3, 4])
    encrypt_block(pk, own, 5, [1, 2, 3])


# the toy private values, and one invalid value per case; 6798 = 2*3*11*103
TOY_PRIVATE = dict(
    modulus=kat.TOY_MODULUS, r1=kat.TOY_R1, r2=kat.TOY_R2, f1=kat.TOY_F1, f2=kat.TOY_F2,
)
INVALID_PRIVATE = {
    "modulus-one-bit-wide": ({"modulus": 16383}, ValueError),
    "modulus-zero": ({"modulus": 0}, ValueError),
    "r1-zero": ({"r1": 0}, ValueError),
    "r2-equals-modulus": ({"r2": kat.TOY_MODULUS}, ValueError),
    "r1-shares-2": ({"r1": 4266}, NotCoprime),
    "r2-shares-103": ({"r2": 6798 - 103}, NotCoprime),
    "f1-zero-leading": ({"f1": (4, 0)}, ValueError),
    "f2-zero-leading": ({"f2": (10, 0)}, ValueError),
    "f1-coefficient-is-p": ({"f1": (13, 9)}, ValueError),
    "f2-leading-is-p": ({"f2": (10, 13)}, ValueError),
    "proportional": ({"f2": (8, 5)}, ValueError),  # 2 * (4, 9) mod 13
}


def _toy_sk_bytes(toy_params, modulus, r1, r2, f1, f2):
    w = toy_params.coeff_bytes
    return b"".join(
        [v.to_bytes(w, "little") for v in (modulus, r1, r2)]
        + [c.to_bytes(8, "little") for c in (*f1, *f2)]
    )


def test_valid_private_values_pass_both_entry_points(toy_params):
    sk, _ = keypair_from_values(toy_params, **TOY_PRIVATE, base_rows=kat.TOY_BASE)
    assert kem.deserialize_sk(_toy_sk_bytes(toy_params, **TOY_PRIVATE), toy_params) == sk


@pytest.mark.parametrize("change, error", INVALID_PRIVATE.values(), ids=INVALID_PRIVATE)
def test_invalid_private_values_fail_both_entry_points(toy_params, change, error):
    values = {**TOY_PRIVATE, **change}
    with pytest.raises(error):
        keypair_from_values(toy_params, **values, base_rows=kat.TOY_BASE)
    with pytest.raises(MalformedEncoding):
        kem.deserialize_sk(_toy_sk_bytes(toy_params, **values), toy_params)


# -- a key inverts its units only when it first decrypts


def _counted(monkeypatch, fn):
    """The arguments of every call of fn, through any hppk module that binds it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hppk" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


@pytest.fixture
def inversions(monkeypatch):
    """(value, modulus) of every mod_inverse call, through any hppk module."""
    return _counted(monkeypatch, mod_inverse)


def test_keys_are_built_and_parsed_without_inverting(toy_params, inversions):
    params = PARAMETER_SETS["level1-nb1"]
    sk, pk = keygen(params, DeterministicStream(b"no-inverse"))
    parsed = kem.deserialize_sk(kem.serialize_sk(sk, params), params)
    assert parsed == sk
    kem.deserialize_pk(kem.serialize_pk(pk, params), params)
    keypair_from_values(toy_params, **TOY_PRIVATE, base_rows=kat.TOY_BASE)
    kat.record_from_seed("level1-nb1", 0, bytes(kat.SEED_BYTES))
    assert inversions == []
    suite = kat.generate_suite(b"no-inverse", per_profile=1)
    assert len(suite) == 7
    # only the fixture record decrypts: the toy key's two units together, then mod p
    assert [m for _, m in inversions if m != toy_params.prime] == [6798]


def test_first_decaps_inverts_each_unit_once(inversions):
    params = PARAMETER_SETS["level1-nb1"]
    rng = DeterministicStream(b"first-decaps")
    sk, pk = keygen(params, rng)
    sk = kem.deserialize_sk(kem.serialize_sk(sk, params), params)
    ct, ss = kem.encaps(pk, params, rng)
    assert kem.decaps(sk, params, ct) == ss
    # one inversion, of r1*r2 mod S, serves both units
    assert [c for c in inversions if c[1] == sk.modulus] == [
        (sk.r1 * sk.r2 % sk.modulus, sk.modulus)
    ]
    inversions.clear()
    ct, ss = kem.encaps(pk, params, rng)
    assert kem.decaps(sk, params, ct) == ss
    assert [c for c in inversions if c[1] == sk.modulus] == []
    assert sk.modulus.bit_length() == 136
    assert sk.key1.mult_inv == pow(sk.r1, -1, sk.modulus)
    assert sk.key2.mult_inv == pow(sk.r2, -1, sk.modulus)


DEG2 = ParameterSet(
    prime=DEFAULT_PRIME_64, base_degree=1, factor_degree=2, noise_vars=3,
    label="deg2",
)


def test_degree2_decaps_inverts_once_per_ciphertext(inversions):
    rng = DeterministicStream(b"deg2-one-inversion")
    sk, pk = keygen(DEG2, rng)
    kem.decaps(sk, DEG2, kem.encaps(pk, DEG2, rng)[0])  # inverts the units
    inversions.clear()
    failures = 0
    for _ in range(64):
        ct, ss = kem.encaps(pk, DEG2, rng)
        try:
            assert kem.decaps(sk, DEG2, ct) == ss
        except DecapsFailure as err:
            assert isinstance(err.cause, NoValidRoot)
            failures += 1
    assert failures < 5
    # five blocks each, and one inversion mod p per ciphertext: of the
    # product of its divisors
    assert len(inversions) == 64
    assert {m for _, m in inversions} == {DEG2.prime}


def _deg2_failures(sk, pk, rng):
    """(good blocks, {cause: a block failing with it}) under a degree-2 key."""
    good = [
        encrypt_block(pk, DEG2, format_plaintext(rng.bits(DEG2.payload_bits), DEG2),
                      rng.below_many(DEG2.prime, DEG2.noise_vars))
        for _ in range(3)
    ]
    while True:
        # an unformatted secret: both roots fail their flags, bar 1 in 2**7
        x = rng.below(DEG2.prime)
        stray = encrypt_block(pk, DEG2, x, rng.below_many(DEG2.prime, DEG2.noise_vars))
        try:
            decrypt_block(sk, DEG2, stray)
        except NoValidRoot:
            break
    return good, {ZeroDenominator: _crafted_block(sk, 8, 0), NoValidRoot: stray}


@pytest.mark.parametrize("first", [NoValidRoot, ZeroDenominator])
def test_degree2_decaps_reports_earliest_failure_across_passes(first):
    # ZeroDenominator is found while unmasking, NoValidRoot while solving:
    # the earlier block wins either way
    rng = DeterministicStream(b"deg2-earliest")
    sk, pk = keygen(DEG2, rng)
    (g0, g1, g2), bad = _deg2_failures(sk, pk, rng)
    second = ZeroDenominator if first is NoValidRoot else NoValidRoot
    ct = kem.KemCiphertext((g0, bad[first], g1, bad[second], g2))
    with pytest.raises(DecapsFailure) as err:
        kem.decaps(sk, DEG2, ct)
    assert err.value.block_index == 1
    assert isinstance(err.value.cause, first)


def test_toy_zero_denominator_rate():
    # c2 = b(x) * f2(x) vanishes mod p when the noise zeroes b(x), about 1/p,
    # or when x is the root of f2, 1/p: 2/p - 1/p^2 per block in all.  An
    # honest degree-1 block never meets DegenerateEquation: its linear
    # coefficient is b(x) * (f2[0]f1[1] - f1[0]f2[1]), nonzero with c2.
    # The bound, 5 sigma of the binomial at the pinned 5,120 blocks, was
    # fixed before the first run.
    params = PARAMETER_SETS["toy"]
    p = params.prime
    blocks = zero = degenerate = 0
    for k in range(8):
        rng = DeterministicStream(f"toy-failure-rate-{k}".encode())
        sk, pk = keygen(params, rng)
        for _ in range(10):
            ct, ss = kem.encaps(pk, params, rng)
            secret = int.from_bytes(ss, "little")
            for i, block in enumerate(ct.blocks):
                blocks += 1
                try:
                    assert decrypt_block(sk, params, block) == secret >> (4 * i) & 0xF
                except ZeroDenominator:
                    zero += 1
                except DegenerateEquation:
                    degenerate += 1
    predicted = 2 / p - 1 / p**2
    sigma = (predicted * (1 - predicted) / blocks) ** 0.5
    assert (blocks, degenerate) == (5120, 0)
    assert abs(zero / blocks - predicted) < 5 * sigma


# -- ciphertexts are value tuples, checked where their values enter


def test_ciphertext_cycle_checks_no_value_again(monkeypatch):
    # encaps' values are bounded by the stacked key's entry check and the
    # ring-size bound, the parsed ones by deserialize_ct's width rule
    params = PARAMETER_SETS["level1-nb1"]
    rng = DeterministicStream(b"checked-where-they-enter")
    sk, pk = keygen(params, rng)
    checks = _counted(monkeypatch, ensure_wide)
    ct, ss = kem.encaps(pk, params, rng)
    wire = kem.deserialize_ct(kem.serialize_ct(ct, params), params)
    assert kem.decaps(sk, params, wire) == ss
    assert not checks, f"{len(checks)} ensure_wide calls"


@pytest.mark.parametrize("values, error", [
    ((-1, 0), CapacityExceeded),
    ((0, -1), CapacityExceeded),
    ((1 << 256, 0), CapacityExceeded),
    ((1.0, 0), TypeError),
    ((True, 0), TypeError),
], ids=["negative", "negative-value2", "2^256", "float", "bool"])
def test_hand_built_blocks_are_checked(values, error):
    with pytest.raises(error):
        BlockCiphertext(*values)
    with pytest.raises(error):
        BlockCiphertext(value1=values[0], value2=values[1])


def test_hand_built_ciphertext_needs_a_block():
    with pytest.raises(ValueError, match="at least one block"):
        kem.KemCiphertext(())


# the six production profiles, the benchmark's degree-2 profile and toy
_WIRE_PROFILES = [*(PARAMETER_SETS[label] for label in sorted(EXPECTED_SIZES)), DEG2,
                  PARAMETER_SETS["toy"]]


@pytest.mark.parametrize("params", _WIRE_PROFILES, ids=lambda params: params.label)
def test_parsed_blocks_equal_the_encapsulated_ones(params):
    rng = DeterministicStream(f"parsed-blocks/{params.label}".encode())
    _, pk = keygen(params, rng)
    ct, _ = kem.encaps(pk, params, rng)
    wire = kem.deserialize_ct(kem.serialize_ct(ct, params), params)
    assert type(ct) is type(wire) is kem.KemCiphertext
    assert wire == ct and len(wire.blocks) == params.block_count
    for built, parsed in zip(ct.blocks, wire.blocks):
        assert type(built) is type(parsed) is BlockCiphertext
        assert parsed == built == BlockCiphertext(built.value1, built.value2)


@pytest.mark.parametrize("params", _WIRE_PROFILES, ids=lambda params: params.label)
def test_parsed_public_key_stacks_as_the_built_one(params):
    # the parse stacks the flat wire entries; a key built from the same
    # matrices flattens its maps itself
    _, pk = keygen(params, DeterministicStream(f"parsed-pk/{params.label}".encode()))
    built = PublicKey(pk.p1, pk.p2)
    parsed = kem.deserialize_pk(kem.serialize_pk(pk, params), params)
    assert parsed == built
    assert parsed.stacked(params) == built.stacked(params) == pk.stacked(params)
    assert len(parsed.stacked(params)) == params.term_count


@pytest.mark.parametrize("params", _WIRE_PROFILES, ids=lambda params: params.label)
def test_parsed_public_key_of_another_shape_is_malformed(params):
    _, pk = keygen(params, DeterministicStream(f"foreign-pk/{params.label}".encode()))
    wire = kem.serialize_pk(pk, params)
    others = [o for o in _WIRE_PROFILES if o.public_key_bytes != params.public_key_bytes]
    assert others
    for other in others:
        with pytest.raises(MalformedEncoding):
            kem.deserialize_pk(wire, other)


RING139 = ParameterSet(
    prime=DEFAULT_PRIME_64, base_degree=1, factor_degree=1, noise_vars=3, ring_bits=139,
)


@pytest.mark.parametrize("params", [RING139, PARAMETER_SETS["toy"]],
                         ids=["ring139", "toy"])
@pytest.mark.parametrize("place", ["map1-first", "map2-last"])
def test_parsed_public_key_entry_at_the_ring_width_is_malformed(params, place):
    # both profiles' coefficient width holds 2**ring_bits, one past the widest entry
    _, pk = keygen(params, DeterministicStream(f"wide-pk/{params.label}".encode()))
    wire = kem.serialize_pk(pk, params)
    w = params.coeff_bytes
    at = 0 if place == "map1-first" else len(wire) - w
    for entry, admitted in (((1 << params.ring_bits) - 1, True), (1 << params.ring_bits, False)):
        blob = wire[:at] + entry.to_bytes(w, "little") + wire[at + w :]
        if admitted:
            parsed = kem.deserialize_pk(blob, params)
            assert entry in (parsed.p1[0][0], parsed.p2[-1][-1])
        else:
            with pytest.raises(MalformedEncoding, match="outside"):
                kem.deserialize_pk(blob, params)


# -- encapsulation draws one ciphertext at once, in the per-block order


def _per_block_encaps(pk, params, rng):
    """encaps drawn block by block: below_many(p, 1 + m) per degree-1 block,
    or a payload until it formats and then below_many(p, m) for degree 2,
    m more while the noise is all zero, then encrypt_block.  Returns the
    ciphertext, the secret, the draws and the redraws before the last block.
    """
    p, m = params.prime, params.noise_vars
    blocks, payloads, draws, inner_redraws = [], [], [], 0
    for k in range(params.block_count):
        if params.factor_degree == 1:
            x, *noise = rng.below_many(p, 1 + m)
            payload = x
        else:
            while True:
                payload = rng.bits(params.payload_bits)
                try:
                    x = format_plaintext(payload, params)
                    break
                except PayloadTooLarge:
                    pass
            noise = rng.below_many(p, m)
        while not any(noise):
            noise = rng.below_many(p, m)
            inner_redraws += k < params.block_count - 1
        draws.append((x, noise))
        blocks.append(encrypt_block(pk, params, x, noise))
        payloads.append(payload)
    ss = kem._pack_payloads(payloads, params)
    return kem.KemCiphertext(tuple(blocks)), ss, draws, inner_redraws


TOY_NB2 = ParameterSet(prime=13, base_degree=2, factor_degree=1, noise_vars=2,
                       label="toy-nb2")
_DRAW_PROFILES = {"toy": 50, "level1-nb1": 20, "level5-nb2": 20, "deg2": 20, "toy-nb2": 50}


@pytest.mark.parametrize("label", list(_DRAW_PROFILES))
def test_encaps_draws_as_block_by_block(label):
    params = {"deg2": DEG2, "toy-nb2": TOY_NB2}.get(label) or PARAMETER_SETS[label]
    _, pk = keygen(params, DeterministicStream(f"draw-order/{label}".encode()))
    ours = DeterministicStream(f"draw-order/{label}/encaps".encode())
    theirs = DeterministicStream(f"draw-order/{label}/encaps".encode())
    inner_redraws = 0
    for _ in range(_DRAW_PROFILES[label]):
        ct, ss, draws, redraws = _per_block_encaps(pk, params, theirs)
        assert kem.encaps(pk, params, ours) == (ct, ss)
        assert encrypt_blocks(pk, params, draws) == ct.blocks
        inner_redraws += redraws
    # both streams stand at the same byte
    assert ours.take_bytes(16) == theirs.take_bytes(16)
    if label == "toy":
        # one noise vector in 169 is zero: about 19 over these 3200 blocks
        assert inner_redraws >= 1
