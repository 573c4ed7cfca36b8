"""Every parser is total: any input yields a valid object or MalformedEncoding.

A parsed key or ciphertext is valid when it serializes back to the bytes
it came from.  Examples are derandomized so the suite stays deterministic.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hppk import kat, kem
from hppk.block import keygen
from hppk.errors import MalformedEncoding
from hppk.params import PARAMETER_SETS, ParameterSet
from hppk.rng import DeterministicStream

PROFILES = {
    "toy": PARAMETER_SETS["toy"],
    "level1-nb1": PARAMETER_SETS["level1-nb1"],
    "level5-nb2": PARAMETER_SETS["level5-nb2"],
    "custom-deg2": ParameterSet(prime=257, base_degree=1, factor_degree=2,
                                noise_vars=2, label="custom-deg2"),
}

# (parser, its serializer, the ParameterSet attribute giving the exact length)
PARSERS = {
    "pk": (kem.deserialize_pk, kem.serialize_pk, "public_key_bytes"),
    "sk": (kem.deserialize_sk, kem.serialize_sk, "secret_key_bytes"),
    "ct": (kem.deserialize_ct, kem.serialize_ct, "ciphertext_bytes"),
}

_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None,
                     database=None)


def _mutations(valid):
    """valid with up to four bytes overwritten: inputs near the accepted set."""
    edits = st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)),
                     max_size=4)

    def apply(pairs):
        out = bytearray(valid)
        for i, b in pairs:
            out[i] = b
        return bytes(out)

    return edits.map(apply)


def _valid_encodings(params):
    rng = DeterministicStream(b"parsers-" + params.label.encode())
    sk, pk = keygen(params, rng)
    ct, _ = kem.encaps(pk, params, rng)
    return {
        "pk": kem.serialize_pk(pk, params),
        "sk": kem.serialize_sk(sk, params),
        "ct": kem.serialize_ct(ct, params),
    }


@pytest.mark.parametrize("what", sorted(PARSERS))
@pytest.mark.parametrize("label", sorted(PROFILES))
def test_wire_parsers_are_total(label, what):
    params = PROFILES[label]
    parse, serialize, size_attr = PARSERS[what]
    size = getattr(params, size_attr)
    inputs = st.one_of(
        _mutations(_valid_encodings(params)[what]),
        st.binary(min_size=size, max_size=size),
        st.binary(max_size=2 * size + 1),
    )

    @_SETTINGS
    @given(inputs)
    def check(data):
        try:
            parsed = parse(data, params)
        except MalformedEncoding:
            return
        assert serialize(parsed, params) == data

    check()


def _suite_text():
    buf = io.StringIO()
    kat.write_suite([kat.toy_vector()], buf)
    return buf.getvalue().encode()


@_SETTINGS
@given(st.one_of(_mutations(_suite_text()), st.binary(max_size=300)))
def test_kat_parse_suite_is_total(data):
    try:
        records = kat.parse_suite(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except MalformedEncoding:
        return
    assert all(isinstance(rec, kat.KatRecord) for rec in records)
