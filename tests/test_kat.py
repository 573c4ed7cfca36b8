import dataclasses
import hashlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hppk import cli, kat, kem
from hppk.block import keygen
from hppk.errors import MalformedEncoding
from hppk.params import DEFAULT_PRIME_64, PARAMETER_SETS, ParameterSet
from hppk.rng import DeterministicStream


def _suite_lines(records):
    buf = io.StringIO()
    kat.write_suite(records, buf)
    return buf.getvalue().splitlines()


def _parse_lines(lines):
    return kat.parse_suite(io.StringIO("\n".join(lines) + "\n"))


def test_toy_vector_bytes(toy_params):
    rec = kat.toy_vector()
    assert rec.profile == "toy"
    assert rec.mode == "fixture"
    # ciphertext bytes encode (198082, 192229) at the toy widths
    w = toy_params.value_bytes
    assert int.from_bytes(rec.ct[:w], "little") == 198082
    assert int.from_bytes(rec.ct[w:], "little") == 192229
    assert rec.ss == b"\x08"
    assert len(rec.pk) == toy_params.public_key_bytes
    assert len(rec.sk) == toy_params.secret_key_bytes


def test_record_from_seed_is_deterministic():
    seed = bytes(range(32))
    a = kat.record_from_seed("level1-nb1", 0, seed)
    b = kat.record_from_seed("level1-nb1", 0, seed)
    assert a == b
    c = kat.record_from_seed("level1-nb1", 0, bytes(32))
    assert c.pk != a.pk


def test_generated_suite_verifies_clean():
    records = kat.generate_suite(b"suite-seed", per_profile=1)
    assert len(records) == 7  # six production profiles plus the fixture
    results = kat.verify_suite(records)
    assert all(ok for _, ok, _ in results)


def test_write_parse_roundtrip():
    records = kat.generate_suite(b"roundtrip", per_profile=1)
    buf = io.StringIO()
    kat.write_suite(records, buf)
    buf.seek(0)
    parsed = kat.parse_suite(buf)
    assert parsed == records


def test_flipped_hex_digit_fails_that_record_only():
    lines = _suite_lines(kat.generate_suite(b"flip", per_profile=1))
    # flip one hex digit inside the first record's ct line
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("ct = "))
    digit = lines[idx][5]
    lines[idx] = "ct = " + ("0" if digit != "0" else "1") + lines[idx][6:]
    results = kat.verify_suite(_parse_lines(lines))
    assert [ok for _, ok, _ in results] == [False] + [True] * 6
    assert results[0][2] == "ct"


def test_fixture_record_tamper_detected():
    rec = kat.toy_vector()
    tampered = kat.KatRecord(
        profile=rec.profile, count=rec.count, mode=rec.mode, seed=rec.seed,
        pk=rec.pk, sk=rec.sk, ct=rec.ct, ss=b"\x09",
    )
    ok, field = kat.verify_record(tampered)
    assert not ok and field == "ss"


@pytest.mark.parametrize("label, expected", [
    ({"profile": "level1-nb1", "count": 7}, "profile"),
    ({"profile": "level1-nb1"}, "profile"),
    ({"count": 7}, "count"),
], ids=["profile-and-count", "profile", "count"])
def test_fixture_record_relabel_detected(label, expected):
    ok, field = kat.verify_record(dataclasses.replace(kat.toy_vector(), **label))
    assert not ok and field == expected


def test_seeded_record_survives_suite_io():
    rec = kat.record_from_seed("level5-nb2", 3, b"\x42" * 32)
    buf = io.StringIO()
    kat.write_suite([rec], buf)
    buf.seek(0)
    (back,) = kat.parse_suite(buf)
    ok, field = kat.verify_record(back)
    assert ok, field


@pytest.mark.parametrize("name", ["profile", "count", "mode", "pk", "sk", "ct", "ss"])
def test_record_without_a_field_is_malformed(name):
    lines = _suite_lines([kat.record_from_seed("level1-nb1", 0, bytes(32))])
    kept = [ln for ln in lines if not ln.startswith(f"{name} = ")]
    assert len(kept) == len(lines) - 1
    with pytest.raises(MalformedEncoding):
        _parse_lines(kept)


def test_seeded_record_without_a_seed_fails_on_its_seed():
    lines = _suite_lines([kat.record_from_seed("level1-nb1", 0, bytes(32))])
    (rec,) = _parse_lines([ln for ln in lines if not ln.startswith("seed = ")])
    assert rec.seed == b""
    assert kat.verify_record(rec) == (False, "seed")


@st.composite
def _records(draw):
    """Records of either mode as the suite format allows them, values unchecked."""
    mode = draw(st.sampled_from(["seeded", "fixture"]))
    return kat.KatRecord(
        profile=draw(st.sampled_from(sorted(PARAMETER_SETS))),
        count=draw(st.integers(0, 2**63)),
        mode=mode,
        seed=draw(st.binary(max_size=40)) if mode == "seeded" else b"",
        **{name: draw(st.binary(max_size=48)) for name in ("pk", "sk", "ct", "ss")},
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.lists(_records(), max_size=4))
def test_parse_inverts_write(records):
    buf = io.StringIO()
    kat.write_suite(records, buf)
    buf.seek(0)
    assert kat.parse_suite(buf) == records


# SHA-256 digests of wire output, pinned so that any change to the draw
# order, the arithmetic or the wire format fails here


@pytest.mark.parametrize("argv, digest", [
    ((), "9bc574e06fa5c7337b1537797a4c4b849db80b6ce3cc493fc7bc54ac8877e7c3"),
    (("--seed", "00ff11ee"),
     "dcafdb918fbde6570d5fc29bdfeb26ce3105fabd06a90f4fe99422979edd8d64"),
], ids=["default-seed", "seed-00ff11ee"])
def test_kat_generate_output_is_pinned(capsys, tmp_path, argv, digest):
    suite = tmp_path / "suite.kat"
    assert cli.main(["kat", "generate", str(suite), *argv]) == 0
    assert hashlib.sha256(suite.read_bytes()).hexdigest() == digest


def test_factor_degree_2_encaps_is_pinned():
    # no KAT covers a factor-degree-2 profile; this is the custom profile
    # of the benchmark's KEM workloads
    params = ParameterSet(
        prime=DEFAULT_PRIME_64, base_degree=1, factor_degree=2, noise_vars=3,
        label="deg2",
    )
    rng = DeterministicStream(b"pinned/deg2-encaps")
    _, pk = keygen(params, rng)
    digest = hashlib.sha256(kem.serialize_pk(pk, params))
    for _ in range(16):
        ct, ss = kem.encaps(pk, params, rng)
        digest.update(kem.serialize_ct(ct, params))
        digest.update(ss)
    assert digest.hexdigest() == (
        "cc1a862850eab5887b1c267304f2b8ce6a5c6c0d759fc3d5020ad4210089f578"
    )
