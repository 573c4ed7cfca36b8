import dataclasses
import hashlib
import io

import pytest

from hppk import cli, kat, kem
from hppk.block import keygen
from hppk.params import DEFAULT_PRIME_64, ParameterSet
from hppk.rng import DeterministicStream


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
    records = kat.generate_suite(b"roundtrip", per_profile=1,
                                 profiles=("level1-nb1",))
    buf = io.StringIO()
    kat.write_suite(records, buf)
    buf.seek(0)
    parsed = kat.parse_suite(buf)
    assert parsed == records


def test_flipped_hex_digit_fails_that_record_only():
    records = kat.generate_suite(b"flip", per_profile=1,
                                 profiles=("level1-nb1", "level3-nb1"))
    buf = io.StringIO()
    kat.write_suite(records, buf)
    text = buf.getvalue()
    # flip one hex digit inside the first record's ct line
    lines = text.splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("ct = "))
    digit = lines[idx][5]
    lines[idx] = "ct = " + ("0" if digit != "0" else "1") + lines[idx][6:]
    parsed = kat.parse_suite(io.StringIO("\n".join(lines) + "\n"))
    results = kat.verify_suite(parsed)
    assert [ok for _, ok, _ in results] == [False, True, True]
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
