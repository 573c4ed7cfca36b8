import argparse
import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hppk
from hppk import analysis, kat
from hppk.cli import build_parser, main
from hppk.params import PARAMETER_SETS


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SEED = "11" * 32


def test_keygen_encaps_decaps_roundtrip(capsys, tmp_path):
    code, out, _ = _run(capsys, "keygen", "--level", "1", "--seed", SEED,
                        "--out", "alice")
    assert code == 0
    assert (tmp_path / "alice.hpk").stat().st_size == 306
    assert (tmp_path / "alice.hsk").stat().st_size == 83

    code, _, _ = _run(capsys, "encaps", "--level", "1", "--pk", "alice.hpk",
                      "--seed", "22" * 32, "--out", "session")
    assert code == 0
    assert (tmp_path / "session.hct").stat().st_size == 208
    ss_enc = (tmp_path / "session.hss").read_bytes()
    assert len(ss_enc) == 32

    code, _, _ = _run(capsys, "decaps", "--level", "1", "--sk", "alice.hsk",
                      "--ct", "session.hct", "--out", "recovered.hss")
    assert code == 0
    assert (tmp_path / "recovered.hss").read_bytes() == ss_enc


def test_keygen_is_deterministic_under_seed(capsys, tmp_path):
    _run(capsys, "keygen", "--level", "3", "--nb", "2", "--seed", SEED,
         "--out", "a")
    _run(capsys, "keygen", "--level", "3", "--nb", "2", "--seed", SEED,
         "--out", "b")
    assert (tmp_path / "a.hpk").read_bytes() == (tmp_path / "b.hpk").read_bytes()
    assert (tmp_path / "a.hsk").read_bytes() == (tmp_path / "b.hsk").read_bytes()


def test_encaps_is_deterministic_under_seed(capsys, tmp_path):
    _run(capsys, "keygen", "--level", "1", "--seed", SEED, "--out", "k")
    for name in ("s1", "s2"):
        _run(capsys, "encaps", "--level", "1", "--pk", "k.hpk",
             "--seed", "99" * 32, "--out", name)
    assert (tmp_path / "s1.hct").read_bytes() == (tmp_path / "s2.hct").read_bytes()
    assert (tmp_path / "s1.hss").read_bytes() == (tmp_path / "s2.hss").read_bytes()


def test_level5_nb2_sizes(capsys, tmp_path):
    code, _, _ = _run(capsys, "keygen", "--level", "5", "--nb", "2",
                      "--seed", SEED, "--out", "big")
    assert code == 0
    assert (tmp_path / "big.hpk").stat().st_size == 680


def test_toy_profile_requires_flag(capsys):
    code, _, err = _run(capsys, "keygen", "--out", "x")
    assert code == 1


def test_toy_profile_with_flag(capsys, tmp_path):
    code, _, _ = _run(capsys, "keygen", "--insecure-test-profile",
                      "--seed", SEED, "--out", "toy")
    assert code == 0
    assert (tmp_path / "toy.hpk").stat().st_size == PARAMETER_SETS["toy"].public_key_bytes


def test_truncated_ciphertext_is_malformed(capsys, tmp_path):
    _run(capsys, "keygen", "--level", "1", "--seed", SEED, "--out", "k")
    _run(capsys, "encaps", "--level", "1", "--pk", "k.hpk",
         "--seed", "22" * 32, "--out", "s")
    blob = (tmp_path / "s.hct").read_bytes()
    (tmp_path / "bad.hct").write_bytes(blob[:-1])
    code, _, err = _run(capsys, "decaps", "--level", "1", "--sk", "k.hsk",
                        "--ct", "bad.hct")
    assert code == 2
    assert "208" in err


def test_directory_inputs_are_malformed(capsys, tmp_path):
    for argv in (("kat", "verify", "."),
                 ("decaps", "--level", "1", "--sk", ".", "--ct", ".")):
        code, _, err = _run(capsys, *argv)
        assert code == 2
        assert err.startswith("hppk: ")


@pytest.mark.parametrize("argv", [
    ("keygen", "--level", "1", "--out", "missing/x"),
    ("decaps", "--level", "1", "--sk", "k.hsk", "--ct", "s.hct", "--out", "outdir"),
    ("kat", "generate", "outdir", "--count", "1"),
], ids=["keygen-missing-dir", "decaps-out-dir", "kat-generate-dir"])
def test_unwritable_outputs_are_usage_errors(capsys, tmp_path, argv):
    _run(capsys, "keygen", "--level", "1", "--seed", SEED, "--out", "k")
    _run(capsys, "encaps", "--level", "1", "--pk", "k.hpk",
         "--seed", "22" * 32, "--out", "s")
    (tmp_path / "outdir").mkdir()
    code, _, err = _run(capsys, *argv)
    assert code == 1
    assert err.startswith("hppk: cannot write ")
    assert ("missing/x" if argv[0] == "keygen" else "outdir") in err


@pytest.mark.parametrize("out", [".", "/"], ids=["dot", "root"])
@pytest.mark.parametrize("command", ["keygen", "encaps"])
def test_output_path_without_a_name_is_a_usage_error(capsys, tmp_path, command, out):
    _run(capsys, "keygen", "--level", "1", "--seed", SEED, "--out", "k")
    argv = ["--pk", "k.hpk"] if command == "encaps" else []
    code, out_text, err = _run(capsys, command, "--level", "1", *argv, "--out", out)
    assert code == 1
    assert err.startswith("hppk: ") and err.count("\n") == 1
    assert "has no file name" in err and out_text == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k.hpk", "k.hsk"]


@pytest.mark.parametrize("text", ["", "# hppk known-answer tests\n\n"],
                         ids=["empty", "comments-only"])
def test_kat_verify_suite_without_records_is_malformed(capsys, tmp_path, text):
    (tmp_path / "suite.kat").write_text(text)
    code, out, err = _run(capsys, "kat", "verify", "suite.kat")
    assert code == 2
    assert err == "hppk: suite.kat holds no KAT records\n" and out == ""


@pytest.mark.parametrize("extra, named", [
    ("ss = 00", "'ss' repeated within a record"),
    ("colour = blue", "unknown KAT field 'colour'"),
    ("seed = 00ff", "a fixture record carries no seed"),
], ids=["repeated-field", "unknown-field", "seed-on-fixture"])
def test_kat_verify_rejects_repeated_and_unknown_fields(capsys, tmp_path, extra, named):
    # the extra line goes before the record's correct ss line: a parser that
    # kept the last value of a field, or ignored a seed that the rebuilt
    # fixture never reads, would verify the record ok
    text = io.StringIO()
    kat.write_suite([kat.toy_vector()], text)
    assert "\nss = 08\n" in text.getvalue()
    (tmp_path / "suite.kat").write_text(
        text.getvalue().replace("\nss = 08\n", f"\n{extra}\nss = 08\n"))
    code, out, err = _run(capsys, "kat", "verify", "suite.kat")
    assert (code, out) == (2, "")
    assert err.startswith("hppk: ") and named in err and err.count("\n") == 1


def test_kat_verify_non_utf8_suite_is_malformed(capsys, tmp_path):
    (tmp_path / "suite.kat").write_bytes(b"profile = toy\n\xff\xfe\n")
    code, _, err = _run(capsys, "kat", "verify", "suite.kat")
    assert code == 2
    assert err.startswith("hppk: ")


def _hppk(*argv, env=(), flags=()):
    """Run `python <flags> -m hppk.cli argv` in a child; the finished process."""
    env = dict(os.environ, PYTHONPATH=str(Path(hppk.__file__).parents[1]), **dict(env))
    return subprocess.run([sys.executable, *flags, "-m", "hppk.cli", *argv],
                          env=env, capture_output=True, text=True)


def test_kat_verify_reads_utf8_under_an_ascii_locale(tmp_path):
    # kat generate writes UTF-8 text, so verify must not decode the suite in
    # the locale's encoding: under the C locale that is ASCII
    text = io.StringIO()
    kat.write_suite(kat.generate_suite(b"hppk-kat-v1", per_profile=1), text)
    header = "# hppk known-answer tests\n"
    assert text.getvalue().startswith(header)
    (tmp_path / "suite.kat").write_bytes(
        text.getvalue().replace(header, "# hppk known-answer tests — café\n").encode())
    run = _hppk("kat", "verify", "suite.kat",
                env={"PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONUTF8": "0"})
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == "".join(f"{label} count=0 ok\n" for label in SUITE_ORDER)


def test_commands_open_no_text_file_in_the_locale_encoding(tmp_path):
    flags = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    prof = ("--level", "1")
    for argv in [
        ("keygen", *prof, "--seed", SEED, "--out", "k"),
        ("encaps", *prof, "--pk", "k.hpk", "--seed", SEED, "--out", "e"),
        ("decaps", *prof, "--sk", "k.hsk", "--ct", "e.hct", "--out", "d.hss"),
        ("kat", "generate", "suite.kat", "--count", "1"),
        ("kat", "verify", "suite.kat"),
    ]:
        run = _hppk(*argv, flags=flags)
        assert run.returncode == 0, (argv, run.stderr)


def test_decaps_without_out_keeps_the_encapsulators_secret(capsys, tmp_path):
    # encaps without --out writes alice.hct and alice.hss; decaps without
    # --out names the same alice.hss, so it must not replace it
    _run(capsys, "keygen", "--level", "1", "--seed", SEED, "--out", "alice")
    _run(capsys, "encaps", "--level", "1", "--pk", "alice.hpk", "--seed", "22" * 32)
    ss_enc = (tmp_path / "alice.hss").read_bytes()
    (tmp_path / "alice.hss").write_bytes(b"\x00" * 32)  # so that an overwrite shows
    code, out, err = _run(capsys, "decaps", "--level", "1", "--sk", "alice.hsk",
                          "--ct", "alice.hct")
    assert (code, out) == (1, "")
    assert err == ("hppk: alice.hss already exists; "
                   "name another output with --out\n")
    assert (tmp_path / "alice.hss").read_bytes() == b"\x00" * 32
    # with --out, or where the default file is new, decaps writes as before
    code, _, _ = _run(capsys, "decaps", "--level", "1", "--sk", "alice.hsk",
                      "--ct", "alice.hct", "--out", "alice.hss")
    assert code == 0 and (tmp_path / "alice.hss").read_bytes() == ss_enc
    (tmp_path / "alice.hct").rename(tmp_path / "bob.hct")
    code, out, _ = _run(capsys, "decaps", "--level", "1", "--sk", "alice.hsk",
                        "--ct", "bob.hct")
    assert code == 0 and out == "wrote bob.hss (32 bytes)\n"
    assert (tmp_path / "bob.hss").read_bytes() == ss_enc


def test_out_is_a_basename_with_suffixes_appended(capsys, tmp_path):
    # a dotted tail of --out is part of the name, not a suffix to replace
    for name in ("alice.v1", "alice.v2"):
        code, _, _ = _run(capsys, "keygen", "--level", "1", "--out", name)
        assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "alice.v1.hpk", "alice.v1.hsk", "alice.v2.hpk", "alice.v2.hsk"]
    assert (tmp_path / "alice.v1.hsk").read_bytes() != (tmp_path / "alice.v2.hsk").read_bytes()
    # the name encaps derives from the key keeps its dotted tail too
    code, out, _ = _run(capsys, "encaps", "--level", "1", "--pk", "alice.v1.hpk")
    assert code == 0
    assert out.splitlines()[0] == "wrote alice.v1.hct (208 bytes)"
    code, _, _ = _run(capsys, "encaps", "--level", "1", "--pk", "alice.v1.hpk",
                      "--out", "session.2")
    assert code == 0
    assert (tmp_path / "session.2.hct").exists() and (tmp_path / "session.2.hss").exists()


@pytest.mark.parametrize("existing", [".hpk", ".hsk"])
def test_keygen_without_out_never_replaces_a_key(capsys, tmp_path, existing):
    kept = tmp_path / f"level1-nb1{existing}"
    kept.write_bytes(b"old key")
    code, out, err = _run(capsys, "keygen", "--level", "1")
    assert (code, out) == (1, "")
    assert err == f"hppk: {kept.name} already exists; name another output with --out\n"
    # nothing is written, not even the file that did not exist
    assert [p.name for p in tmp_path.iterdir()] == [kept.name]
    assert kept.read_bytes() == b"old key"


@pytest.mark.parametrize("existing", [".hct", ".hss"])
def test_encaps_without_out_never_replaces_a_session(capsys, tmp_path, existing):
    _run(capsys, "keygen", "--level", "1", "--seed", SEED, "--out", "alice")
    kept = tmp_path / f"alice{existing}"
    kept.write_bytes(b"old session")
    code, out, err = _run(capsys, "encaps", "--level", "1", "--pk", "alice.hpk")
    assert (code, out) == (1, "")
    assert err == f"hppk: {kept.name} already exists; name another output with --out\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["alice.hpk", "alice.hsk", kept.name])
    assert kept.read_bytes() == b"old session"


def test_encaps_derives_its_session_next_to_the_public_key(capsys, tmp_path):
    (tmp_path / "keys").mkdir()
    _run(capsys, "keygen", "--level", "1", "--seed", SEED, "--out", "keys/alice.v1")
    code, out, _ = _run(capsys, "encaps", "--level", "1", "--pk", "keys/alice.v1.hpk")
    assert code == 0
    assert out.splitlines() == ["wrote keys/alice.v1.hct (208 bytes)",
                                "wrote keys/alice.v1.hss (32 bytes)"]
    # decaps derives the same secret's name beside the ciphertext, and the
    # encapsulator's secret is already there
    code, out, err = _run(capsys, "decaps", "--level", "1", "--sk", "keys/alice.v1.hsk",
                          "--ct", "keys/alice.v1.hct")
    assert (code, out) == (1, "")
    assert err == ("hppk: keys/alice.v1.hss already exists; "
                   "name another output with --out\n")
    assert _run(capsys, "decaps", "--level", "1", "--sk", "keys/alice.v1.hsk",
                "--ct", "keys/alice.v1.hct", "--out", "bob.hss")[0] == 0
    assert (tmp_path / "bob.hss").read_bytes() == (tmp_path / "keys/alice.v1.hss").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bob.hss", "keys"]


def test_named_outputs_may_be_replaced(capsys, tmp_path):
    # a name the user gives is theirs to reuse: --out and the KAT suite path
    for seed in ("11" * 32, "22" * 32):
        assert _run(capsys, "keygen", "--level", "1", "--seed", seed, "--out", "k")[0] == 0
        assert _run(capsys, "encaps", "--level", "1", "--pk", "k.hpk", "--seed", seed,
                    "--out", "s")[0] == 0
        assert _run(capsys, "decaps", "--level", "1", "--sk", "k.hsk", "--ct", "s.hct",
                    "--out", "s.hss")[0] == 0
        assert _run(capsys, "kat", "generate", "suite.kat", "--count", "1",
                    "--seed", seed)[0] == 0
    _run(capsys, "keygen", "--level", "1", "--seed", "22" * 32, "--out", "fresh")
    assert (tmp_path / "k.hsk").read_bytes() == (tmp_path / "fresh.hsk").read_bytes()
    assert _run(capsys, "kat", "verify", "suite.kat")[0] == 0


def test_tampered_ciphertext_decaps_failure(capsys, tmp_path):
    _run(capsys, "keygen", "--level", "1", "--seed", SEED, "--out", "k")
    _run(capsys, "encaps", "--level", "1", "--pk", "k.hpk",
         "--seed", "22" * 32, "--out", "s")
    params = PARAMETER_SETS["level1-nb1"]
    blob = bytearray((tmp_path / "s.hct").read_bytes())
    # zero out block 2's second value: guaranteed ZeroDenominator
    w = params.value_bytes
    off = (2 * 2 + 1) * w
    blob[off : off + w] = b"\x00" * w
    (tmp_path / "bad.hct").write_bytes(bytes(blob))
    code, _, err = _run(capsys, "decaps", "--level", "1", "--sk", "k.hsk",
                        "--ct", "bad.hct")
    assert code == 3
    assert "block 2" in err


# the profiles of a suite's records, in the order kat verify reports them
SUITE_ORDER = ("level1-nb1", "level3-nb1", "level5-nb1",
               "level1-nb2", "level3-nb2", "level5-nb2", "toy")


def test_kat_generate_and_verify(capsys, tmp_path):
    code, out, _ = _run(capsys, "kat", "generate", "suite.kat", "--count", "1",
                        "--seed", "33" * 32)
    assert code == 0
    code, out, err = _run(capsys, "kat", "verify", "suite.kat")
    assert (code, err) == (0, "")
    assert out == "".join(f"{label} count=0 ok\n" for label in SUITE_ORDER)


@pytest.mark.parametrize("argv", [
    ("--seed", "zz"),
    ("--count", "0"),
    ("--count", "-1"),
], ids=["seed-not-hex", "count0", "count-1"])
def test_kat_generate_rejected_arguments_are_usage_errors(capsys, tmp_path, argv):
    code, _, err = _run(capsys, "kat", "generate", "suite.kat", *argv)
    assert code == 1
    assert err.startswith("hppk: ")
    assert not (tmp_path / "suite.kat").exists()


def test_kat_verify_detects_corruption(capsys, tmp_path):
    _run(capsys, "kat", "generate", "suite.kat", "--count", "1",
         "--seed", "33" * 32)
    text = (tmp_path / "suite.kat").read_text()
    idx = text.index("pk = ") + 5
    flipped = "0" if text[idx] != "0" else "1"
    (tmp_path / "suite.kat").write_text(text[:idx] + flipped + text[idx + 1 :])
    code, out, err = _run(capsys, "kat", "verify", "suite.kat")
    assert code == 3
    assert out == "".join(
        [f"{SUITE_ORDER[0]} count=0 FAIL (pk differs)\n"]
        + [f"{label} count=0 ok\n" for label in SUITE_ORDER[1:]]
    )
    assert err == "1/7 records failed\n"


def test_bench_rejects_zero_iterations(capsys):
    code, _, err = _run(capsys, "bench", "--op", "keygen", "--level", "1",
                        "--iterations", "0")
    assert code == 1


def test_bench_runs_at_floor(capsys):
    code, out, _ = _run(capsys, "bench", "--op", "keygen",
                        "--insecure-test-profile",
                        "--iterations", "1000")
    assert code == 0
    assert "median=" in out


def test_attack_bruteforce_contains_toy_solution(capsys):
    code, out, _ = _run(capsys, "attack", "--oracle", "bruteforce",
                        "--seed", "44" * 32, "--instances", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:4] == ["instance", "p", "m", "count"]
    assert rows[1][4] == "8:3:6"
    assert all(row[5] == "True" for row in rows[1:])


def test_attack_indcpa_random_adversary(capsys):
    code, out, _ = _run(capsys, "attack", "--oracle", "indcpa",
                        "--prime", "13", "--noise", "3",
                        "--trials", "10000", "--seed", "55" * 32)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert float(rows[1][4]) < 0.02


@pytest.mark.parametrize("adversary, trials", [("constant0", "300"), ("random", "1000")])
def test_attack_indcpa_fair_adversaries_pass_at_small_trial_counts(
    capsys, adversary, trials
):
    # a fair game's measured advantage spreads as 0.5/sqrt(trials), which is
    # above 0.02 at these trial counts
    for seed in range(1, 21):
        code, out, err = _run(capsys, "attack", "--oracle", "indcpa",
                              "--adversary", adversary, "--trials", trials,
                              "--seed", f"{seed:04x}")
        assert (code, err) == (0, ""), (seed, out)


def test_attack_ringsearch_guard(capsys):
    code, _, err = _run(capsys, "attack", "--oracle", "ringsearch",
                        "--sbits", "20")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("--oracle", "bruteforce", "--prime", "4"),
    ("--oracle", "bruteforce", "--noise", "1"),
    ("--oracle", "fratio", "--nb", "0"),
    ("--oracle", "ringsearch", "--sbits", "1"),
    ("--oracle", "ringsearch", "--sbits", "4"),
    ("--oracle", "ringsearch", "--prime", "31", "--sbits", "5"),
    ("--oracle", "ringsearch", "--sbits", "300"),
    ("--oracle", "indcpa", "--trials", "0"),
    ("--oracle", "bruteforce", "--instances", "-2"),
    ("--oracle", "fratio", "--instances", "0"),
    ("--oracle", "fratio", "--prime", "12"),
], ids=["prime4", "noise1", "nb0", "sbits1", "sbits4", "p31-sbits5", "sbits300",
        "trials0", "instances-2", "instances0", "fratio-prime12"])
def test_attack_rejected_arguments_are_usage_errors(capsys, argv):
    code, out, err = _run(capsys, "attack", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("hppk: ")


@pytest.mark.parametrize("adversary", ["random", "constant0", "likelihood"])
def test_attack_indcpa_fails_far_from_prediction(capsys, monkeypatch, adversary):
    # with p = 13 and 2 noise variables the predictions are 0, 0 and 1/26, and
    # 0.3 is off from each by more than 2/sqrt(200)
    monkeypatch.setattr(analysis, "ind_cpa_game", lambda *args: 0.3)
    code, out, err = _run(capsys, "attack", "--oracle", "indcpa",
                          "--adversary", adversary, "--trials", "200")
    assert code == 3
    assert err == "oracle assertion failed\n"
    assert list(csv.reader(io.StringIO(out)))[1][4] == "0.300000"


def test_attack_ringsearch_finds_keys(capsys):
    code, out, _ = _run(capsys, "attack", "--oracle", "ringsearch",
                        "--sbits", "9", "--instances", "2",
                        "--seed", "66" * 32)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert all(row[5] == "True" for row in rows[1:])


def test_attack_fratio(capsys):
    code, out, _ = _run(capsys, "attack", "--oracle", "fratio",
                        "--prime", "251", "--instances", "5",
                        "--seed", "77" * 32)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert all(row[4] == "True" for row in rows[1:])


# Rows of each oracle at fixed seeds, without the wall-time column; they
# pin the draws, the fields and the verdict of every oracle.
RECORDED_ATTACK_ROWS = {
    "bruteforce-toy": (
        ("--oracle", "bruteforce", "--seed", "4444", "--instances", "3"),
        [["instance", "p", "m", "count", "witness", "witness_found"],
         ["0", "13", "2", "11", "8:3:6", "True"],
         ["1", "13", "2", "13", "9:7:5", "True"],
         ["2", "13", "2", "25", "1:11:2", "True"]],
    ),
    "ringsearch-nb2": (
        ("--oracle", "ringsearch", "--nb", "2", "--sbits", "7",
         "--instances", "2", "--seed", "6666"),
        [["instance", "p", "m", "candidates", "work", "key_found"],
         ["0", "13", "2", "19305", "7064", "True"],
         ["1", "13", "2", "7254", "2564", "True"]],
    ),
    "fratio-nb2": (
        ("--oracle", "fratio", "--nb", "2", "--prime", "251",
         "--instances", "3", "--seed", "7777"),
        [["instance", "p", "m", "candidates", "ratio_found"],
         ["0", "251", "2", "2", "True"],
         ["1", "251", "2", "2", "True"],
         ["2", "251", "2", "2", "True"]],
    ),
    "fratio-nb2-production-prime": (
        ("--oracle", "fratio", "--nb", "2", "--prime", "18446744073709551557",
         "--noise", "3", "--instances", "3", "--seed", "1901"),
        [["instance", "p", "m", "candidates", "ratio_found"],
         ["0", "18446744073709551557", "3", "2", "True"],
         ["1", "18446744073709551557", "3", "2", "True"],
         ["2", "18446744073709551557", "3", "2", "True"]],
    ),
    "indcpa-likelihood": (
        ("--oracle", "indcpa", "--adversary", "likelihood", "--noise", "3",
         "--trials", "200", "--seed", "5555"),
        [["instance", "p", "m", "trials", "advantage"],
         ["0", "13", "3", "200", "0.035000"]],
    ),
    "indcpa-constant0": (
        ("--oracle", "indcpa", "--adversary", "constant0", "--trials", "300",
         "--seed", "5555"),
        [["instance", "p", "m", "trials", "advantage"],
         ["0", "13", "2", "300", "0.006667"]],
    ),
}


@pytest.mark.parametrize("name", RECORDED_ATTACK_ROWS)
def test_attack_csv_matches_recorded_rows(capsys, name):
    argv, expected = RECORDED_ATTACK_ROWS[name]
    code, out, err = _run(capsys, "attack", *argv)
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert all(row[-1] == "elapsed" or float(row[-1]) >= 0 for row in rows)
    assert [row[:-1] for row in rows] == expected


def test_attack_fratio_small_prime_draws_no_zero_map(capsys):
    # at p = 3 one key in 81 has a zero base matrix; seed 07 draws one second
    code, out, err = _run(capsys, "attack", "--oracle", "fratio", "--prime", "3",
                          "--instances", "10", "--seed", "07")
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 11
    assert all(row[4] == "True" for row in rows[1:])


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = _run(capsys, "frobnicate")
    assert code == 1


# one argv per command, each setting options away from their defaults
COMMAND_ARGVS = {
    "keygen": ["keygen", "--level", "3", "--nb", "2", "--seed", SEED, "--out", "k"],
    "encaps": ["encaps", "--insecure-test-profile", "--pk", "k.hpk", "--out", "e"],
    "decaps": ["decaps", "--level", "1", "--sk", "k.hsk", "--ct", "e.hct"],
    "kat-generate": ["kat", "generate", "s.kat", "--count", "2", "--seed", "00ff"],
    "kat-verify": ["kat", "verify", "s.kat"],
    "bench": ["bench", "--op", "encaps", "--level", "5", "--iterations", "7"],
    "attack": ["attack", "--oracle", "indcpa", "--prime", "17",
               "--adversary", "likelihood", "--instances", "2"],
}


@pytest.mark.parametrize("argv", list(COMMAND_ARGVS.values()), ids=list(COMMAND_ARGVS))
def test_main_parses_a_command_argv_once(monkeypatch, argv):
    # main's one parse reads what the top-level parser reads, bar the name
    expected = vars(build_parser()[0].parse_args(argv))
    del expected["command"]
    parse_known_args = argparse.ArgumentParser.parse_known_args
    parsed = []

    def spy(self, *args, **kwargs):
        namespace, extras = parse_known_args(self, *args, **kwargs)
        parsed.append(dict(vars(namespace)))
        namespace.func = lambda _: 0  # the parse is under test, not the command
        return namespace, extras

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    assert main(argv) == 0
    assert parsed == [expected]


@pytest.mark.parametrize("argv, code, stream, text", [
    ([], 1, "err", "hppk: error: the following arguments are required: command"),
    (["nope"], 1, "err", "hppk: error: argument command: invalid choice: 'nope'"),
    (["-h"], 0, "out", "usage: hppk [-h]"),
    (["keygen", "-h"], 0, "out", "usage: hppk keygen [-h]"),
    (["attack"], 1, "err",
     "hppk attack: error: the following arguments are required: --oracle"),
    (["keygen", "--bogus"], 1, "err", "hppk keygen: error: unrecognized arguments: --bogus"),
], ids=["empty", "typo", "help", "command-help", "missing-option", "unknown-option"])
def test_usage_and_help_exit_codes(capsys, argv, code, stream, text):
    got, out, err = _run(capsys, *argv)
    assert got == code
    assert text in {"out": out, "err": err}[stream]


def test_import_leaves_numpy_unloaded():
    probe = ("import sys, hppk.cli; "
             "print(sorted({'numpy', 'hppk.analysis'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(hppk.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_sequential_calls_share_no_values(capsys, tmp_path):
    _run(capsys, "keygen", "--insecure-test-profile", "--out", "a")
    code, _, _ = _run(capsys, "keygen", "--level", "1", "--out", "b")
    assert code == 0
    assert ((tmp_path / "b.hpk").stat().st_size
            == PARAMETER_SETS["level1-nb1"].public_key_bytes)

    _run(capsys, "keygen", "--level", "5", "--nb", "2", "--out", "c")
    code, _, _ = _run(capsys, "keygen", "--level", "5", "--out", "d")
    assert code == 0
    assert ((tmp_path / "d.hpk").stat().st_size
            == PARAMETER_SETS["level5-nb1"].public_key_bytes)

    _run(capsys, "kat", "generate", "s1.kat", "--count", "1", "--seed", "33" * 32)
    code, _, _ = _run(capsys, "kat", "generate", "s2.kat", "--count", "1")
    assert code == 0
    fresh = io.StringIO()
    kat.write_suite(kat.generate_suite(b"hppk-kat-v1", per_profile=1), fresh)
    assert (tmp_path / "s2.kat").read_text() == fresh.getvalue()

    code, _, _ = _run(capsys, "attack", "--oracle", "fratio", "--prime", "251",
                      "--instances", "1")
    assert code == 0
