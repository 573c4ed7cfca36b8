"""Command-line front end: key lifecycle, KATs, benchmarks, attack oracles.

Exit codes are a stable contract for CI: 0 success, 1 usage error,
2 malformed input, 3 cryptographic failure.  Each command parses its own
arguments, so an option it does not take is reported under its name
(`hppk keygen: error: unrecognized arguments: ...`).
"""

import argparse
import csv
import functools
import io
import sys
import time
from pathlib import Path

from . import bench, fhe, kat, kem
from .block import keygen
from .errors import (
    CapacityExceeded,
    DecapsFailure,
    HppkError,
    MalformedEncoding,
    SearchSpaceTooLarge,
)
from .params import PARAMETER_SETS, ParameterSet, by_level
from .rng import DeterministicStream, SystemRng

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MALFORMED = 2
EXIT_CRYPTO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class UsageError(Exception):
    pass


def _hex_seed(seed_hex):
    try:
        return bytes.fromhex(seed_hex)
    except ValueError as err:
        raise UsageError(f"seed is not hex: {err}") from err


def _rng_from(seed_hex):
    if seed_hex is None:
        return SystemRng()
    return DeterministicStream(_hex_seed(seed_hex))


def _at_least_one(value, flag):
    if value < 1:
        raise UsageError(f"{flag} must be at least 1")


def _already_exists(path):
    return UsageError(f"{path} already exists; name another output with --out")


def _write(path, data, exclusive=False):
    """Write one output file; a path that cannot be written is a usage error,
    and so is an existing file when exclusive, which creates it exclusively.
    """
    try:
        with path.open("xb" if exclusive else "wb") as fh:
            fh.write(data)
    except FileExistsError as err:
        raise _already_exists(path) from err
    except OSError as err:
        raise UsageError(f"cannot write {path}: {err.strerror or err}") from err


def _output_paths(out, default, suffixes):
    """(paths, exclusive): one output file per suffix, appended to the basename
    out, or without out to the derived default.  A name the user gives may be
    replaced; a derived one is created exclusively, so an existing one is a
    usage error before anything is written.  A basename with no file name,
    such as "." or "/", is a usage error.
    """
    base = Path(out or default)
    if not base.name:
        raise UsageError(f"output path {str(base)!r} has no file name")
    paths = [base.with_name(base.name + suffix) for suffix in suffixes]
    if not out:
        for path in paths:
            if path.exists():
                raise _already_exists(path)
    return paths, not out


def _profile(args):
    if getattr(args, "insecure_test_profile", False):
        return PARAMETER_SETS["toy"]
    if args.level is None:
        raise UsageError("--level is required (or use --insecure-test-profile)")
    return by_level(args.level, args.nb)


def _add_profile_flags(sub):
    sub.add_argument("--level", type=int, choices=(1, 3, 5), help="NIST security level")
    sub.add_argument("--nb", type=int, choices=(1, 2), default=1,
                     help="base polynomial order (default 1)")
    sub.add_argument("--insecure-test-profile", action="store_true",
                     help="use the 13-bit toy profile; test use only")


# -- key lifecycle


def _cmd_keygen(args):
    params = _profile(args)
    rng = _rng_from(args.seed)
    (pk_path, sk_path), new = _output_paths(args.out, params.label, (".hpk", ".hsk"))
    sk, pk = keygen(params, rng)
    _write(pk_path, kem.serialize_pk(pk, params), new)
    _write(sk_path, kem.serialize_sk(sk, params), new)
    print(f"wrote {pk_path} ({params.public_key_bytes} bytes)")
    print(f"wrote {sk_path} ({params.secret_key_bytes} bytes)")
    return EXIT_OK


def _cmd_encaps(args):
    params = _profile(args)
    rng = _rng_from(args.seed)
    pk = kem.deserialize_pk(Path(args.pk).read_bytes(), params)
    beside_pk = Path(args.pk).with_suffix("")  # as decaps derives beside the ct
    (ct_path, ss_path), new = _output_paths(args.out, beside_pk, (".hct", ".hss"))
    ct, ss = kem.encaps(pk, params, rng)
    _write(ct_path, kem.serialize_ct(ct, params), new)
    _write(ss_path, ss, new)
    print(f"wrote {ct_path} ({params.ciphertext_bytes} bytes)")
    print(f"wrote {ss_path} ({len(ss)} bytes)")
    return EXIT_OK


def _cmd_decaps(args):
    params = _profile(args)
    sk = kem.deserialize_sk(Path(args.sk).read_bytes(), params)
    ct = kem.deserialize_ct(Path(args.ct).read_bytes(), params)
    ss = kem.decaps(sk, params, ct)
    # the default name is the one encaps gave the encapsulator's secret next
    # to the same ciphertext; like every derived name it is only created
    out = Path(args.out or Path(args.ct).with_suffix(".hss"))
    _write(out, ss, exclusive=not args.out)
    print(f"wrote {out} ({len(ss)} bytes)")
    return EXIT_OK


# -- known-answer tests


def _cmd_kat(args):
    if args.action == "generate":
        _at_least_one(args.count, "--count")
        records = kat.generate_suite(
            master_seed=_hex_seed(args.seed) if args.seed else b"hppk-kat-v1",
            per_profile=args.count,
        )
        text = io.StringIO()
        kat.write_suite(records, text)
        _write(Path(args.suite), text.getvalue().encode())
        print(f"wrote {len(records)} records to {args.suite}")
        return EXIT_OK
    with open(args.suite, encoding="utf-8") as fh:
        records = kat.parse_suite(fh)
    if not records:
        # a truncated or emptied suite must not pass as verified
        raise MalformedEncoding(f"{args.suite} holds no KAT records")
    failures = 0
    for rec, ok, bad_field in kat.verify_suite(records):
        status = "ok" if ok else f"FAIL ({bad_field} differs)"
        print(f"{rec.profile} count={rec.count} {status}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures}/{len(records)} records failed", file=sys.stderr)
        return EXIT_CRYPTO
    return EXIT_OK


# -- benchmarks


def _cmd_bench(args):
    _at_least_one(args.iterations, "--iterations")
    params = _profile(args)
    try:
        (report,) = bench.run_bench(
            args.op, [params], SystemRng(), iterations=args.iterations
        )
    except ValueError as err:
        raise UsageError(str(err)) from err
    print(report.format_line())
    return EXIT_OK


# -- attack oracles; `_cmd_attack` imports `analysis`, and with it numpy, itself,
# so that no other command pays for loading them.  Each oracle runs one
# instance and returns (its assertion held, its CSV fields).


def _bruteforce(analysis, args, params, rng, instance):
    if instance == 0 and args.prime == 13 and args.noise == 2 and args.nb == 1:
        # the hand-checkable toy vector
        _, pk, block = kat.toy_instance()
        system = analysis.reduce_mod_p(pk, block, params.prime)
        witness = (kat.TOY_SECRET, *kat.TOY_NOISE)
    else:
        system, witness = analysis.random_planted_system(params, rng)
    solutions = analysis.brute_force_solutions(system)
    found = witness in solutions
    return found, [len(solutions), ":".join(str(v) for v in witness), found]


def _indcpa(analysis, args, params, rng, instance):
    # each adversary with its predicted advantage
    adversary, predicted = {
        "random": (analysis.RandomGuessAdversary(rng), 0.0),
        "constant0": (analysis.ConstantAdversary(0), 0.0),
        "likelihood": (
            analysis.ExhaustiveLikelihoodAdversary(rng),
            analysis.likelihood_advantage(params),
        ),
    }[args.adversary]
    advantage = analysis.ind_cpa_game(params, adversary, args.trials, rng)
    held = abs(advantage - predicted) < 2 / args.trials**0.5  # 4 binomial sigma
    return held, [args.trials, f"{advantage:.6f}"]


def _ringsearch(analysis, args, params, rng, instance):
    sk, pk = analysis.random_ring_instance(params, args.sbits, rng)
    result = analysis.ring_key_search(pk, params, args.sbits)
    found = result.contains(sk.modulus, sk.r1, sk.r2)
    return found, [result.total_triples, result.work, found]


def _fratio(analysis, args, params, rng, instance):
    p = params.prime
    sk, pk = keygen(params, rng)
    plain1 = fhe.decrypt_coeffs(sk.key1, pk.p1, p)
    plain2 = fhe.decrypt_coeffs(sk.key2, pk.p2, p)
    set1, set2 = analysis.recover_f_ratio(plain1, plain2, params)
    found = (
        analysis.true_ratio(sk.f1, p) in set1
        and analysis.true_ratio(sk.f2, p) in set2
    )
    return found, [len(set1) + len(set2), found]


# oracle name -> (per-instance function, its CSV fields)
_ORACLES = {
    "bruteforce": (_bruteforce, ["count", "witness", "witness_found"]),
    "indcpa": (_indcpa, ["trials", "advantage"]),
    "ringsearch": (_ringsearch, ["candidates", "work", "key_found"]),
    "fratio": (_fratio, ["candidates", "ratio_found"]),
}


def _cmd_attack(args):
    _at_least_one(args.instances, "--instances")
    from . import analysis

    oracle, fields = _ORACLES[args.oracle]
    # indcpa plays one game of --trials rounds, whatever --instances says
    instances = 1 if args.oracle == "indcpa" else args.instances
    writer = csv.writer(sys.stdout)
    ok = True
    try:
        params = ParameterSet(
            prime=args.prime,
            base_degree=args.nb,
            factor_degree=1,
            noise_vars=args.noise,
            label=f"attack-p{args.prime}-m{args.noise}",
        )
        rng = _rng_from(args.seed)
        for instance in range(instances):
            start = time.perf_counter()
            held, row = oracle(analysis, args, params, rng, instance)
            elapsed = time.perf_counter() - start
            if instance == 0:
                # the header goes out with the first row, so that an argument
                # the oracle rejects before its first row leaves stdout empty
                writer.writerow(["instance", "p", "m", *fields, "elapsed"])
            writer.writerow([instance, args.prime, args.noise, *row, f"{elapsed:.4f}"])
            ok &= held
    except (SearchSpaceTooLarge, CapacityExceeded, ValueError) as err:
        # every library rejection here traces back to an argument
        raise UsageError(str(err)) from err
    if not ok:
        print("oracle assertion failed", file=sys.stderr)
        return EXIT_CRYPTO
    return EXIT_OK


# -- wiring


@functools.cache
def build_parser():
    """(parser, commands): the top-level parser and each command's own parser
    by name, built on first use and shared by every `main` call.
    """
    parser = _Parser(prog="hppk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, func, help):
        p = commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = command("keygen", _cmd_keygen, "generate a key pair")
    _add_profile_flags(p)
    p.add_argument("--seed", help="32-byte hex seed for deterministic output")
    p.add_argument("--out", help="output basename, .hpk/.hsk appended (default: "
                                 "profile label, whose files must not exist yet)")

    p = command("encaps", _cmd_encaps, "encapsulate a shared secret")
    _add_profile_flags(p)
    p.add_argument("--pk", required=True, help="public key file (.hpk)")
    p.add_argument("--seed", help="32-byte hex seed for deterministic output")
    p.add_argument("--out", help="output basename, .hct/.hss appended (default: "
                                 "pk path minus suffix, whose files must not exist yet)")

    p = command("decaps", _cmd_decaps, "recover a shared secret")
    _add_profile_flags(p)
    p.add_argument("--sk", required=True, help="secret key file (.hsk)")
    p.add_argument("--ct", required=True, help="ciphertext file (.hct)")
    p.add_argument("--out", help="output file (default: ct stem + .hss, "
                                 "which must not exist yet)")

    p = command("kat", _cmd_kat, "generate or verify known-answer tests")
    p.add_argument("action", choices=("generate", "verify"))
    p.add_argument("suite", help="KAT suite file")
    p.add_argument("--count", type=int, default=3, help="records per profile")
    p.add_argument("--seed", help="master seed (hex) for generation")

    p = command("bench", _cmd_bench, "measure operation latency")
    _add_profile_flags(p)
    p.add_argument("--op", required=True, choices=bench.OPERATIONS)
    p.add_argument("--iterations", type=int, default=2000)

    p = command("attack", _cmd_attack, "run a desk-scale attack oracle")
    p.add_argument("--oracle", required=True, choices=tuple(_ORACLES))
    p.add_argument("--prime", type=int, default=13)
    p.add_argument("--noise", type=int, default=2, help="noise variable count")
    p.add_argument("--nb", type=int, default=1, help="base polynomial order")
    p.add_argument("--sbits", type=int, default=10, help="ring bits for ringsearch")
    p.add_argument("--trials", type=int, default=10000, help="game trials for indcpa")
    p.add_argument("--instances", type=int, default=5,
                   help="instances to run, one CSV row each, timed with their "
                        "sampling; indcpa plays one game and prints one row")
    p.add_argument("--adversary", default="random",
                   choices=("random", "constant0", "likelihood"))
    p.add_argument("--seed", help="hex seed for reproducible oracle runs")

    return parser, commands


def main(argv=None):
    """Run one command line, argv without the program name (default
    sys.argv[1:]); returns the exit code.

    A known command's arguments are parsed once, by that command's own
    parser; any other argv goes to the top-level parser for its usage, help
    or "invalid choice" error.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = build_parser()
    try:
        if argv and argv[0] in commands:
            args = commands[argv[0]].parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as err:
        print(f"hppk: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (MalformedEncoding, OSError) as err:
        print(f"hppk: {err}", file=sys.stderr)
        return EXIT_MALFORMED
    except DecapsFailure as err:
        print(f"hppk: decapsulation failed at block {err.block_index}: "
              f"{err.cause}", file=sys.stderr)
        return EXIT_CRYPTO
    except HppkError as err:
        print(f"hppk: {err}", file=sys.stderr)
        return EXIT_CRYPTO


if __name__ == "__main__":
    sys.exit(main())
