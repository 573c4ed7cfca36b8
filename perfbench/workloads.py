"""The four workloads: what one op is, how its inputs are made, how it is checked.

Every input comes from a DeterministicStream seeded with the workload name
and the --seed value, so one seed fixes every key, ciphertext, KAT suite
and search instance, and no timed code reads operating-system randomness.
Ops are closed-loop: one caller, the next op starts when the previous one
has returned.

Why these four:

  static-key     a server holding long-lived keys: encaps, the ciphertext
                 wire round trip and decaps; keygen runs only in setup.
                 The custom deg2 profile is the only load on sqrt_mod and
                 the CRC flag, and the only source of decryption failures.
  ephemeral-key  the same layers used differently: a fresh keygen per op
                 and the pk/sk wire round trips, so 136-bit ring-unit
                 inversions, unit sampling and the convolution dominate.
  cli-kat        the user-facing entry point: keygen, encaps and decaps
                 through hppk.cli.main with their files, a comparison of
                 the two shared secrets, then `kat verify` over a suite
                 made in setup by `kat generate`.  The only load on the cli
                 and kat layers.  Commands run in-process: on a shared
                 2-core x86 host, a fresh interpreter per command made the
                 op swing 1.6x with background load, against 1.2x for
                 in-process work.  The traced run reports interpreter
                 start and the import cost of hppk.cli from child
                 processes.
  ring-search    the hidden-ring key-search oracle and its work rate; the
                 KEM layers are idle.
"""

import contextlib
import io
import time
from dataclasses import dataclass
from pathlib import Path

from hppk import block, kem
from hppk import rng as hppk_rng
from hppk.errors import DecapsFailure
from hppk.params import DEFAULT_PRIME_64, PARAMETER_SETS, ParameterSet

SEED_BYTES = 32

# A degree-2 block fails with NoValidRoot when the second root of its
# quadratic also carries a valid CRC-8 flag: probability 2**-8 per block.
_FLAG_COLLISION = 1 / 256


def stream(seed, label):
    """The workload's master stream; looked up at call time so tracing can count it."""
    return hppk_rng.DeterministicStream(f"perfbench/{label}/{seed}".encode())


def cause_of(err):
    """Failure cause of a DecapsFailure as 'Cause@block<index>'."""
    return f"{type(err.cause).__name__}@block{err.block_index}"


# -- KEM workloads


def kem_profiles():
    """Three shipped profiles plus a custom factor-degree-2 profile."""
    deg2 = ParameterSet(
        prime=DEFAULT_PRIME_64, base_degree=1, factor_degree=2, noise_vars=3,
        label="deg2",
    )
    return (
        PARAMETER_SETS["level1-nb1"],
        PARAMETER_SETS["level5-nb1"],
        PARAMETER_SETS["level5-nb2"],
        deg2,
    )


def predicted_rates(params):
    """Per-op probability of each KEM failure cause for one profile."""
    blocks = params.block_count
    # c2 = 0 mod p, or a vanishing leading coefficient: about 1/p per block
    return {
        "ZeroDenominator": blocks / params.prime,
        "DegenerateEquation": blocks / params.prime,
        "NoValidRoot": (
            1 - (1 - _FLAG_COLLISION) ** blocks if params.factor_degree == 2 else 0.0
        ),
        "SharedSecretMismatch": 0.0,
    }


@dataclass
class KemState:
    profiles: tuple
    keys: tuple
    op_seeds: list


class _KemWorkload:
    """Shared by the two KEM workloads: profile round-robin and the check."""

    def profile(self, state, i):
        return state.profiles[i % len(state.profiles)]

    def predicted(self, state, positions):
        """Expected failure count by cause over the given pool positions."""
        expected = {}
        for i in positions:
            for cause, rate in predicted_rates(self.profile(state, i)).items():
                expected[cause] = expected.get(cause, 0.0) + rate
        return expected

    def check(self, state, i, result, counters):
        ss, got = result[-2:]
        if isinstance(got, DecapsFailure):
            return cause_of(got)
        return None if got == ss else "SharedSecretMismatch"


@dataclass
class StaticKey(_KemWorkload):
    name = "static-key"
    calls = ("encaps", "decaps")

    pool_size: int = 1024
    trace_ops: int = 256
    setup_reps: int = 11

    def setup(self, seed, workdir):
        profiles = kem_profiles()
        master = stream(seed, self.name)
        keys = tuple(block.keygen(params, master) for params in profiles)
        op_seeds = [master.take_bytes(SEED_BYTES) for _ in range(self.pool_size)]
        return KemState(profiles, keys, op_seeds)

    def op(self, state, i, calls):
        params = self.profile(state, i)
        sk, pk = state.keys[i % len(state.keys)]
        rng = hppk_rng.DeterministicStream(state.op_seeds[i])
        t0 = time.perf_counter_ns()
        ct, ss = kem.encaps(pk, params, rng)
        t1 = time.perf_counter_ns()
        wire = kem.deserialize_ct(kem.serialize_ct(ct, params), params)
        t2 = time.perf_counter_ns()
        try:
            got = kem.decaps(sk, params, wire)
        except DecapsFailure as err:
            got = err
        calls["encaps"] = t1 - t0
        calls["decaps"] = time.perf_counter_ns() - t2
        return ss, got


@dataclass
class EphemeralKey(_KemWorkload):
    name = "ephemeral-key"
    calls = ("keygen", "encaps", "decaps")

    pool_size: int = 512
    trace_ops: int = 128
    setup_reps: int = 11

    def setup(self, seed, workdir):
        master = stream(seed, self.name)
        op_seeds = [master.take_bytes(SEED_BYTES) for _ in range(self.pool_size)]
        return KemState(kem_profiles(), (), op_seeds)

    def op(self, state, i, calls):
        params = self.profile(state, i)
        rng = hppk_rng.DeterministicStream(state.op_seeds[i])
        t0 = time.perf_counter_ns()
        sk, pk = block.keygen(params, rng)
        t1 = time.perf_counter_ns()
        pk2 = kem.deserialize_pk(kem.serialize_pk(pk, params), params)
        sk2 = kem.deserialize_sk(kem.serialize_sk(sk, params), params)
        t2 = time.perf_counter_ns()
        ct, ss = kem.encaps(pk2, params, rng)
        t3 = time.perf_counter_ns()
        wire = kem.deserialize_ct(kem.serialize_ct(ct, params), params)
        t4 = time.perf_counter_ns()
        try:
            got = kem.decaps(sk2, params, wire)
        except DecapsFailure as err:
            got = err
        calls["keygen"] = t1 - t0
        calls["encaps"] = t3 - t2
        calls["decaps"] = time.perf_counter_ns() - t4
        return (sk, pk), (sk2, pk2), ss, got

    def predicted(self, state, positions):
        return {**super().predicted(state, positions), "KeyWireMismatch": 0.0}

    def check(self, state, i, result, counters):
        if result[0] != result[1]:
            return "KeyWireMismatch"
        return super().check(state, i, result, counters)


# -- cli-kat


CLI_PROFILES = ((1, 1), (5, 1), (5, 2))  # (--level, --nb), round-robin


@dataclass
class CliState:
    workdir: Path
    suite: Path
    records: int
    op_seeds: list


def run_cli(args):
    """Run one hppk command through the CLI's entry point; (exit code, stdout)."""
    from hppk import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
    return code, out.getvalue()


@dataclass
class CliKat:
    name = "cli-kat"
    calls = ("keygen", "encaps", "decaps", "kat_verify")

    pool_size: int = 12
    trace_ops: int = 3
    setup_reps: int = 5
    kat_per_profile: int = 2

    def setup(self, seed, workdir):
        master = stream(seed, self.name)
        suite = workdir / "suite.kat"
        code, _ = run_cli(["kat", "generate", str(suite), "--count",
                           str(self.kat_per_profile), "--seed",
                           master.take_bytes(SEED_BYTES).hex()])
        if code != 0:
            raise RuntimeError(f"hppk kat generate exited with {code}")
        records = 6 * self.kat_per_profile + 1  # six production profiles + toy
        op_seeds = []
        for i in range(self.pool_size):
            (workdir / f"op{i}").mkdir(exist_ok=True)
            op_seeds.append((master.take_bytes(SEED_BYTES).hex(),
                             master.take_bytes(SEED_BYTES).hex()))
        return CliState(workdir, suite, records, op_seeds)

    def predicted(self, state, positions):
        return {"CliExit": 0.0, "CmpMismatch": 0.0, "KatFieldMismatch": 0.0}

    def op(self, state, i, calls):
        level, nb = CLI_PROFILES[i % len(CLI_PROFILES)]
        d = state.workdir / f"op{i}"
        prof = ["--level", str(level), "--nb", str(nb)]
        key_seed, enc_seed = state.op_seeds[i]
        steps = [
            ("keygen", ["keygen", *prof, "--seed", key_seed, "--out", str(d / "key")]),
            ("encaps", ["encaps", *prof, "--pk", str(d / "key.hpk"),
                        "--seed", enc_seed, "--out", str(d / "enc")]),
            ("decaps", ["decaps", *prof, "--sk", str(d / "key.hsk"),
                        "--ct", str(d / "enc.hct"), "--out", str(d / "dec.hss")]),
            ("cmp", None),
            ("kat_verify", ["kat", "verify", str(state.suite)]),
        ]
        results = []
        for name, args in steps:
            t = time.perf_counter_ns()
            if args is None:
                same = (d / "enc.hss").read_bytes() == (d / "dec.hss").read_bytes()
                code, out = (0 if same else 1), ""
            else:
                code, out = run_cli(args)
            calls[name] = time.perf_counter_ns() - t
            results.append((name, code, out))
            if code != 0:
                break
        return results

    def check(self, state, i, result, counters):
        for f in (state.workdir / f"op{i}").iterdir():
            f.unlink()  # the next pass must write every file afresh
        for name, code, out in result:
            if name == "kat_verify":
                lines = out.splitlines()
                if any("FAIL" in line for line in lines):
                    return "KatFieldMismatch"
                if code != 0 or len(lines) != state.records or not all(
                    line.endswith(" ok") for line in lines
                ):
                    return "CliExit@kat_verify"
            elif name == "cmp" and code != 0:
                return "CmpMismatch"
            elif code != 0:
                return f"CliExit@{name}"
        return None


# -- ring-search


# p = 13, m = 3, nb = 1.  Search cost varies several-fold between
# instances (the searched modulus range ends at the largest public
# coefficient), so a run must search many instances for its totals to
# repeat from seed to seed, and each many times for its fastest repeat to
# be found on a noisy machine.  A 7-bit ring searches 96 instances about
# 25 times in 20 s on a 2-core x86 box (the pool's total work then varies
# about 4% between seeds); an 11-bit ring takes about 1 s per instance.
RING_SHAPE = dict(prime=13, base_degree=1, factor_degree=1, noise_vars=3)
RING_BITS = 7


@dataclass
class RingState:
    params: ParameterSet
    instances: list


@dataclass
class RingSearch:
    name = "ring-search"
    calls = ()

    pool_size: int = 96
    trace_ops: int = 16
    setup_reps: int = 5

    def setup(self, seed, workdir):
        from hppk import analysis

        params = ParameterSet(**RING_SHAPE, label="ring-search")
        rng = stream(seed, self.name)
        instances = [
            analysis.random_ring_instance(params, RING_BITS, rng)
            for _ in range(self.pool_size)
        ]
        return RingState(params, instances)

    def predicted(self, state, positions):
        return {"KeyNotFound": 0.0}

    def op(self, state, i, calls):
        from hppk import analysis

        _, pk = state.instances[i]
        return analysis.ring_key_search(pk, state.params, RING_BITS)

    def check(self, state, i, result, counters):
        sk, _ = state.instances[i]
        counters["work"] = result.work
        counters["accepted"] = sum(
            len(c.r1_options) + len(c.r2_options) for c in result.candidates
        )
        return None if result.contains(sk.modulus, sk.r1, sk.r2) else "KeyNotFound"


WORKLOADS = {w.name: w for w in (StaticKey, EphemeralKey, CliKat, RingSearch)}
