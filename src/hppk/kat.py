"""Known-answer test suites.

A suite is a line-oriented text file of `field = hex` records separated
by blank lines, NIST response-file style.  Header comments carry the
deterministic generator identity; replaying a record's seed through that
generator must reproduce its pk, sk, ct, and ss bytes exactly.

Two record modes exist: "seeded" records replay key generation and
encapsulation from a 32-byte seed; the single "fixture" record carries
the hand-picked toy vector (13-bit ring, p = 13, one block), whose
private values no stream would reproduce, and is verified by rebuilding
it from the constants below.
"""

from dataclasses import dataclass

from . import kem
from .block import encrypt_block, keygen, keypair_from_values
from .errors import MalformedEncoding
from .params import PARAMETER_SETS, PRODUCTION_LABELS
from .rng import GENERATOR_ID, DeterministicStream

SEED_BYTES = 32

# The toy vector: every value is checkable by hand.
TOY_MODULUS = 6798
TOY_R1 = 4267
TOY_R2 = 6475
TOY_F1 = (4, 9)
TOY_F2 = (10, 7)
TOY_BASE = ((8, 5), (7, 11))
TOY_SECRET = 8
TOY_NOISE = (3, 6)


@dataclass(frozen=True)
class KatRecord:
    profile: str
    count: int
    mode: str  # "seeded" or "fixture"
    seed: bytes
    pk: bytes
    sk: bytes
    ct: bytes
    ss: bytes


def toy_instance():
    """(sk, pk, block) of the toy vector under the "toy" profile, built anew."""
    params = PARAMETER_SETS["toy"]
    sk, pk = keypair_from_values(
        params, TOY_MODULUS, TOY_R1, TOY_R2, TOY_F1, TOY_F2, TOY_BASE
    )
    return sk, pk, encrypt_block(pk, params, TOY_SECRET, TOY_NOISE)


def toy_vector():
    """The fixture record, rebuilt from first principles on every call."""
    params = PARAMETER_SETS["toy"]
    sk, pk, block = toy_instance()
    ct = kem.KemCiphertext((block,))
    return KatRecord(
        profile="toy",
        count=0,
        mode="fixture",
        seed=b"",
        pk=kem.serialize_pk(pk, params),
        sk=kem.serialize_sk(sk, params),
        ct=kem.serialize_ct(ct, params),
        ss=kem.decaps(sk, params, ct),
    )


def record_from_seed(profile, count, seed):
    """Run keygen then encaps off one stream seeded with `seed`."""
    params = PARAMETER_SETS[profile]
    rng = DeterministicStream(seed)
    sk, pk = keygen(params, rng)
    ct, ss = kem.encaps(pk, params, rng)
    return KatRecord(
        profile=profile,
        count=count,
        mode="seeded",
        seed=seed,
        pk=kem.serialize_pk(pk, params),
        sk=kem.serialize_sk(sk, params),
        ct=kem.serialize_ct(ct, params),
        ss=ss,
    )


def generate_suite(master_seed, per_profile=3, profiles=PRODUCTION_LABELS):
    """Seeded records for each profile (seeds drawn off a master stream),
    plus the toy fixture record at the end."""
    master = DeterministicStream(master_seed)
    records = []
    for profile in profiles:
        for count in range(per_profile):
            records.append(record_from_seed(profile, count, master.take_bytes(SEED_BYTES)))
    records.append(toy_vector())
    return records


def write_suite(records, fh):
    fh.write("# hppk known-answer tests\n")
    fh.write(f"# generator = {GENERATOR_ID}\n\n")
    for rec in records:
        fh.write(f"profile = {rec.profile}\n")
        fh.write(f"count = {rec.count}\n")
        fh.write(f"mode = {rec.mode}\n")
        if rec.mode == "seeded":
            fh.write(f"seed = {rec.seed.hex()}\n")
        fh.write(f"pk = {rec.pk.hex()}\n")
        fh.write(f"sk = {rec.sk.hex()}\n")
        fh.write(f"ct = {rec.ct.hex()}\n")
        fh.write(f"ss = {rec.ss.hex()}\n")
        fh.write("\n")


_FIELD_NAMES = frozenset(KatRecord.__annotations__)


def parse_suite(fh):
    """The records of a suite; a field outside KatRecord's, one given
    twice within a record, or a seed on a fixture record, which nothing
    would check, is malformed.
    """
    records = []
    fields = {}

    def flush():
        if not fields:
            return
        if fields.get("mode") == "fixture" and "seed" in fields:
            raise MalformedEncoding("a fixture record carries no seed")
        try:
            records.append(
                KatRecord(
                    profile=fields["profile"],
                    count=int(fields["count"]),
                    mode=fields["mode"],
                    seed=bytes.fromhex(fields.get("seed", "")),
                    pk=bytes.fromhex(fields["pk"]),
                    sk=bytes.fromhex(fields["sk"]),
                    ct=bytes.fromhex(fields["ct"]),
                    ss=bytes.fromhex(fields["ss"]),
                )
            )
        except (KeyError, ValueError) as err:
            raise MalformedEncoding(f"bad KAT record: {err}") from err
        fields.clear()

    try:
        for line in fh:
            line = line.strip()
            if not line:
                flush()
                continue
            if line.startswith("#"):
                continue
            if "=" not in line:
                raise MalformedEncoding(f"unparseable KAT line: {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _FIELD_NAMES:
                raise MalformedEncoding(f"unknown KAT field {key!r}")
            if key in fields:
                # a second value must not silently replace the first
                raise MalformedEncoding(f"KAT field {key!r} repeated within a record")
            fields[key] = value.strip()
    except UnicodeDecodeError as err:
        raise MalformedEncoding(f"KAT suite is not valid text: {err}") from err
    flush()
    return records


def verify_record(rec):
    """Recompute the record; returns (ok, first differing field or None)."""
    if rec.mode == "fixture":
        expected = toy_vector()
    elif rec.mode == "seeded":
        if rec.profile not in PARAMETER_SETS:
            return False, "profile"
        if len(rec.seed) != SEED_BYTES:
            return False, "seed"
        expected = record_from_seed(rec.profile, rec.count, rec.seed)
    else:
        return False, "mode"
    for name in ("profile", "count", "pk", "sk", "ct", "ss"):
        if getattr(rec, name) != getattr(expected, name):
            return False, name
    return True, None


def verify_suite(records):
    """[(record, ok, first_bad_field)] for every record in order."""
    return [(rec, *verify_record(rec)) for rec in records]
