"""Known-answer test suites.

A suite is a line-oriented text file of `field = value` records
separated by blank lines, NIST response-file style; `_FIELDS` states the
record layout.  Header comments carry the deterministic generator
identity; replaying a record's seed through that generator must
reproduce its pk, sk, ct, and ss bytes exactly.

Two record modes exist: "seeded" records replay key generation and
encapsulation from a 32-byte seed; the single "fixture" record carries
the hand-picked toy vector (13-bit ring, p = 13, one block), whose
private values no stream would reproduce, and is verified by rebuilding
it from the constants below.
"""

from dataclasses import dataclass, fields

from . import kem
from .block import decrypt_block, encrypt_block, keygen, keypair_from_values
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


# The suite format, stated once: each field's (parse, format) in record
# order; `count` is decimal, bytes are hex, and only seeded records carry
# a seed line.
_FIELDS = {
    f.name: {str: (str, str), int: (int, str), bytes: (bytes.fromhex, bytes.hex)}[f.type]
    for f in fields(KatRecord)
}


def _record(profile, count, mode, seed, sk, pk, ct, ss):
    """A record of a key pair, in its wire bytes, and ciphertext bytes."""
    params = PARAMETER_SETS[profile]
    return KatRecord(
        profile, count, mode, seed, kem.serialize_pk(pk, params),
        kem.serialize_sk(sk, params), ct, ss,
    )


def toy_instance():
    """(sk, pk, block) of the toy vector under the "toy" profile, built anew."""
    params = PARAMETER_SETS["toy"]
    sk, pk = keypair_from_values(
        params, TOY_MODULUS, TOY_R1, TOY_R2, TOY_F1, TOY_F2, TOY_BASE
    )
    return sk, pk, encrypt_block(pk, params, TOY_SECRET, TOY_NOISE)


def toy_vector():
    """The fixture record, rebuilt from first principles on every call.

    Its ct is the one toy block, not a KEM ciphertext of the profile's
    block_count blocks: both values at value_bytes, little-endian, as a
    ciphertext's wire lays out each block.  Its ss is that block's payload
    in one byte.
    """
    params = PARAMETER_SETS["toy"]
    sk, pk, block = toy_instance()
    ct = b"".join([v.to_bytes(params.value_bytes, "little") for v in block])
    ss = decrypt_block(sk, params, block).to_bytes((params.payload_bits + 7) // 8, "little")
    return _record("toy", 0, "fixture", b"", sk, pk, ct, ss)


def record_from_seed(profile, count, seed):
    """Run keygen then encaps off one stream seeded with `seed`."""
    params = PARAMETER_SETS[profile]
    rng = DeterministicStream(seed)
    sk, pk = keygen(params, rng)
    ct, ss = kem.encaps(pk, params, rng)
    return _record(profile, count, "seeded", seed, sk, pk, kem.serialize_ct(ct, params), ss)


def generate_suite(master_seed, per_profile):
    """`per_profile` seeded records for each production profile (seeds
    drawn off a master stream), plus the toy fixture record at the end."""
    master = DeterministicStream(master_seed)
    return [
        record_from_seed(profile, count, master.take_bytes(SEED_BYTES))
        for profile in PRODUCTION_LABELS
        for count in range(per_profile)
    ] + [toy_vector()]


def write_suite(records, fh):
    fh.write("# hppk known-answer tests\n")
    fh.write(f"# generator = {GENERATOR_ID}\n\n")
    for rec in records:
        for name, (_, form) in _FIELDS.items():
            if name != "seed" or rec.mode == "seeded":
                fh.write(f"{name} = {form(getattr(rec, name))}\n")
        fh.write("\n")


def parse_suite(fh):
    """The records of a suite; a missing or undecodable field, one outside
    the format, one given twice within a record, or a seed on a fixture
    record, which nothing would check, is malformed.  A seeded record
    without a seed line reads as seed b"".
    """
    records = []
    values = {}

    def flush():
        if values.get("mode") == "fixture" and "seed" in values:
            raise MalformedEncoding("a fixture record carries no seed")
        values.setdefault("seed", b"")
        missing = _FIELDS.keys() - values.keys()
        if missing:
            raise MalformedEncoding(f"KAT record lacks {sorted(missing)}")
        records.append(KatRecord(**values))
        values.clear()

    try:
        for line in fh:
            line = line.strip()
            if not line:
                if values:
                    flush()
                continue
            if line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise MalformedEncoding(f"unparseable KAT line: {line!r}")
            key = key.strip()
            field = _FIELDS.get(key)
            if field is None:
                raise MalformedEncoding(f"unknown KAT field {key!r}")
            if key in values:
                # a second value must not silently replace the first
                raise MalformedEncoding(f"KAT field {key!r} repeated within a record")
            try:
                values[key] = field[0](value.strip())
            except ValueError as err:
                raise MalformedEncoding(f"bad KAT field {key!r}: {err}") from err
    except UnicodeDecodeError as err:
        raise MalformedEncoding(f"KAT suite is not valid text: {err}") from err
    if values:
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
    for name in _FIELDS:
        if getattr(rec, name) != getattr(expected, name):
            return False, name
    return True, None


def verify_suite(records):
    """[(record, ok, first_bad_field)] for every record in order."""
    return [(rec, *verify_record(rec)) for rec in records]
