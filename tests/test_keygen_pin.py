"""Key generation outputs, pinned per profile.

Each profile generates many key pairs from one seeded stream.  Every key
pair's wire bytes, followed by the next 16 bytes of the stream, go into
one SHA-256 digest per profile, so any change to what key generation
draws, in which order, or to what it builds from the draws changes a
digest.  The p = 13 base-degree-2 profile runs over a stream that zeroes
every fourth below_many, so its keys also redraw zero leading
coefficients, proportional f2 factors and zero base matrices; the
ring-search entry draws over a 7-bit ring, below the decryption size
condition.
"""

import hashlib

import pytest

from hppk import analysis, kem
from hppk.block import keygen
from hppk.params import DEFAULT_PRIME_64, PARAMETER_SETS, PRODUCTION_LABELS, ParameterSet
from hppk.rng import DeterministicStream

DEG2 = ParameterSet(
    prime=DEFAULT_PRIME_64, base_degree=1, factor_degree=2, noise_vars=3,
    label="deg2",
)
TOY_NB2 = ParameterSet(prime=13, base_degree=2, factor_degree=1, noise_vars=2,
                       label="toy-nb2")
RING_SEARCH = ParameterSet(prime=13, base_degree=1, factor_degree=1, noise_vars=3,
                           label="ring-search")
RING_BITS = 7
PROFILES = {
    **{label: PARAMETER_SETS[label] for label in PRODUCTION_LABELS},
    "deg2": DEG2,
    "toy": PARAMETER_SETS["toy"],
    "toy-nb2": TOY_NB2,
    "ring-search": RING_SEARCH,
}
KEYS = {"toy": 400, "toy-nb2": 400}  # 50 elsewhere

PINNED = {
    "level1-nb1": "5433c5fd8c77e9735c06e754fc5a1eb734c1fea11e7c65d677f80a9b34c64d3f",
    "level3-nb1": "a7a1224f546d746eaac988287d17728854a2ee629c6a66a0dd5e518c8521130a",
    "level5-nb1": "b0a3b01470f2ad333f3a0d49ae754ad65950b9f8c22e06585cc55b9c7cd95854",
    "level1-nb2": "73d0b99c8b48e18a24e80dd4162d60da7d40c3a78d4c1f1f1448c5fd4d7075c5",
    "level3-nb2": "0e97f84a578deb8f107c4e32a8b2ec701cfad7259a1fbc04d68d63a29d78c833",
    "level5-nb2": "be61802aaed730a2b705d384972d1351436137a656f2be34b4d8c47f0dd4bb21",
    "deg2": "4b49cc88dcfe5d7794dac4bca1fe6c99dfe23913f9352045a7042f2ff9684d6b",
    "toy": "647fc78ca5fd3a8c678108809d1aa7366629420ddd81b15806217091ed26cb0e",
    "toy-nb2": "02602b79217b325041c12fbb028e09380c8eaabdcfcec162012fbddabeba7ab8",
    "ring-search": "b0402ef64e1410ab9c4b5e979f25b5ccff79401fcbbccdf75e49f2a2f9c07c8e",
}


class ZeroingStream(DeterministicStream):
    """A seeded stream whose every fourth below_many returns zeros.

    It counts what key generation asks of it, by (n, count), so a test
    can tell the redraws apart: below(p) redraws a zero leading
    coefficient, a below_many of factor length past the second redraws a
    proportional f2, and a below_many of base size past the first redraws
    a zero base matrix.
    """

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0
        self.asked = []

    def below(self, n):
        self.asked.append((n, 1))
        return super().below(n)

    def below_many(self, n, count):
        self.asked.append((n, count))
        values = super().below_many(n, count)
        self.calls += 1
        return [0] * count if self.calls % 4 == 0 else values


def _stream(label):
    seed = f"keygen-pin/{label}".encode()
    return ZeroingStream(seed) if label == "toy-nb2" else DeterministicStream(seed)


def key_pairs(label, rng):
    """Wire bytes of every pinned key pair of one profile, each followed by
    the next 16 stream bytes."""
    params = PROFILES[label]
    for _ in range(KEYS.get(label, 50)):
        if label == "ring-search":
            sk, pk = analysis.random_ring_instance(params, RING_BITS, rng)
        else:
            sk, pk = keygen(params, rng)
        yield kem.serialize_pk(pk, params) + kem.serialize_sk(sk, params) + rng.take_bytes(16)


@pytest.mark.parametrize("label", list(PROFILES))
def test_keygen_outputs_are_pinned(label):
    digest = hashlib.sha256(b"".join(key_pairs(label, _stream(label)))).hexdigest()
    assert digest == PINNED[label]


def test_zeroing_stream_takes_every_redraw():
    rng = _stream("toy-nb2")
    keys = KEYS["toy-nb2"]
    list(key_pairs("toy-nb2", rng))
    p, m = TOY_NB2.prime, TOY_NB2.noise_vars
    factor, base = TOY_NB2.factor_degree + 1, (TOY_NB2.base_degree + 1) * m
    assert rng.asked.count((p, 1)) > 0  # zero leading coefficients
    assert rng.asked.count((p, factor)) > 2 * keys  # proportional f2
    assert rng.asked.count((p, base)) > keys  # zero base matrices
