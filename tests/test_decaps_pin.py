"""Decapsulation outcomes, pinned per profile.

Each profile decapsulates honest ciphertexts under a few seeded keys.
Every outcome, the shared secret in hex or the failure as
'Cause@block<index>', goes into one SHA-256 digest per profile, so any
change to what decaps returns or which failure it reports, and at which
block, changes a digest.  The census of failure causes beside each digest
says what the pinned outcomes hold.
"""

import hashlib
from collections import Counter

import pytest

from hppk import kem
from hppk.block import keygen
from hppk.errors import DecapsFailure
from hppk.params import DEFAULT_PRIME_64, PARAMETER_SETS, PRODUCTION_LABELS, ParameterSet
from hppk.rng import DeterministicStream

DEG2 = ParameterSet(
    prime=DEFAULT_PRIME_64, base_degree=1, factor_degree=2, noise_vars=3,
    label="deg2",
)
PROFILES = {
    **{label: PARAMETER_SETS[label] for label in PRODUCTION_LABELS},
    "deg2": DEG2,
    "toy": PARAMETER_SETS["toy"],
}
KEYS = 2
CIPHERTEXTS = {"deg2": 256, "toy": 40}  # per key; 16 elsewhere

PINNED = {
    "level1-nb1": ("5a2c9790b4824e1213d80c1790c4786acb2237322392013754568bf1715ce87f", {}),
    "level3-nb1": ("dc201c607ddfe38201788b8bcf8a68acb40e47e157b57e2f706657c6e21a2f2f", {}),
    "level5-nb1": ("e2259bda88817f26593950e54e927ed4551c3a7969f149683f6e269bf64284c7", {}),
    "level1-nb2": ("105c0991d51fa1b00da777d14d1ac98875f5670d04ce5ced84215763c150b62c", {}),
    "level3-nb2": ("19ea6ae00b323100dcf7a8f363acbe34f7d25bf54d55c7bd1239c9e62f67fc84", {}),
    "level5-nb2": ("cfcfd6d5d7a546ad95ae74a559147aa204a5a14010ce4a5ec2bf9f9ae9db371f", {}),
    # the stray root's flag verifies about once in 2**8 blocks
    "deg2": ("70ff1705e22399d7a3b7e1d2989cd66c0f46bb6b732fd4e28850b8d9b6472a15",
             {"NoValidRoot": 5}),
    # at p = 13 a block meets c2 = 0 about 2 times in 13: every toy secret fails
    "toy": ("b08082693a1a61ce88925d2451a68bb400c6b58ba310c57c289f6c39b83e9406",
            {"ZeroDenominator": 80}),
}


def outcomes(label):
    """The outcome of every pinned ciphertext of one profile, in order."""
    params = PROFILES[label]
    for key in range(KEYS):
        rng = DeterministicStream(f"decaps-pin/{label}/{key}".encode())
        sk, pk = keygen(params, rng)
        for _ in range(CIPHERTEXTS.get(label, 16)):
            ct, ss = kem.encaps(pk, params, rng)
            try:
                got = kem.decaps(sk, params, ct)
            except DecapsFailure as err:
                yield f"{type(err.cause).__name__}@block{err.block_index}"
                continue
            assert got == ss
            yield got.hex()


@pytest.mark.parametrize("label", list(PROFILES))
def test_decaps_outcomes_are_pinned(label):
    seen = list(outcomes(label))
    digest = hashlib.sha256("\n".join(seen).encode()).hexdigest()
    census = Counter(s.split("@")[0] for s in seen if "@" in s)
    assert (digest, dict(census)) == PINNED[label]
