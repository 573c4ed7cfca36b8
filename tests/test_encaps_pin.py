"""Encapsulation outputs, pinned per profile.

Each profile encapsulates under one seeded key, many times from one
stream.  Every ciphertext's wire bytes and its shared secret go into one
SHA-256 digest per profile, so any change to what encaps draws, in which
order, or to what it computes from the draws changes a digest.  The
counts are large enough that toy ciphertexts redraw zero noise inside a
ciphertext (about one toy noise vector in 169 is all zero).
"""

import hashlib

import pytest

from hppk import kem
from hppk.block import keygen
from hppk.params import DEFAULT_PRIME_64, PARAMETER_SETS, PRODUCTION_LABELS, ParameterSet
from hppk.rng import DeterministicStream

DEG2 = ParameterSet(
    prime=DEFAULT_PRIME_64, base_degree=1, factor_degree=2, noise_vars=3,
    label="deg2",
)
TOY_NB2 = ParameterSet(prime=13, base_degree=2, factor_degree=1, noise_vars=2,
                       label="toy-nb2")
PROFILES = {
    **{label: PARAMETER_SETS[label] for label in PRODUCTION_LABELS},
    "deg2": DEG2,
    "toy": PARAMETER_SETS["toy"],
    "toy-nb2": TOY_NB2,
}
CIPHERTEXTS = {"toy": 400, "toy-nb2": 400}  # 50 elsewhere

PINNED = {
    "level1-nb1": "049e11d347554f529031bb16f8a576b3cd1ef9b23ae83080ef1ecab55bbdc4e3",
    "level3-nb1": "240773fec206b45b9e66bd7e8cb672d02c1d33f88ed35b5357f654a2de0c7ec0",
    "level5-nb1": "95fad9228dde8768034bbd38dc2b21a1ac70731ad696c4a0fb0dc67b5499beee",
    "level1-nb2": "12ee54c1a017b235f1828921d3ba03e07d564e3aff8d1ff026715f49d370d5e6",
    "level3-nb2": "64d63df806648443da5755002feebde807cd2fc084b21f1109f7f81aaa7404c3",
    "level5-nb2": "75f68080e1b562757be9410fd8e7070389d29cded4aba7d8f02471c27992f225",
    "deg2": "b967c25b36a9a956a2347b6ac12a39143b171a54e3a20a9489e5bc5c4863a77d",
    "toy": "0263af5365ff2f942fa541ae9bbc59bb60488c67d3a671fb8d070bcc51b50567",
    "toy-nb2": "066b7c3166434991d1e586919e839dc0cf34cd7662bb8c5db0e3e8dc5ae7c368",
}


def encapsulations(label):
    """Wire bytes and secret of every pinned encapsulation of one profile."""
    params = PROFILES[label]
    rng = DeterministicStream(f"encaps-pin/{label}".encode())
    _, pk = keygen(params, rng)
    for _ in range(CIPHERTEXTS.get(label, 50)):
        ct, ss = kem.encaps(pk, params, rng)
        yield kem.serialize_ct(ct, params) + ss


@pytest.mark.parametrize("label", list(PROFILES))
def test_encaps_outputs_are_pinned(label):
    digest = hashlib.sha256(b"".join(encapsulations(label))).hexdigest()
    assert digest == PINNED[label]
