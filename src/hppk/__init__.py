"""HPPK: key encapsulation from homomorphically masked product polynomials.

Public polynomial coefficients are hidden by modular multiplication over
a secret ring; encryption is polynomial evaluation over the integers,
decryption a congruence mod p in which the shared base polynomial
cancels.
The package ships the block cipher core, a multi-block KEM with
byte-exact wire formats, desk-scale cryptanalysis oracles, and a CLI.
"""

from .block import (
    BlockCiphertext,
    PrivateKey,
    PublicKey,
    decrypt_block,
    encrypt_block,
    keygen,
    keypair_from_values,
)
from .errors import HppkError
from .kem import (
    KemCiphertext,
    decaps,
    deserialize_ct,
    deserialize_pk,
    deserialize_sk,
    encaps,
    serialize_ct,
    serialize_pk,
    serialize_sk,
)
from .params import PARAMETER_SETS, ParameterSet, by_level
from .rng import DeterministicStream, SystemRng

__version__ = "0.1.0"

__all__ = [
    "BlockCiphertext",
    "DeterministicStream",
    "HppkError",
    "KemCiphertext",
    "PARAMETER_SETS",
    "ParameterSet",
    "PrivateKey",
    "PublicKey",
    "SystemRng",
    "by_level",
    "decaps",
    "decrypt_block",
    "deserialize_ct",
    "deserialize_pk",
    "deserialize_sk",
    "encaps",
    "encrypt_block",
    "keygen",
    "keypair_from_values",
    "serialize_ct",
    "serialize_pk",
    "serialize_sk",
]
