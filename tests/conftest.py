import pytest

from hppk import kat
from hppk.params import PARAMETER_SETS


@pytest.fixture(scope="session")
def toy_params():
    return PARAMETER_SETS["toy"]


@pytest.fixture(scope="session")
def toy_instance():
    return kat.toy_instance()


@pytest.fixture(scope="session")
def toy_keypair(toy_instance):
    sk, pk, _ = toy_instance
    return sk, pk


@pytest.fixture(scope="session")
def toy_block(toy_instance):
    return toy_instance[2]
