from pathlib import Path

import pytest

from cascadix.model import load_setup

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def cp2():
    return load_setup(DATA / "cp2.json")


@pytest.fixture(scope="session")
def tau2():
    return load_setup(DATA / "tau2.json")


@pytest.fixture(scope="session")
def rank0():
    return load_setup(DATA / "rank0.json")


@pytest.fixture(scope="session")
def data_dir():
    return DATA
