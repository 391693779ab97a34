import contextlib
import io
from pathlib import Path
from typing import NamedTuple

import pytest

from cascadix import cli
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


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved in the order written


class _Tee(io.StringIO):
    """A captured stream that also copies each write into `both`."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, text):
        self.both.write(text)
        return super().write(text)


def _run_cli(*args):
    """`cascadix args` in-process, with both streams captured; a
    `SystemExit` becomes the exit code, any other exception propagates."""
    both = io.StringIO()
    out, err = _Tee(both), _Tee(both)
    exit_code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(list(args))
        except SystemExit as exc:
            exit_code = 0 if exc.code is None else exc.code
    return CliResult(exit_code, out.getvalue(), err.getvalue(),
                     both.getvalue())


@pytest.fixture()
def run_cli():
    return _run_cli
