"""Shared exception base, and the one reader of every input file.

Setups, Morse data and instances are read by `read_json_object`, their
numbers by `json_int` and `parse_rational`, their names by `json_name`,
their fields under `malformed`:
a malformed file of any kind is one engine error (exit 1), not a traceback.
No integer literal may have more than MAX_DIGITS digits.
"""

import contextlib
import json
import re

# The most digits an integer literal of an input may have: the
# interpreter's default limit on int <-> str conversion, which `cli.main`
# lifts so that derived values print in full.
MAX_DIGITS = 4300

# the strings `parse_rational` hands to `Fraction`, which takes far more
# (spaces, decimals, exponents that cost time exponential in their digits)
_RATIONAL = rf"[+-]?[0-9]{{1,{MAX_DIGITS}}}(/[0-9]{{1,{MAX_DIGITS}}})?"


class CascadixError(Exception):
    """Base class for all validation and feasibility errors in this package."""

    def qualified(self) -> str:
        mod = type(self).__module__.rsplit(".", 1)[-1]
        return f"{mod}: {type(self).__name__}: {self}"


def read_json_object(path, what: str, error: type = CascadixError) -> dict:
    """The top-level object of the UTF-8 JSON file at `path`; `error`
    names the file as `what` if it cannot be opened, decoded or parsed
    (nesting too deep included) or holds no object."""
    try:
        with open(path, encoding="utf-8") as file:
            raw = json.load(file, parse_int=_json_integer)
    except (OSError, ValueError, RecursionError) as exc:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise error(f"cannot read {what} {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise error(f"{what} must be a JSON object")
    return raw


def _json_integer(text: str) -> int:
    """A JSON integer literal of at most MAX_DIGITS digits, as an int."""
    digits = len(text.lstrip("-"))
    if digits > MAX_DIGITS:
        raise ValueError(f"integer literal has {digits} digits, more than "
                         f"{MAX_DIGITS}")
    return int(text)


@contextlib.contextmanager
def malformed(what: str):
    """Missing or ill-typed fields of a decoded `what` become engine errors."""
    try:
        yield
    except KeyError as exc:
        raise CascadixError(f"{what} lacks field {exc}") from None
    except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CascadixError(f"malformed {what}: {exc}") from None


def json_int(value, field: str, error: type = CascadixError) -> int:
    """The value of an integer field read from JSON; `error` if it is none.

    `int()` would truncate a float and coerce a bool or a numeric string
    without a word, so only a JSON integer passes.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise error(f"{field} must be an integer")


def json_name(value, field: str, error: type = CascadixError) -> str:
    """The value of a name field read from JSON; `error` unless it is a
    non-empty string, which `str()` would make of a list or a number."""
    if isinstance(value, str) and value:
        return value
    raise error(f"bad {field} {value!r}")


def parse_rational(value, error: type = CascadixError):
    """An exact `Fraction` from a JSON integer or a "p/q" string.

    Floats would silently poison the exact arithmetic.  A string is an
    optional sign and ASCII digits with an optional nonzero "/q": no
    spaces, decimal points, exponents or underscores.
    """
    from fractions import Fraction

    if isinstance(value, bool):
        raise error(f"boolean is not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise error(f"float not allowed, write an int or 'p/q': {value!r}")
    if isinstance(value, str):
        try:
            if re.fullmatch(_RATIONAL, value):
                return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
        raise error(f"bad rational literal {value!r}")
    raise error(f"bad rational {value!r}")
