"""Shared exception base so the CLI can map failures to exit codes."""


class CascadixError(Exception):
    """Base class for all validation and feasibility errors in this package."""

    def qualified(self) -> str:
        mod = type(self).__module__.rsplit(".", 1)[-1]
        return f"{mod}: {type(self).__name__}: {self}"


def json_int(value, field: str, error: type = CascadixError) -> int:
    """The value of an integer field read from JSON; `error` if it is none.

    `int()` would truncate a float and coerce a bool or a numeric string
    without a word, so only a JSON integer passes.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise error(f"{field} must be an integer")
