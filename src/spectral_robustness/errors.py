"""Exception types shared across the toolkit, and the rules for count and real arguments."""

import numpy as np


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class UndefinedMetricError(ValueError):
    """A metric has no defined value for the given input (e.g. all-zero data)."""


class DegenerateFitError(ValueError):
    """A regression cannot be fitted (e.g. all x values identical)."""


class TraceParseError(ValueError):
    """A trace/accuracy/metric table failed validation; message carries the line number."""


class TensorFormatError(ValueError):
    """A tensor container file is malformed or uses an unsupported layout."""


def checked_count(name: str, value, least: int | None = None) -> int:
    """``value`` as an int if it is a Python or numpy integer, not a bool, >= ``least`` if given.

    Without ``least`` only the type is checked, for a caller whose own range
    check names several arguments at once.
    """
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not is_int or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise InvalidInputError(f"{name} must be an int{bound}, got {value!r}")
    return int(value)


def checked_real(name: str, value):
    """``value`` unchanged if it is a Python or numpy int or float, not a bool.

    Range checks (finite, positive, ...) stay with the caller.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    return value
