"""The one rule for integers, numbers and choices, whatever the input.

Files and objects built directly check their values here alike.  An integer
is an int, a numpy integer or an integral float, returned as an int; a
number is a finite int or float, numpy ones included.  Neither may be a
bool or a string.  Errors are of the caller's class and name the field.
"""

import math
import sys

import numpy as np

_INTEGERS = {None: "integers", 0: "non-negative integers", 1: "positive integers"}


def _is_number(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def integer(value, name: str, error: type[Exception], minimum: int | None = None) -> int:
    """``value`` as an int of at least ``minimum``, when one is given."""
    kind = _INTEGERS.get(minimum, f"integers of at least {minimum}")
    if not _is_number(value):
        raise error(f"{name} must hold numbers that are {kind}, got {value!r}")
    # a fraction leaves a remainder, and nan or inf a nan one
    if value % 1 or (minimum is not None and value < minimum):
        raise error(f"{name} must hold {kind}, got {value!r}")
    return int(value)


def number(value, name: str, error: type[Exception]) -> float:
    """``value`` as a finite float."""
    # math.isfinite overflows on an int too large for a float; the comparison does not
    if not _is_number(value) or not (abs(value) <= sys.float_info.max if isinstance(value, int)
                                     else math.isfinite(value)):
        raise error(f"{name} must hold numbers that are finite, got {value!r}")
    return float(value)


def choice(value, name: str, options: tuple, error: type[Exception]) -> None:
    """Refuse ``value`` unless it is one of ``options``."""
    if value not in options:
        raise error(f"{name} must be one of {options}, got {value!r}")
