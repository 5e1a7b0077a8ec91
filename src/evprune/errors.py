"""Exception types shared across the package, and the argument checks that raise them.

The CLI maps these onto exit codes: ValidationError -> 1, FormatError -> 2.
"""

import operator

import numpy as np


class ValidationError(ValueError):
    """A value violates a documented precondition or domain invariant."""


class FormatError(ValueError):
    """A byte stream or text document does not conform to its file format."""


def real_array(values, name: str) -> np.ndarray:
    """``values`` as an array of bool, integer or float numbers; an array is not copied."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nesting
        raise ValidationError(f"{name} must be a rectangular array") from None
    if arr.dtype.kind not in "biuf":
        raise ValidationError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    return arr


def as_size(value, name: str) -> int:
    """``value`` as an int >= 1, if ``operator.index`` takes it; else a ValidationError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if value < 1:
        raise ValidationError(f"{name} must be >= 1, got {value}")
    return value
