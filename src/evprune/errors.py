"""Exception types shared across the package, and the one argument intake that raises them.

Every public entry point returns a value or raises ValidationError (CLI exit 1) or
FormatError (CLI exit 2). It takes each array argument through ``real_array``, each
integer argument through ``as_size``, each record argument through ``as_record`` and
each number in text through ``integer`` or ``real`` before it compares or converts the
value, and quotes it in a message through ``shown``. A record holds each array only
through ``sealed``, so no caller can make it writable again and break the laws its
constructor checked.
"""

import operator

import numpy as np

_SIZE_BITS = 4096  # the most ``as_size`` takes: 1234 digits, which Python prints


class ValidationError(ValueError):
    """A value violates a documented precondition or domain invariant."""


class FormatError(ValueError):
    """A byte stream or text document does not conform to its file format."""


def real_array(values, name: str, ndim: int | None = None) -> np.ndarray:
    """``values`` as an array of bool, integer or float numbers, with ``ndim``
    dimensions unless that is None; an array is not copied."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nesting
        raise ValidationError(f"{name} must be a rectangular array") from None
    if arr.dtype.kind not in "biuf":
        raise ValidationError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    if ndim is not None and arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    return arr


def as_size(value, name: str, least: int | None = 1) -> int:
    """``value`` as an int of at most 4096 bits, if ``operator.index`` takes it and it is
    not a bool, that is >= ``least`` unless that is None; else a ValidationError."""
    try:
        if isinstance(value, bool):  # operator.index takes True as 1
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {shown(value)}") from None
    if value.bit_length() > _SIZE_BITS:
        raise ValidationError(f"{name} must fit {_SIZE_BITS} bits, got {shown(value)}")
    if least is not None and value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    return value


def is_integer(text: str) -> bool:
    """``text`` is an optionally signed ASCII decimal, padded with whitespace."""
    digits = text.strip()
    return text.isascii() and (digits[1:] if digits[:1] in ("+", "-") else digits).isdigit()


def integer(text: str) -> int:
    """``text``'s value if ``is_integer`` takes it (not "1_0" or non-ASCII digits,
    which ``int`` takes); else a ValueError, as also beyond 4300 digits."""
    if not is_integer(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def real(text: str) -> float:
    """The float of an ASCII ``text`` with no "_" that ``float`` takes, else a ValueError."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a real number: {text!r}")
    return float(text)


def as_record(value, cls: type, name: str):
    """``value`` if it is a ``cls``, else a ValidationError."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValidationError(
            f"{name} must be {article} {cls.__name__}, got {type(value).__name__}")
    return value


def sealed(values: np.ndarray) -> np.ndarray:
    """``values`` seen through a read-only memoryview, not copied: numpy refuses
    to make the result, or any view of it, writable again."""
    return np.asarray(memoryview(values).toreadonly())


def shown(value) -> str:
    """``value``'s repr for a message, or, for an integer too long to print, its size,
    and for another value whose repr raises (it holds such an integer), its type."""
    if isinstance(value, int) and value.bit_length() > _SIZE_BITS:
        return f"an integer of {value.bit_length()} bits"
    try:
        return repr(value)
    except ValueError:
        return f"a {type(value).__name__} too long to print"
