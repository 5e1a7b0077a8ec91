"""Flat ``key=value`` text documents, used for encoder configs and cost profiles.

One assignment per line. Blank lines and lines starting with ``#`` are
ignored. Keys may be dotted (``vit.d_model``). Keys and their ``int`` or
``float`` value types are the field names and annotations of a record,
and ``errors.integer`` and ``errors.real`` read the values.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Collection
from dataclasses import fields
from types import MappingProxyType

from .errors import FormatError, ValidationError, integer, real, shown


def decode_ascii(data: bytes, what: str) -> str:
    """The text of an ASCII document; any other byte is a FormatError."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what}: non-ASCII byte at offset {exc.start}") from None


def parse_kv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise FormatError(f"line {lineno}: empty key")
        if key in out:
            raise FormatError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


# A field's annotation (text, as annotations are postponed) -> the type its value is
# stored as, its text's reader, a word for it and the values it holds (never a bool).
_TYPES = {"int": (int, integer, "integer", numbers.Integral),
          "float": (float, real, "number", numbers.Real)}


@functools.cache
def record_keys(cls: type, prefix: str) -> MappingProxyType:
    """Each document key of record ``cls``, in field declaration order,
    mapped to the field's annotation, ``"int"`` or ``"float"``. Cached, and
    so read-only: an encoder config is loaded once per encoded frame."""
    return MappingProxyType({prefix + f.name: f.type for f in fields(cls)})


def check_field_types(record) -> None:
    """ValidationError unless each field of ``record`` holds its annotation's
    kind: an integer for ``int``, a real number for ``float``, never a bool.
    The field is then stored as a Python ``int`` or ``float``, so that sizes
    derived from it are computed in Python arithmetic, not in the dtype of a
    numpy scalar. Records call this first in ``__post_init__``."""
    for name, annotation in record_keys(type(record), "").items():
        value = getattr(record, name)
        store, _, noun, kind = _TYPES[annotation]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValidationError(f"field {name}: expected {noun}, got {shown(value)}")
        try:
            object.__setattr__(record, name, store(value))
        except OverflowError:
            raise ValidationError(f"field {name}: {shown(value)} is beyond float range") from None


def check_keys(kv: dict[str, str], keys: Collection[str], what: str) -> None:
    """``kv`` holds exactly ``keys``: missing keys are reported before unknown ones."""
    if kv.keys() != set(keys):
        missing = [k for k in keys if k not in kv]
        if missing:
            raise FormatError(f"{what}: missing keys {', '.join(missing)}")
        raise FormatError(f"{what}: unknown keys {sorted(set(kv).difference(keys))}")


def parse_record(kv: dict[str, str], cls: type, prefix: str):
    """Build ``cls`` from checked ``kv``, parsing its fields in declaration order."""
    values = []
    for key, annotation in record_keys(cls, prefix).items():
        _, read, noun, _ = _TYPES[annotation]
        try:
            values.append(read(kv[key]))
        except ValueError:
            raise FormatError(f"key {key}: expected {noun}, got {kv[key]!r}") from None
        if annotation == "float" and not math.isfinite(values[-1]):
            raise FormatError(f"key {key}: expected a finite number, got {kv[key]!r}")
    return cls(*values)
