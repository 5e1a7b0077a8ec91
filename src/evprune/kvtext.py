"""Flat ``key=value`` text documents, used for encoder configs and cost profiles.

One assignment per line. Blank lines and lines starting with ``#`` are
ignored. Keys may be dotted (``vit.d_model``). Values stay as strings;
callers convert.
"""

from __future__ import annotations

import math

from .errors import FormatError


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


def require_keys(kv: dict[str, str], keys: list[str], what: str) -> None:
    missing = [k for k in keys if k not in kv]
    if missing:
        raise FormatError(f"{what}: missing keys {', '.join(missing)}")


def parse_int(kv: dict[str, str], key: str) -> int:
    try:
        return int(kv[key])
    except ValueError:
        raise FormatError(f"key {key}: expected integer, got {kv[key]!r}") from None


def parse_float(kv: dict[str, str], key: str) -> float:
    try:
        value = float(kv[key])
    except ValueError:
        raise FormatError(f"key {key}: expected number, got {kv[key]!r}") from None
    if not math.isfinite(value):
        raise FormatError(f"key {key}: expected a finite number, got {kv[key]!r}")
    return value
