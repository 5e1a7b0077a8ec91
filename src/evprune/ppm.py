"""Binary PPM (P6) reading and writing.

P6 layout: ASCII header ``P6``, width, height, maxval as whitespace
separated tokens (``#`` comments allowed between them), one whitespace
byte, then height*width*3 raw bytes. Only maxval <= 255 (one byte per
sample) is supported. The writer emits a canonical header, so
write -> read -> write is byte-identical.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError, ValidationError

_WHITESPACE = b" \t\n\r\x0b\x0c"


def _tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """First `count` header tokens and the offset just past the one
    whitespace byte that terminates the last of them."""
    out: list[bytes] = []
    pos = 0
    while len(out) < count:
        while pos < len(data) and data[pos : pos + 1] in (b" ", b"\t", b"\n", b"\r"):
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and data[pos : pos + 1] not in (b" ", b"\t", b"\n", b"\r", b"#"):
            pos += 1
        if pos == start:
            raise FormatError("truncated PPM header")
        out.append(data[start:pos])
        if len(out) == count:
            if pos >= len(data) or data[pos] not in _WHITESPACE:
                raise FormatError("PPM header not terminated by whitespace")
            pos += 1
    return out, pos


def read_ppm(data: bytes) -> np.ndarray:
    """Decode P6 bytes to a (height, width, 3) uint8 array."""
    if not data.startswith(b"P6"):
        raise FormatError("not a P6 PPM (bad magic)")
    toks, offset = _tokens(data, 4)
    # Unsigned ASCII decimal; int() would also take b"+2" and b"1_0".
    if not all(t.isascii() and t.isdigit() for t in toks[1:]):
        raise FormatError(f"non-numeric PPM header fields {toks[1:]}")
    width, height, maxval = (int(t) for t in toks[1:])
    if width < 1 or height < 1:
        raise FormatError(f"bad PPM dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise FormatError(f"unsupported PPM maxval {maxval} (need 1..255)")
    expected = width * height * 3
    raster = data[offset:]
    if len(raster) != expected:
        raise FormatError(
            f"PPM raster is {len(raster)} bytes, expected {expected}"
        )
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3).copy()


def write_ppm(image: np.ndarray) -> bytes:
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValidationError("PPM writer needs a (H, W, 3) uint8 array")
    height, width = img.shape[:2]
    if height < 1 or width < 1:
        raise ValidationError("cannot write an empty image")
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    return header + img.tobytes()


def to_gray01(image: np.ndarray) -> np.ndarray:
    """Mean over channels, scaled to [0, 1] float64; input for the
    brightness-change simulator."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 3:
        img = img.mean(axis=2)
    return img / 255.0
