"""Binary PPM (P6) reading and writing.

P6 layout: ASCII header ``P6``, width, height, maxval as whitespace
separated tokens (``#`` comments allowed between them), one whitespace
byte, then height*width*3 raw bytes. Only maxval <= 255 (one byte per
sample) is supported, and no sample may exceed maxval. The reader scales
a sample v to 0..255 as (v * 255 + maxval // 2) // maxval, the nearest
integer (halves rounded up), so maxval 255 reads the bytes unchanged. The
writer emits a canonical header (maxval 255), so write -> read -> write is
byte-identical.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError, ValidationError, real_array, shown

# Netpbm header whitespace; unlike C isspace, VT and FF are not in it.
_WHITESPACE = b" \t\n\r"


def _tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """First `count` header tokens and the offset just past the one
    whitespace byte that terminates the last of them."""
    out: list[bytes] = []
    pos = 0
    while len(out) < count:
        while pos < len(data) and data[pos] in _WHITESPACE:
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and data[pos] not in _WHITESPACE + b"#":
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
    """Decode P6 bytes to a (height, width, 3) uint8 array of samples scaled to 0..255."""
    # the magic is the whole first header token
    if data[:2] != b"P6" or data[2:3] not in _WHITESPACE + b"#":
        raise FormatError("not a P6 PPM (bad magic)")
    toks, offset = _tokens(data, 4)
    # Unsigned ASCII decimal; int() would also take b"+2" and b"1_0".
    if not all(t.isascii() and t.isdigit() for t in toks[1:]):
        raise FormatError(f"non-numeric PPM header fields {toks[1:]}")
    try:
        width, height, maxval = (int(t) for t in toks[1:])
    except ValueError:  # beyond the 4300 digits int() converts
        raise FormatError("PPM header field too long") from None
    if width < 1 or height < 1:
        raise FormatError(f"bad PPM dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise FormatError(f"unsupported PPM maxval {maxval} (need 1..255)")
    expected = width * height * 3
    raster = data[offset:]
    if len(raster) != expected:
        raise FormatError(f"PPM raster is {len(raster)} bytes, expected {shown(expected)}")
    samples = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)
    if maxval == 255:
        return samples.copy()
    if samples.max() > maxval:
        i = int(np.flatnonzero(samples.ravel() > maxval)[0])
        raise FormatError(f"PPM sample {samples.flat[i]} at pixel "
                          f"({i // 3 % width}, {i // 3 // width}) exceeds maxval {maxval}")
    return ((samples * np.uint16(255) + maxval // 2) // maxval).astype(np.uint8)


def write_ppm(image: np.ndarray) -> bytes:
    img = real_array(image, "image")
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
    img = real_array(image, "image")
    if not (img.ndim == 2 or img.ndim == 3 and img.shape[2] >= 1):
        raise ValidationError(f"image must have shape (H, W) or (H, W, C >= 1), got {img.shape}")
    if img.ndim == 3 and img.dtype == np.uint8:
        # The integer channel sum is exact (uint16 up to 257 channels of at
        # most 255, uint64 beyond), so sum / C is the float64 mean bit for
        # bit; adding the channel planes takes a fifth of the time of
        # mean(axis=2) on a 640x480 RGB image.
        total = img[..., 0].astype(np.uint16 if img.shape[2] <= 257 else np.uint64)
        for c in range(1, img.shape[2]):
            total += img[..., c]
        img = total / img.shape[2]
    elif img.ndim == 3:
        img = img.astype(np.float64, copy=False).mean(axis=2)
    return img.astype(np.float64, copy=False) / 255.0
