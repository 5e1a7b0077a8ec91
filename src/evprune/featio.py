"""Feature dump format: u32 LE row count, u32 LE dim, then count*dim
float32 little-endian values in row-major order. Fixed so that an
implementation in any language can diff feature files byte for byte.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError, ValidationError, real_array

_HEADER = struct.Struct("<II")


def _holds_finite(body: np.ndarray) -> bool:
    """Whether a float32 body is a valid dump's: no NaN and no infinity."""
    return bool(np.isfinite(body).all())


def write_features(features: np.ndarray) -> bytes:
    feats = real_array(features, "features", 2).astype(np.float64, copy=False)
    count, dim = feats.shape
    with np.errstate(over="ignore"):  # a value beyond float32 becomes inf, refused below
        body = np.ascontiguousarray(feats, dtype="<f4")
    if not _holds_finite(body):
        raise ValidationError("features must be finite and within float32 range")
    return _HEADER.pack(count, dim) + body.tobytes()


def read_features(data: bytes) -> np.ndarray:
    """Decode a feature dump to a (count, dim) float32 array."""
    if len(data) < _HEADER.size:
        raise FormatError(f"feature dump too short ({len(data)} bytes)")
    count, dim = _HEADER.unpack_from(data)
    expected = _HEADER.size + 4 * count * dim
    if len(data) != expected:
        raise FormatError(
            f"feature dump is {len(data)} bytes, expected {expected} "
            f"for {count}x{dim}"
        )
    body = np.frombuffer(data, dtype="<f4", offset=_HEADER.size)
    if not _holds_finite(body):
        raise FormatError("feature dump holds non-finite values")
    return body.reshape(count, dim).copy()
