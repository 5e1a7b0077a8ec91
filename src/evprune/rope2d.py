"""2D rotary position embedding over a patch grid.

A d-dimensional vector (d divisible by 4) is treated as d/4 consecutive
blocks of four components. For a token at grid position (i, j), block m
(1-based) rotates its first component pair by angle i * theta_m and its
second pair by j * theta_m, with theta_m = 10000 ** (-2m / d). The
equivalent d x d block-diagonal rotation matrix is available from
``rope_matrix`` as a reference implementation for tests.

Rotations preserve norms, compose additively over positions, and leave
query/key inner products invariant under a common translation of both
positions, which is what makes packed sequences position-faithful.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, as_record, as_size, real_array, sealed
from .events import check_cells


def _thetas(d: int) -> np.ndarray:
    m = np.arange(1, d // 4 + 1, dtype=np.float64)
    return 10000.0 ** (-2.0 * m / d)


@dataclass(frozen=True, eq=False)
class RopeTable:
    """Sealed cos/sin factors per coordinate value (O(rows + cols) memory),
    computed from the extent and the dimension, so every table is a rotation."""

    rows: int
    cols: int
    d: int
    cos_row: np.ndarray = field(init=False)  # (rows, d/4)
    sin_row: np.ndarray = field(init=False)
    cos_col: np.ndarray = field(init=False)  # (cols, d/4)
    sin_col: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("rows", "cols", "d"):
            object.__setattr__(self, name, as_size(getattr(self, name), name))
        if self.d % 4:
            raise ValidationError(f"embedding dimension must be divisible by 4, got {self.d}")
        check_cells((self.rows + self.cols) * self.d,
                    f"rotary table ({self.rows} + {self.cols}) x {self.d}")
        theta = _thetas(self.d)
        for axis, extent in (("row", self.rows), ("col", self.cols)):
            angles = np.arange(extent, dtype=np.float64)[:, None] * theta[None, :]
            for name, fn in (("cos", np.cos), ("sin", np.sin)):
                object.__setattr__(self, f"{name}_{axis}", sealed(fn(angles)))


def build_rope(rows: int, cols: int, d: int) -> RopeTable:
    return RopeTable(rows, cols, d)


def _as_positions(positions) -> np.ndarray:
    """A sealed (n, 2) integer copy of packed coordinates or token
    positions. Floats are rejected, not truncated."""
    arr = real_array(positions, "positions")
    if arr.ndim != 2 or arr.shape[1] != 2 or not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError(
            f"positions must be an (n, 2) integer array, got {arr.dtype} {arr.shape}")
    return sealed(arr.astype(np.intp))


def apply_rope(table: RopeTable, pos: tuple[int, int], v: np.ndarray) -> np.ndarray:
    """Rotate one d-vector by its position's block rotations."""
    return apply_rope_many(table, [pos], real_array(v, "v", 1)[None])[0]


def apply_rope_many(
    table: RopeTable, positions: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Rotate a batch: v has shape (n, d) or (n, heads, d); positions is an
    (n, 2) integer array of (row, col) pairs, one per row of v."""
    as_record(table, RopeTable, "table")
    arr = real_array(v, "v").astype(np.float64, copy=False)
    if arr.ndim < 2 or arr.shape[-1] != table.d:
        raise ValidationError(f"v must have shape (n, ..., {table.d}), got {arr.shape}")
    pos = _as_positions(positions)
    n = arr.shape[0]
    if pos.shape[0] != n:
        raise ValidationError("one position per row required")
    if not ((pos >= 0) & (pos < (table.rows, table.cols))).all():
        raise ValidationError("position outside table extent")

    blocks = arr.reshape(arr.shape[:-1] + (table.d // 4, 4))
    # factor shape (n, d/4) broadcast over any middle axes (e.g. heads)
    shape = (n,) + (1,) * (arr.ndim - 2) + (table.d // 4,)
    ca = table.cos_row[pos[:, 0]].reshape(shape)
    sa = table.sin_row[pos[:, 0]].reshape(shape)
    cb = table.cos_col[pos[:, 1]].reshape(shape)
    sb = table.sin_col[pos[:, 1]].reshape(shape)

    x0, x1, x2, x3 = blocks[..., 0], blocks[..., 1], blocks[..., 2], blocks[..., 3]
    out = np.empty_like(blocks)
    out[..., 0] = x0 * ca - x1 * sa
    out[..., 1] = x0 * sa + x1 * ca
    out[..., 2] = x2 * cb - x3 * sb
    out[..., 3] = x2 * sb + x3 * cb
    return out.reshape(arr.shape)


def rope_matrix(i: int, j: int, d: int) -> np.ndarray:
    """Full block-diagonal rotation matrix; reference form for tests.

    Accepts any integer coordinates (including sums of positions) so the
    composition law can be checked directly.
    """
    i, j, d = as_size(i, "i", None), as_size(j, "j", None), as_size(d, "d")
    if max(abs(i), abs(j)) > sys.float_info.max:
        raise ValidationError("coordinates i and j must be within float range")
    if d % 4:
        raise ValidationError(f"embedding dimension must be divisible by 4, got {d}")
    check_cells(d * d, f"rotation matrix {d}x{d}")
    theta = _thetas(d)
    mat = np.zeros((d, d), dtype=np.float64)
    for b in range(d // 4):
        ca, sa = np.cos(i * theta[b]), np.sin(i * theta[b])
        cb, sb = np.cos(j * theta[b]), np.sin(j * theta[b])
        o = 4 * b
        mat[o, o], mat[o, o + 1] = ca, -sa
        mat[o + 1, o], mat[o + 1, o + 1] = sa, ca
        mat[o + 2, o + 2], mat[o + 2, o + 3] = cb, -sb
        mat[o + 3, o + 2], mat[o + 3, o + 3] = sb, cb
    return mat
