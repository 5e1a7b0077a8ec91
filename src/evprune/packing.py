"""Rows at grid coordinates, and the selection of retained patches under a mask.

Positions are one sealed (n, 2) integer array of (row, col) grid
coordinates in strictly increasing raster order, which no caller can
make writable again. A PackedSequence keeps one such array (``kept``) for
both the token rows and the positional factors, so a token can never be
paired with another token's position.
It is the one type for rows at grid coordinates: packed patches going
into the encoder, encoder outputs, and merged cells on the cell grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, as_record, as_size, real_array, sealed, shown
from .events import check_cells
from .rope2d import _as_positions
from .saliency import PatchMask


@dataclass(frozen=True, eq=False)
class PackedSequence:
    """Retained tokens plus their original grid coordinates, raster order."""

    tokens: np.ndarray  # (n', D)
    kept: np.ndarray  # (n', 2) integer (row, col)
    origin_grid: tuple[int, int]

    def __post_init__(self):
        arr = np.array(real_array(self.tokens, "tokens", 2), dtype=np.float64)
        kept = _as_positions(self.kept)
        if arr.shape[0] != kept.shape[0]:
            raise ValidationError("one kept coordinate per token row required")
        grid = self.origin_grid
        if not (isinstance(grid, tuple) and len(grid) == 2):
            raise ValidationError(f"origin grid must be two non-negative ints, got {shown(grid)}")
        rows, cols = (as_size(v, "origin grid", 0) for v in grid)
        # the first row that is outside the grid or not after its predecessor
        inside = ((kept >= 0) & (kept < (rows, cols))).all(axis=1)
        rising = np.diff(kept[:, 0] * cols + kept[:, 1], prepend=-1) > 0
        bad = np.flatnonzero(~(inside & rising))[:1]
        if bad.size and not inside[bad[0]]:
            i, j = kept[bad[0]]
            raise ValidationError(f"coordinate ({i}, {j}) outside grid {(rows, cols)}")
        if bad.size:
            raise ValidationError("kept coordinates must be strictly raster-increasing")
        object.__setattr__(self, "tokens", sealed(arr))
        object.__setattr__(self, "kept", kept)
        object.__setattr__(self, "origin_grid", (rows, cols))

    def __len__(self) -> int:
        return self.tokens.shape[0]


def _grid_rows(patches, grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """``patches`` in its own dtype (not copied) if its rows fill the rows x
    cols ``grid`` in raster order, and the (row, col) coordinate of each row."""
    seq = real_array(patches, "patches", 2)
    rows, cols = grid
    if seq.shape[0] != rows * cols:
        raise ValidationError(f"{seq.shape[0]} patch rows do not fill a {rows}x{cols} grid")
    return seq, np.argwhere(np.ones(grid, dtype=bool))


def pack_patches(patch_seq: np.ndarray, mask: PatchMask) -> PackedSequence:
    """Keep the rows whose mask bit is set, preserving raster order. Only the
    kept rows are converted to the sequence's float64."""
    as_record(mask, PatchMask, "mask")
    seq, positions = _grid_rows(patch_seq, (mask.rows, mask.cols))
    flat = mask.bits.ravel().astype(bool)
    return PackedSequence(seq[flat], positions[flat], (mask.rows, mask.cols))


def unpack_scatter(packed: PackedSequence, fill: np.ndarray) -> np.ndarray:
    """Dense raster matrix with packed rows at their kept indices, fill elsewhere."""
    as_record(packed, PackedSequence, "packed")
    rows, cols = packed.origin_grid
    check_cells(rows * cols, f"origin grid {rows}x{cols}")
    d = packed.tokens.shape[1]
    fill_vec = real_array(fill, "fill vector").astype(np.float64, copy=False)
    if fill_vec.shape != (d,):
        raise ValidationError(f"fill vector must have length {d}")
    out = np.tile(fill_vec, (rows * cols, 1))
    out[packed.kept[:, 0] * cols + packed.kept[:, 1]] = packed.tokens
    return out
