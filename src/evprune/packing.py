"""Selection of retained patches and their positions under one shared mask.

A PackedSequence keeps one index list (``kept``) for both the patch rows
and the positional factors, so a token can never be paired with another
token's position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .saliency import PatchMask


@dataclass(frozen=True, eq=False)
class PackedSequence:
    """Retained tokens plus their original grid coordinates, raster order."""

    tokens: np.ndarray  # (n', D)
    kept: tuple[tuple[int, int], ...]
    origin_grid: tuple[int, int]

    def __post_init__(self):
        arr = np.asarray(self.tokens, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError("tokens must be a 2D matrix")
        if arr.shape[0] != len(self.kept):
            raise ValidationError("one kept coordinate per token row required")
        rows, cols = self.origin_grid
        prev = -1
        for i, j in self.kept:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValidationError(f"coordinate ({i}, {j}) outside grid {self.origin_grid}")
            idx = i * cols + j
            if idx <= prev:
                raise ValidationError("kept coordinates must be strictly raster-increasing")
            prev = idx
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "tokens", arr)
        object.__setattr__(self, "kept", tuple((int(i), int(j)) for i, j in self.kept))

    def __len__(self) -> int:
        return self.tokens.shape[0]


def pack_patches(patch_seq: np.ndarray, mask: PatchMask) -> PackedSequence:
    """Keep the rows whose mask bit is set, preserving raster order."""
    seq = np.asarray(patch_seq, dtype=np.float64)
    if seq.ndim != 2:
        raise ValidationError("patch sequence must be a 2D matrix")
    n = mask.rows * mask.cols
    if seq.shape[0] != n:
        raise ValidationError(
            f"patch sequence has {seq.shape[0]} rows, mask grid implies {n}"
        )
    flat = mask.bits.ravel().astype(bool)
    kept = tuple(
        (idx // mask.cols, idx % mask.cols) for idx in np.nonzero(flat)[0]
    )
    return PackedSequence(seq[flat], kept, (mask.rows, mask.cols))


def unpack_scatter(packed: PackedSequence, fill: np.ndarray) -> np.ndarray:
    """Dense raster matrix with packed rows at their kept indices, fill elsewhere."""
    rows, cols = packed.origin_grid
    d = packed.tokens.shape[1]
    fill_vec = np.asarray(fill, dtype=np.float64)
    if fill_vec.shape != (d,):
        raise ValidationError(f"fill vector must have length {d}")
    out = np.tile(fill_vec, (rows * cols, 1))
    for r, (i, j) in enumerate(packed.kept):
        out[i * cols + j] = packed.tokens[r]
    return out
