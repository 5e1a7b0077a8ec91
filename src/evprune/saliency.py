"""Per-patch motion scores and quantile retention masks.

An event frame is cut into non-overlapping p x p patches (trailing pixels
beyond the last full patch are ignored). Each patch scores the l1 sum of
the frame values it covers; a mask then retains exactly the top fraction
of scoring units.

Retention is an exact-k contract rather than a literal quantile cut:
units are ordered by (score descending, raster index ascending) and the
first ceil(tau * N) are kept. This makes cardinality exact, retained sets
nested across tau, and tie-breaking deterministic.

Mask text format: first line ``rows cols tau``, then ``rows`` lines of
``cols`` space-separated 0/1 digits.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError
from .events import EventFrame

# Tolerance for tau*n landing a hair above an integer due to binary
# representation of decimal tau (e.g. 0.07 * 100 = 7.000000000000001).
_CEIL_GUARD = 1e-9


def retained_count(tau: float, n: int) -> int:
    """ceil(tau * n), clamped to [0, n], robust to float representation noise."""
    if not 0.0 <= tau <= 1.0:
        raise ValidationError(f"retention fraction must lie in [0, 1], got {tau}")
    if n < 0:
        raise ValidationError("unit count must be non-negative")
    k = math.ceil(tau * n - _CEIL_GUARD)
    return max(0, min(n, k))


def _blocks(a: np.ndarray, size: int) -> np.ndarray:
    """(rows, cols, size, size, ...) view of the whole size x size blocks of
    ``a`` in raster order; trailing rows and columns are left out."""
    try:
        size = operator.index(size)
    except TypeError:
        raise ValidationError(f"patch size must be an integer, got {size!r}") from None
    if size < 1:
        raise ValidationError(f"patch size must be >= 1, got {size}")
    rows, cols = a.shape[0] // size, a.shape[1] // size
    cropped = a[: rows * size, : cols * size]
    return cropped.reshape(rows, size, cols, size, *a.shape[2:]).swapaxes(1, 2)


def _merge_grid(rows: int, cols: int, merge_size: int) -> tuple[int, int]:
    """The grid of merge_size x merge_size cells that tiles a rows x cols
    patch grid; a grid the cells do not tile is a ValidationError."""
    if merge_size < 1:
        raise ValidationError("merge size must be >= 1")
    if rows % merge_size or cols % merge_size:
        raise ValidationError(
            f"patch grid {rows}x{cols} not divisible by merge size {merge_size}")
    return rows // merge_size, cols // merge_size


@dataclass(frozen=True, eq=False)
class SaliencyMap:
    """Per-patch finite, non-negative motion scores on a rows x cols grid."""

    scores: np.ndarray
    patch_size: int

    def __post_init__(self):
        arr = np.array(self.scores, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError("scores must be a 2D array")
        if not np.isfinite(arr).all():
            raise ValidationError("scores must be finite")
        if np.any(arr < 0):
            raise ValidationError("scores must be non-negative")
        if self.patch_size < 1:
            raise ValidationError("patch size must be >= 1")
        arr.flags.writeable = False
        object.__setattr__(self, "scores", arr)

    @property
    def rows(self) -> int:
        return self.scores.shape[0]

    @property
    def cols(self) -> int:
        return self.scores.shape[1]


@dataclass(frozen=True, eq=False)
class PatchMask:
    """Binary per-patch retention decision.

    ``k`` is the number of set bits. For patch-granularity quantile masks
    this equals ceil(tau * rows * cols); for merge-group masks it equals
    ceil(tau * n_groups) * merge_size^2.
    """

    bits: np.ndarray
    tau: float

    def __post_init__(self):
        arr = np.array(self.bits, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValidationError("mask bits must be a 2D array")
        if not np.all((arr == 0) | (arr == 1)):
            raise ValidationError("mask bits must be 0 or 1")
        if not 0.0 <= self.tau <= 1.0:
            raise ValidationError(f"tau must lie in [0, 1], got {self.tau}")
        arr.flags.writeable = False
        object.__setattr__(self, "bits", arr)

    @property
    def rows(self) -> int:
        return self.bits.shape[0]

    @property
    def cols(self) -> int:
        return self.bits.shape[1]

    @property
    def k(self) -> int:
        return int(self.bits.sum())


def patch_scores(frame: EventFrame, patch_size: int) -> SaliencyMap:
    """Sum |counts| over each full p x p block of the frame.

    The grid is floor(height/p) x floor(width/p); trailing rows and
    columns that do not fill a patch are discarded.
    """
    p = patch_size
    if frame.height < p or frame.width < p:
        raise ValidationError(
            f"patch size {p} exceeds frame {frame.width}x{frame.height}"
        )
    return SaliencyMap(_blocks(np.abs(frame.counts), p).sum(axis=(2, 3)), p)


def quantile_mask(smap: SaliencyMap, tau: float, merge_size: int = 1) -> PatchMask:
    """Retain exactly the top ceil(tau * N) scoring units.

    With merge_size == 1 the units are individual patches. With
    merge_size m > 1 the units are m x m patch groups (group score = sum
    of member scores) and every patch of a retained group is set, so the
    mask never splits a merge cell. Ties are broken by raster index, so
    the result is deterministic and scale-invariant.
    """
    g_rows, g_cols = _merge_grid(smap.rows, smap.cols, merge_size)
    unit_scores = _blocks(smap.scores, merge_size).sum(axis=(2, 3))
    k = retained_count(tau, g_rows * g_cols)
    order = np.argsort(-unit_scores.ravel(), kind="stable")
    unit_bits = np.zeros(g_rows * g_cols, dtype=np.uint8)
    unit_bits[order[:k]] = 1
    bits = np.empty((smap.rows, smap.cols), dtype=np.uint8)
    _blocks(bits, merge_size)[...] = unit_bits.reshape(g_rows, g_cols, 1, 1)
    return PatchMask(bits, tau)


def check_fill(fill: tuple[int, int, int]) -> None:
    """A fill color is three integers in 0..255; anything else is a ValidationError."""
    arr = np.asarray(fill)
    if arr.shape != (3,) or arr.dtype.kind not in "iu" or ((arr < 0) | (arr > 255)).any():
        raise ValidationError(f"fill must be three values in 0..255, got {fill!r}")


def apply_mask_to_image(
    image: np.ndarray, mask: PatchMask, patch_size: int, fill: tuple[int, int, int]
) -> np.ndarray:
    """Replace the pixels of dropped patches with a fill color.

    Retained patches are copied byte-identically; pixels beyond the
    mask's patch grid are left untouched.
    """
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValidationError("image must have shape (H, W, 3)")
    check_fill(fill)
    p = patch_size
    if img.shape[0] < mask.rows * p or img.shape[1] < mask.cols * p:
        raise ValidationError(
            f"image {img.shape[1]}x{img.shape[0]} smaller than mask grid "
            f"{mask.cols}x{mask.rows} at patch size {p}"
        )
    out = img.copy()
    patches = _blocks(out, p)[: mask.rows, : mask.cols]
    patches[mask.bits == 0] = np.asarray(fill, dtype=img.dtype)
    return out


def mask_to_text(mask: PatchMask) -> str:
    lines = [f"{mask.rows} {mask.cols} {mask.tau!r}"]
    for u in range(mask.rows):
        lines.append(" ".join(str(int(b)) for b in mask.bits[u]))
    return "\n".join(lines) + "\n"


def mask_from_text(text: str) -> PatchMask:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty mask document")
    head = lines[0].split()
    if len(head) != 3:
        raise FormatError("mask header must be 'rows cols tau'")
    try:
        # int() would also take "1_0" and non-ASCII digits; mask_to_text writes neither
        if not all(f.isascii() and f.isdigit() for f in head[:2]):
            raise ValueError
        rows, cols = int(head[0]), int(head[1])
        tau = float(head[2])
    except ValueError:
        raise FormatError(f"bad mask header {lines[0]!r}") from None
    if not (0 <= rows <= sys.maxsize and 0 <= cols <= sys.maxsize):
        raise FormatError(f"bad mask dimensions {rows}x{cols}")
    if len(lines) != rows + 1:
        raise FormatError(f"expected {rows} mask rows, got {len(lines) - 1}")
    body = [ln.split() for ln in lines[1:]]
    for u, fields in enumerate(body):
        if len(fields) != cols:
            raise FormatError(f"mask row {u}: expected {cols} bits, got {len(fields)}")
        if any(f not in ("0", "1") for f in fields):
            raise FormatError(f"mask row {u}: bits must be 0 or 1")
    # every row is checked, so the array is no larger than the text
    bits = np.array(body, dtype=np.uint8).reshape(rows, cols)
    return PatchMask(bits, tau)
