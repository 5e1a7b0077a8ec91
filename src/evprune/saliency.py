"""Per-patch motion scores and quantile retention masks.

An event frame is cut into non-overlapping p x p patches (trailing pixels
beyond the last full patch are ignored). Each patch scores the number of
events it covers, and the scores are again an ``EventFrame``, one cell
per patch; a mask then retains exactly the top fraction of scoring units.

Retention is an exact-k contract rather than a literal quantile cut:
units are ordered by (score descending, raster index ascending) and the
first ceil(tau * N) are kept. This makes cardinality exact, retained sets
nested across tau, and tie-breaking deterministic.

Mask text format: first line ``rows cols tau``, read by ``errors.integer``
and ``errors.real``, then ``rows`` lines of ``cols`` space-separated 0/1 bits.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    FormatError, ValidationError, as_record, as_size, integer, real, real_array, sealed, shown)
from .events import EventFrame

# Tolerance for tau*n landing a hair above an integer due to binary
# representation of decimal tau (e.g. 0.07 * 100 = 7.000000000000001).
_CEIL_GUARD = 1e-9


def check_tau(tau: float) -> None:
    """A fraction tau is a real number in [0, 1], never a bool; else a ValidationError."""
    if isinstance(tau, bool) or not isinstance(tau, numbers.Real) or not 0 <= tau <= 1:
        raise ValidationError(f"tau must be in [0, 1], got {shown(tau)}")


def retained_count(tau: float, n: int) -> int:
    """ceil(tau * n), clamped to [0, n], robust to float representation noise."""
    check_tau(tau)
    n = as_size(n, "unit count", 0)
    try:
        k = math.ceil(tau * n - _CEIL_GUARD)
    except OverflowError:
        raise ValidationError(
            f"tau {shown(tau)} times unit count {n} is beyond float range") from None
    return max(0, min(n, k))


def _blocks(a: np.ndarray, size: int) -> np.ndarray:
    """(rows, cols, size, size, ...) view of the whole size x size blocks of
    ``a`` in raster order; trailing rows and columns are left out."""
    size = as_size(size, "patch size")
    rows, cols = a.shape[0] // size, a.shape[1] // size
    cropped = a[: rows * size, : cols * size]
    return cropped.reshape(rows, size, cols, size, *a.shape[2:]).swapaxes(1, 2)


def _merge_grid(rows: int, cols: int, merge_size: int) -> tuple[int, int]:
    """The grid of merge_size x merge_size cells that tiles a rows x cols
    patch grid; a grid the cells do not tile is a ValidationError."""
    merge_size = as_size(merge_size, "merge size")
    if rows % merge_size or cols % merge_size:
        raise ValidationError(
            f"patch grid {rows}x{cols} not divisible by merge size {merge_size}")
    return rows // merge_size, cols // merge_size


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
        raw = real_array(self.bits, "mask bits", 2)  # checked before the uint8 cast
        if not np.all((raw == 0) | (raw == 1)):
            raise ValidationError("mask bits must be 0 or 1")
        check_tau(self.tau)
        object.__setattr__(self, "tau", float(self.tau))  # mask_to_text writes its repr
        object.__setattr__(self, "bits", sealed(np.array(raw, dtype=np.uint8)))

    @property
    def rows(self) -> int:
        return self.bits.shape[0]

    @property
    def cols(self) -> int:
        return self.bits.shape[1]

    @property
    def k(self) -> int:
        return int(self.bits.sum())


def patch_scores(frame: EventFrame, patch_size: int) -> EventFrame:
    """Per-patch event counts: the sum over each full p x p block of the frame, as
    an EventFrame of floor(height/p) x floor(width/p) cells; trailing pixels are dropped."""
    as_record(frame, EventFrame, "frame")
    p = as_size(patch_size, "patch size")
    if p > min(frame.width, frame.height):
        raise ValidationError(f"patch size {p} exceeds frame {frame.width}x{frame.height}")
    return EventFrame(_blocks(frame.counts, p).sum(axis=(2, 3)))


def quantile_mask(scores: EventFrame, tau: float, merge_size: int = 1) -> PatchMask:
    """Retain exactly the top ceil(tau * N) units of a per-patch score grid.

    With merge_size == 1 the units are individual patches. With
    merge_size m > 1 the units are m x m patch groups (group score = sum
    of member scores) and every patch of a retained group is set, so the
    mask never splits a merge cell. Ties are broken by raster index, so
    the result is deterministic and scale-invariant.
    """
    as_record(scores, EventFrame, "scores")
    g_rows, g_cols = _merge_grid(scores.height, scores.width, merge_size)
    unit_scores = _blocks(scores.counts, merge_size).sum(axis=(2, 3))
    k = retained_count(tau, g_rows * g_cols)
    order = np.argsort(-unit_scores.ravel(), kind="stable")
    unit_bits = np.zeros(g_rows * g_cols, dtype=np.uint8)
    unit_bits[order[:k]] = 1
    bits = np.empty((scores.height, scores.width), dtype=np.uint8)
    _blocks(bits, merge_size)[...] = unit_bits.reshape(g_rows, g_cols, 1, 1)
    return PatchMask(bits, tau)


def check_fill(fill: tuple[int, int, int]) -> None:
    """A fill color is three integers in 0..255; anything else is a ValidationError."""
    arr = real_array(fill, "fill")
    if arr.shape != (3,) or arr.dtype.kind not in "iu" or ((arr < 0) | (arr > 255)).any():
        raise ValidationError(f"fill must be three values in 0..255, got {fill!r}")


def apply_mask_to_image(
    image: np.ndarray, mask: PatchMask, patch_size: int, fill: tuple[int, int, int]
) -> np.ndarray:
    """Replace the pixels of dropped patches with a fill color.

    Retained patches are copied byte-identically; pixels beyond the
    mask's patch grid are left untouched.
    """
    img = real_array(image, "image")
    as_record(mask, PatchMask, "mask")
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValidationError("image must have shape (H, W, 3)")
    check_fill(fill)
    value = np.asarray(fill).astype(img.dtype)
    if (value != np.asarray(fill)).any():
        raise ValidationError(f"fill {fill!r} does not fit an image of dtype {img.dtype}")
    p = as_size(patch_size, "patch size")
    if img.shape[0] < mask.rows * p or img.shape[1] < mask.cols * p:
        raise ValidationError(
            f"image {img.shape[1]}x{img.shape[0]} smaller than mask grid "
            f"{mask.cols}x{mask.rows} at patch size {p}"
        )
    out = img.copy()  # C-contiguous, so the reshape below is a view
    # (rows, cols, p, p*3): a patch's p pixel rows, each one run of p*3 values,
    # so the fill is written a whole patch row at a time.
    grid = out[: mask.rows * p, : mask.cols * p].reshape(mask.rows, p, mask.cols, p * 3)
    grid.swapaxes(1, 2)[mask.bits == 0] = np.tile(value, p)
    return out


def mask_to_text(mask: PatchMask) -> str:
    as_record(mask, PatchMask, "mask")
    rows = (" ".join(map(str, row)) for row in mask.bits.tolist())
    return "\n".join([f"{mask.rows} {mask.cols} {mask.tau!r}", *rows]) + "\n"


def mask_from_text(text: str) -> PatchMask:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty mask document")
    head = lines[0].split()
    if len(head) != 3:
        raise FormatError("mask header must be 'rows cols tau'")
    try:
        rows, cols, tau = integer(head[0]), integer(head[1]), real(head[2])
    except ValueError:
        raise FormatError(f"bad mask header {lines[0]!r}") from None
    if not (0 <= rows <= len(text) and 0 <= cols <= sys.maxsize):  # a row per character
        raise FormatError(f"bad mask dimensions {rows}x{cols}")
    body = [ln.split() for ln in lines[1:]]
    if cols and len(body) != rows:  # the rows of a mask of no columns are blank lines
        raise FormatError(f"expected {rows} mask rows, got {len(body)}")
    for u, fields in enumerate(body):
        if len(fields) != cols:
            raise FormatError(f"mask row {u}: expected {cols} bits, got {len(fields)}")
        if any(f not in ("0", "1") for f in fields):
            raise FormatError(f"mask row {u}: bits must be 0 or 1")
    # every row is checked, so the array is no larger than the text
    bits = np.array(body, dtype=np.uint8).reshape(rows, cols)
    return PatchMask(bits, tau)
