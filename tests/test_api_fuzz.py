"""Near-valid arguments to the grid and mask constructors and functions.

Each case starts from a valid argument list and swaps any of its
arguments for a value one step away: an int/float swap, zero, a negative,
NaN, the wrong rank, a ragged nesting, or a str, complex or object dtype.
Every call must return a value or raise ValidationError or FormatError;
any other exception, or a warning, fails the test.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evprune.errors import FormatError, ValidationError
from evprune.events import EventFrame, resize_to
from evprune.packing import PackedSequence
from evprune.rope2d import RopeTable, apply_rope_many, build_rope
from evprune.saliency import PatchMask, patch_scores, quantile_mask


def near_valid(value) -> list:
    """Values one step away from the valid argument ``value``."""
    if isinstance(value, np.ndarray):
        with_nan = value.astype(np.float64)
        with_nan.flat[0] = np.nan
        rows = value.tolist()
        return [value.astype(np.float64) + 0.5, value.astype(np.int64), with_nan,
                -value.astype(np.int64) - 1, value[0], value[None], value[:0],
                value.ravel()[0], rows, [rows[0], rows[0][:-1]], value.astype(str),
                value.astype(np.complex128), value.astype(object)]
    if isinstance(value, tuple):
        return [value[:1], value + (1,), tuple(v + 0.5 for v in value),
                tuple(-v for v in value), list(value), tuple(map(str, value)),
                (value[0], math.nan), None]
    return [0, -1, -value, float(value), value + 0.5, int(value), math.nan, math.inf,
            True, str(value), complex(value), np.float64(value), np.int64(int(value)), None]


_RNG = np.random.Generator(np.random.PCG64(83))
_ROPE = build_rope(3, 4, 8)


def rope_at_far_corner(*fields):
    """A table from ``fields``, applied at the last row and column it covers."""
    table = RopeTable(*fields)
    return apply_rope_many(table, np.array([[table.rows - 1, table.cols - 1]]), np.ones((1, 8)))


# name -> (call, valid arguments); a frame argument is passed as its counts
CASES = {
    "EventFrame": (EventFrame, [_RNG.integers(0, 5, size=(3, 4))]),
    "PatchMask": (PatchMask, [np.array([[1, 0], [0, 1]], dtype=np.uint8), 0.5]),
    "PackedSequence": (PackedSequence, [_RNG.standard_normal((2, 3)),
                                        np.array([[0, 0], [1, 1]]), (2, 2)]),
    "RopeTable": (rope_at_far_corner, [_ROPE.rows, _ROPE.cols, _ROPE.d, _ROPE.cos_row,
                                       _ROPE.sin_row, _ROPE.cos_col, _ROPE.sin_col]),
    "resize_to": (lambda counts, width, height: resize_to(EventFrame(counts), width, height),
                  [_RNG.integers(0, 5, size=(3, 4)), 5, 2]),
    "patch_scores": (lambda counts, p: patch_scores(EventFrame(counts), p),
                     [_RNG.integers(0, 5, size=(4, 6)), 2]),
    "quantile_mask": (lambda scores, tau, m: quantile_mask(EventFrame(scores), tau, m),
                      [_RNG.random((2, 4)), 0.5, 2]),
}


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_near_valid_arguments_return_or_raise_domain_errors(name, data):
    call, valid = CASES[name]
    args = [data.draw(st.sampled_from([arg, *near_valid(arg)])) for arg in valid]
    try:
        call(*args)
    except (ValidationError, FormatError):
        pass


@pytest.mark.parametrize("name", CASES)
def test_valid_arguments_return_a_value(name):
    call, valid = CASES[name]
    assert call(*valid) is not None
