"""Shared helpers: synthetic scenes and event streams."""

from __future__ import annotations

import numpy as np
import pytest

from evprune.events import EventStream
from evprune.ppm import write_ppm

SQUARE = 32          # bright square edge, pixels
SCENE = 128          # scene edge, pixels
BACKGROUND = 51      # uint8 background (0.2 in [0,1])
FOREGROUND = 230     # uint8 square fill (0.9 in [0,1])


def square_scene(x0: int, y0: int) -> np.ndarray:
    """Flat background with a bright SQUARE x SQUARE square at (x0, y0)."""
    img = np.full((SCENE, SCENE, 3), BACKGROUND, dtype=np.uint8)
    img[y0 : y0 + SQUARE, x0 : x0 + SQUARE] = FOREGROUND
    return img


@pytest.fixture
def square_pair(tmp_path):
    """PPM file pair: the square moves from (16,16) to (64,16)."""
    path_a = tmp_path / "frame_a.ppm"
    path_b = tmp_path / "frame_b.ppm"
    path_a.write_bytes(write_ppm(square_scene(16, 16)))
    path_b.write_bytes(write_ppm(square_scene(64, 16)))
    return path_a, path_b


def stream_of(width, height, *events):
    """A stream from (t_us, x, y, polarity) rows."""
    return EventStream(width, height, *np.array(events, dtype=np.int64).reshape(-1, 4).T)


def as_tuples(stream):
    return list(zip(stream.t_us.tolist(), stream.x.tolist(), stream.y.tolist(),
                    stream.polarity.tolist()))
