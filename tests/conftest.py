"""Shared helpers: synthetic scenes, event streams, encoder setups and fuzz documents."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from evprune.encoder import EncoderConfig, init_weights, patchify
from evprune.events import EventStream
from evprune.ppm import write_ppm
from evprune.rope2d import build_rope

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


def small_config(**overrides):
    base = dict(patch_size=2, channels=3, d_model=16, n_layers=2, n_heads=2,
                mlp_ratio=2.0, merge_size=1, d_out=16, seed=0)
    base.update(overrides)
    return EncoderConfig(**base)


def random_setup(rows, cols, config, seed):
    """Image patches, rope table, and weights for a rows x cols grid."""
    rng = np.random.Generator(np.random.PCG64(seed))
    p = config.patch_size
    image = rng.random((rows * p, cols * p, config.channels))
    patches = patchify(image, p)
    rope = build_rope(rows, cols, config.head_dim)
    return patches, rope, init_weights(config)


VALID_ENCODER = dict(patch_size="2", channels="3", d_model="16", n_layers="1",
                     n_heads="2", mlp_ratio="2.0", merge_size="1", d_out="8",
                     seed="5")
VALID_PROFILE = {
    "name": "tiny", "vit.d_model": "8", "vit.n_layers": "1", "vit.n_heads": "2",
    "vit.mlp_ratio": "2.0", "vit.patch_size": "2", "vit.merge_size": "1",
    "vit.channels": "3", "llm.d_model": "8", "llm.n_layers": "1",
    "llm.n_heads": "2", "llm.mlp_ratio": "2.0",
}


def kv_text(kv):
    return "".join(f"{key} = {value}\n" for key, value in kv.items())


@st.composite
def kv_documents(draw, valid, values):
    """Arbitrary text, or a valid document with a few values replaced by
    ``values`` or dropped and possibly one arbitrary line added."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(max_size=200))
    kv = dict(valid)
    for key in draw(st.lists(st.sampled_from(sorted(valid)), max_size=2, unique=True)):
        if draw(st.integers(0, 3)):
            kv[key] = draw(values)
        else:
            del kv[key]
    lines = [f"{key} = {value}" for key, value in kv.items()]
    if draw(st.integers(0, 3)) == 0:
        lines.append(draw(st.text(max_size=20)))
    return "\n".join(draw(st.permutations(lines)))


@st.composite
def near_valid_bytes(draw, valid):
    """Arbitrary bytes, or a valid blob with a few bytes replaced, inserted
    or cut off."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=200))
    blob = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(blob)))
        op = draw(st.integers(0, 2))
        if op == 0 and at < len(blob):
            blob[at] = draw(st.integers(0, 255))
        elif op == 1:
            blob[at:at] = draw(st.binary(min_size=1, max_size=8))
        else:
            del blob[at:]
    return bytes(blob)
