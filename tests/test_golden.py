"""Pinned SHA-256 digests of the CLI outputs that run no BLAS code.

The EVT1 files of ``simulate`` (with timestamps spanning less and more
than 0xFFFF microseconds) and the mask text and blanked PPM of
``mask`` (merge sizes 1 and 2) are pure integer and elementwise float
work, so their bytes are the same on every machine. A refactor of the
event, saliency or PPM code must leave them unchanged. Feature dumps are
left out: their last bits may move with the BLAS thread count (see the
``encoder`` module docstring).
"""

from __future__ import annotations

import hashlib

import numpy as np

from evprune.cli import main
from evprune.ppm import write_ppm

GOLDEN = {
    "scene.evt1": "8a9993002ed1ab7b6206c7c5b58e4df24f33085b05337ed8747ecd339b162cc2",
    # Timestamps spanning 75000 us, more than a 16-bit sort key holds.
    "scene_wide.evt1": "7dceea3f35a808a14bc640bfd6f31e8bffa7041ce35f351824b9f1f5f6d9b71e",
    "mask_m1.txt": "5a6d8f68bebca3fd75ab4845c9961090668ad1b2bfdc43d38d79ebdc990a3161",
    "mask_m1.ppm": "880b69072090783a4eeb30e2b823dee499f9fb9148819db31c473750713c8b6e",
    "mask_m2.txt": "c05236571ebd2961cc9a9b3d7597eca05e2dfbecf45ea42196f28f57d6b4864a",
    "mask_m2.ppm": "dd81193ebb189707d745aff069d2b0388a7c297c3a1d6b2805f75bf522e33227",
}


def scene_pair() -> tuple[np.ndarray, np.ndarray]:
    """A seeded 64x96 scene of 8x8 colour blocks, and the same scene
    shifted 5 pixels right with a bright bar entering at the left."""
    rng = np.random.default_rng(2024)
    blocks = rng.integers(20, 236, size=(8, 12, 3), dtype=np.uint8)
    frame_a = np.repeat(np.repeat(blocks, 8, axis=0), 8, axis=1)
    frame_b = np.roll(frame_a, 5, axis=1)
    frame_b[24:40, :5] = 250
    return frame_a, frame_b


def test_cli_outputs_match_their_digests(tmp_path, capsys):
    frame_a, frame_b = scene_pair()
    (tmp_path / "a.ppm").write_bytes(write_ppm(frame_a))
    (tmp_path / "b.ppm").write_bytes(write_ppm(frame_b))
    for name, duration in (("scene.evt1", 5000), ("scene_wide.evt1", 100_000)):
        assert main(["simulate", str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm"),
                     "--contrast", "0.25", "--duration-us", str(duration),
                     "--out", str(tmp_path / name)]) == 0
    for m in (1, 2):
        assert main(["mask", str(tmp_path / "b.ppm"), str(tmp_path / "scene.evt1"),
                     "--tau", "0.3", "--patch-size", "8", "--merge-size", str(m),
                     "--fill", "10,20,30", "--out-mask", str(tmp_path / f"mask_m{m}.txt"),
                     "--out-image", str(tmp_path / f"mask_m{m}.ppm")]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN}
    assert got == GOLDEN
