"""End-to-end demo on a synthetic moving-square scene.

Renders two frames of a bright square translating over a flat
background, simulates the event stream between them, builds the
event-guided retention mask, and writes the masked image. Run:

    python3 scripts/moving_square_demo.py --out-dir demo_out
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from evprune.errors import integer, real
from evprune.events import accumulate, simulate_events, write_events_bin
from evprune.ppm import to_gray01, write_ppm
from evprune.saliency import apply_mask_to_image, mask_to_text, patch_scores, quantile_mask


def scene(size: int, square: int, x0: int, y0: int) -> np.ndarray:
    img = np.full((size, size, 3), 51, dtype=np.uint8)
    img[y0 : y0 + square, x0 : x0 + square] = 230
    return img


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="demo_out")
    ap.add_argument("--size", type=integer, default=128, help="scene edge, pixels")
    ap.add_argument("--square", type=integer, default=32, help="square edge, pixels")
    ap.add_argument("--patch-size", type=integer, default=16)
    ap.add_argument("--contrast", type=real, default=0.3)
    ap.add_argument("--tau", type=real, default=None,
                    help="retained fraction (default: twice the square's area share)")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    frame_a = scene(args.size, args.square, args.size // 8, args.size // 8)
    frame_b = scene(args.size, args.square, args.size // 2, args.size // 8)
    (out / "frame_a.ppm").write_bytes(write_ppm(frame_a))
    (out / "frame_b.ppm").write_bytes(write_ppm(frame_b))

    stream = simulate_events(to_gray01(frame_a), to_gray01(frame_b),
                             args.contrast, duration_us=1000)
    (out / "events.evt1").write_bytes(write_events_bin(stream))
    print(f"events: {len(stream)} over {stream.extent_us()} us")

    frame = accumulate(stream, *stream.extent_us())
    smap = patch_scores(frame, args.patch_size)
    tau = args.tau
    if tau is None:
        tau = 2.0 * (args.square / args.size) ** 2
    mask = quantile_mask(smap, tau)
    (out / "mask.txt").write_text(mask_to_text(mask))
    print(f"mask: {mask.k} of {mask.rows * mask.cols} patches retained "
          f"(tau={tau:g})")

    masked = apply_mask_to_image(frame_a, mask, args.patch_size, (0, 0, 0))
    (out / "masked.ppm").write_bytes(write_ppm(masked))
    print(f"wrote frames, events, mask and masked image to {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
