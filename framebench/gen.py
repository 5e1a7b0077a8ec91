"""Seeded input generator for one benchmark run.

Writes PPM, EVT1, CSV and the encoder config with numpy and struct, never
through evprune's writers, so generation stays out of the measured process
and the inputs do not change when the program's writers change. Every file
is then decoded once with the program's readers, so a disagreement between
generator and program fails here, before anything is timed.

Usage: python3 gen.py --workload W --seed N --dir WORKDIR [--smoke]
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
from pathlib import Path

import numpy as np

import workloads as wl


EVT1 = np.dtype([("t", "<u4"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])  # 9 bytes
EVT1_HEADER = struct.Struct("<4sHHHHI")  # magic, version, width, height, reserved, count


def ppm_bytes(image: np.ndarray) -> bytes:
    height, width = image.shape[:2]
    return f"P6\n{width} {height}\n255\n".encode("ascii") + image.tobytes()


def encode_image(rng: np.random.Generator, edge: int) -> np.ndarray:
    """Smooth colour gradient plus texture; content does not steer the work."""
    ramp = np.linspace(0.0, 200.0, edge)
    image = np.empty((edge, edge, 3))
    image[..., 0] = ramp[None, :]
    image[..., 1] = ramp[:, None]
    image[..., 2] = 100.0
    image += rng.normal(0.0, 20.0, image.shape)
    return np.clip(np.rint(image), 0, 255).astype(np.uint8)


def moving_rect_events(rng: np.random.Generator, sc: wl.Scale) -> np.ndarray:
    """(n, 4) int64 rows t, x, y, p sorted by t: edges of three moving
    rectangles (90%) plus uniform noise (10%)."""
    width, height = sc.sensor
    n = sc.csv_events
    n_noise = n // 10
    n_edge = n - n_noise
    t = rng.integers(0, wl.DURATION_US, n)
    rect = rng.integers(0, 3, n_edge)
    size = rng.integers((width // 10, height // 10), (width // 5, height // 5), (3, 2))
    start = rng.integers(0, (width // 2, height // 2), (3, 2))
    speed = rng.uniform(-3.0, 3.0, (3, 2)) * (width / 640) / 1000.0  # px per us
    # a point on the rectangle outline at its position for that time
    side = rng.integers(0, 4, n_edge)
    along = rng.random(n_edge)
    w_r, h_r = size[rect, 0], size[rect, 1]
    ox = np.where(side < 2, along * w_r, np.where(side == 2, 0, w_r))
    oy = np.where(side >= 2, along * h_r, np.where(side == 0, 0, h_r))
    pos = start[rect] + speed[rect] * t[:n_edge, None]
    ex = pos[:, 0] + ox + rng.normal(0.0, 1.0, n_edge)
    ey = pos[:, 1] + oy + rng.normal(0.0, 1.0, n_edge)
    x = np.concatenate([ex, rng.integers(0, width, n_noise)])
    y = np.concatenate([ey, rng.integers(0, height, n_noise)])
    x = np.clip(np.rint(x), 0, width - 1).astype(np.int64)
    y = np.clip(np.rint(y), 0, height - 1).astype(np.int64)
    p = rng.choice(np.array([-1, 1]), n)
    order = np.argsort(t, kind="stable")
    return np.stack([t, x, y, p], axis=1)[order]


def csv_bytes(rows: np.ndarray, width: int, height: int) -> bytes:
    head = f"# width {width}\n# height {height}\nt_us,x,y,polarity\n"
    body = "\n".join(f"{t},{x},{y},{p}" for t, x, y, p in rows.tolist())
    return (head + body + "\n").encode("ascii")


def evt1_bytes(rows: np.ndarray, width: int, height: int) -> bytes:
    rec = np.empty(len(rows), dtype=EVT1)
    for name, column in zip(EVT1.names, rows.T):
        rec[name] = column
    return EVT1_HEADER.pack(b"EVT1", 1, width, height, 0, len(rec)) + rec.tobytes()


def simulate_pair(rng: np.random.Generator, sc: wl.Scale) -> tuple[np.ndarray, np.ndarray]:
    """Textured background with independent per-pixel noise in each frame,
    and three bright rectangles, each in its own vertical band, shifted by
    a fixed step so the event count barely varies with the seed."""
    width, height = sc.sensor
    base = rng.integers(70, 131, (height, width)).astype(np.float64)
    frames = [base + rng.normal(0.0, wl.NOISE_SIGMA, base.shape) for _ in range(2)]
    band = width // 3
    rw, rh = band // 2, height // 4
    sx, sy = max(1, width // 32), max(1, height // 40)
    for r in range(3):
        x0 = r * band + int(rng.integers(sx, band - rw - sx))
        y0 = int(rng.integers(sy, height - rh - sy))
        dx = sx * int(rng.choice((-1, 1)))
        dy = sy * int(rng.choice((-1, 1)))
        frames[0][y0:y0 + rh, x0:x0 + rw] = 230.0
        frames[1][y0 + dy:y0 + dy + rh, x0 + dx:x0 + dx + rw] = 230.0
    rgb = []
    for frame in frames:
        gray = np.clip(np.rint(frame), 0, 255).astype(np.uint8)
        rgb.append(np.repeat(gray[:, :, None], 3, axis=2))
    return rgb[0], rgb[1]


def generate(workload: str, seed: int, root: Path, smoke: bool) -> dict:
    sc = wl.scale(smoke)
    paths = wl.Paths(root)
    paths.inputs.mkdir(parents=True, exist_ok=True)
    paths.outputs.mkdir(parents=True, exist_ok=True)
    # both encode workloads see the same frames for a given seed
    rng = np.random.default_rng([seed, 1 if workload == "simulate_mask" else 0])
    plan: dict = {"workload": workload, "seed": seed, "smoke": smoke}
    if workload == "simulate_mask":
        for j in range(wl.POOL):
            for path, frame in zip(paths.pair(j), simulate_pair(rng, sc)):
                path.write_bytes(ppm_bytes(frame))
    else:
        paths.config.write_text(wl.encoder_cfg_text(seed), encoding="ascii")
        width, height = sc.sensor
        plan["events"] = []
        for j in range(wl.POOL):
            rows = moving_rect_events(rng, sc)
            paths.image(j).write_bytes(ppm_bytes(encode_image(rng, sc.image)))
            path = paths.events(workload, j)
            write = evt1_bytes if path.suffix == ".evt1" else csv_bytes
            path.write_bytes(write(rows, width, height))
            in_window = (rows[:, 0] >= wl.WINDOW[0]) & (rows[:, 0] < wl.WINDOW[1])
            plan["events"].append({"decoded": len(rows), "in_window": int(in_window.sum())})
    validate(workload, paths, plan, sc)
    paths.plan.write_text(json.dumps(plan, indent=1), encoding="ascii")
    return plan


def validate(workload: str, paths: wl.Paths, plan: dict, sc: wl.Scale) -> None:
    """Decode every generated file once with the program's readers."""
    from evprune import encoder, events, ppm

    def same(what: str, got, want) -> None:
        if got != want:
            raise SystemExit(f"gen: {what}: program reads {got!r}, generator wrote {want!r}")

    width, height = sc.sensor
    if workload == "simulate_mask":
        for j in range(wl.POOL):
            for path in paths.pair(j):
                same(path.name, ppm.read_ppm(path.read_bytes()).shape, (height, width, 3))
        return
    config = encoder.load_encoder_config(paths.config.read_text(encoding="ascii"))
    same(paths.config.name, config.d_model, wl.ENCODER["d_model"])
    for j, counts in enumerate(plan["events"]):
        same(paths.image(j).name, ppm.read_ppm(paths.image(j).read_bytes()).shape,
             (sc.image, sc.image, 3))
        path = paths.events(workload, j)
        read = events.read_events_bin if path.suffix == ".evt1" else events.read_events_csv
        stream = read(path.read_bytes())
        in_window = events.accumulate(stream, *wl.WINDOW).total()
        same(path.name,
             (stream.sensor_width, stream.sensor_height, len(stream), in_window),
             (width, height, counts["decoded"], counts["in_window"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.dir, args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
