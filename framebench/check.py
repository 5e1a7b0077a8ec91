"""Output checks for one benchmark run, run after the measured process ends.

Every frame gets the cheap checks; the expensive encoder references run on
a seeded sample of pool entries, and every other frame over the same entry
must then be byte-identical to the sampled one.

- encode_packed: features equal merge_project(encode_masked_dense_oracle)
  within a 1e-5 max relative element error.
- encode_dense: features equal the packed path over an all-ones mask within
  the same budget.
- simulate_mask: the EVT1 output holds sum(floor(|dlog| / contrast)) events,
  decodes to the stream the benchmark computes from the frames and
  re-encodes byte-identically; the mask holds exactly
  ceil(tau * groups) * merge^2 ones and equals the benchmark's own top-k
  over event counts; the blanked image keeps retained patches and zeroes
  the rest.

Usage: python3 check.py --workload W --dir WORKDIR --frames RESULT.json
       --seed N --out CHECK.json
"""

from __future__ import annotations

import argparse
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np

import workloads as wl
from gen import EVT1, EVT1_HEADER

REL_BUDGET = 1e-5
HEAVY_SAMPLES = 2


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def max_rel_err(got: np.ndarray, want: np.ndarray, floor: float = 1e-9) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    expect(got.shape == want.shape, f"shape {got.shape} != reference {want.shape}")
    return float((np.abs(got - want) / np.maximum(np.abs(want), floor)).max())


def read_canonical_ppm(data: bytes) -> np.ndarray:
    """Parse the canonical header both the generator and the program write."""
    magic, size, maxval, raster = data.split(b"\n", 3)
    width, height = (int(v) for v in size.split())
    expect(magic == b"P6" and maxval == b"255", "not a canonical P6 file")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)


def manifest_value(stdout: str, key: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(key + "="):
            return line.split("=", 1)[1]
    raise CheckFailed(f"manifest has no {key}")


# ---------------------------------------------------------------- encode


def encode_counts(workload: str, smoke: bool) -> tuple[int, int]:
    """(tokens entering the encoder, merged cells) for one frame."""
    grid = wl.scale(smoke).image // wl.ENCODER["patch_size"]
    m = wl.ENCODER["merge_size"]
    cells = (grid // m) ** 2
    if workload == "encode_packed":
        cells = math.ceil(wl.TAU * cells - 1e-9)
    return cells * m * m, cells


def read_dump(path: Path) -> np.ndarray:
    data = path.read_bytes()
    count, dim = struct.unpack_from("<II", data)
    expect(len(data) == 8 + 4 * count * dim, f"{path.name}: size does not match header")
    return np.frombuffer(data, dtype="<f4", offset=8).reshape(count, dim)


def check_encode_frame(workload: str, smoke: bool, frame: dict, paths: wl.Paths) -> None:
    tokens, cells = encode_counts(workload, smoke)
    expect(manifest_value(frame["stdout"], "n_tokens") == str(tokens), "n_tokens")
    expect(manifest_value(frame["stdout"], "n_merged") == str(cells), "n_merged")
    feats = read_dump(wl.frame_outputs(workload, paths, frame["tag"])["features"])
    expect(feats.shape == (cells, wl.ENCODER["d_out"]), f"feature shape {feats.shape}")
    expect(bool(np.isfinite(feats).all()), "non-finite features")


def encode_reference(workload: str, paths: wl.Paths, j: int) -> np.ndarray:
    """Merged features of pool entry j through the reference path."""
    from evprune import encoder, events, packing, ppm, rope2d, saliency

    config = encoder.load_encoder_config(paths.config.read_text(encoding="ascii"))
    image = ppm.read_ppm(paths.image(j).read_bytes())
    patches = encoder.patchify(np.asarray(image, dtype=np.float64) / 255.0, config.patch_size)
    rows, cols = image.shape[0] // config.patch_size, image.shape[1] // config.patch_size
    rope = rope2d.build_rope(rows, cols, config.head_dim)
    weights = encoder.init_weights(config)
    if workload == "encode_dense":
        ones = saliency.PatchMask(np.ones((rows, cols), dtype=np.uint8), 1.0)
        feats = encoder.encode_packed(packing.pack_patches(patches, ones), rope, weights, config)
    else:
        stream = events.read_events_csv(paths.events(workload, j).read_bytes())
        counts = events.resize_to(events.accumulate(stream, *wl.WINDOW),
                                  image.shape[1], image.shape[0])
        mask = saliency.quantile_mask(saliency.patch_scores(counts, config.patch_size),
                                      wl.TAU, config.merge_size)
        feats = encoder.encode_masked_dense_oracle(patches, rope, mask, weights, config)
    return encoder.merge_project(feats, config, weights).tokens


# ---------------------------------------------------------------- simulate_mask


def expected_stream(frame_a: np.ndarray, frame_b: np.ndarray) -> np.ndarray:
    """The simulator's contract computed with numpy: per pixel in raster
    order, n = floor(|dlog| / contrast) events at k * duration // n, then a
    stable sort by time."""
    ga = np.asarray(frame_a, dtype=np.float64).mean(axis=2) / 255.0
    gb = np.asarray(frame_b, dtype=np.float64).mean(axis=2) / 255.0
    dlog = np.log(gb + 1e-3) - np.log(ga + 1e-3)
    n = np.floor(np.abs(dlog) / wl.CONTRAST).astype(np.int64)
    ys, xs = np.nonzero(n)
    per = n[ys, xs]
    owner = np.repeat(np.arange(len(per)), per)
    k = np.arange(owner.size) - np.repeat(np.cumsum(per) - per, per)
    rec = np.empty(owner.size, dtype=EVT1)
    rec["t"] = k * wl.DURATION_US // per[owner]
    rec["x"] = xs[owner]
    rec["y"] = ys[owner]
    rec["p"] = np.where(dlog[ys, xs] >= 0, 1, -1)[owner]
    return rec[np.argsort(rec["t"], kind="stable")]


def expected_bits(rec: np.ndarray, width: int, height: int) -> np.ndarray:
    """Top ceil(tau * groups) merge groups by event count, raster tie-break."""
    p, m = wl.MASK_PATCH, wl.MASK_MERGE
    counts = np.bincount(rec["y"].astype(np.int64) * width + rec["x"],
                         minlength=width * height).reshape(height, width)
    rows, cols = height // p, width // p
    groups = counts[: rows * p, : cols * p].reshape(rows // m, m * p, cols // m, m * p)
    scores = groups.sum(axis=(1, 3)).ravel()
    k = math.ceil(wl.TAU * scores.size - 1e-9)
    bits = np.zeros(scores.size, dtype=np.uint8)
    bits[np.argsort(-scores, kind="stable")[:k]] = 1
    return np.kron(bits.reshape(rows // m, cols // m), np.ones((m, m), dtype=np.uint8))


def check_simulate_frame(frame: dict, paths: wl.Paths, cache: dict) -> None:
    j = frame["pool"]
    if j not in cache:
        frame_a, frame_b = (read_canonical_ppm(p.read_bytes()) for p in paths.pair(j))
        rec = expected_stream(frame_a, frame_b)
        cache[j] = (frame_b, rec, expected_bits(rec, frame_b.shape[1], frame_b.shape[0]))
    frame_b, rec, bits = cache[j]
    height, width = frame_b.shape[:2]
    outs = wl.frame_outputs("simulate_mask", paths, frame["tag"])

    data = outs["events"].read_bytes()
    magic, version, w, h, reserved, count = EVT1_HEADER.unpack_from(data)
    expect((magic, version, w, h, reserved) == (b"EVT1", 1, width, height, 0), "EVT1 header")
    expect(count == len(rec), f"{count} events, expected sum floor(|dlog|/c) = {len(rec)}")
    expect(manifest_value(frame["stdout"], "n_events") == str(len(rec)), "n_events")
    got = np.frombuffer(data, dtype=EVT1, offset=EVT1_HEADER.size)
    expect(EVT1_HEADER.pack(magic, version, w, h, reserved, len(got)) + got.tobytes() == data,
           "EVT1 does not re-encode byte-identically")
    expect(np.array_equal(got, rec), "EVT1 records differ from the simulator contract")

    lines = outs["mask"].read_text(encoding="ascii").splitlines()
    mask = np.array([[int(b) for b in line.split()] for line in lines[1:]], dtype=np.uint8)
    groups = mask.size // wl.MASK_MERGE ** 2
    ones = math.ceil(wl.TAU * groups - 1e-9) * wl.MASK_MERGE ** 2
    expect(int(mask.sum()) == ones, f"mask holds {int(mask.sum())} ones, expected {ones}")
    expect(np.array_equal(mask, bits), "mask differs from top-k over event counts")

    keep = np.kron(bits, np.ones((wl.MASK_PATCH, wl.MASK_PATCH), dtype=np.uint8))
    want = np.where(keep[:, :, None] == 1, frame_b, 0).astype(np.uint8)
    got_img = read_canonical_ppm(outs["image"].read_bytes())
    expect(np.array_equal(got_img, want), "blanked image differs")


# ---------------------------------------------------------------- all frames


def check(workload: str, paths: wl.Paths, frames: list[dict], seed: int) -> dict:
    plan = json.loads(paths.plan.read_text(encoding="ascii"))
    smoke = plan["smoke"]
    failed: dict[int, str] = {}
    info: dict = {}
    cache: dict = {}
    first_by_pool: dict[int, dict] = {}
    for frame in frames:
        try:
            expect(frame["error"] is None, str(frame["error"]))
            if workload == "simulate_mask":
                check_simulate_frame(frame, paths, cache)
                continue
            check_encode_frame(workload, smoke, frame, paths)
            first = first_by_pool.setdefault(frame["pool"], frame)
            out = wl.frame_outputs(workload, paths, frame["tag"])["features"]
            ref = wl.frame_outputs(workload, paths, first["tag"])["features"]
            expect(out.read_bytes() == ref.read_bytes(),
                   f"differs from frame {first['id']} over the same inputs")
        except (CheckFailed, OSError, ValueError) as exc:
            failed[frame["id"]] = str(exc)
    if workload != "simulate_mask" and first_by_pool:
        rng = np.random.default_rng(seed)
        pools = sorted(first_by_pool)
        sample = rng.choice(pools, size=min(HEAVY_SAMPLES, len(pools)), replace=False)
        worst = 0.0
        for j in sorted(int(v) for v in sample):
            frame = first_by_pool[j]
            if frame["id"] in failed:
                continue
            out = wl.frame_outputs(workload, paths, frame["tag"])["features"]
            err = max_rel_err(read_dump(out), encode_reference(workload, paths, j))
            worst = max(worst, err)
            if not err <= REL_BUDGET:
                bad = [f["id"] for f in frames if f["pool"] == j]
                for frame_id in bad:
                    failed[frame_id] = f"max rel err {err:.3e} > {REL_BUDGET} vs reference"
        info["reference_pool_entries"] = sorted(int(v) for v in sample)
        info["max_rel_err"] = worst
    return {"failed": {str(k): v for k, v in sorted(failed.items())}, "info": info}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--frames", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    frames = json.loads(args.frames.read_text(encoding="utf-8"))["frames"]
    result = check(args.workload, wl.Paths(args.dir), frames, args.seed)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
