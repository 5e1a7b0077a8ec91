"""Workload definitions shared by the generator, the measured worker and the
checker: sizes, CLI arguments per frame, and the spans each workload fires.

A frame is one complete CLI path for one input frame:

- encode_dense:  PPM + event file -> feature dump (``encode --mode dense``)
- encode_packed: PPM + CSV events -> feature dump (``encode --mode packed``)
- simulate_mask: PPM pair -> EVT1 -> mask text + blanked PPM
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("encode_dense", "encode_packed", "simulate_mask")

# Toy encoder: patch 14 on 448x448 gives a 32x32 grid (N=1024).
ENCODER = {
    "patch_size": 14, "channels": 3, "d_model": 128, "n_layers": 4,
    "n_heads": 4, "mlp_ratio": 4.0, "merge_size": 2, "d_out": 128,
}
TAU = 0.3             # retained fraction: the paper's 70%-dropped point
MASK_PATCH = 16       # simulate_mask patch size
MASK_MERGE = 2
DURATION_US = 33_000  # event span of one frame
# The window keeps the last third of the span, so CSV decode does work the
# mask never uses.
WINDOW = (2 * DURATION_US // 3, DURATION_US)
CONTRAST = 0.1        # simulate_mask log-intensity threshold
NOISE_SIGMA = 8.0     # simulate_mask per-pixel noise (uint8 units): ~300k events
POOL = 6              # distinct inputs per run; frames cycle through them


@dataclass(frozen=True)
class Scale:
    image: int              # encode frames are image x image RGB
    sensor: tuple[int, int]  # (width, height) of events and simulate frames
    csv_events: int          # events per CSV file


FULL = Scale(image=448, sensor=(640, 480), csv_events=50_000)
SMOKE = Scale(image=112, sensor=(128, 96), csv_events=2_000)


def scale(smoke: bool) -> Scale:
    return SMOKE if smoke else FULL


def encoder_cfg_text(seed: int) -> str:
    lines = [f"{key} = {value}" for key, value in ENCODER.items()]
    lines.append(f"seed = {seed % 100_000}")
    return "\n".join(lines) + "\n"


class Paths:
    """File layout of one run's work directory."""

    def __init__(self, root: Path):
        self.root = root
        self.inputs = root / "in"
        self.outputs = root / "out"
        self.plan = root / "plan.json"
        self.config = root / "encoder.cfg"

    def image(self, j: int) -> Path:
        return self.inputs / f"img_{j}.ppm"

    def events(self, workload: str, j: int) -> Path:
        """encode_dense gets EVT1, which it never opens; encode_packed, CSV."""
        suffix = ".evt1" if workload == "encode_dense" else ".csv"
        return self.inputs / f"ev_{j}{suffix}"

    def pair(self, j: int) -> tuple[Path, Path]:
        return self.inputs / f"a_{j}.ppm", self.inputs / f"b_{j}.ppm"

    def out(self, tag: str, suffix: str) -> Path:
        return self.outputs / f"{tag}{suffix}"


def frame_outputs(workload: str, paths: Paths, tag: str) -> dict[str, Path]:
    if workload == "simulate_mask":
        return {
            "events": paths.out(tag, ".evt1"),
            "mask": paths.out(tag, ".mask.txt"),
            "image": paths.out(tag, ".masked.ppm"),
        }
    return {"features": paths.out(tag, ".bin")}


def frame_argvs(workload: str, paths: Paths, j: int, tag: str) -> list[list[str]]:
    """CLI invocations that make up one frame over pool entry ``j``."""
    outs = frame_outputs(workload, paths, tag)
    if workload == "simulate_mask":
        frame_a, frame_b = paths.pair(j)
        return [
            ["simulate", str(frame_a), str(frame_b), "--contrast", repr(CONTRAST),
             "--duration-us", str(DURATION_US), "--out", str(outs["events"])],
            ["mask", str(frame_b), str(outs["events"]), "--tau", repr(TAU),
             "--patch-size", str(MASK_PATCH), "--merge-size", str(MASK_MERGE),
             "--out-mask", str(outs["mask"]), "--out-image", str(outs["image"])],
        ]
    argv = ["encode", str(paths.image(j)), str(paths.events(workload, j)),
            "--config", str(paths.config), "--out", str(outs["features"])]
    if workload == "encode_dense":
        return [argv + ["--mode", "dense"]]
    return [argv + ["--mode", "packed", "--tau", repr(TAU),
                    "--window", f"{WINDOW[0]}:{WINDOW[1]}"]]


_ENCODE_SPANS = {
    "ppm.read", "encoder.config", "encoder.patchify", "rope2d.build",
    "encoder.init_weights", "encoder.forward", "rope2d.apply",
    "encoder.merge", "featio.write",
}
_MASK_SPANS = {
    "events.read", "events.accumulate", "events.resize",
    "saliency.scores", "saliency.mask",
}

# Spans each workload must fire; a missing one fails the traced run.
EXPECTED_SPANS = {
    "encode_dense": _ENCODE_SPANS,
    "encode_packed": _ENCODE_SPANS | _MASK_SPANS | {"packing.pack"},
    "simulate_mask": _MASK_SPANS | {
        "ppm.read", "events.simulate", "events.write", "saliency.mask_text",
        "saliency.blank", "ppm.write",
    },
}
