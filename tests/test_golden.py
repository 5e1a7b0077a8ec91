"""Pinned SHA-256 digests of the CLI outputs that run no BLAS code.

The EVT1 files of ``simulate`` (with timestamps spanning less and more
than 0xFFFF microseconds, and spanning fewer microseconds than some
pixel emits events) and the mask text and blanked PPM of
``mask`` (merge sizes 1 and 2) are pure integer and elementwise float
work, so their bytes are the same on every machine. A refactor of the
event, saliency or PPM code must leave them unchanged. So must a
refactor of the cost model leave the stdout of ``flops`` and of
``scripts/cost_table.py`` unchanged: both are integer arithmetic and
one float division per percentage. Feature dumps are
left out: their last bits may move with the BLAS thread count (see the
``encoder`` module docstring).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evprune.cli import main
from evprune.ppm import write_ppm

GOLDEN = {
    "scene.evt1": "8a9993002ed1ab7b6206c7c5b58e4df24f33085b05337ed8747ecd339b162cc2",
    # A 100000 us duration: timestamps beyond uint16, which the simulator
    # then holds as int64.
    "scene_wide.evt1": "7dceea3f35a808a14bc640bfd6f31e8bffa7041ce35f351824b9f1f5f6d9b71e",
    # 3 us, below the largest per-pixel count (4): such a pixel emits its
    # events k = 0 and 1 both at t = 0, together and in raster order among
    # the other pixels' events at t = 0.
    "scene_tie.evt1": "61a44b84e13527e5eb02ece1f960fcb58f7a75b2442eb460bd7ca308508e4bb4",
    "mask_m1.txt": "5a6d8f68bebca3fd75ab4845c9961090668ad1b2bfdc43d38d79ebdc990a3161",
    "mask_m1.ppm": "880b69072090783a4eeb30e2b823dee499f9fb9148819db31c473750713c8b6e",
    "mask_m2.txt": "c05236571ebd2961cc9a9b3d7597eca05e2dfbecf45ea42196f28f57d6b4864a",
    "mask_m2.ppm": "dd81193ebb189707d745aff069d2b0388a7c297c3a1d6b2805f75bf522e33227",
}

# ``flops --image-size 392x392 --text-tokens 59 --decode 7`` stdout, by
# profile, dropped fraction and output flags.
FLOPS_GOLDEN = {
    "qwen2vl_2b_like 0.3": "6b7d80ce274d50b939ceca128b1303334f2b70c9e6420234ef7702b9c2a41d51",
    "qwen2vl_2b_like 0.3 --baseline":
        "2a88c69ec3d0a0e43a4e2ff7db9585117537782f0df8e55a283e68a51b76f7b6",
    "qwen2vl_2b_like 0.3 --baseline --json":
        "fb8d12cfcf00d086c7bb55f78283850b68679567112587a4023f246b6e6bc97e",
    "qwen2vl_2b_like 0.5": "4917bcab1f86e5590780afd09aeda026a99e3ad9b5ca26cd2589993bf27c27ae",
    "qwen2vl_2b_like 0.5 --baseline":
        "ea881b3443ad9559621adc1f5ecd43830f57ceb26d537d304af980f39ec89a83",
    "qwen2vl_2b_like 0.5 --baseline --json":
        "be8139269c334fababe3ff5f4fab8c6e73c08beb7bbe43e10653d8f8f35d9744",
    "qwen2vl_2b_like 0.7": "f1e7addb83646029712987542146ef657aabc998f25ef5be720f1c96ec20e55f",
    "qwen2vl_2b_like 0.7 --baseline":
        "ba5aa9e7a361221cb6e2ade57db1f90861ed149fe5e78a8fb1e7e51645f01f64",
    "qwen2vl_2b_like 0.7 --baseline --json":
        "5b1df81ed98efae35deb53b1ed9145b5819a4813b54f58140df0f1d53d3d0c1f",
    "qwen2vl_7b_like 0.3": "741f2c5fd085ec3081c7842485e58bd9516536cc3d6552121ee1cfe9426e8319",
    "qwen2vl_7b_like 0.3 --baseline":
        "d38ff536043db0c964e94e4231354751ed257640a8e40faf37d99582e0a59e85",
    "qwen2vl_7b_like 0.3 --baseline --json":
        "dfd4872611c774e4cd8dc88f772d696cb0bb085bc18017d86dd8cce7b5d8c857",
    "qwen2vl_7b_like 0.5": "51790d5bd628e312a4876a58bc67ae9d99586471c0136292b038cff92cb8ce0e",
    "qwen2vl_7b_like 0.5 --baseline":
        "b30177643acc30f8a557f67c14f1aca9cfa5175a825e03348df248bcaa423206",
    "qwen2vl_7b_like 0.5 --baseline --json":
        "72570b291853d9e8af2caaedb791ba77eca4580de74603405b448465217712ad",
    "qwen2vl_7b_like 0.7": "9b23258e6d25f45b1947b2b0d4f1d7b79cee12f7f975daf6b1f1fbe409f77f8d",
    "qwen2vl_7b_like 0.7 --baseline":
        "2f911a1361c36a305b902fda80d9316ef60cb8fb0c0503d0a7f57b45203ceb46",
    "qwen2vl_7b_like 0.7 --baseline --json":
        "62c6b1b9789a44ca2d2b969ab9957d29db767b3f472be544e02d9183ae06fd6d",
}
# ``python3 scripts/cost_table.py`` stdout, at its defaults.
COST_TABLE_GOLDEN = "5880eb311a8e56b6138832e9b50cc7a30c021106ea1faa3577e706df4d46eadd"
REPO = Path(__file__).resolve().parents[1]


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
    for name, duration in (("scene.evt1", 5000), ("scene_wide.evt1", 100_000),
                           ("scene_tie.evt1", 3)):
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


@pytest.mark.parametrize("case", FLOPS_GOLDEN)
def test_flops_stdout_matches_its_digest(case, capsys):
    profile, drop, *flags = case.split()
    assert main(["flops", "--profile", profile, "--image-size", "392x392",
                 "--tau-dropped", drop, "--text-tokens", "59", "--decode", "7",
                 *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FLOPS_GOLDEN[case]


def test_cost_table_stdout_matches_its_digest(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / "cost_table.py")],
                          cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == COST_TABLE_GOLDEN
