"""Smoke tests of the benchmark harness: tiny inputs, two frames per phase,
every output check, in seconds. Run from the repository root:

    python3 -m pytest framebench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from worker import layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "framebench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def script(name: str, *args: str) -> None:
    subprocess.run([sys.executable, str(HERE / name), *args], cwd=ROOT, env=run.child_env(),
                   check=True, capture_output=True, timeout=120)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    record = json.loads(proc.stdout.splitlines()[-2])
    for key in ("git_commit", "nproc", "python", "numpy", "blas", "blas_version",
                "blas_threads"):
        assert key in record["env"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "framebench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = bench("--workload", "encode_dense", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_checker_catches_a_corrupted_output(workload, tmp_path):
    from check import check

    script("gen.py", "--workload", workload, "--seed", "3", "--dir", str(tmp_path), "--smoke")
    result = tmp_path / "worker.json"
    script("worker.py", "--workload", workload, "--dir", str(tmp_path), "--result",
           str(result), "--max-frames", "2", "--smoke")
    frames = json.loads(result.read_text(encoding="utf-8"))["frames"]
    paths = wl.Paths(tmp_path)
    assert check(workload, paths, frames, seed=3)["failed"] == {}

    victim = next(iter(wl.frame_outputs(workload, paths, frames[1]["tag"]).values()))
    data = bytearray(victim.read_bytes())
    data[-1] ^= 1
    victim.write_bytes(bytes(data))
    assert list(check(workload, paths, frames, seed=3)["failed"]) == [str(frames[1]["id"])]


def test_tracer_replaces_and_restores_every_reference():
    import evprune
    from evprune import cli, encoder

    original = encoder.encode_dense
    tracer = Tracer()
    assert tracer.install() >= len(TARGETS)
    try:
        assert cli.encode_dense is encoder.encode_dense is evprune.encode_dense
        assert cli.encode_dense is not original
    finally:
        tracer.uninstall()
    assert cli.encode_dense is encoder.encode_dense is evprune.encode_dense is original


def test_missing_span_fails_loudly():
    with pytest.raises(SystemExit, match="never fired"):
        layer_metrics("encode_dense", [], predicted=1, scale={})
