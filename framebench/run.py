"""Frame-path benchmark for evprune.

Runs one workload through ``evprune.cli.main(argv)`` in a closed loop: a
single caller runs one frame at a time, and every frame's input files are
written before timing starts. Each run goes through separate processes:

1. gen.py     writes the seeded inputs and decodes them once with the
              program's readers;
2. worker.py  the measured process (``--trace 0``: set up ``SETUPS`` times,
              then time frames; ``--trace 1``: half untraced, half traced);
3. check.py   checks every frame's outputs against the benchmark's own
              references.

Times are reported in reference seconds: each frame's wall time is
rescaled by the calibration kernel timed around it (worker.Calibrator),
which removes most of a shared machine's speed drift; setup_s is rescaled by
the kernel timed right after set-up. The record keeps the raw wall-clock
figures too.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``; names and units come
from BENCHMARK.json). The line before it is the full record, which is also
written under framebench/_out/ with the environment: commit, seed, nproc,
Python, numpy, BLAS and its thread count.

Usage (from the repository root):
    python3 framebench/run.py --workload encode_packed --seed 1 --seconds 24 --trace 0
    python3 framebench/run.py --workload simulate_mask --seed 1 --trace 1 --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from worker import reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3           # processes that each import evprune and run a warm-up frame
DEADLINE_S = 170.0   # the whole run, child processes included
SMOKE_FRAMES = 2     # timed frames per phase in smoke mode
# One BLAS thread: the toy encoder's matmuls are small, and on a shared
# 2-CPU machine a second thread made frames slower and no steadier.
BLAS_THREADS = 1
TAIL_BEYOND = 10     # frames that must lie beyond the reported tail percentile


class BenchError(Exception):
    pass


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        return left


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("EVPRUNE_SEED", None)  # the config file's seed must hold
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(script: str, args: list[str], deadline: Deadline) -> None:
    """Run a benchmark script to completion; a timeout kills and reaps it."""
    cmd = [sys.executable, str(HERE / script), *args]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=deadline.left())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{script} exited {proc.returncode}:\n{proc.stderr[-3000:]}")


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND frames
    beyond it; with too few frames for that above the median, the median."""
    ordered = sorted(times)
    rank = len(ordered) - 1 - TAIL_BEYOND
    if rank <= (len(ordered) - 1) / 2:
        return statistics.median(ordered), 50.0
    return ordered[rank], 100.0 * rank / (len(ordered) - 1)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(args, work: Path, out_dir: Path, deadline: Deadline) -> dict:
    common = ["--workload", args.workload, "--dir", str(work)]
    smoke = ["--smoke"] if args.smoke else []
    run_child("gen.py", common + ["--seed", str(args.seed)] + smoke, deadline)

    setups = []
    if not args.trace:
        for i in range(SETUPS - 1):
            result = work / f"setup_{i}.json"
            run_child("worker.py", common + ["--result", str(result), "--setup-only"], deadline)
            done = json.loads(result.read_text(encoding="utf-8"))
            setups.append((done["setup_s"], done["setup_cal_s"]))
    tag = f"{args.workload}-s{args.seed}-t{int(args.trace)}"
    result = work / "worker.json"
    worker = common + smoke + ["--result", str(result), "--seconds", str(args.seconds)]
    if args.smoke:
        worker += ["--max-frames", str(SMOKE_FRAMES)]
    if args.trace:
        worker += ["--trace", "--spans", str(out_dir / f"{tag}.spans.jsonl")]
    run_child("worker.py", worker, deadline)
    measured = json.loads(result.read_text(encoding="utf-8"))
    setups.append((measured["setup_s"], measured["setup_cal_s"]))

    checked = work / "check.json"
    run_child("check.py", common + ["--frames", str(result), "--seed", str(args.seed),
                                    "--out", str(checked)], deadline)
    verdict = json.loads(checked.read_text(encoding="utf-8"))

    frames = measured["frames"]
    wall = [f["s"] for f in frames]
    times = [reference_s(f["s"], f["cal_s"]) for f in frames]
    failed = len(verdict["failed"])
    tail_s, tail_pct = tail(times)
    if args.trace:
        metrics = measured["layers"]
    else:
        metrics = {
            "frames_per_s": len(frames) / sum(times),
            "frame_p50_s": statistics.median(times),
            "frame_tail_s": tail_s,
            "setup_s": statistics.median(reference_s(*pair) for pair in setups),
            "peak_rss_mib": measured["peak_rss_kib"] / 1024.0,
            "ok_frac": (len(frames) - failed) / len(frames),
        }
    units = declared_metrics(args.trace)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} "
                         "differ from BENCHMARK.json")
    return {
        "tag": tag,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "frames": len(frames),
        "failed": failed,
        "failed_frac": failed / len(frames),
        "frame_tail_pct": tail_pct,
        "frame_wall_s": wall,
        "frame_cal_s": [f["cal_s"] for f in frames],
        "wall": {
            "frames_per_s": len(frames) / measured["loop_s"],
            "frame_p50_s": statistics.median(wall),
            "frame_tail_s": tail(wall)[0],
            "setup_s": statistics.median(wall_s for wall_s, _ in setups),
        },
        "setup_runs": [{"wall_s": wall_s, "cal_s": cal_s} for wall_s, cal_s in setups],
        "trace_references_replaced": measured.get("references_replaced"),
        "failures": dict(list(verdict["failed"].items())[:5]),
        "checks": verdict["info"],
        "env": {
            "git_commit": git_commit(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "blas_threads_requested": BLAS_THREADS,
            **measured["env"],
        },
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="evprune frame-path benchmark")
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and two frames per phase; checks the harness")
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("need --seed >= 0 and 0 < --seconds <= 120")
    if not (ROOT / "src" / "evprune" / "__init__.py").is_file():
        print(f"framebench: no evprune sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = Deadline(DEADLINE_S)
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    work = HERE / "_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        record = measure(args, work, out_dir, deadline)
    except BenchError as exc:
        print(f"framebench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (out_dir / f"{record['tag']}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["frames"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
