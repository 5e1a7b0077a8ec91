"""The measured process: imports evprune, runs one warm-up frame, then runs
frames through ``evprune.cli.main(argv)`` in a closed loop (one caller, the
next frame starts when the previous one returns) for a fixed time.

A calibration kernel runs between frames; each frame records the mean of
the kernel times just before and after it, so the caller can remove the
machine's speed drift from frame times.

Untraced mode times frames only. Traced mode runs half its time untraced
and half with the tracer installed, so the tracing overhead is measured in
the same process, and reduces the spans to per-layer metrics.

Usage: python3 worker.py --workload W --dir WORKDIR --result OUT.json
       [--seconds S] [--max-frames N] [--setup-only] [--trace --spans OUT.jsonl]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import resource
import statistics
import struct
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads as wl


class Calibrator:
    """A fixed, program-independent mix timed between frames: attention-logit
    einsums on cache-sized arrays, exp/log passes over a 16 MiB buffer, and
    interpreter-bound struct packing, about 30 ms. On a shared machine its
    time rises and falls with frame time: on a 2-CPU VM, dividing frame times
    by it cut the 10-seed IQR/median of frame_p50_s from 0.22-0.35 (wall
    clock) to 0.03-0.06. The buffer is freed after each call, yet
    peak_rss_mib on encode_dense still reads about 12 MiB higher with it than
    without it (on the packed and simulate workloads, within 1 MiB)."""

    def __init__(self):
        import numpy as np
        self._np = np
        self._x = np.random.default_rng(0).standard_normal((256, 4, 32))
        self._rec = struct.Struct("<IHHb")
        self()  # the first call pays one-off costs

    def __call__(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        for _ in range(2):
            np.einsum("qhd,khd->hqk", self._x, self._x)
        buf = np.full(2 << 20, 0.5)
        np.exp(buf, out=buf)
        np.log(buf, out=buf)
        del buf
        for i in range(8_000):
            self._rec.unpack(self._rec.pack(i, i & 1023, i & 511, 1))
        return time.perf_counter() - t0


CAL_NOMINAL_S = 0.03  # calibration time that defines the reference machine


def reference_s(seconds: float, cal_s: float) -> float:
    """Wall seconds rescaled to a machine on which the calibration kernel
    takes CAL_NOMINAL_S."""
    return seconds * CAL_NOMINAL_S / cal_s


def run_frames(cli, workload: str, paths: wl.Paths, first: int, seconds: float,
               max_frames: int, calibrate: Calibrator, tracer=None) -> tuple[list[dict], float]:
    frames: list[dict] = []
    start = time.perf_counter()
    cal_before = calibrate()
    frame_id = first
    while time.perf_counter() - start < seconds and len(frames) < max_frames:
        pool = frame_id % wl.POOL
        tag = f"f{frame_id:04d}"
        argvs = wl.frame_argvs(workload, paths, pool, tag)
        sink = io.StringIO()
        error = None
        span = tracer.frame(frame_id) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), span:
                for argv in argvs:
                    code = cli.main(argv)
                    if code != 0:
                        error = f"evprune {argv[0]} exited {code}"
                        break
        except (Exception, SystemExit) as exc:  # a failed frame is counted, not fatal
            error = f"evprune raised {exc!r}"
        elapsed = time.perf_counter() - t0
        cal_after = calibrate()
        frames.append({"id": frame_id, "pool": pool, "tag": tag, "s": elapsed,
                       "cal_s": (cal_before + cal_after) / 2,
                       "error": error, "stdout": sink.getvalue()})
        cal_before = cal_after
        frame_id += 1
    return frames, time.perf_counter() - start


def predicted_macs(workload: str, smoke: bool) -> int:
    """costmodel.estimate's ViT + merge MACs for a profile derived from the
    toy encoder config. The merge stage's output width is the profile's LLM
    width, so the stand-in LLM gets d_model = d_out; LLM stages are left out."""
    from evprune import costmodel
    cfg = wl.ENCODER
    profile = costmodel.ArchProfile(
        name="framebench-toy",
        vit=costmodel.VitDims(
            d_model=cfg["d_model"], n_layers=cfg["n_layers"], n_heads=cfg["n_heads"],
            mlp_ratio=cfg["mlp_ratio"], patch_size=cfg["patch_size"],
            merge_size=cfg["merge_size"], channels=cfg["channels"]),
        llm=costmodel.LlmDims(d_model=cfg["d_out"], n_layers=1, n_heads=1, mlp_ratio=1.0),
    )
    edge = wl.scale(smoke).image
    dropped = 0.0 if workload == "encode_dense" else 1.0 - wl.TAU
    report = costmodel.estimate(profile, costmodel.WorkloadSpec(edge, edge, dropped, 0, 0))
    return sum(report.breakdown[k] for k in ("vit_attention", "vit_mlp", "merge"))


# Per-frame metrics reduced by layer_metrics (costmodel.* are added there).
METRICS = (
    "encoder.forward_s", "encoder.gmacs_per_s", "encoder.tokens_in",
    "encoder.macs_counted", "encoder.merge_s", "encoder.patchify_s",
    "encoder.init_weights_s", "encoder.config_s", "encoder.ns_per_predicted_mac",
    "rope2d.apply_s", "rope2d.build_s",
    "events.read_s", "events.decoded", "events.decoded_per_s", "events.accumulate_s",
    "events.window_hit_ratio", "events.resize_s", "events.simulate_s",
    "events.simulated", "events.write_s",
    "saliency.scores_s", "saliency.mask_s", "saliency.retained_ratio",
    "saliency.mask_text_s", "saliency.blank_s",
    "packing.pack_s", "packing.tokens_kept",
    "ppm.read_s", "ppm.write_s", "featio.write_s",
    "cli.self_s",
)


def layer_metrics(workload: str, spans, predicted: int,
                  scale: dict[int, float]) -> dict[str, float]:
    """Median over traced frames of each layer's per-frame self time, and of
    per-frame counts read from the traced calls' return values. Times are
    multiplied by their frame's ``scale`` (to reference seconds)."""
    from tracer import FRAME_SPAN, self_times

    selfs = self_times(spans)
    per_frame: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, selfs):
        acc = per_frame[span.frame]
        acc[span.name + "_s"] += own * scale[span.frame]
        acc[span.name + "_total"] += (span.end - span.start) * scale[span.frame]
        for key, value in span.counts.items():
            acc[f"{span.name.split('.')[0]}.{key}"] += value
    fired = {span.name for span in spans}
    missing = sorted(wl.EXPECTED_SPANS[workload] - fired)
    if missing:
        raise SystemExit(f"worker: expected spans never fired: {missing}")

    def ratio(num: str, den: str):
        return lambda f: f[num] / f[den] if f[den] else 0.0

    derived = {
        "encoder.gmacs_per_s": lambda f: (
            f["encoder.macs"] / (f["encoder.forward_total"] + f["encoder.merge_total"]) / 1e9
            if f["encoder.macs"] else 0.0),
        "encoder.ns_per_predicted_mac": lambda f: (
            (f["encoder.forward_total"] + f["encoder.merge_total"]) / predicted * 1e9
            if f["encoder.macs"] and predicted else 0.0),
        "events.decoded_per_s": ratio("events.decoded", "events.read_total"),
        "events.window_hit_ratio": ratio("events.in_window", "events.decoded"),
        "encoder.macs_counted": lambda f: f["encoder.macs"],
        "cli.self_s": lambda f: f[FRAME_SPAN + "_s"],
    }
    frames = list(per_frame.values())
    out: dict[str, float] = {}
    for name in METRICS:
        get = derived.get(name, lambda f: f[name])
        out[name] = statistics.median(get(f) for f in frames)
    out["costmodel.macs_predicted"] = float(predicted if out["encoder.macs_counted"] else 0)
    out["costmodel.macs_unpredicted"] = out["encoder.macs_counted"] - out["costmodel.macs_predicted"]
    return out


def blas_info() -> dict:
    """BLAS name and version as numpy reports them, and the thread count the
    loaded OpenBLAS actually uses (None if it cannot be asked)."""
    import numpy as np
    info: dict = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = blas.get("name")
        info["blas_version"] = blas.get("version")
    except (TypeError, KeyError):
        info["blas"] = info["blas_version"] = None
    info["blas_threads"] = None
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--max-frames", type=int, default=1_000_000)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    paths = wl.Paths(args.dir)

    t0 = time.perf_counter()
    from evprune import cli
    warm = wl.frame_argvs(args.workload, paths, 0, "warmup")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        codes = [cli.main(argv) for argv in warm]
    setup_s = time.perf_counter() - t0
    if any(codes):
        raise SystemExit(f"worker: warm-up frame failed: {codes}\n{sink.getvalue()}")
    calibrate = Calibrator()
    result: dict = {"setup_s": setup_s, "setup_cal_s": calibrate()}

    if not args.setup_only and not args.trace:
        frames, loop_s = run_frames(cli, args.workload, paths, 0, args.seconds,
                                    args.max_frames, calibrate)
        result.update(frames=frames, loop_s=loop_s,
                      peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    elif args.trace:
        from tracer import Tracer
        half = args.seconds / 2
        untraced, loop_u = run_frames(cli, args.workload, paths, 0, half,
                                      args.max_frames, calibrate)
        tracer = Tracer()
        replaced = tracer.install()
        try:
            traced, loop_t = run_frames(cli, args.workload, paths, len(untraced), half,
                                        args.max_frames, calibrate, tracer)
        finally:
            tracer.uninstall()
        tracer.write(args.spans)
        fps_u, fps_t = (len(frames) / sum(reference_s(f["s"], f["cal_s"]) for f in frames)
                        for frames in (untraced, traced))
        scale = {f["id"]: reference_s(1.0, f["cal_s"]) for f in traced}
        layers = layer_metrics(args.workload, tracer.spans,
                               predicted_macs(args.workload, args.smoke), scale)
        layers.update({
            "trace.frames_per_s_untraced": fps_u,
            "trace.frames_per_s_traced": fps_t,
            "trace.overhead_frac": (fps_u - fps_t) / fps_u,
        })
        result.update(frames=untraced + traced, loop_s=loop_u + loop_t, layers=layers,
                      references_replaced=replaced)
    result["env"] = blas_info()
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
