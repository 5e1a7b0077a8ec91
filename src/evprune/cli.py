"""Command-line front end for the event-guided sparse vision pipeline.

Subcommands
-----------
simulate   two PPM frames -> EVT1 event file
mask       image + events -> retention mask (and optionally masked PPM)
encode     image + events -> merged feature dump via the toy encoder
flops      analytic cost report for a profile/workload
verify     run the built-in invariant suites

Exit codes: 0 success, 1 validation error, 2 format or I/O error,
3 verification failure. Every successful run prints a deterministic
manifest (key=value lines, no timestamps): identical inputs and flags
give byte-identical outputs and manifests. A number flag outside the
grammar of ``errors.integer`` and ``errors.real`` exits 2 with argparse's
usage message; one in it but outside its domain (``--tau 1.5``) exits 1,
as does any fault in ``--window``, ``--fill`` or ``--image-size``.

Sparsity conventions: ``mask``/``encode`` take the RETAINED fraction;
``flops`` takes the DROPPED fraction (``--tau-dropped`` is an explicit
alias of its ``--tau``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import stat
import sys
import uuid
from pathlib import Path

import numpy as np

from . import __version__, costmodel, verify
from .encoder import (
    encode_dense,
    encode_masked_dense_oracle,
    encode_packed,
    init_weights,
    load_encoder_config,
    merge_project,
    patchify,
)
from .errors import FormatError, ValidationError, integer, real
from .events import (
    EVT1_MAGIC,
    EventStream,
    accumulate,
    read_events_bin,
    read_events_csv,
    resize_to,
    simulate_events,
    write_events_bin,
)
from .featio import write_features
from .kvtext import decode_ascii
from .packing import pack_patches
from .ppm import read_ppm, to_gray01, write_ppm
from .rope2d import build_rope
from .saliency import (
    _merge_grid, apply_mask_to_image, check_fill, check_tau, mask_to_text, patch_scores,
    quantile_mask)


def _atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path``, or to the file its links resolve to.

    A missing path or a regular file of one link gets no partial file: a
    uniquely named file is written beside the resolved target, given the
    target's mode if it exists, and renamed into place, and on any failure it
    is removed. Anything else (a FIFO, a device, a file with more hard links)
    is opened and written in place, so that it is never replaced and every
    link sees the new bytes; a directory fails to open.
    """
    target = Path(os.path.realpath(path))
    try:
        st = target.stat()
    except OSError:  # missing, or refused again by the writes below
        st = None
    if st is not None and (not stat.S_ISREG(st.st_mode) or st.st_nlink > 1):
        with open(target, "wb") as fh:
            fh.write(data)
        return
    tmp = target.with_name(f".{target.name}.{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            if st is not None:
                os.fchmod(fd, stat.S_IMODE(st.st_mode))
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_bytes(path: str) -> bytes:
    return Path(path).read_bytes()


def _read_event_file(path: str) -> EventStream:
    data = _read_bytes(path)
    return read_events_bin(data) if data[:4] == EVT1_MAGIC else read_events_csv(data)


def _parse_window(text: str | None, stream: EventStream) -> tuple[int, int]:
    if text is None:
        return stream.extent_us()
    left, sep, right = text.partition(":")
    if not sep:
        raise ValidationError(f"window must be 't0:t1' in microseconds, got {text!r}")
    try:
        return integer(left), integer(right)
    except ValueError:
        raise ValidationError(f"window bounds must be integers, got {text!r}") from None


def _parse_size(text: str) -> tuple[int, int]:
    left, _, right = text.lower().partition("x")
    try:
        return integer(left), integer(right)  # no "x" leaves right empty
    except ValueError:
        raise ValidationError(
            f"image size must be HxW (e.g. 448x448), got {text!r}") from None


def _parse_fill(text: str) -> tuple[int, int, int]:
    try:
        vals = tuple(map(integer, text.split(",")))
    except ValueError:
        raise ValidationError(f"fill must be R,G,B bytes, got {text!r}") from None
    check_fill(vals)
    return vals


def _manifest(subcommand: str, pairs: list[tuple[str, object]]) -> None:
    print(f"manifest.tool=evprune {__version__}")
    print(f"manifest.subcommand={subcommand}")
    for key, value in pairs:
        print(f"manifest.{key}={value}")


def _image_to_float(image: np.ndarray, channels: int) -> np.ndarray:
    if channels == 3:
        return np.asarray(image, dtype=np.float64) / 255.0
    if channels == 1:
        return to_gray01(image)[:, :, None]
    raise ValidationError(f"encoder config channels must be 1 or 3, got {channels}")


def _event_mask(args, image: np.ndarray, patch_size: int, merge_size: int):
    """Shared mask pipeline: events -> window -> image-aligned counts ->
    patch scores -> exact-quantile retention mask."""
    stream = _read_event_file(args.events)
    t0, t1 = _parse_window(args.window, stream)
    frame = resize_to(accumulate(stream, t0, t1), image.shape[1], image.shape[0])
    return quantile_mask(patch_scores(frame, patch_size), args.tau, merge_size), (t0, t1)


def cmd_simulate(args) -> int:
    frame_a = read_ppm(_read_bytes(args.frame_a))
    frame_b = read_ppm(_read_bytes(args.frame_b))
    if frame_a.shape != frame_b.shape:
        raise ValidationError(
            f"frame dimensions differ: {frame_a.shape[:2]} vs {frame_b.shape[:2]}")
    stream = simulate_events(
        to_gray01(frame_a), to_gray01(frame_b), args.contrast, args.duration_us)
    _atomic_write(args.out, write_events_bin(stream))
    _manifest("simulate", [
        ("param.contrast", args.contrast),
        ("param.duration_us", args.duration_us),
        ("input.frame_a", args.frame_a),
        ("input.frame_b", args.frame_b),
        ("output.events", args.out),
    ])
    print(f"n_events={len(stream)}")
    return 0


def cmd_mask(args) -> int:
    check_tau(args.tau)
    fill = _parse_fill(args.fill)
    if args.out_mask is None and args.out_image is None:
        raise ValidationError("need --out-mask and/or --out-image")
    image = read_ppm(_read_bytes(args.image))
    mask, window = _event_mask(args, image, args.patch_size, args.merge_size)
    if args.out_mask is not None:
        _atomic_write(args.out_mask, mask_to_text(mask).encode("ascii"))
    if args.out_image is not None:
        masked = apply_mask_to_image(image, mask, args.patch_size, fill)
        _atomic_write(args.out_image, write_ppm(masked))
    _manifest("mask", [
        ("param.tau", args.tau),
        ("param.patch_size", args.patch_size),
        ("param.merge_size", args.merge_size),
        ("param.window", f"{window[0]}:{window[1]}"),
        ("param.fill", ",".join(map(str, fill))),
        ("input.image", args.image),
        ("input.events", args.events),
        ("output.mask", args.out_mask or "-"),
        ("output.image", args.out_image or "-"),
    ])
    print(f"retained_patches={mask.k}")
    print(f"total_patches={mask.rows * mask.cols}")
    return 0


def cmd_encode(args) -> int:
    check_tau(args.tau)
    text = decode_ascii(_read_bytes(args.config), "encoder config")
    config = load_encoder_config(text)
    image = read_ppm(_read_bytes(args.image))
    floats = _image_to_float(image, config.channels)
    patches = patchify(floats, config.patch_size)
    rows = image.shape[0] // config.patch_size
    cols = image.shape[1] // config.patch_size
    _merge_grid(rows, cols, config.merge_size)
    rope = build_rope(rows, cols, config.head_dim)
    weights = init_weights(config)

    if args.mode == "dense":
        features = encode_dense(patches, rope, weights, config)
    else:
        mask, _ = _event_mask(args, image, config.patch_size, config.merge_size)
        if args.mode == "packed":
            features = encode_packed(pack_patches(patches, mask), rope, weights, config)
        else:
            features = encode_masked_dense_oracle(patches, rope, mask, weights, config)

    merged = merge_project(features, config, weights)
    _atomic_write(args.out, write_features(merged.tokens))
    _manifest("encode", [
        ("param.tau", args.tau),
        ("param.mode", args.mode),
        ("param.seed", config.seed),
        ("param.config", args.config),
        ("input.image", args.image),
        ("input.events", args.events),
        ("output.features", args.out),
    ])
    print(f"n_tokens={len(features)}")
    print(f"n_merged={len(merged)}")
    return 0


def _load_profile_arg(spec: str) -> costmodel.ArchProfile:
    path = Path(spec)
    if path.exists():
        text = decode_ascii(path.read_bytes(), "arch profile")
        return costmodel.load_arch_profile(text)
    if "/" not in spec and "\\" not in spec and not spec.endswith(".cfg"):
        return costmodel.load_shipped_profile(spec)
    raise FormatError(f"profile file not found: {spec}")


def cmd_flops(args) -> int:
    profile = _load_profile_arg(args.profile)
    height, width = _parse_size(args.image_size)
    work = costmodel.WorkloadSpec(
        image_height=height, image_width=width, tau=args.tau,
        text_tokens=args.text_tokens, decode_tokens=args.decode)
    report = costmodel.estimate(profile, work)

    payload: dict[str, dict] = {"report": report.to_dict()}
    if args.baseline:
        dense = costmodel.estimate(profile, dataclasses.replace(work, tau=0.0))
        reduction = costmodel.compare(dense, report)
        payload["baseline"] = dense.to_dict()
        payload["reduction"] = {"reduction_flops_pct": reduction,
                                "reduction_macs_pct": reduction}

    _manifest("flops", [
        ("param.profile", profile.name),
        ("param.image_size", f"{height}x{width}"),
        ("param.tau_dropped", args.tau),
        ("param.text_tokens", args.text_tokens),
        ("param.decode_tokens", args.decode),
    ])
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for block, values in payload.items():
            for key, value in values.items():
                print(f"{block}.{key}={value}")
    return 0


def cmd_verify(args) -> int:
    _manifest("verify", [
        ("param.depth", "full" if args.full else "quick"),
    ])
    results = verify.run_suites(full=args.full, inject_fault=args.inject_fault)
    for res in results:
        if res.passed:
            print(f"ok {res.name}: {res.cases} cases")
        else:
            print(f"FAIL {res.name}: {res.failure}")
    n_pass = sum(r.passed for r in results)
    print(f"passed {n_pass} of {len(results)} suites")
    return 0 if n_pass == len(results) else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evprune",
        description="Event-guided visual token sparsification toolkit.",
        epilog="exit codes: 0 success, 1 validation, 2 format/io, 3 verification",
    )
    parser.add_argument("--version", action="version", version=f"evprune {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="two PPM frames -> EVT1 events")
    p.add_argument("frame_a")
    p.add_argument("frame_b")
    p.add_argument("--contrast", type=real, required=True,
                   help="log-intensity threshold per event")
    p.add_argument("--duration-us", type=integer, required=True,
                   help="window length the events are spread over")
    p.add_argument("--out", required=True, help="output EVT1 path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mask", help="image + events -> retention mask")
    p.add_argument("image")
    p.add_argument("events", help="CSV or EVT1 event file")
    p.add_argument("--tau", type=real, required=True,
                   help="fraction of patches to RETAIN")
    p.add_argument("--patch-size", type=integer, required=True)
    p.add_argument("--merge-size", type=integer, default=1,
                   help="retention granularity in patches per side")
    p.add_argument("--window", default=None, help="t0:t1 microseconds")
    p.add_argument("--fill", default="0,0,0", help="R,G,B for dropped patches")
    p.add_argument("--out-mask", default=None)
    p.add_argument("--out-image", default=None)
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("encode", help="image + events -> merged features")
    p.add_argument("image")
    p.add_argument("events", help="CSV or EVT1 event file")
    p.add_argument("--tau", type=real, default=1.0,
                   help="fraction of patches to RETAIN (packed/oracle modes)")
    p.add_argument("--config", required=True, help="encoder config file")
    p.add_argument("--mode", choices=("dense", "packed", "oracle"), default="packed")
    p.add_argument("--window", default=None, help="t0:t1 microseconds")
    p.add_argument("--out", required=True, help="output feature dump path")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("flops", help="analytic cost report")
    p.add_argument("--profile", required=True,
                   help="profile file path or shipped name (e.g. qwen2vl_2b_like)")
    p.add_argument("--image-size", required=True, help="HxW pixels")
    p.add_argument("--tau", "--tau-dropped", type=real, default=0.0, dest="tau",
                   help="fraction of visual tokens DROPPED")
    p.add_argument("--text-tokens", type=integer, default=0)
    p.add_argument("--decode", type=integer, default=0)
    p.add_argument("--baseline", action="store_true",
                   help="also print the dense report and reductions")
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("verify", help="run built-in invariant suites")
    depth = p.add_mutually_exclusive_group()
    depth.add_argument("--quick", action="store_false", dest="full",
                       help="small case counts (default)")
    depth.add_argument("--full", action="store_true", dest="full")
    p.add_argument("--inject-fault", default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify, full=False)

    return parser


# Built once: building takes ten times as long as a parse. Parsing reads the
# tree without changing it, and each ``cmd_*`` looks up what it calls in this
# module's namespace when it runs, so rebinding those names still takes effect.
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
