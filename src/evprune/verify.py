"""Invariant checks, and the seeded suites behind ``evprune verify``.

Each check function is the one written form of a law the toolkit can
test without pretrained weights; ``evprune verify`` and the acceptance
tests both call it. Exact laws return an ``(invariant, detail)``
violation or ``None``; numeric laws return the measured error and leave
the bound to the caller.

A suite replays checks over seeded cases and names the first violated
invariant with the seed that reproduces it. Its ``fault`` hook corrupts
one output, or the rotary table, of every case, so the first case the
corruption changes must trip the suite.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import costmodel, encoder, events, packing, rope2d, saliency
from .errors import FormatError, ValidationError

Violation = tuple[str, str]


class VerificationFailure(Exception):
    def __init__(self, invariant: str, seed: int, detail: str):
        super().__init__(f"{invariant} (repro seed {seed}): {detail}")
        self.invariant = invariant
        self.seed = seed
        self.detail = detail


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    failure: VerificationFailure | None

    @property
    def passed(self) -> bool:
        return self.failure is None


def max_rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Largest |got - want| / max(|want|, 1e-9) over equal-shape arrays."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise ValidationError(f"shapes differ: {got.shape} vs {want.shape}")
    return float((np.abs(got - want) / np.maximum(np.abs(want), 1e-9)).max(initial=0.0))


def rope_errors(table: rope2d.RopeTable, a: tuple[int, int], b: tuple[int, int],
                shift: tuple[int, int], q: np.ndarray, k: np.ndarray) -> dict[str, float]:
    """Measured error of each rotary law, keyed by invariant: R(a) keeps the
    norm of ``q``; <R(a) q, R(b) k> is unchanged when both positions move by
    ``shift``; R(b) R(a) equals R(a + b), both as the table applies it to
    ``q`` and as reference matrices."""
    def rot(pos, v, by=(0, 0)):
        return rope2d.apply_rope(table, (pos[0] + by[0], pos[1] + by[1]), v)

    whole = rope2d.rope_matrix(a[0] + b[0], a[1] + b[1], table.d)
    product = rope2d.rope_matrix(*a, table.d) @ rope2d.rope_matrix(*b, table.d)
    return {
        "rope.norm_preservation": abs(float(np.linalg.norm(rot(a, q)) - np.linalg.norm(q))),
        "rope.relative_shift_invariance":
            abs(float(rot(a, q) @ rot(b, k) - rot(a, q, shift) @ rot(b, k, shift))),
        "rope.composition":
            float(max(np.abs(rot(b, rot(a, q)) - whole @ q).max(), np.abs(product - whole).max())),
    }


def check_mask_laws(scores: events.EventFrame, lower: saliency.PatchMask,
                    upper: saliency.PatchMask, scale: float) -> Violation | None:
    """Patch-granularity ``quantile_mask`` masks of ``scores`` at ``lower.tau <=
    upper.tau`` nest; each keeps exactly ceil(tau * N - 1e-9) patches clamped
    to [0, N] (exact rational arithmetic on the float tau and guard, the
    guard being ``retained_count``'s), none scoring below a dropped one, and
    a raster prefix of a constant map; scaling the scores by ``scale`` > 0
    leaves ``upper`` as is."""
    if np.any(lower.bits > upper.bits):
        return ("saliency.nesting",
                f"retained set at tau={lower.tau} not inside tau={upper.tau}")
    flat = scores.counts.ravel()
    n = flat.size
    for mask in (lower, upper):
        kept = mask.bits.ravel().astype(bool)
        guarded = Fraction(mask.tau) * n - Fraction(saliency._CEIL_GUARD)
        want = min(n, max(0, math.ceil(guarded)))
        if not mask.k == want == saliency.retained_count(mask.tau, n):
            return ("saliency.exact_cardinality", f"k={mask.k} for tau={mask.tau}, n={n}")
        if 0 < mask.k < n and flat[kept].min() < flat[~kept].max():
            return ("saliency.threshold_consistency",
                    f"min retained {flat[kept].min()} < max dropped {flat[~kept].max()}")
        if np.unique(flat).size == 1 and not np.array_equal(kept, np.arange(n) < mask.k):
            return ("saliency.raster_tie_break", "constant map kept no raster prefix")
    scaled = events.EventFrame(scores.counts * scale)
    if not np.array_equal(saliency.quantile_mask(scaled, upper.tau).bits, upper.bits):
        return ("saliency.scale_invariance", f"mask changed when scores scaled by {scale}")
    return None


def check_pack(tokens: np.ndarray, mask: saliency.PatchMask,
               packed: packing.PackedSequence, fill: np.ndarray) -> Violation | None:
    """``packed`` is ``pack_patches(tokens, mask)``: scattering it over
    ``fill`` restores every kept row and fills every dropped one. The record
    checks once that its sealed coordinates rise in raster order."""
    keep = mask.bits.reshape(-1, 1).astype(bool)
    if not np.array_equal(packing.unpack_scatter(packed, fill), np.where(keep, tokens, fill)):
        return ("pack.scatter_roundtrip", "rows not restored exactly")
    return None


def packed_oracle_error(packed: packing.PackedSequence, oracle: packing.PackedSequence) -> float:
    """Max relative error of packed encoder output against the masked-dense
    oracle on the same inputs; infinite when their grids or positions differ."""
    if (packed.origin_grid != oracle.origin_grid
            or not np.array_equal(packed.kept, oracle.kept)):
        return math.inf
    return max_rel_err(packed.tokens, oracle.tokens)


def check_events_roundtrip(stream: events.EventStream, blob: bytes) -> Violation | None:
    """``blob`` is ``write_events_bin(stream)``: it reads back as the same
    stream and re-encodes to the same bytes, and the stream written as CSV
    (polarity 0/1) is read into a stream with the same EVT1 bytes."""
    try:
        back = events.read_events_bin(blob)
    except (FormatError, ValidationError) as exc:
        return ("events.binary_roundtrip", f"read back failed: {exc}")
    names = [f.name for f in dataclasses.fields(events.EventStream)]
    if (not all(np.array_equal(getattr(back, n), getattr(stream, n)) for n in names)
            or events.write_events_bin(back) != blob):
        return ("events.binary_roundtrip", "stream not preserved")
    body = np.column_stack([stream.t_us, stream.x, stream.y, stream.polarity > 0])
    csv = f"# width {stream.sensor_width}\n# height {stream.sensor_height}\n" + "".join(
        f"{t},{x},{y},{p}\n" for t, x, y, p in body.tolist())
    if events.write_events_bin(events.read_events_csv(csv)) != blob:
        return ("events.csv_roundtrip", "CSV ingestion changed the stream")
    return None


def check_accumulate(stream: events.EventStream, t0: int, t1: int,
                     frame: events.EventFrame) -> Violation | None:
    """``frame`` is ``accumulate(stream, t0, t1)``: it equals a per-event
    count over [t0, t1), and rebinning it onto half the grid keeps its total."""
    expected = np.zeros((stream.sensor_height, stream.sensor_width))
    for t, x, y in zip(stream.t_us.tolist(), stream.x.tolist(), stream.y.tolist()):
        if t0 <= t < t1:
            expected[y, x] += 1
    if not np.array_equal(frame.counts, expected):
        return ("events.accumulate_bruteforce", "count grid mismatch")
    resized = events.resize_to(frame, max(1, frame.width // 2), max(1, frame.height // 2))
    if resized.total() != frame.total():
        return ("events.resize_conservation", f"total {frame.total()} -> {resized.total()}")
    return None


def check_cost_laws(profile: costmodel.ArchProfile, works: list[costmodel.WorkloadSpec],
                    reports: list[costmodel.CostReport]) -> Violation | None:
    """``reports[i]`` is ``estimate(profile, works[i])`` for two workloads
    that differ only in a rising dropped fraction: MACs fall when the step
    drops at least one merge cell, and an empty workload costs nothing."""
    cells = reports[0].visual_tokens_dense // profile.vit.merge_size ** 2
    lo, hi = works
    if (hi.tau - lo.tau) * cells >= 1.0 and reports[1].macs >= reports[0].macs:
        return ("costmodel.monotonic_in_tau",
                f"macs {reports[0].macs} -> {reports[1].macs} "
                f"for tau {lo.tau:.3f} -> {hi.tau:.3f}")
    zero = costmodel.estimate(profile, costmodel.WorkloadSpec(0, 0, 0.5, 0, 0))
    if zero.macs != 0:
        return ("costmodel.zero_workload", f"macs={zero.macs}")
    return None


_BOUNDS = {"rope.norm_preservation": 1e-9, "rope.relative_shift_invariance": 1e-9,
           "rope.composition": 1e-12, "encoder.packed_equals_masked_dense": 1e-5}


def _within(errors: dict[str, float]) -> Violation | None:
    for invariant, error in errors.items():
        if not error <= _BOUNDS[invariant]:
            return (invariant, f"error {error:.3e} exceeds {_BOUNDS[invariant]:g}")
    return None


def _random_stream(rng: np.random.Generator, size_end: int, n_end: int,
                   t_end: int) -> events.EventStream:
    width, height = rng.integers(1, size_end, size=2).tolist()
    n = int(rng.integers(0, n_end))
    t = np.sort(rng.integers(0, t_end, size=n))
    x, y = rng.integers(0, width, size=n), rng.integers(0, height, size=n)
    return events.EventStream(width, height, t, x, y, np.where(rng.random(n) < 0.5, 1, -1))


def _rope_case(rng: np.random.Generator, fault: bool, d: int) -> Violation | None:
    table = rope2d.build_rope(16, 16, d)
    if fault:
        table = copy.copy(table)  # bypasses RopeTable's own computation of its factors
        for f in ("cos_row", "sin_row", "cos_col", "sin_col"):
            object.__setattr__(table, f, getattr(table, f) * (1 + 1e-6))
    q, k = rng.standard_normal(d), rng.standard_normal(d)
    a, b, shift = (tuple(rng.integers(0, end, size=2).tolist()) for end in (12, 12, 4))
    return _within(rope_errors(table, a, b, shift, q, k))


def _saliency_case(rng: np.random.Generator, fault: bool) -> Violation | None:
    rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    scores = events.EventFrame(rng.random((rows, cols)))
    lower, upper = (saliency.quantile_mask(scores, tau) for tau in sorted(rng.random(2)))
    if fault:
        upper = saliency.PatchMask(1 - upper.bits, upper.tau)
    return check_mask_laws(scores, lower, upper, 7.5)


def _events_roundtrip_case(rng: np.random.Generator, fault: bool) -> Violation | None:
    stream = _random_stream(rng, 64, 200, 10_000)
    blob = events.write_events_bin(stream)
    if fault:
        blob = blob[:-1] + bytes([blob[-1] ^ 0xFF]) if len(stream) else blob + b"x"
    return check_events_roundtrip(stream, blob)


def _accumulate_case(rng: np.random.Generator, fault: bool) -> Violation | None:
    stream = _random_stream(rng, 32, 150, 1000)
    t0 = int(rng.integers(0, 500))
    t1 = t0 + int(rng.integers(0, 600))
    frame = events.accumulate(stream, t0, t1)
    if fault:
        frame = events.EventFrame(frame.counts + 1.0)
    return check_accumulate(stream, t0, t1, frame)


def _pack_case(rng: np.random.Generator, fault: bool) -> Violation | None:
    rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    tokens = rng.standard_normal((rows * cols, 8))
    bits = (rng.random((rows, cols)) < rng.random()).astype(np.uint8)
    mask = saliency.PatchMask(bits, tau=float(bits.mean()))
    packed = packing.pack_patches(tokens, mask)
    if fault:
        packed = packing.PackedSequence(packed.tokens + 1.0, packed.kept, packed.origin_grid)
    return check_pack(tokens, mask, packed, rng.standard_normal(8))


def _encoder_case(rng: np.random.Generator, fault: bool, side: int, case: int) -> Violation | None:
    patches = encoder.patchify(rng.random((side * 2, side * 2)), 2)
    scores = events.EventFrame(rng.random((side, side)))
    mask = saliency.quantile_mask(scores, (0.25, 0.5, 0.75)[case % 3])
    d_model = 32 if case % 2 else 16
    config = encoder.EncoderConfig(
        patch_size=2, channels=1, d_model=d_model, n_layers=2, n_heads=2,
        mlp_ratio=2.0, merge_size=1, d_out=d_model, seed=int(rng.integers(2**31)))
    weights = encoder.init_weights(config)
    rope = rope2d.build_rope(side, side, config.head_dim)
    got = encoder.encode_packed(packing.pack_patches(patches, mask), rope, weights, config)
    want = encoder.encode_masked_dense_oracle(patches, rope, mask, weights, config)
    if fault:
        got = packing.PackedSequence(got.tokens * (1 + 1e-4), got.kept, got.origin_grid)
    return _within({"encoder.packed_equals_masked_dense": packed_oracle_error(got, want)})


def _cost_case(rng: np.random.Generator, fault: bool) -> Violation | None:
    profile = costmodel.load_shipped_profile("qwen2vl_2b_like")
    side = 14 * 2 * int(rng.integers(1, 9))
    text, decode = int(rng.integers(0, 300)), int(rng.integers(0, 50))
    works = [costmodel.WorkloadSpec(side, side, float(tau), text, decode)
             for tau in sorted(rng.random(2))]
    reports = [costmodel.estimate(profile, work) for work in works]
    if fault:
        reports.reverse()
    return check_cost_laws(profile, works, reports)


def _suites(full: bool) -> dict[str, tuple]:
    """Suite name -> (case function, its (seed, *params) cases)."""
    def seeds(first: int, quick: int, more: int) -> list[tuple[int]]:
        return [(first + case,) for case in range(more if full else quick)]

    return {
        "rope.properties": (_rope_case, [
            (10_000 + 1000 * d + case, d)
            for d in (4, 8, 64) for case in range(120 if full else 40)]),
        "saliency.mask": (_saliency_case, seeds(20_000, 60, 200)),
        "events.roundtrip": (_events_roundtrip_case, seeds(30_000, 25, 80)),
        "events.accumulate": (_accumulate_case, seeds(40_000, 20, 60)),
        "pack.roundtrip": (_pack_case, seeds(50_000, 20, 60)),
        "encoder.equivalence": (_encoder_case, [
            (60_000 + 100 * side * side + case, side, case)
            for side in ((8, 16) if full else (4, 8)) for case in range(6 if full else 4)]),
        "costmodel.laws": (_cost_case, seeds(70_000, 15, 40)),
    }


def suite_names() -> list[str]:
    return list(_suites(False))


def run_suites(full: bool = False, inject_fault: str | None = None) -> list[SuiteResult]:
    suites = _suites(full)
    if inject_fault is not None and inject_fault not in suites:
        raise ValidationError(
            f"unknown suite {inject_fault!r}; choose from {suite_names()}")
    results = []
    for name, (case_fn, cases) in suites.items():
        for seed, *params in cases:
            rng = np.random.Generator(np.random.PCG64(seed))
            violation = case_fn(rng, name == inject_fault, *params)
            if violation is not None:
                failure = VerificationFailure(violation[0], seed, violation[1])
                results.append(SuiteResult(name, 0, failure))
                break
        else:
            results.append(SuiteResult(name, len(cases), None))
    return results
