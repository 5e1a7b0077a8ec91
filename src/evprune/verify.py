"""Self-check suites runnable from the installed tool, no test harness
required. Each suite replays a module's core invariants over seeded
random cases; any violation reports the invariant name and the exact
case seed that reproduces it.

The ``fault`` hook deliberately corrupts one case in a named suite so
the failure path itself can be exercised end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import costmodel, events, packing, rope2d, saliency
from .encoder import (
    EncoderConfig,
    encode_masked_dense_oracle,
    encode_packed,
    init_weights,
    patchify,
)
from .errors import ValidationError


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


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _suite_rope(full: bool, fault: bool) -> int:
    per_d = 120 if full else 40
    cases = 0
    for d in (4, 8, 64):
        table = rope2d.build_rope(16, 16, d)
        for case in range(per_d):
            seed = 10_000 + 1000 * d + case
            rng = _rng(seed)
            q = rng.standard_normal(d)
            k = rng.standard_normal(d)
            a = tuple(int(v) for v in rng.integers(0, 12, size=2))
            b = tuple(int(v) for v in rng.integers(0, 12, size=2))
            shift = tuple(int(v) for v in rng.integers(0, 4, size=2))

            rq = rope2d.apply_rope(table, a, q)
            if fault and cases == 0:
                rq = rq * (1.0 + 1e-6)
            if abs(np.linalg.norm(rq) - np.linalg.norm(q)) > 1e-9:
                raise VerificationFailure(
                    "rope.norm_preservation", seed,
                    f"norm drift {abs(np.linalg.norm(rq) - np.linalg.norm(q)):.3e}")

            rk = rope2d.apply_rope(table, b, k)
            a2 = (a[0] + shift[0], a[1] + shift[1])
            b2 = (b[0] + shift[0], b[1] + shift[1])
            dot1 = float(rq @ rk)
            dot2 = float(rope2d.apply_rope(table, a2, q) @ rope2d.apply_rope(table, b2, k))
            if abs(dot1 - dot2) > 1e-9:
                raise VerificationFailure(
                    "rope.relative_shift_invariance", seed,
                    f"dot products differ by {abs(dot1 - dot2):.3e}")

            m1 = rope2d.rope_matrix(a[0], a[1], d) @ rope2d.rope_matrix(b[0], b[1], d)
            m2 = rope2d.rope_matrix(a[0] + b[0], a[1] + b[1], d)
            if np.abs(m1 - m2).max() > 1e-12:
                raise VerificationFailure(
                    "rope.composition", seed,
                    f"matrix mismatch {np.abs(m1 - m2).max():.3e}")
            cases += 1
    return cases


def _suite_saliency(full: bool, fault: bool) -> int:
    n_cases = 200 if full else 60
    for case in range(n_cases):
        seed = 20_000 + case
        rng = _rng(seed)
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        scores = rng.random((rows, cols))
        smap = saliency.SaliencyMap(scores, patch_size=4)
        tau1, tau2 = sorted(rng.random(2))

        m1 = saliency.quantile_mask(smap, tau1)
        m2 = saliency.quantile_mask(smap, tau2)
        if fault and case == 0:
            m2 = saliency.PatchMask(1 - m2.bits, m2.tau)
        n = rows * cols
        if m1.k != saliency.retained_count(tau1, n):
            raise VerificationFailure(
                "saliency.exact_cardinality", seed,
                f"k={m1.k} for tau={tau1}, n={n}")
        if np.any(m1.bits > m2.bits):
            raise VerificationFailure(
                "saliency.nesting", seed,
                f"retained set at tau={tau1} not inside tau={tau2}")

        kept = m2.bits.astype(bool)
        if 0 < m2.k < n:
            lo = scores[kept].min()
            hi = scores[~kept].max()
            if lo < hi:
                raise VerificationFailure(
                    "saliency.threshold_consistency", seed,
                    f"min retained {lo} < max dropped {hi}")

        scaled = saliency.SaliencyMap(scores * 7.5, patch_size=4)
        m3 = saliency.quantile_mask(scaled, tau2)
        if not np.array_equal(m2.bits, m3.bits):
            raise VerificationFailure(
                "saliency.scale_invariance", seed, "mask changed under positive scale")
    return n_cases


def _suite_events_roundtrip(full: bool, fault: bool) -> int:
    n_cases = 80 if full else 25
    for case in range(n_cases):
        seed = 30_000 + case
        rng = _rng(seed)
        n = int(rng.integers(0, 200))
        width = int(rng.integers(1, 64))
        height = int(rng.integers(1, 64))
        ts = np.sort(rng.integers(0, 10_000, size=n))
        evs = [
            events.Event(int(t), int(rng.integers(0, width)),
                         int(rng.integers(0, height)),
                         1 if rng.random() < 0.5 else -1)
            for t in ts
        ]
        stream = events.EventStream(width, height, tuple(evs))
        blob = events.write_events_bin(stream)
        if fault and case == 0:
            blob = blob[:-1] + bytes([blob[-1] ^ 0xFF]) if n else blob + b"x"
        try:
            back = events.read_events_bin(blob)
        except Exception as exc:
            raise VerificationFailure(
                "events.binary_roundtrip", seed, f"read back failed: {exc}")
        same = (back.sensor_width == width and back.sensor_height == height
                and back.events == stream.events)
        if not same:
            raise VerificationFailure(
                "events.binary_roundtrip", seed, "stream not preserved")
    return n_cases


def _suite_events_accumulate(full: bool, fault: bool) -> int:
    n_cases = 60 if full else 20
    for case in range(n_cases):
        seed = 40_000 + case
        rng = _rng(seed)
        width = int(rng.integers(2, 32))
        height = int(rng.integers(2, 32))
        n = int(rng.integers(0, 150))
        ts = np.sort(rng.integers(0, 1000, size=n))
        evs = [
            events.Event(int(t), int(rng.integers(0, width)),
                         int(rng.integers(0, height)),
                         1 if rng.random() < 0.5 else -1)
            for t in ts
        ]
        stream = events.EventStream(width, height, tuple(evs))
        t0 = int(rng.integers(0, 500))
        t1 = t0 + int(rng.integers(0, 600))
        frame = events.accumulate(stream, t0, t1)
        if fault and case == 0:
            frame = events.EventFrame(frame.counts + 1.0)
        expected = np.zeros((height, width))
        for ev in evs:
            if t0 <= ev.t_us < t1:
                expected[ev.y, ev.x] += 1
        if not np.array_equal(frame.counts, expected):
            raise VerificationFailure(
                "events.accumulate_bruteforce", seed, "count grid mismatch")
        resized = events.resize_to(frame, max(1, width // 2), max(1, height // 2))
        if resized.total() != frame.total():
            raise VerificationFailure(
                "events.resize_conservation", seed,
                f"total {frame.total()} -> {resized.total()}")
    return n_cases


def _suite_pack(full: bool, fault: bool) -> int:
    n_cases = 60 if full else 20
    fault_pending = fault
    for case in range(n_cases):
        seed = 50_000 + case
        rng = _rng(seed)
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        d = 8
        n = rows * cols
        tokens = rng.standard_normal((n, d))
        bits = (rng.random((rows, cols)) < rng.random()).astype(np.uint8)
        mask = saliency.PatchMask(bits, tau=float(bits.mean()))
        packed = packing.pack_patches(tokens, mask)
        if fault_pending and len(packed) > 0:
            fault_pending = False
            packed = packing.PackedSequence(
                packed.tokens + 1.0, packed.kept, packed.origin_grid)
        fill = rng.standard_normal(d)
        restored = packing.unpack_scatter(packed, fill)
        flat_keep = bits.ravel().astype(bool)
        ok = (np.array_equal(restored[flat_keep], tokens[flat_keep])
              and np.array_equal(restored[~flat_keep],
                                 np.tile(fill, ((~flat_keep).sum(), 1))))
        if not ok:
            raise VerificationFailure(
                "pack.scatter_roundtrip", seed, "rows not restored exactly")
        raster = packed.kept[:, 0] * cols + packed.kept[:, 1]
        if np.any(np.diff(raster) <= 0):
            raise VerificationFailure(
                "pack.raster_order", seed, "kept coordinates not strictly increasing")
    return n_cases


def _suite_encoder(full: bool, fault: bool) -> int:
    sizes = (64, 256) if full else (16, 64)
    cases = 0
    for n_patches in sizes:
        side = int(np.sqrt(n_patches))
        for case in range(6 if full else 4):
            seed = 60_000 + 100 * n_patches + case
            rng = _rng(seed)
            d_model = 32 if case % 2 else 16
            config = EncoderConfig(
                patch_size=2, channels=1, d_model=d_model, n_layers=2,
                n_heads=2, mlp_ratio=2.0, merge_size=1, d_out=d_model,
                seed=seed)
            weights = init_weights(config)
            rope = rope2d.build_rope(side, side, config.head_dim)
            image = rng.random((side * 2, side * 2))
            patches = patchify(image, 2)
            tau = (0.25, 0.5, 0.75)[case % 3]
            scores = rng.random((side, side))
            mask = saliency.quantile_mask(saliency.SaliencyMap(scores, 2), tau)
            packed = packing.pack_patches(patches, mask)
            got = encode_packed(packed, rope, weights, config).tokens
            want = encode_masked_dense_oracle(
                patches, rope, mask, weights, config).tokens
            if fault and cases == 0:
                got = got * (1 + 1e-4)
            denom = np.maximum(np.abs(want), 1e-9)
            rel = np.abs(got - want) / denom
            worst = float(rel.max()) if rel.size else 0.0
            if worst > 1e-5:
                raise VerificationFailure(
                    "encoder.packed_equals_masked_dense", seed,
                    f"max relative error {worst:.3e} at N={n_patches}, tau={tau}")
            cases += 1
    return cases


def _suite_costmodel(full: bool, fault: bool) -> int:
    profile = costmodel.load_shipped_profile("qwen2vl_2b_like")
    n_cases = 40 if full else 15
    for case in range(n_cases):
        seed = 70_000 + case
        rng = _rng(seed)
        side = 14 * 2 * int(rng.integers(1, 9))
        text = int(rng.integers(0, 300))
        decode = int(rng.integers(0, 50))
        taus = sorted(float(t) for t in rng.random(2))

        reports = [
            costmodel.estimate(profile, costmodel.WorkloadSpec(
                side, side, tau, text, decode))
            for tau in taus
        ]
        for rep in reports:
            flops = rep.flops + (1 if fault and case == 0 else 0)
            if flops != 2 * rep.macs:
                raise VerificationFailure(
                    "costmodel.flops_twice_macs", seed,
                    f"flops={flops}, macs={rep.macs}")
        # strictness needs the tau step to move at least one merge cell
        cells = (side // 14 // 2) ** 2
        if (taus[1] - taus[0]) * cells >= 1.0 and reports[1].macs >= reports[0].macs:
            raise VerificationFailure(
                "costmodel.monotonic_in_tau", seed,
                f"macs {reports[0].macs} -> {reports[1].macs} "
                f"for tau {taus[0]:.3f} -> {taus[1]:.3f}")

        zero = costmodel.estimate(
            profile, costmodel.WorkloadSpec(0, 0, 0.5, 0, 0))
        if zero.macs != 0:
            raise VerificationFailure(
                "costmodel.zero_workload", seed, f"macs={zero.macs}")
    return n_cases


_SUITES = {
    "rope.properties": _suite_rope,
    "saliency.mask": _suite_saliency,
    "events.roundtrip": _suite_events_roundtrip,
    "events.accumulate": _suite_events_accumulate,
    "pack.roundtrip": _suite_pack,
    "encoder.equivalence": _suite_encoder,
    "costmodel.laws": _suite_costmodel,
}


def suite_names() -> list[str]:
    return list(_SUITES)


def run_suites(full: bool = False, inject_fault: str | None = None) -> list[SuiteResult]:
    if inject_fault is not None and inject_fault not in _SUITES:
        raise ValidationError(
            f"unknown suite {inject_fault!r}; choose from {suite_names()}")
    results = []
    for name, fn in _SUITES.items():
        try:
            cases = fn(full, fault=(name == inject_fault))
            results.append(SuiteResult(name, cases, None))
        except VerificationFailure as failure:
            results.append(SuiteResult(name, 0, failure))
    return results
