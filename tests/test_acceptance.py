"""Acceptance suite: one test per shipped claim, each timed and reported.

Every test prints a single ``criterion N (<name>): PASS`` line on success
(visible with ``pytest -s`` and in captured output), checks the stated
numeric tolerance, and asserts its runtime budget. Criterion 3 is a
documented skip: benchmark accuracy needs real pretrained weights and an
evaluation set, which an analytic toolkit cannot supply; the equivalence
and property criteria (1, 4, 5) stand in for it.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from evprune.cli import main
from evprune.encoder import (
    EncoderConfig,
    encode_masked_dense_oracle,
    encode_packed,
    init_weights,
    patchify,
)
from evprune.events import EventFrame, write_events_bin
from evprune.featio import read_features, write_features
from evprune.packing import pack_patches
from evprune.rope2d import build_rope
from evprune.saliency import (
    mask_from_text,
    patch_scores,
    quantile_mask,
)
from evprune.ppm import write_ppm
from evprune.verify import (
    check_events_roundtrip,
    check_mask_laws,
    packed_oracle_error,
    rope_errors,
)

from conftest import SCENE, SQUARE, square_scene, stream_of


def _report(num: int, name: str, detail: str) -> None:
    print(f"criterion {num} ({name}): PASS [{detail}]")


def _retained_set(mask) -> set[tuple[int, int]]:
    return {(int(r), int(c)) for r, c in zip(*np.nonzero(mask.bits))}


def test_criterion_1_packed_equivalence():
    """Packed inference equals the masked-dense oracle on retained rows.

    108 random (image, mask, config) triples: N in {16, 64, 256} tokens,
    retained fraction in {0.25, 0.5, 0.75}, d_model in {16, 32}. Max
    relative element error must stay <= 1e-5; budget 2 minutes.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    triples = 0
    for side in (4, 8, 16):                      # N = 16, 64, 256
        for tau in (0.25, 0.5, 0.75):
            for d_model in (16, 32):
                for trial in range(6):
                    config = EncoderConfig(
                        patch_size=2, channels=3, d_model=d_model,
                        n_layers=2, n_heads=d_model // 8, mlp_ratio=2.0,
                        merge_size=1, d_out=d_model,
                        seed=int(rng.integers(0, 2**31)))
                    image = rng.random((side * 2, side * 2, 3))
                    patches = patchify(image, config.patch_size)
                    scores = EventFrame(rng.random((side, side)))
                    mask = quantile_mask(scores, tau)
                    rope = build_rope(side, side, config.head_dim)
                    weights = init_weights(config)
                    packed = encode_packed(
                        pack_patches(patches, mask), rope, weights, config)
                    oracle = encode_masked_dense_oracle(
                        patches, rope, mask, weights, config)
                    worst = max(worst, packed_oracle_error(packed, oracle))
                    triples += 1
    elapsed = time.perf_counter() - start
    assert triples >= 100
    assert worst <= 1e-5
    assert elapsed < 120.0
    _report(1, "packed equivalence",
            f"{triples} triples, max rel err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_cost_reduction_windows(capsys):
    """Shipped profiles land in the expected reduction windows.

    Workload: visual-token-dominated prefill, 392x392 image (784 patches,
    196 merged visual tokens), 59 text tokens, no decode steps. The
    2B-like profile must land within +-5 percentage points of
    29.9/49.7/69.4 (FLOPs) and 29.7/50.0/70.3 (MACs) at dropped fractions
    0.3/0.5/0.7; the 7B-like profile within +-6 points of 20.1/42.4/64.3.
    Budget 1 second.
    """
    cases = [
        ("qwen2vl_2b_like", 5.0, (29.9, 49.7, 69.4), (29.7, 50.0, 70.3)),
        ("qwen2vl_7b_like", 6.0, (20.1, 42.4, 64.3), (20.1, 42.4, 64.3)),
    ]
    start = time.perf_counter()
    lines = []
    for profile, tol, flops_targets, macs_targets in cases:
        for drop, f_want, m_want in zip((0.3, 0.5, 0.7),
                                        flops_targets, macs_targets):
            code = main(["flops", "--profile", profile,
                         "--image-size", "392x392", "--tau-dropped", str(drop),
                         "--text-tokens", "59", "--decode", "0", "--baseline"])
            assert code == 0
            out = capsys.readouterr().out
            got = {}
            for line in out.splitlines():
                if line.startswith("reduction."):
                    key, _, value = line.partition("=")
                    got[key.removeprefix("reduction.")] = float(value)
            f_got = got["reduction_flops_pct"]
            m_got = got["reduction_macs_pct"]
            assert abs(f_got - f_want) <= tol, (profile, drop, f_got, f_want)
            assert abs(m_got - m_want) <= tol, (profile, drop, m_got, m_want)
            lines.append(f"{profile} drop={drop}: {f_got:.1f}%")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, "cost reduction windows",
            "; ".join(lines) + f", {elapsed:.2f}s")


def test_criterion_3_benchmark_accuracy_out_of_scope():
    pytest.skip(
        "benchmark accuracy rows need real pretrained weights and a VQA "
        "evaluation set, which this analytic toolkit does not include; "
        "criteria 1, 4 and 5 stand in for them")


def test_criterion_4_rope_properties():
    """Rotary table properties over 1200 random cases, d in {4, 8, 64}.

    Unit-norm inputs make absolute and relative error coincide:
    norm preservation <= 1e-9, relative-shift invariance of rotated
    inner products <= 1e-9, composition vs the matrix oracle <= 1e-12.
    Budget 10 seconds.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    tables = {d: build_rope(64, 64, d) for d in (4, 8, 64)}
    cases = 0
    for d, table in tables.items():
        for _ in range(400):
            q = rng.standard_normal(d)
            q /= np.linalg.norm(q)
            k = rng.standard_normal(d)
            k /= np.linalg.norm(k)
            a = tuple(int(v) for v in rng.integers(0, 32, size=2))
            b = tuple(int(v) for v in rng.integers(0, 32, size=2))
            t = tuple(int(v) for v in rng.integers(0, 32, size=2))

            errors = rope_errors(table, a, b, t, q, k)
            assert errors["rope.norm_preservation"] <= 1e-9
            assert errors["rope.relative_shift_invariance"] <= 1e-9
            assert errors["rope.composition"] <= 1e-12
            cases += 1
    elapsed = time.perf_counter() - start
    assert cases >= 1000
    assert elapsed < 10.0
    _report(4, "rope properties", f"{cases} cases, {elapsed:.1f}s")


def test_criterion_5_mask_properties():
    """Quantile mask laws over 200 random (scores, tau) pairs.

    Exact cardinality ceil(tau*N) (checked with exact rational
    arithmetic), nesting of retained sets as tau grows, threshold
    consistency, positive-scale invariance, raster tie-break on constant
    maps. Budget 10 seconds.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(1005)
    for case in range(200):
        rows = int(rng.integers(1, 17))
        cols = int(rng.integers(1, 17))
        if case % 10 == 0:
            scores = np.full((rows, cols), float(rng.random()) + 0.5)
        else:
            scores = rng.random((rows, cols)) * float(10.0 ** rng.integers(-3, 4))
        smap = EventFrame(scores)
        tau = float(rng.random())

        mask = quantile_mask(smap, tau)
        lower = quantile_mask(smap, tau * float(rng.random()))
        assert check_mask_laws(smap, lower, mask, 37.5) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, "mask properties", f"200 cases, {elapsed:.1f}s")


def test_criterion_6_moving_square_end_to_end(tmp_path, capsys):
    """Simulate + mask retains every patch the moving square touches.

    A bright 32x32 square translates across a 128x128 scene. With the
    retained fraction set to twice the square's patch-area fraction, the
    mask must keep 100% of the patches intersecting the union of the two
    square positions, per a geometric rectangle/patch intersection
    oracle. Budget 5 seconds.
    """
    start = time.perf_counter()
    patch = 16
    positions = ((16, 16), (64, 16))
    frame_a = tmp_path / "a.ppm"
    frame_b = tmp_path / "b.ppm"
    frame_a.write_bytes(write_ppm(square_scene(*positions[0])))
    frame_b.write_bytes(write_ppm(square_scene(*positions[1])))
    events = tmp_path / "sq.evt1"
    assert main(["simulate", str(frame_a), str(frame_b), "--contrast", "0.3",
                 "--duration-us", "1000", "--out", str(events)]) == 0

    tau = 2.0 * (SQUARE * SQUARE) / (SCENE * SCENE)
    out_mask = tmp_path / "mask.txt"
    assert main(["mask", str(frame_a), str(events), "--tau", str(tau),
                 "--patch-size", str(patch), "--out-mask", str(out_mask)]) == 0
    capsys.readouterr()
    mask = mask_from_text(out_mask.read_text())

    touched = set()
    for x0, y0 in positions:
        for r in range(SCENE // patch):
            for c in range(SCENE // patch):
                overlap_x = min(x0 + SQUARE, (c + 1) * patch) - max(x0, c * patch)
                overlap_y = min(y0 + SQUARE, (r + 1) * patch) - max(y0, r * patch)
                if overlap_x > 0 and overlap_y > 0:
                    touched.add((r, c))
    retained = _retained_set(mask)
    assert touched <= retained, touched - retained
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(6, "moving square end to end",
            f"{len(touched)}/{len(touched)} touched patches retained, "
            f"{elapsed:.1f}s")


def test_criterion_7_format_roundtrips():
    """Event and feature files survive read/write bit-exactly.

    Random event streams round-trip through the binary format with
    byte-identical re-encoding; CSV ingestion preserves every event
    through the binary path; feature dumps reproduce float32 payloads
    bit for bit. Budget 5 seconds.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(1007)
    for _ in range(50):
        w = int(rng.integers(1, 200))
        h = int(rng.integers(1, 200))
        n = int(rng.integers(0, 300))
        ts = np.sort(rng.integers(0, 10**6, size=n))
        rows = [(t, rng.integers(0, w), rng.integers(0, h), rng.choice((-1, 1)))
                for t in ts]
        stream = stream_of(w, h, *rows)
        assert check_events_roundtrip(stream, write_events_bin(stream)) is None

    for _ in range(50):
        count = int(rng.integers(0, 40))
        dim = int(rng.integers(1, 64))
        feats = rng.standard_normal((count, dim)).astype(np.float32)
        blob = write_features(feats)
        back = read_features(blob)
        assert back.tobytes() == feats.tobytes()
        assert write_features(back) == blob
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(7, "format roundtrips",
            f"50 event + 50 feature round-trips, {elapsed:.1f}s")


def test_criterion_8_patch_scores_brute_force():
    """Patch scoring equals an independent double-loop summation.

    100 random integer-valued frames whose dimensions never divide by
    the patch size, so trailing rows and columns must be cropped
    identically by both implementations. Budget 5 seconds.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(1008)
    for _ in range(100):
        p = int(rng.integers(2, 8))
        rows = int(rng.integers(1, 10))
        cols = int(rng.integers(1, 10))
        h = rows * p + int(rng.integers(1, p))
        w = cols * p + int(rng.integers(1, p))
        frame = EventFrame(rng.integers(0, 10, size=(h, w)).astype(np.float64))

        smap = patch_scores(frame, p)
        want = np.empty((rows, cols))
        for r in range(rows):
            for c in range(cols):
                want[r, c] = frame.counts[r * p:(r + 1) * p,
                                          c * p:(c + 1) * p].sum()
        assert smap.counts.shape == (rows, cols)
        assert np.array_equal(smap.counts, want)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(8, "patch score brute force", f"100 frames, {elapsed:.1f}s")
