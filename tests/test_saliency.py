import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evprune.errors import FormatError, ValidationError
from evprune.events import EventFrame
from evprune.saliency import (
    PatchMask,
    _blocks,
    apply_mask_to_image,
    mask_from_text,
    mask_to_text,
    patch_scores,
    quantile_mask,
    retained_count,
)
from evprune.verify import check_mask_laws


@st.composite
def score_grids(draw):
    rows = draw(st.integers(1, 10))
    cols = draw(st.integers(1, 10))
    scores = draw(
        st.lists(
            st.floats(0, 100, allow_nan=False, width=32),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return EventFrame(np.array(scores).reshape(rows, cols))


class TestRetainedCount:
    def test_exact_ceil(self):
        assert retained_count(0.3, 64) == 20  # ceil(19.2)
        assert retained_count(0.5, 3) == 2
        assert retained_count(0.0, 10) == 0
        assert retained_count(1.0, 10) == 10

    def test_float_noise_does_not_overcount(self):
        # 0.07 * 100 evaluates to 7.000000000000001; the guard keeps k at 7
        assert retained_count(0.07, 100) == 7
        assert retained_count(0.1, 30) == 3

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            retained_count(-0.1, 4)
        with pytest.raises(ValidationError):
            retained_count(1.1, 4)

    @settings(deadline=None, max_examples=200)
    @given(st.floats(0, 1, allow_nan=False), st.integers(0, 4096))
    def test_bounds_and_extremes(self, tau, n):
        k = retained_count(tau, n)
        assert 0 <= k <= n
        if tau == 1.0:
            assert k == n
        if tau == 0.0:
            assert k == 0


class TestPatchScores:
    def test_rejects_non_integer_patch_size(self):
        with pytest.raises(ValidationError, match="patch size must be an integer"):
            patch_scores(EventFrame(np.zeros((4, 4))), 2.5)

    def test_all_zero_frame(self):
        smap = patch_scores(EventFrame(np.zeros((4, 4))), 2)
        assert np.array_equal(smap.counts, np.zeros((2, 2)))

    def test_single_count_lands_in_its_patch(self):
        counts = np.zeros((4, 4))
        counts[0, 0] = 3
        smap = patch_scores(EventFrame(counts), 2)
        assert np.array_equal(smap.counts, np.array([[3.0, 0.0], [0.0, 0.0]]))

    def test_matches_double_loop_on_non_divisible_frame(self):
        rng = np.random.Generator(np.random.PCG64(17))
        counts = rng.integers(0, 7, size=(9, 7)).astype(np.float64)
        smap = patch_scores(EventFrame(counts), 2)
        assert smap.counts.shape == (4, 3)
        for u in range(4):
            for v in range(3):
                want = sum(
                    abs(counts[y, x])
                    for y in range(2 * u, 2 * u + 2)
                    for x in range(2 * v, 2 * v + 2)
                )
                assert smap.counts[u, v] == want

    def test_score_total_bounded_by_frame_total(self):
        rng = np.random.Generator(np.random.PCG64(23))
        counts = rng.integers(0, 5, size=(10, 11)).astype(np.float64)
        smap = patch_scores(EventFrame(counts), 3)
        assert smap.counts.sum() <= counts.sum()
        divisible = patch_scores(EventFrame(counts[:9, :9]), 3)
        assert divisible.counts.sum() == counts[:9, :9].sum()

    def test_rejects_patch_larger_than_frame(self):
        with pytest.raises(ValidationError):
            patch_scores(EventFrame(np.zeros((3, 8))), 4)


class TestQuantileMask:
    def test_top_two_of_four(self):
        smap = EventFrame(np.array([[3.0, 1.0, 4.0, 1.0]]))
        mask = quantile_mask(smap, 0.5)
        assert mask.bits.tolist() == [[1, 0, 1, 0]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_score_rejected(self, bad):
        # a NaN score used to be ranked silently: [nan, 1, .5, .2] kept [0 1 1 0]
        with pytest.raises(ValidationError, match="finite"):
            EventFrame(np.array([[bad, 1.0, 0.5, 0.2]]))

    def test_raster_tie_break_on_equal_scores(self):
        smap = EventFrame(np.full((1, 4), 2.0))
        mask = quantile_mask(smap, 0.5)
        assert mask.bits.tolist() == [[1, 1, 0, 0]]

    def test_matches_full_sort_oracle(self):
        rng = np.random.Generator(np.random.PCG64(29))
        scores = rng.random((8, 8))
        mask = quantile_mask(EventFrame(scores), 0.3)
        k = math.ceil(0.3 * 64)
        assert k == 20 and mask.k == 20
        order = sorted(range(64), key=lambda i: (-scores.ravel()[i], i))
        want = set(order[:k])
        got = {i for i in range(64) if mask.bits.ravel()[i]}
        assert got == want

    def test_merge_group_granularity(self):
        rng = np.random.Generator(np.random.PCG64(31))
        scores = rng.random((4, 4))
        mask = quantile_mask(EventFrame(scores), 0.5, merge_size=2)
        # 4 groups, ceil(0.5*4)=2 kept, each expanded to a full 2x2 cell
        assert mask.k == 8
        cells = mask.bits.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        for cell in cells:
            assert cell.sum() in (0, 4)

    def test_merge_group_keeps_highest_group_sums(self):
        scores = np.array([
            [9.0, 0.0, 1.0, 1.0],
            [0.0, 0.0, 1.0, 1.0],
            [2.0, 2.0, 0.0, 0.0],
            [2.0, 2.0, 0.0, 0.0],
        ])
        mask = quantile_mask(EventFrame(scores), 0.25, merge_size=2)
        # group sums: 9, 4, 8, 0 -> the top-left group wins
        assert mask.bits[:2, :2].sum() == 4
        assert mask.k == 4

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5),
           st.integers(0, 2**31), st.floats(0, 1))
    def test_group_sums_and_expansion_match_repeat_reference(self, m, g_rows, g_cols,
                                                             seed, tau):
        """Bit for bit the reshape-sum of group scores and the np.repeat
        expansion of the kept groups."""
        rows, cols = g_rows * m, g_cols * m
        scores = np.random.Generator(np.random.PCG64(seed)).random((rows, cols))
        sums = scores.reshape(g_rows, m, g_cols, m).sum(axis=(1, 3))
        unit_bits = np.zeros(g_rows * g_cols, dtype=np.uint8)
        unit_bits[np.argsort(-sums.ravel(), kind="stable")[:retained_count(tau, sums.size)]] = 1
        want = np.repeat(np.repeat(unit_bits.reshape(g_rows, g_cols), m, axis=0), m, axis=1)
        assert np.array_equal(_blocks(scores, m).sum(axis=(2, 3)), sums)
        assert np.array_equal(quantile_mask(EventFrame(scores), tau, m).bits, want)

    def test_indivisible_merge_grid_rejected(self):
        smap = EventFrame(np.zeros((3, 4)))
        with pytest.raises(ValidationError):
            quantile_mask(smap, 0.5, merge_size=2)

    def test_zero_saliency_gives_raster_prefix(self):
        smap = EventFrame(np.zeros((2, 3)))
        mask = quantile_mask(smap, 0.5)
        assert mask.bits.ravel().tolist() == [1, 1, 1, 0, 0, 0]

    @settings(deadline=None, max_examples=120)
    @given(score_grids(), st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False),
           st.floats(0.001, 1000, allow_nan=False))
    def test_mask_laws(self, smap, t1, t2, scale):
        lower, upper = (quantile_mask(smap, tau) for tau in sorted((t1, t2)))
        assert check_mask_laws(smap, lower, upper, scale) is None


def blank_patches_loop(image, mask, p, fill):
    """Reference for apply_mask_to_image: fill each dropped patch in turn."""
    out = np.asarray(image).copy()
    for u in range(mask.rows):
        for v in range(mask.cols):
            if not mask.bits[u, v]:
                out[u * p : (u + 1) * p, v * p : (v + 1) * p, :] = fill
    return out


def blank_kron(image, bits, p, fill):
    """Reference for apply_mask_to_image: the bits expanded to pixels by np.kron,
    every pixel beyond the grid kept, then one np.where."""
    keep = np.ones(image.shape[:2], dtype=bool)
    rows, cols = bits.shape
    keep[: rows * p, : cols * p] = np.kron(bits, np.ones((p, p), dtype=np.uint8)) == 1
    return np.where(keep[:, :, None], image, np.asarray(fill, dtype=image.dtype))


class TestPatchMask:
    def test_float_bits_of_zero_and_one_are_kept(self):
        mask = PatchMask(np.ones((2, 2)), 1.0)
        assert mask.bits.dtype == np.uint8 and mask.k == 4

    @pytest.mark.parametrize("bits, tau, match", [
        ([[0.5, 1.0]], 0.5, "mask bits must be 0 or 1"),
        ([[-1]], 0.5, "mask bits must be 0 or 1"),
        (np.array([[256, 1]]), 0.5, "mask bits must be 0 or 1"),
        (np.ones((2, 2)), "x", "tau must be in"),
        (np.ones((2, 2)), True, "tau must be in"),
        (np.ones((2, 2)), 1 + 0j, "tau must be in"),
    ], ids=["half", "minus-one", "wraps-to-zero", "str-tau", "bool-tau", "complex-tau"])
    def test_values_are_checked_as_given(self, bits, tau, match):
        # before: 0.5 was truncated to 0, an int64 256 wrapped to 0 and a
        # bool tau was kept; -1 raised OverflowError, a str or complex tau TypeError
        with pytest.raises(ValidationError, match=match):
            PatchMask(bits, tau)


class TestApplyMask:
    def test_matches_loop_reference_with_trailing_pixels(self):
        rng = np.random.Generator(np.random.PCG64(41))
        for _ in range(60):
            p = int(rng.integers(1, 6))
            rows, cols = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            shape = (rows * p + int(rng.integers(0, p)) + 1,
                     cols * p + int(rng.integers(0, p)) + 1, 3)
            img = rng.integers(0, 256, size=shape).astype(np.uint8)
            mask = PatchMask(rng.integers(0, 2, size=(rows, cols)), 0.5)
            fill = tuple(rng.integers(0, 256, size=3).tolist())
            got = apply_mask_to_image(img, mask, p, fill)
            want = blank_patches_loop(img, mask, p, fill)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [1, 3, 16])
    @pytest.mark.parametrize("fill", [(0, 0, 0), (255, 7, 128)])
    @pytest.mark.parametrize("bits", ["random", "all_kept", "all_dropped"])
    @pytest.mark.parametrize("layout", ["uint8", "float64", "reversed_view"])
    def test_matches_kron_expanded_reference(self, p, fill, bits, layout):
        rng = np.random.default_rng(p)
        rows, cols = 3, 4
        # a margin of 2 rows and 1 column beyond the grid
        image = rng.integers(0, 256, (rows * p + 2, cols * p + 1, 3), dtype=np.uint8)
        image = {"uint8": image, "float64": image.astype(np.float64),
                 "reversed_view": image[:, ::-1]}[layout]
        mask_bits = {"random": rng.integers(0, 2, (rows, cols)),
                     "all_kept": np.ones((rows, cols), dtype=np.uint8),
                     "all_dropped": np.zeros((rows, cols), dtype=np.uint8)}[bits]
        got = apply_mask_to_image(image, PatchMask(mask_bits, 0.5), p, fill)
        want = blank_kron(image, mask_bits, p, fill)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_all_ones_is_identity(self):
        rng = np.random.Generator(np.random.PCG64(37))
        img = rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8)
        mask = PatchMask(np.ones((2, 2), dtype=np.uint8), 1.0)
        out = apply_mask_to_image(img, mask, 4, (0, 0, 0))
        assert np.array_equal(out, img)

    def test_all_zeros_fills_grid(self):
        img = np.full((8, 8, 3), 200, dtype=np.uint8)
        mask = PatchMask(np.zeros((2, 2), dtype=np.uint8), 0.0)
        out = apply_mask_to_image(img, mask, 4, (1, 2, 3))
        assert np.array_equal(out, np.tile(np.array([1, 2, 3], np.uint8), (8, 8, 1)))

    def test_anti_diagonal_placement(self):
        img = np.full((4, 4, 3), 9, dtype=np.uint8)
        mask = PatchMask(np.array([[1, 0], [0, 1]], dtype=np.uint8), 0.5)
        out = apply_mask_to_image(img, mask, 2, (0, 0, 0))
        assert np.array_equal(out[:2, :2], img[:2, :2])
        assert np.array_equal(out[2:, 2:], img[2:, 2:])
        assert np.all(out[:2, 2:] == 0) and np.all(out[2:, :2] == 0)

    def test_trailing_pixels_untouched(self):
        img = np.full((5, 5, 3), 7, dtype=np.uint8)
        mask = PatchMask(np.zeros((2, 2), dtype=np.uint8), 0.0)
        out = apply_mask_to_image(img, mask, 2, (0, 0, 0))
        assert np.all(out[4, :] == 7) and np.all(out[:, 4] == 7)

    @pytest.mark.parametrize("patch_size, fill, match", [
        (0, (0, 0, 0), "patch size"),
        (-2, (0, 0, 0), "patch size"),
        (2, (300, 0, 0), "fill"),
        (2, (-1, 0, 0), "fill"),
        (2, (0, 0), "fill"),
        (2, (0.5, 0, 0), "fill"),
        (1.5, (0, 0, 0), "patch size must be an integer"),
    ])
    def test_rejects_bad_patch_size_and_fill(self, patch_size, fill, match):
        img = np.zeros((4, 4, 3), dtype=np.uint8)
        mask = PatchMask(np.zeros((2, 2), dtype=np.uint8), 0.0)
        with pytest.raises(ValidationError, match=match):
            apply_mask_to_image(img, mask, patch_size, fill)

    @pytest.mark.parametrize("dtype, fill", [
        (np.int8, (200, 0, 0)),  # raised OverflowError
        (np.bool_, (0, 2, 0)),  # silently wrote True
    ])
    def test_rejects_a_fill_the_image_cannot_hold(self, dtype, fill):
        img = np.zeros((4, 4, 3), dtype=dtype)
        mask = PatchMask(np.zeros((2, 2), dtype=np.uint8), 0.0)
        with pytest.raises(ValidationError, match=re.escape(
                f"fill {fill!r} does not fit an image of dtype {np.dtype(dtype)}")):
            apply_mask_to_image(img, mask, 2, fill)


class TestMaskText:
    def test_roundtrip(self):
        bits = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8)
        # a mask holds its tau as a float, so the header never spells a numpy
        # scalar or Fraction repr such as np.float64(0.5), which the reader refuses
        for tau in [0.5, np.float64(0.5), np.float32(0.3), Fraction(1, 2), 1]:
            text = mask_to_text(PatchMask(bits, tau))
            assert text.startswith(f"2 3 {float(tau)!r}\n")
            back = mask_from_text(text)
            assert np.array_equal(back.bits, bits)
            assert type(back.tau) is float and back.tau == float(tau)
        # a mask of no columns is written as blank rows, which the reader skips
        empty = mask_to_text(PatchMask(np.zeros((2, 0)), 0.5))
        assert empty == "2 0 0.5\n\n\n"
        assert mask_from_text(empty).bits.shape == (2, 0)
        # the header's integers are read by errors.integer, which takes a sign
        assert mask_from_text("+2 1 0.5\n1\n0\n").bits.tolist() == [[1], [0]]

    def test_rejects_wrong_row_count(self):
        with pytest.raises(FormatError):
            mask_from_text("2 2 0.5\n1 0\n")

    def test_rejects_non_binary_digit(self):
        with pytest.raises(FormatError):
            mask_from_text("1 2 0.5\n1 2\n")
