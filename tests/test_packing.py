import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evprune.errors import ValidationError
from evprune.events import EventFrame
from evprune.packing import (
    PackedSequence,
    pack_patches,
    unpack_scatter,
)
from evprune.saliency import PatchMask, quantile_mask, retained_count
from evprune.verify import check_pack


def mask_of(bits_2d):
    bits = np.array(bits_2d, dtype=np.uint8)
    return PatchMask(bits, tau=float(bits.mean()))


@st.composite
def token_grids(draw):
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    d = draw(st.integers(1, 6))
    n = rows * cols
    seed = draw(st.integers(0, 2**31))
    rng = np.random.Generator(np.random.PCG64(seed))
    tokens = rng.standard_normal((n, d))
    bits = (rng.random((rows, cols)) < draw(st.floats(0, 1))).astype(np.uint8)
    return tokens, mask_of(bits)


class TestPackedSequence:
    def test_rejects_duplicate_coordinate(self):
        with pytest.raises(ValidationError):
            PackedSequence(np.zeros((2, 3)), ((0, 1), (0, 1)), (2, 2))

    def test_rejects_non_raster_order(self):
        with pytest.raises(ValidationError):
            PackedSequence(np.zeros((2, 3)), ((1, 0), (0, 1)), (2, 2))

    def test_rejects_coordinate_outside_grid(self):
        with pytest.raises(ValidationError):
            PackedSequence(np.zeros((1, 3)), ((2, 0),), (2, 2))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValidationError):
            PackedSequence(np.zeros((2, 3)), ((0, 0),), (2, 2))

    def test_first_offending_row_names_the_fault(self):
        with pytest.raises(ValidationError, match="raster-increasing"):
            PackedSequence(np.zeros((3, 1)), ((1, 0), (0, 1), (5, 5)), (2, 2))
        with pytest.raises(ValidationError, match=r"coordinate \(5, 5\) outside grid"):
            PackedSequence(np.zeros((3, 1)), ((0, 0), (5, 5), (0, 1)), (2, 2))

    @pytest.mark.parametrize("kept, grid", [(((0, 0), (2, 0)), (3, 2**62)),
                                            (((0, 0), (0, 1)), (1, 2**70))],
                             ids=["int64-key-wraps", "wider-than-int64"])
    def test_raster_order_on_a_grid_too_wide_for_an_int64_key(self, kept, grid):
        # row * cols + col wrapped to a smaller key, or raised OverflowError
        packed = PackedSequence(np.zeros((2, 3)), kept, grid)
        assert np.array_equal(packed.kept, kept) and packed.origin_grid == grid
        with pytest.raises(ValidationError, match="raster-increasing"):
            PackedSequence(np.zeros((2, 3)), kept[::-1], grid)

    @pytest.mark.parametrize("grid", [(-1, 2), (2, -3), (2,), (2, 2, 2), (2.0, 2), None])
    def test_rejects_bad_origin_grid(self, grid):
        # (-1, 2) used to be accepted; unpack_scatter then died in numpy
        with pytest.raises(ValidationError, match="origin grid"):
            PackedSequence(np.zeros((0, 2)), np.zeros((0, 2), int), grid)

    def test_rejects_non_integer_coordinates(self):
        # indexing would truncate (1.7, 0.2) to (1, 0)
        with pytest.raises(ValidationError, match="got float64"):
            PackedSequence(np.zeros((1, 2)), ((1.7, 0.2),), (3, 3))

    @pytest.mark.parametrize("kept", [(0, 1), ((0, 1, 2),), ((((0, 1),),),)])
    def test_rejects_coordinates_not_shaped_n_by_2(self, kept):
        with pytest.raises(ValidationError, match=r"\(n, 2\) integer array"):
            PackedSequence(np.zeros((1, 2)), kept, (3, 3))

    @pytest.mark.parametrize("tokens, match", [
        ("x", "real numbers"),
        ([[1.0, 2.0], [3.0]], "rectangular"),
        (np.array([[1j], [2.0]]), "real numbers"),
    ], ids=["str", "ragged", "complex"])
    def test_rejects_non_real_tokens(self, tokens, match):
        # the str and the ragged rows raised numpy's ValueError
        with pytest.raises(ValidationError, match=match):
            PackedSequence(tokens, np.array([[0, 0], [0, 1]]), (1, 2))
        with pytest.raises(ValidationError, match=match):
            PackedSequence(tokens, np.zeros((0, 2), int), (1, 1))

    def test_fields_are_read_only(self):
        kept = np.array([[0, 1], [1, 0]])
        packed = PackedSequence(np.zeros((2, 3)), kept, (2, 2))
        kept[0, 0] = 1  # the caller's array is copied
        assert packed.kept[0, 0] == 0
        with pytest.raises(ValueError, match="read-only"):
            packed.kept[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            packed.tokens[0, 0] = 1.0


    def test_tokens_are_copied_in_their_own_dtype(self):
        tokens = np.arange(6, dtype=np.uint8).reshape(2, 3)
        packed = PackedSequence(tokens, ((0, 0), (0, 1)), (1, 2))
        tokens[0, 0] = 9
        assert packed.tokens.dtype == np.uint8 and packed.tokens[0, 0] == 0


class TestPackPatches:
    def test_all_ones_is_identity(self):
        tokens = np.arange(12.0).reshape(4, 3)
        packed = pack_patches(tokens, mask_of([[1, 1], [1, 1]]))
        assert np.array_equal(packed.tokens, tokens)
        assert np.array_equal(packed.kept, [(0, 0), (0, 1), (1, 0), (1, 1)])

    def test_interleaved_selection(self):
        tokens = np.array([[1.0], [2.0], [3.0], [4.0]])
        packed = pack_patches(tokens, mask_of([[1, 0, 1, 0]]))
        assert packed.tokens.ravel().tolist() == [1.0, 3.0]
        assert np.array_equal(packed.kept, [(0, 0), (0, 2)])

    def test_kept_rows_keep_the_patches_dtype(self):
        tokens = np.arange(8, dtype=np.uint8).reshape(4, 2)
        packed = pack_patches(tokens, mask_of([[0, 1], [1, 0]]))
        assert packed.tokens.dtype == np.uint8
        assert np.array_equal(packed.tokens, tokens[1:3])

    def test_all_zeros_is_empty(self):
        packed = pack_patches(np.ones((4, 2)), mask_of([[0, 0], [0, 0]]))
        assert len(packed) == 0
        assert np.array_equal(packed.kept, np.empty((0, 2)))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            pack_patches(np.ones((3, 2)), mask_of([[1, 1], [1, 1]]))

    @settings(deadline=None, max_examples=100)
    @given(token_grids())
    def test_matches_naive_filter(self, case):
        tokens, mask = case
        packed = pack_patches(tokens, mask)
        want_rows = [
            (u, v)
            for u in range(mask.rows)
            for v in range(mask.cols)
            if mask.bits[u, v]
        ]
        assert np.array_equal(packed.kept, np.reshape(want_rows, (-1, 2)))
        for r, (u, v) in enumerate(want_rows):
            assert np.array_equal(packed.tokens[r], tokens[u * mask.cols + v])

    @settings(deadline=None, max_examples=60)
    @given(token_grids())
    def test_token_rows_pair_with_kept_coordinates(self, case):
        _, mask = case
        coords = np.array(
            [(u, v) for u in range(mask.rows) for v in range(mask.cols)],
            dtype=np.float64,
        )
        packed = pack_patches(coords, mask)
        assert np.array_equal(packed.tokens, packed.kept)


class TestUnpackScatter:
    @settings(deadline=None, max_examples=100)
    @given(token_grids(), st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6))
    @example((np.arange(8.0).reshape(4, 2), mask_of([[1, 1], [1, 1]])), [0.0] * 6)
    @example((np.arange(8.0).reshape(4, 2), mask_of([[1, 0], [0, 1]])), [-5.0] * 6)
    def test_scatter_laws(self, case, fill):
        tokens, mask = case
        fill = np.array(fill[:tokens.shape[1]])
        assert check_pack(tokens, mask, pack_patches(tokens, mask), fill) is None

    def test_empty_packed_gives_all_fill(self):
        tokens, mask = np.ones((4, 3)), mask_of([[0, 0], [0, 0]])
        fill = np.array([7.0, 8.0, 9.0])
        assert check_pack(tokens, mask, pack_patches(tokens, mask), fill) is None

    @pytest.mark.parametrize("grid", [(2**40, 2**40), (2**12 + 1, 2**12)])
    def test_rejects_a_grid_beyond_the_pixel_cap_before_allocating(self, grid):
        # (2**40, 2**40) raised OverflowError; smaller grids were allocated uncapped
        packed = PackedSequence(np.zeros((0, 1)), np.zeros((0, 2), dtype=np.int64), grid)
        with pytest.raises(ValidationError, match="exceeds MAX_FRAME_PIXELS"):
            unpack_scatter(packed, np.zeros(1))

    def test_rejects_fill_length_mismatch(self):
        packed = pack_patches(np.ones((4, 3)), mask_of([[1, 0], [0, 1]]))
        with pytest.raises(ValidationError):
            unpack_scatter(packed, np.zeros(2))


class TestQuantileMaskIntegration:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 8), st.integers(1, 8),
           st.floats(0, 1, allow_nan=False), st.integers(0, 2**31))
    def test_packed_length_follows_ceil_law(self, rows, cols, tau, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        smap = EventFrame(rng.random((rows, cols)))
        mask = quantile_mask(smap, tau)
        tokens = rng.standard_normal((rows * cols, 5))
        packed = pack_patches(tokens, mask)
        assert len(packed) == retained_count(tau, rows * cols)
