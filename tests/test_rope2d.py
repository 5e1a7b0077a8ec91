import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evprune.errors import ValidationError
from evprune.rope2d import (
    RopeTable,
    apply_rope,
    apply_rope_many,
    build_rope,
    rope_matrix,
)
from evprune.verify import rope_errors

DIMS = (4, 8, 64)


@st.composite
def dim_pos_vec(draw):
    d = draw(st.sampled_from(DIMS))
    pos = (draw(st.integers(0, 15)), draw(st.integers(0, 15)))
    vec = np.array(
        draw(st.lists(st.floats(-10, 10, allow_nan=False, width=32),
                      min_size=d, max_size=d))
    )
    return d, pos, vec


class TestTable:
    def test_frequencies_for_d8(self):
        # 10000^(-2/8) and 10000^(-4/8)
        table = build_rope(2, 2, 8)
        v = np.array([1.0, 0, 0, 0, 1.0, 0, 0, 0])
        out = apply_rope(table, (1, 0), v)
        assert out[0] == pytest.approx(math.cos(0.1), abs=1e-15)
        assert out[1] == pytest.approx(math.sin(0.1), abs=1e-15)
        assert out[4] == pytest.approx(math.cos(0.01), abs=1e-15)
        assert out[5] == pytest.approx(math.sin(0.01), abs=1e-15)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValidationError):
            build_rope(2, 2, 6)
        with pytest.raises(ValidationError):
            build_rope(2, 2, 0)

    def test_rejects_empty_extent(self):
        with pytest.raises(ValidationError):
            build_rope(0, 2, 4)

    @pytest.mark.parametrize("rows, cols, d, match", [
        ("3", 4, 8, "rows must be an integer"),
        (3, 4.0, 8, "cols must be an integer"),
        (3, 4, None, "d must be an integer"),
    ])
    def test_rejects_non_integer_sizes_before_building(self, rows, cols, d, match):
        # each failed inside np.arange or _thetas with TypeError
        with pytest.raises(ValidationError, match=match):
            build_rope(rows, cols, d)

    @pytest.mark.parametrize("rows, cols, d", [
        (2**70, 1, 4), (1, 1, 2**70), (2**22, 1, 4)])
    def test_rejects_a_table_beyond_the_pixel_cap_before_allocating(self, rows, cols, d):
        # 2**70 raised a plain ValueError; smaller tables were allocated uncapped
        with pytest.raises(ValidationError, match="exceeds MAX_FRAME_PIXELS"):
            RopeTable(rows, cols, d)

    def test_keeps_read_only_finite_copies(self):
        # factor arrays were taken from the caller; NaN or zeros broke the rotation
        table = RopeTable(2, 2, 4)
        for factors in (table.cos_row, table.sin_row, table.cos_col, table.sin_col):
            assert np.isfinite(factors).all()
            with pytest.raises(ValueError, match="read-only"):
                factors[0, 0] = 5.0
        with pytest.raises(TypeError):
            RopeTable(2, 2, 4, *[np.zeros((2, 1))] * 4)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 24), st.integers(0, 2**31))
    def test_every_table_the_constructor_accepts_rotates(self, rows, cols, d, seed):
        try:
            table = RopeTable(rows, cols, d)
        except ValidationError:
            assert d % 4
            return
        v = np.random.Generator(np.random.PCG64(seed)).standard_normal(d)
        for i in range(rows):
            for j in range(cols):
                want = rope_matrix(i, j, d) @ v
                assert np.abs(apply_rope(table, (i, j), v) - want).max() <= 1e-12


class TestApply:
    def test_origin_is_identity(self):
        table = build_rope(4, 4, 8)
        v = np.arange(8.0)
        assert np.array_equal(apply_rope(table, (0, 0), v), v)

    def test_unit_vector_rotation_d4(self):
        table = build_rope(6, 6, 4)
        theta = 10000.0 ** (-2.0 / 4.0)
        for i, j in ((1, 0), (0, 1), (3, 5)):
            out = apply_rope(table, (i, j), np.array([1.0, 0.0, 1.0, 0.0]))
            want = [math.cos(i * theta), math.sin(i * theta),
                    math.cos(j * theta), math.sin(j * theta)]
            assert np.allclose(out, want, atol=1e-15)

    def test_rejects_out_of_extent(self):
        table = build_rope(2, 2, 4)
        with pytest.raises(ValidationError):
            apply_rope(table, (2, 0), np.zeros(4))

    def test_rejects_wrong_length(self):
        table = build_rope(2, 2, 4)
        with pytest.raises(ValidationError):
            apply_rope(table, (0, 0), np.zeros(6))

    def test_rejects_non_integer_positions(self):
        # indexing would truncate (1.7, 0.2) to (1, 0)
        table = build_rope(3, 3, 4)
        with pytest.raises(ValidationError, match="got float64"):
            apply_rope_many(table, [(1.7, 0.2)], np.ones((1, 4)))
        with pytest.raises(ValidationError, match="got float64"):
            apply_rope(table, (1.7, 0.2), np.ones(4))

    def test_rejects_v_that_is_not_a_batch_of_vectors(self):
        # a 0-D v raised IndexError; a ragged one numpy's ValueError in np.reshape
        table = build_rope(3, 3, 4)
        with pytest.raises(ValidationError, match="v must have shape"):
            apply_rope_many(table, [(1, 1)], np.float64(0.7))
        with pytest.raises(ValidationError, match="v must have shape"):
            apply_rope_many(table, [(1, 1)], np.ones(4))
        with pytest.raises(ValidationError, match="v must be a rectangular array"):
            apply_rope(table, (1, 1), [0.1, [0.2]])
        with pytest.raises(ValidationError, match="v must be 1-D"):
            apply_rope(table, (1, 1), np.ones((1, 4)))

    @pytest.mark.parametrize("positions", [(1, 2), [(1, 2, 0)], np.zeros((1, 2, 1), int)])
    def test_rejects_positions_not_shaped_n_by_2(self, positions):
        table = build_rope(3, 3, 4)
        with pytest.raises(ValidationError, match=r"\(n, 2\) integer array"):
            apply_rope_many(table, positions, np.ones((1, 4)))

    def test_per_head_layout_matches_single(self):
        table = build_rope(3, 3, 8)
        rng = np.random.Generator(np.random.PCG64(41))
        v = rng.standard_normal((2, 3, 8))  # (tokens, heads, d)
        out = apply_rope_many(table, ((1, 2), (2, 0)), v)
        for t, pos in enumerate(((1, 2), (2, 0))):
            for h in range(3):
                single = apply_rope(table, pos, v[t, h])
                assert np.allclose(out[t, h], single, atol=1e-15)

    @settings(deadline=None, max_examples=150)
    @given(dim_pos_vec())
    def test_agrees_with_matrix_oracle(self, case):
        d, pos, vec = case
        table = build_rope(16, 16, d)
        got = apply_rope(table, pos, vec)
        want = rope_matrix(pos[0], pos[1], d) @ vec
        assert np.abs(got - want).max() <= 1e-12


class TestMatrix:
    def test_origin_is_identity(self):
        for d in DIMS:
            assert np.array_equal(rope_matrix(0, 0, d), np.eye(d))

    @pytest.mark.parametrize("i, j, d, match", [
        ("1", 0, 8, "i must be an integer"),
        (1, 2, 8.0, "d must be an integer"),
        (math.inf, 0, 8, "i must be an integer"),
        (0, 1.5, 8, "j must be an integer"),
        (0, 0, 6, "divisible by 4"),
    ])
    def test_rejects_non_integer_arguments(self, i, j, d, match):
        # "1" and 8.0 raised TypeError, inf warned in np.cos, 1.5 rotated by 1.5
        with pytest.raises(ValidationError, match=match):
            rope_matrix(i, j, d)

    @pytest.mark.parametrize("i, j", [(10**400, 0), (0, -(10**400))], ids=["i", "j"])
    def test_rejects_coordinates_beyond_float_range(self, i, j):
        # raised OverflowError
        with pytest.raises(ValidationError, match="within float range"):
            rope_matrix(i, j, 8)

    @pytest.mark.parametrize("d", [2**70, 4100])
    def test_rejects_a_matrix_beyond_the_pixel_cap_before_allocating(self, d):
        # 2**70 raised a plain ValueError; 4100 x 4100 was allocated uncapped
        with pytest.raises(ValidationError, match="exceeds MAX_FRAME_PIXELS"):
            rope_matrix(0, 0, d)

    def test_d4_block_layout(self):
        theta = 10000.0 ** (-2.0 / 4.0)
        want = np.array([
            [math.cos(theta), -math.sin(theta), 0.0, 0.0],
            [math.sin(theta), math.cos(theta), 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ])
        assert np.allclose(rope_matrix(1, 0, 4), want, atol=1e-15)

    @settings(deadline=None, max_examples=100)
    @given(st.sampled_from(DIMS), st.integers(0, 20), st.integers(0, 20))
    def test_orthogonality(self, d, i, j):
        m = rope_matrix(i, j, d)
        assert np.abs(m.T @ m - np.eye(d)).max() <= 1e-12


class TestProperties:
    @settings(deadline=None, max_examples=150)
    @given(dim_pos_vec(), st.tuples(st.integers(0, 15), st.integers(0, 15)),
           st.tuples(st.integers(0, 10), st.integers(0, 10)), st.integers(0, 2**31))
    def test_rotary_laws(self, case, b, shift, seed):
        d, a, q = case
        k = np.random.Generator(np.random.PCG64(seed)).standard_normal(d)
        errors = rope_errors(build_rope(32, 32, d), a, b, shift, q, k)
        assert errors["rope.norm_preservation"] <= 1e-9
        assert errors["rope.relative_shift_invariance"] <= 1e-9
        assert errors["rope.composition"] <= 1e-12
