import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evprune import encoder
from evprune.encoder import (
    EncoderConfig,
    _gelu,
    encode_dense,
    encode_masked_dense_oracle,
    encode_packed,
    init_weights,
    load_encoder_config,
    merge_project,
    patchify,
)
from evprune.errors import FormatError, ValidationError
from evprune.packing import PackedSequence, pack_patches, unpack_scatter
from evprune.rope2d import build_rope
from evprune.saliency import PatchMask, SaliencyMap, quantile_mask
from evprune.verify import max_rel_err


def small_config(**overrides):
    base = dict(patch_size=2, channels=3, d_model=16, n_layers=2, n_heads=2,
                mlp_ratio=2.0, merge_size=1, d_out=16, seed=0)
    base.update(overrides)
    return EncoderConfig(**base)


def random_setup(rows, cols, config, seed):
    """Image patches, rope table, and weights for a rows x cols grid."""
    rng = np.random.Generator(np.random.PCG64(seed))
    p = config.patch_size
    image = rng.random((rows * p, cols * p, config.channels))
    patches = patchify(image, p)
    rope = build_rope(rows, cols, config.head_dim)
    return patches, rope, init_weights(config)


def layer_norm(x, g, b):
    mean = x.mean()
    var = ((x - mean) ** 2).mean()
    return (x - mean) / math.sqrt(var + 1e-5) * g + b


def gelu(x):
    return np.array([0.5 * t * (1 + math.erf(t / math.sqrt(2))) for t in x])


def rot(vec, i, j):
    out = vec.copy()
    for m in range(1, len(vec) // 4 + 1):
        theta = 10000.0 ** (-2.0 * m / len(vec))
        for base, ang in ((4 * m - 4, i * theta), (4 * m - 2, j * theta)):
            c, s = math.cos(ang), math.sin(ang)
            x0, x1 = out[base], out[base + 1]
            out[base] = x0 * c - x1 * s
            out[base + 1] = x0 * s + x1 * c
    return out


def hand_rolled_forward(patches, coords, w, config):
    """The encoder stack over the given tokens, one head and one query at a time.

    Every token attends to every token in ``patches``, so passing only the
    retained rows with their grid coordinates gives the masked reference.
    """
    n, nh, dh = len(coords), config.n_heads, config.head_dim
    h = patches @ w.w_embed + w.b_embed
    for lw in w.layers:
        a = np.stack([layer_norm(row, lw.ln1_gamma, lw.ln1_beta) for row in h])
        q, k, v = a @ lw.wq, a @ lw.wk, a @ lw.wv
        mixed = np.zeros_like(h)
        for head in range(nh):
            cols = slice(head * dh, (head + 1) * dh)
            qh = [rot(q[t, cols], *coords[t]) for t in range(n)]
            kh = [rot(k[t, cols], *coords[t]) for t in range(n)]
            for t in range(n):
                logits = np.array([qh[t] @ kh[u] for u in range(n)]) / math.sqrt(dh)
                p = np.exp(logits - logits.max())
                p /= p.sum()
                mixed[t, cols] = sum(p[u] * v[u, cols] for u in range(n))
        h = h + mixed @ lw.wo
        a2 = np.stack([layer_norm(row, lw.ln2_gamma, lw.ln2_beta) for row in h])
        h = h + np.stack(
            [gelu(row @ lw.w_up + lw.b_up) for row in a2]) @ lw.w_down + lw.b_down
    return h


def reference_merge_project(tokens, positions, config, weights):
    """merge_project with one Python dict entry per merge cell: members are
    grouped by cell, cells visited in sorted order, members sorted by position."""
    m = config.merge_size
    groups = {}
    for idx, (i, j) in enumerate(positions):
        groups.setdefault((i // m, j // m), []).append(idx)
    cells = sorted(groups)
    gathered = np.zeros((len(cells), m * m, config.d_model))
    for c, cell in enumerate(cells):
        members = groups[cell]
        if len(members) != m * m:
            raise ValidationError(
                f"merge cell {cell} has {len(members)} of {m * m} members; "
                f"mask granularity must match merge_size {m}"
            )
        members.sort(key=lambda idx: positions[idx])
        gathered[c] = tokens[members]
    flat = gathered.reshape(len(cells), config.merge_dim)
    hidden = _gelu(flat @ weights.w_merge1 + weights.b_merge1)
    return hidden @ weights.w_merge2 + weights.b_merge2, cells


@functools.cache
def merge_setup(m):
    config = small_config(merge_size=m, d_out=8)
    return config, init_weights(config)


@st.composite
def merge_cases(draw):
    """Token features at the positions a mask keeps, in raster order.

    Merge-granular masks set whole merge cells that fit inside the grid;
    patch-granular masks set arbitrary patches and may split a cell.
    """
    rows, cols, m = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 3))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**31))))
    if draw(st.booleans()):
        cell_bits = rng.random((rows // m, cols // m)) < rng.random()
        bits = np.zeros((rows, cols), dtype=bool)
        bits[: rows // m * m, : cols // m * m] = cell_bits.repeat(m, 0).repeat(m, 1)
    else:
        bits = rng.random((rows, cols)) < rng.random()
    positions = [(i, j) for i in range(rows) for j in range(cols) if bits[i, j]]
    tokens = rng.standard_normal((len(positions), 16))
    return tokens, positions, (rows, cols), m


class TestConfig:
    def test_rejects_indivisible_dims(self):
        with pytest.raises(ValidationError):
            small_config(d_model=18)  # not divisible by 4
        with pytest.raises(ValidationError):
            small_config(d_model=16, n_heads=3)
        with pytest.raises(ValidationError):
            small_config(d_model=8, n_heads=4)  # head_dim 2 not divisible by 4

    def test_zero_layers_allowed(self):
        assert small_config(n_layers=0).n_layers == 0
        with pytest.raises(ValidationError):
            small_config(n_layers=-1)

    def test_loads_from_text(self):
        text = """
        patch_size = 2
        channels = 3
        d_model = 16
        n_layers = 1
        n_heads = 2
        mlp_ratio = 2.0
        merge_size = 1
        d_out = 8
        seed = 5
        """
        config = load_encoder_config(text)
        assert config.d_model == 16 and config.seed == 5

    def test_rejects_more_weights_than_the_cap(self):
        # d x d attention matrices alone would be 4 * 1.6e13 float64 values
        text = "\n".join(f"{k} = {v}" for k, v in dict(
            patch_size=2, channels=3, d_model=4000000, n_layers=1, n_heads=2,
            mlp_ratio=2.0, merge_size=1, d_out=8, seed=5).items())
        with pytest.raises(ValidationError, match="MAX_ENCODER_PARAMS"):
            load_encoder_config(text)

    @pytest.mark.parametrize("ratio", [1e308, float("nan")])
    def test_rejects_unrepresentable_mlp_width(self, ratio):
        with pytest.raises(ValidationError, match="mlp_ratio"):
            small_config(mlp_ratio=ratio)

    def test_field_types_checked_before_use(self):
        """A float in an int field reached init_weights as a TypeError."""
        with pytest.raises(ValidationError, match="field d_model: expected integer, got 16.0"):
            init_weights(EncoderConfig(2, 3, 16.0, 1, 2, 2.0, 1, 8, 0))
        with pytest.raises(ValidationError, match="field seed: expected integer"):
            small_config(seed=False)
        with pytest.raises(ValidationError, match="field mlp_ratio: expected number"):
            small_config(mlp_ratio=True)
        assert small_config(mlp_ratio=2, d_model=np.int64(16)).mlp_hidden == 32

    def test_rejects_unknown_and_missing_keys(self):
        with pytest.raises(FormatError):
            load_encoder_config("patch_size = 2\n")
        good = "\n".join(f"{k} = {v}" for k, v in dict(
            patch_size=2, channels=3, d_model=16, n_layers=1, n_heads=2,
            mlp_ratio=2.0, merge_size=1, d_out=8, seed=5).items())
        with pytest.raises(FormatError):
            load_encoder_config(good + "\nbogus = 1\n")


class TestPatchify:
    def test_floor_division_counts(self):
        assert patchify(np.zeros((28, 28, 3)), 14).shape == (4, 14 * 14 * 3)
        assert patchify(np.zeros((30, 30, 3)), 14).shape == (4, 14 * 14 * 3)

    def test_constant_image_gives_identical_rows(self):
        rows = patchify(np.full((8, 8, 3), 0.5), 4)
        assert np.array_equal(rows[0], rows[1])
        assert np.array_equal(rows[0], rows[3])

    def test_raster_order_channel_last_layout(self):
        image = np.arange(2 * 4 * 2, dtype=np.float64).reshape(2, 4, 2)
        rows = patchify(image, 2)
        # patch (0,0): pixels (0,0),(0,1),(1,0),(1,1), channels last
        want = [image[y, x, c] for y in range(2) for x in range(2) for c in range(2)]
        assert rows[0].tolist() == want
        # second patch starts at column 2
        want2 = [image[y, x, c] for y in range(2) for x in (2, 3) for c in range(2)]
        assert rows[1].tolist() == want2

    def test_rejects_image_smaller_than_patch(self):
        with pytest.raises(ValidationError):
            patchify(np.zeros((3, 10, 3)), 4)

    @pytest.mark.parametrize("patch_size", [0, -1])
    def test_rejects_non_positive_patch_size(self, patch_size):
        with pytest.raises(ValidationError, match="patch size must be >= 1"):
            patchify(np.zeros((4, 4, 3)), patch_size)

    @pytest.mark.parametrize("patch_size", [2.5, 2.0, float("nan")])
    def test_rejects_non_integer_patch_size(self, patch_size):
        """2.5 died in slicing with a TypeError."""
        with pytest.raises(ValidationError, match="patch size must be an integer"):
            patchify(np.zeros((4, 4, 3)), patch_size)
        assert patchify(np.zeros((4, 4, 3)), np.int64(2)).shape == (4, 12)


class TestInitWeights:
    def test_same_seed_is_bit_identical(self):
        config = small_config(seed=123)
        w1, w2 = init_weights(config), init_weights(config)
        assert np.array_equal(w1.w_embed, w2.w_embed)
        assert np.array_equal(w1.layers[1].w_down, w2.layers[1].w_down)
        assert np.array_equal(w1.w_merge2, w2.w_merge2)

    def test_different_seeds_differ(self):
        w1 = init_weights(small_config(seed=1))
        w2 = init_weights(small_config(seed=2))
        assert not np.array_equal(w1.w_embed, w2.w_embed)

    def test_seed_zero_reference_vector(self):
        # first standard normal draw of the documented generator for
        # seed 0, reproduced independently; the embedding scales it by
        # 1/sqrt(patch_dim) with patch_dim = 2*2*3 = 12
        first = np.random.Generator(np.random.PCG64(0)).standard_normal()
        weights = init_weights(small_config(seed=0))
        want = first / np.sqrt(12.0)
        assert weights.w_embed[0, 0] == want


class TestEncodeDense:
    def test_zero_layers_is_patch_embedding(self):
        config = small_config(n_layers=0)
        patches, rope, weights = random_setup(2, 2, config, seed=7)
        out = encode_dense(patches, rope, weights, config)
        assert np.array_equal(out.tokens, patches @ weights.w_embed + weights.b_embed)

    def test_output_shape(self):
        config = small_config()
        patches, rope, weights = random_setup(3, 5, config, seed=8)
        out = encode_dense(patches, rope, weights, config)
        assert out.tokens.shape == (15, 16)
        assert len(out.kept) == 15

    def test_rejects_grid_mismatch(self):
        config = small_config()
        patches, _, weights = random_setup(2, 2, config, seed=9)
        rope = build_rope(3, 3, config.head_dim)
        with pytest.raises(ValidationError):
            encode_dense(patches, rope, weights, config)

    def test_two_token_hand_rolled_forward(self):
        config = small_config(d_model=8, n_layers=1, n_heads=1, mlp_ratio=2.0)
        patches, rope, w = random_setup(1, 2, config, seed=10)
        got = encode_dense(patches, rope, w, config).tokens
        want = hand_rolled_forward(patches, [(0, 0), (0, 1)], w, config)
        assert max_rel_err(got, want) <= 1e-12


class TestPackedVsOracle:
    def test_multi_head_masked_matches_hand_rolled_reference(self, monkeypatch):
        """Also with the tile budget shrunk so that attention runs in blocks
        of 1, 2 and 3 query rows: 12 oracle rows, 7 packed rows (a short last
        block for 2 and 3)."""
        config = small_config(d_model=32, n_heads=4)
        patches, rope, weights = random_setup(3, 4, config, seed=22)
        bits = np.array([[1, 0, 1, 1], [0, 1, 0, 0], [1, 1, 0, 1]], dtype=np.uint8)
        mask = PatchMask(bits, float(bits.mean()))
        coords = [(i, j) for i in range(3) for j in range(4) if bits[i, j]]
        kept_rows = [i * 4 + j for i, j in coords]
        want = hand_rolled_forward(patches[kept_rows], coords, weights, config)

        def shrink_tile(n, block_rows):
            if block_rows is not None:
                monkeypatch.setattr(encoder, "_TILE_BYTES", block_rows * 8 * config.n_heads * n)
                assert encoder._block_rows(n, config.n_heads) == block_rows

        for block_rows in (None, 1, 2, 3):
            shrink_tile(12, block_rows)
            oracle = encode_masked_dense_oracle(patches, rope, mask, weights, config)
            shrink_tile(len(coords), block_rows)
            packed = encode_packed(pack_patches(patches, mask), rope, weights, config)
            assert np.array_equal(oracle.kept, coords)
            assert np.array_equal(packed.kept, coords)
            assert max_rel_err(oracle.tokens, want) <= 1e-12, block_rows
            assert max_rel_err(packed.tokens, want) <= 1e-12, block_rows

    def test_all_ones_mask_equals_dense_exactly(self):
        """Also at side 24 (n = 576), where attention runs in 3 blocks, the
        last one short."""
        config = small_config()
        for side in (4, 24):
            patches, rope, weights = random_setup(side, side, config, seed=11)
            mask = PatchMask(np.ones((side, side), dtype=np.uint8), 1.0)
            dense = encode_dense(patches, rope, weights, config)
            packed = encode_packed(pack_patches(patches, mask), rope, weights, config)
            oracle = encode_masked_dense_oracle(patches, rope, mask, weights, config)
            assert np.array_equal(packed.tokens, dense.tokens), side
            assert np.array_equal(oracle.tokens, dense.tokens), side

    def test_dense_peak_memory_below_one_logits_array(self):
        """A 32x32 grid with 4 heads runs in tiles: the traced peak stays below
        the 32 MiB of one (heads, n, n) float64 array."""
        config = small_config(d_model=32, n_heads=4, n_layers=1)
        patches, rope, weights = random_setup(32, 32, config, seed=23)
        encode_dense(patches, rope, weights, config)  # imports scipy.special untraced
        tracemalloc.start()
        try:
            encode_dense(patches, rope, weights, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < config.n_heads * 1024 * 1024 * 8

    def test_single_retained_token_is_per_token_path(self):
        config = small_config()
        patches, rope, weights = random_setup(3, 3, config, seed=12)
        bits = np.zeros((3, 3), dtype=np.uint8)
        bits[1, 2] = 1
        mask = PatchMask(bits, 0.0)
        packed = encode_packed(pack_patches(patches, mask), rope, weights, config)
        oracle = encode_masked_dense_oracle(patches, rope, mask, weights, config)
        assert packed.tokens.shape == (1, 16)
        assert max_rel_err(packed.tokens, oracle.tokens) <= 1e-5
        assert np.array_equal(packed.kept, [(1, 2)])

    def test_random_mask_equivalence(self):
        config = small_config(d_model=32, n_heads=4)
        patches, rope, weights = random_setup(8, 8, config, seed=13)
        mask = quantile_mask(
            SaliencyMap(np.random.Generator(np.random.PCG64(14)).random((8, 8)), 2),
            0.5,
        )
        packed = encode_packed(pack_patches(patches, mask), rope, weights, config)
        oracle = encode_masked_dense_oracle(patches, rope, mask, weights, config)
        assert np.array_equal(packed.kept, oracle.kept)
        assert max_rel_err(packed.tokens, oracle.tokens) <= 1e-5

    def test_empty_mask_gives_empty_features(self):
        config = small_config()
        patches, rope, weights = random_setup(2, 2, config, seed=15)
        mask = PatchMask(np.zeros((2, 2), dtype=np.uint8), 0.0)
        packed = encode_packed(pack_patches(patches, mask), rope, weights, config)
        oracle = encode_masked_dense_oracle(patches, rope, mask, weights, config)
        assert packed.tokens.shape == (0, 16)
        assert oracle.tokens.shape == (0, 16)

    def test_determinism_bitwise(self):
        config = small_config()
        patches, rope, weights = random_setup(4, 4, config, seed=16)
        mask = PatchMask(np.eye(4, dtype=np.uint8), 0.25)
        run = lambda: encode_packed(
            pack_patches(patches, mask), rope, weights, config).tokens
        assert np.array_equal(run(), run())


class TestMergeProject:
    def test_merge_size_one_is_per_token(self):
        config = small_config(merge_size=1, d_out=10)
        patches, rope, weights = random_setup(2, 2, config, seed=17)
        feats = encode_dense(patches, rope, weights, config)
        merged = merge_project(feats, config, weights)
        assert merged.tokens.shape == (4, 10)
        assert np.array_equal(merged.kept, [(0, 0), (0, 1), (1, 0), (1, 1)])

    def test_dense_4x4_merge2_gives_4_cells(self):
        config = small_config(merge_size=2)
        patches, rope, weights = random_setup(4, 4, config, seed=18)
        feats = encode_dense(patches, rope, weights, config)
        merged = merge_project(feats, config, weights)
        assert merged.tokens.shape == (4, 16)
        assert np.array_equal(merged.kept, [(0, 0), (0, 1), (1, 0), (1, 1)])

    def test_sparse_equals_dense_restriction(self):
        config = small_config(merge_size=2, d_out=12)
        patches, rope, weights = random_setup(4, 4, config, seed=19)
        scores = SaliencyMap(
            np.random.Generator(np.random.PCG64(20)).random((4, 4)), 2)
        mask = quantile_mask(scores, 0.5, merge_size=2)
        dense_merged = merge_project(
            encode_masked_dense_oracle(patches, rope, mask, weights, config),
            config, weights)
        sparse_merged = merge_project(
            encode_packed(pack_patches(patches, mask), rope, weights, config),
            config, weights)
        assert np.array_equal(sparse_merged.kept, dense_merged.kept)
        assert max_rel_err(sparse_merged.tokens, dense_merged.tokens) <= 1e-5

    def test_incomplete_cell_rejected(self):
        config = small_config(merge_size=2)
        patches, rope, weights = random_setup(4, 4, config, seed=21)
        bits = np.zeros((4, 4), dtype=np.uint8)
        bits[0, 0] = 1  # quarter of a merge cell
        mask = PatchMask(bits, 0.0625)
        feats = encode_packed(pack_patches(patches, mask), rope, weights, config)
        with pytest.raises(ValidationError, match="merge cell"):
            merge_project(feats, config, weights)

    @pytest.mark.parametrize("width", [15, 32])
    def test_rows_not_d_model_wide_rejected(self, width):
        config = small_config(merge_size=2)
        weights = init_weights(config)
        feats = PackedSequence(np.zeros((4, width)), np.argwhere(np.ones((2, 2))), (2, 2))
        with pytest.raises(ValidationError, match="feature width"):
            merge_project(feats, config, weights)

    @settings(deadline=None, max_examples=200)
    @given(merge_cases())
    def test_matches_reference_grouping(self, case):
        tokens, positions, grid, m = case
        config, weights = merge_setup(m)
        features = PackedSequence(tokens, np.array(positions, dtype=int).reshape(-1, 2), grid)
        try:
            want, want_cells = reference_merge_project(tokens, positions, config, weights)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                merge_project(features, config, weights)
            assert str(got.value) == str(exc)
            return
        merged = merge_project(features, config, weights)
        assert np.array_equal(merged.tokens, want)
        assert np.array_equal(merged.kept, np.array(want_cells, dtype=int).reshape(-1, 2))
        assert merged.origin_grid == (grid[0] // m, grid[1] // m)

    def test_merged_cells_are_the_masks_kept_groups(self):
        """Packed and oracle runs over a merge-granular mask merge into one row
        per kept merge group, on the cell grid, each scattering back to its cell."""
        config = small_config(merge_size=2, d_out=12)
        patches, rope, weights = random_setup(6, 8, config, seed=24)
        scores = SaliencyMap(np.random.Generator(np.random.PCG64(25)).random((6, 8)), 2)
        mask = quantile_mask(scores, 0.4, merge_size=2)
        runs = {
            "packed": encode_packed(pack_patches(patches, mask), rope, weights, config),
            "oracle": encode_masked_dense_oracle(patches, rope, mask, weights, config),
        }
        for name, features in runs.items():
            merged = merge_project(features, config, weights)
            assert np.array_equal(merged.kept, np.argwhere(mask.bits[::2, ::2])), name
            assert merged.origin_grid == (3, 4), name
            dense = unpack_scatter(merged, np.zeros(12)).reshape(3, 4, 12)
            assert np.array_equal(dense[tuple(merged.kept.T)], merged.tokens), name
            assert not dense[mask.bits[::2, ::2] == 0].any(), name


class TestPositionArrays:
    def test_rejects_non_integer_and_misshapen_positions(self):
        with pytest.raises(ValidationError, match="got float64"):
            PackedSequence(np.zeros((1, 4)), [(1.7, 0.2)], (2, 2))
        with pytest.raises(ValidationError, match=r"\(n, 2\) integer array"):
            PackedSequence(np.zeros((1, 4)), (1, 2), (2, 2))

    def test_positions_and_cells_are_read_only(self):
        config = small_config(merge_size=2)
        patches, rope, weights = random_setup(2, 2, config, seed=23)
        feats = encode_dense(patches, rope, weights, config)
        merged = merge_project(feats, config, weights)
        for seq in (feats, merged):
            for field in (seq.kept, seq.tokens):
                with pytest.raises(ValueError, match="read-only"):
                    field[0, 0] = 1
