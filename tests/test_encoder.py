import concurrent.futures
import ctypes
import dataclasses
import functools
import gc
import io
import math
import os
import sys
import threading
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evprune import encoder
from evprune.encoder import (
    MAX_ENCODER_PARAMS,
    EncoderConfig,
    EncoderWeights,
    LayerWeights,
    _gelu,
    _weight_count,
    encode_dense,
    encode_masked_dense_oracle,
    encode_packed,
    init_weights,
    load_encoder_config,
    merge_project,
    patchify,
)
from evprune.errors import FormatError, ValidationError
from evprune.events import EventFrame
from evprune.packing import PackedSequence, pack_patches, unpack_scatter
from evprune.rope2d import build_rope
from evprune.saliency import PatchMask, quantile_mask
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


def reference_init_weights(config):
    """The weight draw written out field by field, in the documented order,
    as the (name, array) pairs of ``weight_arrays``."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    d = config.d_model
    h = config.mlp_hidden
    md = config.merge_dim
    out = []

    def normal(name, *shape, scale, gain=False):
        value = rng.standard_normal(shape) * scale
        out.append((name, 1.0 + value if gain else value))

    normal("w_embed", config.patch_dim, d, scale=1.0 / np.sqrt(config.patch_dim))
    normal("b_embed", d, scale=0.02)
    for i in range(config.n_layers):
        layer = f"layers[{i}]."
        normal(layer + "ln1_gamma", d, scale=0.02, gain=True)
        normal(layer + "ln1_beta", d, scale=0.02)
        for name in ("wq", "wk", "wv", "wo"):
            normal(layer + name, d, d, scale=1.0 / np.sqrt(d))
        normal(layer + "ln2_gamma", d, scale=0.02, gain=True)
        normal(layer + "ln2_beta", d, scale=0.02)
        normal(layer + "w_up", d, h, scale=1.0 / np.sqrt(d))
        normal(layer + "b_up", h, scale=0.02)
        normal(layer + "w_down", h, d, scale=1.0 / np.sqrt(h))
        normal(layer + "b_down", d, scale=0.02)
    normal("w_merge1", md, md, scale=1.0 / np.sqrt(md))
    normal("b_merge1", md, scale=0.02)
    normal("w_merge2", md, config.d_out, scale=1.0 / np.sqrt(md))
    normal("b_merge2", config.d_out, scale=0.02)
    return out


def weight_arrays(weights):
    """(name, array) for every array of ``weights``, layers expanded in order."""
    out = []
    for f in dataclasses.fields(EncoderWeights):
        if f.name == "layers":
            out += [(f"layers[{i}].{g.name}", getattr(lw, g.name))
                    for i, lw in enumerate(weights.layers)
                    for g in dataclasses.fields(LayerWeights)]
        elif f.name != "config":
            out.append((f.name, getattr(weights, f.name)))
    return out


# n_layers 0-3, merge_size 1-3, channels 1 and 3; 12 * 1.3 = 15.6 is not an integer
WEIGHT_CONFIGS = [
    dict(n_layers=0, merge_size=1),
    dict(n_layers=1, merge_size=2, channels=1, seed=7),
    dict(n_layers=2, merge_size=3, mlp_ratio=1.5, d_out=5),
    dict(n_layers=3, merge_size=2, d_model=12, n_heads=3, mlp_ratio=1.3, seed=11),
    dict(n_layers=3, merge_size=1, channels=1, patch_size=3, d_model=32, mlp_ratio=4.0),
    dict(n_layers=2, merge_size=2, d_model=24, n_heads=6, mlp_ratio=2.5, d_out=9, seed=99),
]


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

    def test_layer_count_is_capped_without_building_layers(self):
        with pytest.raises(ValidationError, match="MAX_ENCODER_PARAMS"):
            small_config(n_layers=10**12)
        base = _weight_count(small_config(n_layers=0))
        per_layer = _weight_count(small_config(n_layers=1)) - base
        most = (MAX_ENCODER_PARAMS - base) // per_layer
        assert _weight_count(small_config(n_layers=most)) <= MAX_ENCODER_PARAMS
        with pytest.raises(ValidationError, match="MAX_ENCODER_PARAMS"):
            small_config(n_layers=most + 1)

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

    def test_numpy_scalar_fields_are_stored_as_python_numbers(self):
        # uint8 fields overflowed in patch_dim (16 * 16 * 3): a RuntimeWarning,
        # then OverflowError in the parameter count
        config = EncoderConfig(
            patch_size=np.uint8(16), channels=np.uint8(3), d_model=np.int64(12),
            n_layers=np.int8(1), n_heads=np.uint8(1), mlp_ratio=np.float32(2.0),
            merge_size=np.uint8(1), d_out=np.uint8(8), seed=np.uint64(0))
        assert config == EncoderConfig(16, 3, 12, 1, 1, 2.0, 1, 8, 0)
        for f in dataclasses.fields(config):
            assert type(getattr(config, f.name)) is {"int": int, "float": float}[f.type], f.name
        assert config.patch_dim == 768 and init_weights(config).w_embed.shape == (768, 12)

    def test_rejects_a_ratio_beyond_float_range(self):
        with pytest.raises(ValidationError, match="field mlp_ratio: 1000.* is beyond float range"):
            small_config(mlp_ratio=10**400)

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

    @pytest.mark.parametrize("patch_size", [2.5, 2.0, float("nan"), "2", None])
    def test_rejects_non_integer_patch_size(self, patch_size):
        """2.5 died in slicing with a TypeError."""
        with pytest.raises(ValidationError, match="patch size must be an integer"):
            patchify(np.zeros((4, 4, 3)), patch_size)
        assert patchify(np.zeros((4, 4, 3)), np.int64(2)).shape == (4, 12)


class TestLayerNorm:
    @pytest.mark.parametrize("shape", [(1, 1), (5, 7), (308, 128), (1024, 128), (2, 3, 16)])
    def test_bits_equal_the_mean_and_var_formula(self, shape):
        rng = np.random.default_rng(shape[0])
        x = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 1e3], size=shape[:-1] + (1,))
        x[0, ...] = 0.25  # a constant row: zero deviation, variance eps alone
        x[-1, ..., 0] += 1e12  # a large-magnitude value within a row
        gamma, beta = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        want = (x - mean) / np.sqrt(var + encoder._LN_EPS) * gamma + beta
        assert encoder._layer_norm(x, gamma, beta).tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("config", [
        None, {}, "cfg", dataclasses.asdict(small_config()), dataclasses.astuple(small_config())])
    def test_rejects_a_config_that_is_not_an_encoder_config(self, config):
        # raised AttributeError: 'NoneType' object has no attribute 'seed'
        with pytest.raises(ValidationError, match="config must be an EncoderConfig, got "):
            init_weights(config)

    @pytest.mark.parametrize("one, other", [
        (dict(seed=21), dict(seed=21)),
        (dict(mlp_ratio=2), dict(mlp_ratio=2.0)),
        (dict(seed=np.int64(0)), dict(seed=0)),
        (dict(d_model=np.int64(16), patch_size=np.int32(2)), dict(d_model=16, patch_size=2)),
    ])
    def test_equal_configs_share_one_draw(self, one, other):
        first = init_weights(small_config(**one))
        assert init_weights(small_config(**other)) is first
        for (name, a), (_, b) in zip(weight_arrays(first),
                                     reference_init_weights(small_config(**other))):
            assert a.tobytes() == b.tobytes(), name

    def test_a_float32_ratio_is_stored_as_its_float_and_shares_its_draw(self):
        # 12 * ratio rounded to 90 in float32 and to 91 in float64, so two
        # equal configs described weights of different MLP widths
        narrow = small_config(d_model=12, n_heads=3, mlp_ratio=np.float32(7.541667))
        wide = small_config(d_model=12, n_heads=3, mlp_ratio=float(np.float32(7.541667)))
        assert type(narrow.mlp_ratio) is float
        assert narrow == wide and narrow.mlp_hidden == wide.mlp_hidden == 91
        weights = init_weights(narrow)
        assert init_weights(wide) is weights and weights.layers[0].w_up.shape == (12, 91)
        patches, rope, _ = random_setup(2, 2, narrow, seed=5)
        assert encode_dense(patches, rope, weights, narrow).tokens.shape == (4, 12)

    def test_draws_over_a_b_a_match_the_field_by_field_draw(self):
        one, other = small_config(seed=22), small_config(seed=23, n_layers=1, merge_size=2)
        for config in (one, other, one):
            got = weight_arrays(init_weights(config))
            want = reference_init_weights(config)
            assert len(got) == len(want)
            for (name, a), (_, b) in zip(got, want):
                assert a.tobytes() == b.tobytes(), name

    def test_drawing_another_config_frees_the_last_one(self):
        kept = weakref.ref(init_weights(small_config(seed=24)))
        gc.collect()
        assert kept() is not None
        init_weights(small_config(seed=25))
        gc.collect()
        assert kept() is None

    def test_replace_leaves_the_shared_record_unchanged(self):
        config = small_config(seed=26, n_layers=1)
        shared = init_weights(config)
        before = [(name, a.tobytes()) for name, a in weight_arrays(shared)]
        with pytest.raises(ValueError, match="b_embed is declared with init=False"):
            dataclasses.replace(shared, b_embed=np.ones(config.d_model))
        assert init_weights(config) is shared
        assert [(name, a.tobytes()) for name, a in weight_arrays(shared)] == before
        assert not any(a.flags.writeable for _, a in weight_arrays(shared))
        with pytest.raises(ValueError, match="read-only"):
            shared.b_embed[0] = 1.0

    def test_shared_weights_cannot_be_made_writable_again(self):
        # flags.writeable = True succeeded on every array, and a write then
        # corrupted the cached record that every later init_weights returns
        config = small_config(seed=27, n_layers=1)
        shared = init_weights(config)
        with pytest.raises(ValueError, match="b_embed is declared with init=False"):
            dataclasses.replace(shared, b_embed=np.zeros(config.d_model))
        redrawn = dataclasses.replace(shared)  # a second draw of the same config
        assert redrawn is not shared
        for (name, arr), (_, again) in zip(weight_arrays(shared), weight_arrays(redrawn)):
            assert arr.tobytes() == again.tobytes(), name
            for a in (arr, again):
                with pytest.raises(ValueError, match="WRITEABLE"):
                    a.flags.writeable = True
                with pytest.raises(ValueError, match="WRITEABLE"):
                    a.view().flags.writeable = True
        assert init_weights(config) is shared and np.isfinite(shared.b_embed).all()

    @pytest.mark.parametrize("overrides", WEIGHT_CONFIGS)
    def test_matches_the_field_by_field_draw(self, overrides):
        config = small_config(**overrides)
        got = weight_arrays(init_weights(config))
        want = reference_init_weights(config)
        assert [name for name, _ in got] == [name for name, _ in want]
        assert len(got) == 6 + 12 * config.n_layers
        for (name, a), (_, b) in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("overrides", WEIGHT_CONFIGS)
    def test_weight_count_is_the_drawn_size(self, overrides):
        config = small_config(**overrides)
        assert _weight_count(config) == sum(
            a.size for _, a in weight_arrays(init_weights(config)))

    def test_seed_zero_reference_vector(self):
        # first standard normal draw of the documented generator for
        # seed 0, reproduced independently; the embedding scales it by
        # 1/sqrt(patch_dim) with patch_dim = 2*2*3 = 12
        first = np.random.Generator(np.random.PCG64(0)).standard_normal()
        weights = init_weights(small_config(seed=0))
        want = first / np.sqrt(12.0)
        assert weights.w_embed[0, 0] == want

    def test_drawn_weights_are_read_only_and_not_copied(self):
        # every array was writable; freezing must not copy the weights
        config = small_config(n_layers=6, d_model=32)
        encoder._drawn.cache_clear()  # so the draw runs, not a cache hit
        tracemalloc.start()
        try:
            weights = init_weights(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = [a for _, a in weight_arrays(weights)]
        assert not any(a.flags.writeable for a in arrays)
        size = sum(a.nbytes for a in arrays)
        assert peak < size + 2 * max(a.nbytes for a in arrays) + 64 * 1024


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

    @pytest.mark.parametrize("mode", ["dense", "packed", "oracle"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_patches(self, mode, bad):
        # each path returned non-finite features without complaint
        config = small_config()
        patches, rope, weights = random_setup(2, 2, config, seed=11)
        patches[3, 1] = bad
        mask = PatchMask(np.array([[1, 0], [0, 1]], dtype=np.uint8), 0.5)
        with pytest.raises(ValidationError, match="patches must be finite"):
            if mode == "dense":
                encode_dense(patches, rope, weights, config)
            elif mode == "packed":
                encode_packed(pack_patches(patches, mask), rope, weights, config)
            else:
                encode_masked_dense_oracle(patches, rope, mask, weights, config)

    def test_two_token_hand_rolled_forward(self):
        config = small_config(d_model=8, n_layers=1, n_heads=1, mlp_ratio=2.0)
        patches, rope, w = random_setup(1, 2, config, seed=10)
        got = encode_dense(patches, rope, w, config).tokens
        want = hand_rolled_forward(patches, [(0, 0), (0, 1)], w, config)
        assert max_rel_err(got, want) <= 1e-12


class TestOneForwardPath:
    EMPTY = PatchMask(np.zeros((2, 2), dtype=np.uint8), 0.0)

    def test_each_entry_point_runs_forward_once(self, monkeypatch):
        config = small_config()
        patches, rope, weights = random_setup(2, 2, config, seed=13)
        calls, forward = [], encoder._forward

        def counted(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(encoder, "_forward", counted)
        for mask in (self.EMPTY, PatchMask(np.eye(2, dtype=np.uint8), 0.5)):
            for run in (lambda: encode_dense(patches, rope, weights, config),
                        lambda: encode_packed(pack_patches(patches, mask), rope, weights, config),
                        lambda: encode_masked_dense_oracle(patches, rope, mask, weights, config)):
                calls.clear()
                assert isinstance(run(), PackedSequence)
                assert len(calls) == 1

    @pytest.mark.parametrize("fault, match", [
        ("nan", "patches must be finite"),
        ("width", "patch dim 7 != embedding input 12"),
        ("rope", "rotary table dimension 4 != head dimension 8"),
        ("grid", r"token grid \(2, 2\) != rope extent \(2, 3\)"),
    ])
    def test_empty_mask_oracle_checks_its_input(self, fault, match):
        # with nothing kept the oracle returned no rows before any check ran
        config = small_config()
        patches, rope, weights = random_setup(2, 2, config, seed=15)
        if fault == "nan":
            patches[1, 2] = np.nan
        elif fault == "width":
            patches = patches[:, :7]
        elif fault == "rope":
            rope = build_rope(2, 2, 4)
        else:
            rope = build_rope(2, 3, config.head_dim)
        with pytest.raises(ValidationError, match=match):
            encode_masked_dense_oracle(patches, rope, self.EMPTY, weights, config)

    @pytest.mark.parametrize("other", [
        dict(d_model=32), dict(n_layers=3), dict(mlp_ratio=4.0), dict(d_out=8), dict(seed=1)])
    def test_weights_drawn_for_another_config_rejected(self, other):
        # numpy's reshape and matmul errors escaped before, and weights drawn
        # for another seed ran in place of the config's own
        config = small_config()
        patches, rope, _ = random_setup(2, 2, config, seed=16)
        weights = init_weights(small_config(**other))
        mask = PatchMask(np.ones((2, 2), dtype=np.uint8), 1.0)
        for run in (lambda: encode_dense(patches, rope, weights, config),
                    lambda: encode_packed(pack_patches(patches, mask), rope, weights, config),
                    lambda: encode_masked_dense_oracle(patches, rope, mask, weights, config),
                    lambda: merge_project(encode_dense(patches, rope, init_weights(config), config),
                                          config, weights)):
            with pytest.raises(ValidationError, match="weights were drawn for another config"):
                run()


class FakeBlas:
    """A BLAS thread count behind get and set functions; ``set_to`` records
    each count set, and ``asked`` each lookup of the pair."""

    def __init__(self, threads):
        self.threads, self.set_to, self.asked = threads, [], 0

    def resolve(self):
        self.asked += 1
        return self.get, self.set

    def get(self):
        return self.threads

    def set(self, threads):
        self.set_to.append(threads)
        self.threads = threads


def set_lanes(monkeypatch, cpus):
    """Give a forward up to ``cpus`` lanes: that many CPUs and a BLAS that
    reports one thread. One CPU looks no BLAS up, so a one-lane forward
    leaves BLAS alone there; a multi-lane forward always does. Returns the
    fake BLAS."""
    blas = FakeBlas(1)
    monkeypatch.setattr(encoder, "_CPUS", cpus)
    monkeypatch.setattr(encoder, "_blas_threads", blas.resolve)
    return blas


class TestPackedVsOracle:
    def test_multi_head_masked_matches_hand_rolled_reference(self, monkeypatch):
        """Also with the tile budget shrunk so that attention runs in blocks
        of 1, 2 and 3 query rows: 12 oracle rows, 7 packed rows (a short last
        block for 2 and 3); each in 1, 2 and 3 lanes where every lane has two
        blocks."""
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
            for lanes in (1, 2, 3):
                set_lanes(monkeypatch, lanes)
                shrink_tile(12, block_rows)
                oracle = encode_masked_dense_oracle(patches, rope, mask, weights, config)
                shrink_tile(len(coords), block_rows)
                packed = encode_packed(pack_patches(patches, mask), rope, weights, config)
                assert np.array_equal(oracle.kept, coords)
                assert np.array_equal(packed.kept, coords)
                assert max_rel_err(oracle.tokens, want) <= 1e-12, (block_rows, lanes)
                assert max_rel_err(packed.tokens, want) <= 1e-12, (block_rows, lanes)

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
            EventFrame(np.random.Generator(np.random.PCG64(14)).random((8, 8))),
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


class TestLanes:
    """The forward runs in lanes, threads that each own a share of the rows
    and of the attention blocks. Tier-1 leaves BLAS at its default thread
    count, which gives one lane, so these tests set the lane count through
    the CPU count and a fake BLAS on one thread, which leaves the loaded
    BLAS alone: its count sets the float64 bits, and these tests compare
    lane counts."""

    SIDE = 30  # n = 900: seven attention blocks at small_config's tile, so 3 lanes

    def case(self, seed):
        config = small_config()
        patches, rope, weights = random_setup(self.SIDE, self.SIDE, config, seed=seed)
        scores = np.random.Generator(np.random.PCG64(seed)).random((self.SIDE, self.SIDE))
        return config, patches, rope, weights, quantile_mask(EventFrame(scores), 0.5)

    @pytest.mark.parametrize("block_rows", [None, 1, 2, 3])
    def test_every_lane_count_gives_the_same_bits(self, monkeypatch, block_rows):
        config, patches, rope, weights, mask = self.case(31)
        packed = pack_patches(patches, mask)
        seen, run_lanes = [], encoder._run_lanes
        monkeypatch.setattr(encoder, "_run_lanes",
                            lambda lanes, lane: (seen.append(lanes), run_lanes(lanes, lane)))
        for n, run in ((self.SIDE**2, lambda: encode_dense(patches, rope, weights, config)),
                       (len(packed), lambda: encode_packed(packed, rope, weights, config)),
                       (self.SIDE**2, lambda: encode_masked_dense_oracle(
                           patches, rope, mask, weights, config))):
            if block_rows is not None:
                monkeypatch.setattr(encoder, "_TILE_BYTES", block_rows * 8 * config.n_heads * n)
            blocks = -(-n // encoder._block_rows(n, config.n_heads))
            got = []
            for lanes in (1, 2, 3):
                set_lanes(monkeypatch, lanes)
                seen.clear()
                result = run()
                assert seen == [max(1, min(lanes, blocks // 2))]
                got.append((result.tokens.tobytes(), result.kept.tobytes()))
            assert got[1] == got[0] and got[2] == got[0], (n, block_rows)

    def test_every_lane_has_two_attention_blocks(self, monkeypatch):
        seen = []
        set_lanes(monkeypatch, 64)
        monkeypatch.setattr(encoder, "_run_lanes", lambda lanes, lane: seen.append(lanes))
        config = small_config()
        for side in (4, 24, self.SIDE):  # 1, 3 and 7 blocks
            encode_dense(*random_setup(side, side, config, seed=33), config)
        assert seen == [1, 1, 3]

    @pytest.mark.parametrize("cpus, count, blocks, lanes", [
        (2, 2, 7, 1),  # BLAS on every CPU, its default
        (2, 1, 7, 2),
        (4, 1, 7, 3),  # a lane gets at least two blocks
        (4, 2, 7, 2),
        (4, 3, 7, 1),
        (4, 4, 7, 1),
        (4, 7, 7, 1),  # a count above the CPUs
        (4, 0, 7, 1),  # no positive count: taken as every CPU, and left alone
        (4, -1, 7, 1),
        (4, 1, 3, 1),
        (4, 1, 1, 1),
        (4, 1, 0, 1),
        (4, 1, 2, 1),  # two blocks: one lane, on a raised BLAS
        (4, 1, 4, 2),
        (4, 1, 5, 2),  # half the blocks, rounded down
        (4, 1, 6, 3),
        (8, 2, 7, 3),
        (8, 3, 7, 2),  # the idle CPUs, rounded down
        (8, 5, 7, 1),
        (3, 2, 7, 1),
        (1, 1, 7, 1),  # one CPU: BLAS is not looked up
        (64, 1, 7, 3),
        (64, 1, 200, 64),
        (64, 2, 200, 32),
    ])
    def test_lane_count_is_the_cpus_blas_leaves_idle(self, monkeypatch, cpus, count, blocks,
                                                      lanes):
        """One reading of BLAS's count gives the lanes and, for one lane on
        fewer threads than CPUs, the raise to every CPU inside the block."""
        blas = FakeBlas(count)
        monkeypatch.setattr(encoder, "_CPUS", cpus)
        monkeypatch.setattr(encoder, "_blas_threads", blas.resolve)
        raised = lanes == 1 and 0 < count < cpus
        before = threading.active_count()
        with encoder._lanes(blocks) as got:
            assert got == lanes
            assert blas.threads == (cpus if raised else count)
        assert blas.threads == count
        assert blas.set_to == ([cpus, count] if raised else [])
        assert blas.asked == (cpus > 1)
        assert threading.active_count() == before

    @pytest.mark.parametrize("lanes, failing", [(2, 1), (3, 1), (3, 0), (3, 2)])
    @pytest.mark.parametrize("call", [1, 4])  # layer 0's queries, layer 1's keys
    def test_an_error_in_one_lane_reaches_the_caller(self, monkeypatch, lanes, failing, call):
        config, patches, rope, weights, _ = self.case(32)
        n = self.SIDE**2
        first = divmod(failing * n // lanes, self.SIDE)  # the lane's first position
        rotate, calls = encoder.apply_rope_many, []

        def fail_in_one_lane(table, positions, v):
            if tuple(positions[0]) == first:
                calls.append(1)
                if len(calls) == call:
                    raise ValidationError(f"lane {failing} fails")
            return rotate(table, positions, v)

        set_lanes(monkeypatch, lanes)
        monkeypatch.setattr(encoder, "apply_rope_many", fail_in_one_lane)
        before = threading.active_count()
        with pytest.raises(ValidationError, match=f"lane {failing} fails"):
            encode_dense(patches, rope, weights, config)
        assert threading.active_count() == before
        monkeypatch.setattr(encoder, "apply_rope_many", rotate)
        again = encode_dense(patches, rope, weights, config).tokens
        set_lanes(monkeypatch, 1)
        assert again.tobytes() == encode_dense(patches, rope, weights, config).tokens.tobytes()

    def test_a_thread_that_cannot_start_releases_the_started_lanes(self, monkeypatch):
        config, patches, rope, weights, _ = self.case(34)
        start, started = threading.Thread.start, []

        def start_one(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        set_lanes(monkeypatch, 3)
        monkeypatch.setattr(threading.Thread, "start", start_one)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            encode_dense(patches, rope, weights, config)
        assert len(started) == 1 and not started[0].is_alive()
        assert threading.active_count() == before

    def test_one_lane_starts_no_thread(self, monkeypatch):
        config, patches, rope, weights, _ = self.case(35)
        set_lanes(monkeypatch, 1)
        want = encode_dense(patches, rope, weights, config).tokens.tobytes()

        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert encode_dense(patches, rope, weights, config).tokens.tobytes() == want

    def test_three_lanes_on_one_pool_thread_give_the_one_lane_bits(self, monkeypatch):
        """No lane waits for another within a round, so one thread can step two
        lanes in turn; lanes that waited at a barrier would deadlock here."""
        config, patches, rope, weights, _ = self.case(36)
        set_lanes(monkeypatch, 1)
        want = encode_dense(patches, rope, weights, config).tokens.tobytes()
        pool, asked = concurrent.futures.ThreadPoolExecutor, []

        def one_thread(workers):
            asked.append(workers)
            return pool(1)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", one_thread)
        set_lanes(monkeypatch, 3)
        before, got = threading.active_count(), []
        runner = threading.Thread(  # so that a deadlock fails the test, not the suite
            target=lambda: got.append(encode_dense(patches, rope, weights, config)), daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert got[0].tokens.tobytes() == want
        assert asked == [2]
        assert threading.active_count() == before

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("value", [1e160, 1e308])
    def test_a_forward_that_overflows_float64_is_refused(self, monkeypatch, lanes, value):
        """At 1e160 layer norm's variance overflows, and every normalised row
        would become ln_beta; at 1e308 the sums overflow to inf. The large row
        is the last, so with two lanes a pool thread meets the overflow."""
        config = small_config(n_layers=1)
        patches, rope, weights = random_setup(self.SIDE, self.SIDE, config, seed=37)
        patches[-1] = value
        set_lanes(monkeypatch, lanes)
        with pytest.raises(ValidationError, match="encoder forward overflows float64"):
            encode_dense(patches, rope, weights, config)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_a_forward_below_the_overflow_returns_finite_rows(self, monkeypatch, lanes):
        config = small_config(n_layers=1)
        patches, rope, weights = random_setup(self.SIDE, self.SIDE, config, seed=37)
        patches[-1] = 1e150
        seen, run_lanes = [], encoder._run_lanes
        set_lanes(monkeypatch, lanes)
        monkeypatch.setattr(encoder, "_run_lanes",
                            lambda n, lane: (seen.append(n), run_lanes(n, lane)))
        assert np.isfinite(encode_dense(patches, rope, weights, config).tokens).all()
        assert seen == [lanes]


class TestBlasOnIdleCpus:
    """A one-lane forward raises BLAS's thread count to the CPUs of the
    process's affinity mask for the call and then restores it. The lookup is
    patched, so these tests leave the loaded BLAS alone and pretend 4 CPUs
    with BLAS on 1."""

    @pytest.fixture
    def blas(self, monkeypatch):
        return set_lanes(monkeypatch, 4)

    @staticmethod
    def count_rope_calls(monkeypatch, blas):
        """(rows, BLAS count) at each of the forward's rotations."""
        rotate, seen = encoder.apply_rope_many, []

        def rotate_and_count(table, positions, v):
            seen.append((len(positions), blas.threads))
            return rotate(table, positions, v)

        monkeypatch.setattr(encoder, "apply_rope_many", rotate_and_count)
        return seen

    def test_a_one_lane_forward_runs_blas_on_every_cpu(self, monkeypatch, blas):
        config = small_config()
        patches, rope, weights = random_setup(6, 6, config, seed=40)  # one block: one lane
        seen = self.count_rope_calls(monkeypatch, blas)
        encode_dense(patches, rope, weights, config)
        assert seen == [(36, 4)] * 2 * config.n_layers
        assert blas.set_to == [4, 1] and blas.threads == 1
        encode_dense(patches, rope, weights, config)
        assert blas.asked == 2 and blas.set_to == [4, 1] * 2

    def test_blas_already_on_every_cpu_is_not_set(self, blas):
        blas.threads = 4
        config = small_config()
        encode_dense(*random_setup(6, 6, config, seed=40), config)
        assert blas.asked == 1 and blas.set_to == []

    def test_a_multi_lane_forward_and_the_merge_leave_blas_alone(self, monkeypatch, blas):
        config, patches, rope, weights, _ = TestLanes().case(41)  # seven blocks: three lanes
        seen = self.count_rope_calls(monkeypatch, blas)
        merge_project(encode_dense(patches, rope, weights, config), config, weights)
        assert {threads for _, threads in seen} == {1}
        assert blas.asked == 1 and blas.set_to == []

    def test_a_count_set_at_run_time_decides_the_lanes(self, monkeypatch, blas):
        """BLAS's count is read when each forward starts: lowered to one thread
        after a forward that found it on every CPU, it gives the next forward
        of seven blocks three lanes, and no count is set."""
        config, patches, rope, weights, _ = TestLanes().case(41)
        seen, run_lanes = [], encoder._run_lanes
        monkeypatch.setattr(encoder, "_run_lanes",
                            lambda lanes, lane: (seen.append(lanes), run_lanes(lanes, lane)))
        blas.threads = 4
        encode_dense(patches, rope, weights, config)
        blas.threads = 1
        encode_dense(patches, rope, weights, config)
        assert seen == [1, 3]
        assert blas.asked == 2 and blas.set_to == []

    def test_one_cpu_leaves_blas_alone(self, monkeypatch, blas):
        monkeypatch.setattr(encoder, "_CPUS", 1)
        config = small_config()
        encode_dense(*random_setup(6, 6, config, seed=40), config)
        assert blas.asked == 0 and blas.set_to == []

    @pytest.mark.parametrize("call", [1, 4])  # layer 0's queries, layer 1's keys
    def test_the_count_is_restored_when_a_lane_fails(self, monkeypatch, blas, call):
        config = small_config()
        patches, rope, weights = random_setup(6, 6, config, seed=42)
        rotate, calls = encoder.apply_rope_many, []

        def fail_in_the_lane(table, positions, v):
            calls.append(1)
            if len(calls) == call:
                raise ValidationError("lane 0 fails")
            return rotate(table, positions, v)

        monkeypatch.setattr(encoder, "apply_rope_many", fail_in_the_lane)
        with pytest.raises(ValidationError, match="lane 0 fails"):
            encode_dense(patches, rope, weights, config)
        assert blas.set_to == [4, 1] and blas.threads == 1

    def test_the_count_is_restored_when_the_forward_overflows(self, blas):
        config = small_config()
        patches, rope, weights = random_setup(6, 6, config, seed=42)
        with pytest.raises(ValidationError, match="overflows float64"):
            encode_dense(np.full_like(patches, 1e160), rope, weights, config)
        assert blas.set_to == [4, 1] and blas.threads == 1

    def test_without_a_blas_pair_the_forward_runs_one_lane(self, monkeypatch):
        """With no (get, set) pair found, BLAS counts as on every CPU: a forward
        of seven blocks runs one lane, bit for bit the forward of a one-CPU
        process, which never looks BLAS up, and the lookup is made once a
        forward."""
        asked, seen, run_lanes = [], [], encoder._run_lanes
        monkeypatch.setattr(encoder, "_CPUS", 4)
        monkeypatch.setattr(encoder, "_blas_threads", lambda: asked.append(1))
        monkeypatch.setattr(encoder, "_run_lanes",
                            lambda lanes, lane: (seen.append(lanes), run_lanes(lanes, lane)))
        config, patches, rope, weights, _ = TestLanes().case(44)
        got = encode_dense(patches, rope, weights, config).tokens.tobytes()
        assert asked == [1] and seen == [1]
        monkeypatch.setattr(encoder, "_CPUS", 1)
        assert encode_dense(patches, rope, weights, config).tokens.tobytes() == got
        assert asked == [1] and seen == [1, 1]

    def test_concurrent_forwards_keep_their_counts_and_bits(self, monkeypatch, blas):
        """Two threads each of a one-lane packed forward (450 rows, two blocks)
        and of a three-lane dense one (300 rows a lane), with a short switch
        interval: every dense rotation runs at the count BLAS had, every
        packed one at the raised count, each forward returns the bits it
        returns alone, and BLAS ends at the count it started with."""
        config, patches, rope, weights, mask = TestLanes().case(43)
        packed = pack_patches(patches, mask)
        runs = {"packed": lambda: encode_packed(packed, rope, weights, config).tokens.tobytes(),
                "dense": lambda: encode_dense(patches, rope, weights, config).tokens.tobytes()}
        want = {name: run() for name, run in runs.items()}
        seen = self.count_rope_calls(monkeypatch, blas)
        names = ["packed", "dense"] * 2
        got = [[] for _ in names]

        def repeat(i):
            for _ in range(3):
                got[i].append(runs[names[i]]())

        threads = [threading.Thread(target=repeat, args=(i,), daemon=True)
                   for i in range(len(names))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[want[name]] * 3 for name in names]
        assert {threads for rows, threads in seen if rows == len(packed)} == {4}
        assert {threads for rows, threads in seen if rows != len(packed)} == {1}
        assert blas.threads == 1 and blas.set_to == [4, 1] * 7


class TestBlasLookup:
    """``_blas_threads`` opens the OpenBLAS libraries mapped into the process,
    read from a fake ``/proc/self/maps``, and returns the first (get, set)
    pair of ``_BLAS_SYMBOLS`` that one of them exports."""

    MAPS = (b"7f0000000000-7f0000001000 r-xp 00000000 08:01 1234       /opt/my env/"
            b"libscipy_openblas64_.so\n"
            b"7f0000001000-7f0000002000 r--p 00001000 08:01 1234       /opt/my env/"
            b"libscipy_openblas64_.so\n"
            b"7f0000002000-7f0000003000 rw-p 00000000 00:00 0 \n"
            b"7f0000003000-7f0000004000 r-xp 00000000 08:01 1235       /usr/lib/libc.so.6\n"
            b"7f0000004000-7f0000005000 r-xp 00000000 08:01 1236       /opt/caf\xc3\xa9/\xff/"
            b"libOpenBLAS.so\n")
    SCIPY, OPENBLAS64, PLAIN = encoder._BLAS_SYMBOLS

    @staticmethod
    def maps(*paths):
        """A maps text with one line per path, and an anonymous line."""
        lines = [b"7f0000002000-7f0000003000 rw-p 00000000 00:00 0 \n"]
        lines += [b"7f0000000000-7f0000001000 r-xp 00000000 08:01 1234       %s\n" % path
                  for path in paths]
        return b"".join(lines)

    @staticmethod
    def pair(symbols, threads=1):
        """The functions of one (get, set) symbol pair of a fake library."""
        get_name, set_name = symbols
        return {get_name: lambda: threads, set_name: lambda count: None}

    @staticmethod
    def lookup(monkeypatch, maps, libs):
        """Run the lookup over the maps text ``maps``, with ``libs`` giving the
        symbols of each library path, or an OSError that fails its load.
        Returns the result and the paths opened, in order."""
        opened = []

        def fake_open(file, mode="r", **text):
            assert file == "/proc/self/maps"
            if isinstance(maps, OSError):
                raise maps
            raw = io.BytesIO(maps)
            return raw if "b" in mode else io.TextIOWrapper(raw, **text)

        def fake_cdll(path):
            opened.append(path)
            symbols = libs.get(path, {})
            if isinstance(symbols, OSError):
                raise symbols
            return types.SimpleNamespace(**symbols)

        monkeypatch.setattr(encoder, "open", fake_open, raising=False)
        monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
        return encoder._blas_threads.__wrapped__(), opened

    def test_a_library_path_with_a_space_or_a_non_ascii_byte_is_opened(self, monkeypatch):
        """A mapped path is all of a maps line after its fifth field, read as
        bytes and decoded as the file system encodes names: the last
        whitespace field, read as ASCII, opened no library here."""
        found, opened = self.lookup(monkeypatch, self.MAPS, {
            "/opt/my env/libscipy_openblas64_.so": self.pair(self.SCIPY, threads=2)})
        assert sorted(opened) == sorted([os.fsdecode(b"/opt/caf\xc3\xa9/\xff/libOpenBLAS.so"),
                                         "/opt/my env/libscipy_openblas64_.so"])
        get, _ = found
        assert get() == 2

    @pytest.mark.parametrize("symbols", encoder._BLAS_SYMBOLS)
    def test_each_symbol_pair_is_found(self, monkeypatch, symbols):
        found, _ = self.lookup(monkeypatch, self.maps(b"/lib/libopenblas.so"),
                               {"/lib/libopenblas.so": self.pair(symbols, threads=3)})
        assert found is not None and found[0]() == 3

    def test_the_pair_is_typed_as_c_int(self, monkeypatch):
        (get, set_), _ = self.lookup(monkeypatch, self.maps(b"/lib/libopenblas.so"),
                                     {"/lib/libopenblas.so": self.pair(self.PLAIN)})
        assert (get.argtypes, get.restype) == ([], ctypes.c_int)
        assert (set_.argtypes, set_.restype) == ([ctypes.c_int], None)

    def test_symbols_are_tried_in_order_across_libraries(self, monkeypatch):
        """numpy's symbols win over a plain OpenBLAS opened before them."""
        found, opened = self.lookup(monkeypatch, self.maps(b"/a/libopenblas.so",
                                                           b"/b/libscipy_openblas64_.so"), {
            "/a/libopenblas.so": self.pair(self.PLAIN, threads=1),
            "/b/libscipy_openblas64_.so": self.pair(self.SCIPY, threads=4)})
        assert opened == ["/a/libopenblas.so", "/b/libscipy_openblas64_.so"]
        assert found[0]() == 4

    def test_a_getter_without_its_setter_is_passed_over(self, monkeypatch):
        lib = {self.SCIPY[0]: lambda: 4, **self.pair(self.PLAIN, threads=2)}
        found, _ = self.lookup(monkeypatch, self.maps(b"/lib/libopenblas.so"),
                               {"/lib/libopenblas.so": lib})
        assert found[0]() == 2

    def test_a_library_that_fails_to_load_is_passed_over(self, monkeypatch):
        found, opened = self.lookup(monkeypatch, self.maps(b"/a/libopenblas.so",
                                                           b"/b/libopenblas.so"), {
            "/a/libopenblas.so": OSError("cannot open shared object file"),
            "/b/libopenblas.so": self.pair(self.PLAIN, threads=2)})
        assert opened == ["/a/libopenblas.so", "/b/libopenblas.so"]
        assert found[0]() == 2

    def test_a_library_mapped_many_times_is_opened_once(self, monkeypatch):
        path = b"/lib/libopenblas.so"
        _, opened = self.lookup(monkeypatch, self.maps(path, path, path), {})
        assert opened == ["/lib/libopenblas.so"]

    def test_only_openblas_paths_are_opened(self, monkeypatch):
        found, opened = self.lookup(monkeypatch, self.maps(b"/usr/lib/libc.so.6",
                                                           b"/usr/lib/libblas.so.3"), {})
        assert found is None and opened == []

    def test_no_pair_exported_finds_no_blas(self, monkeypatch):
        found, opened = self.lookup(monkeypatch, self.maps(b"/lib/libopenblas.so"),
                                    {"/lib/libopenblas.so": {"dgemm_": lambda: None}})
        assert found is None and opened == ["/lib/libopenblas.so"]

    def test_an_unreadable_maps_file_finds_no_blas(self, monkeypatch):
        found, opened = self.lookup(monkeypatch, PermissionError("/proc/self/maps"), {})
        assert found is None and opened == []


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

    def test_a_merge_that_overflows_float64_is_refused(self):
        config, weights = merge_setup(2)
        features = PackedSequence(np.full((4, config.d_model), 1e308),
                                  np.argwhere(np.ones((2, 2), dtype=bool)), (2, 2))
        with pytest.raises(ValidationError, match="merge projection overflows float64"):
            merge_project(features, config, weights)

    def test_sparse_equals_dense_restriction(self):
        config = small_config(merge_size=2, d_out=12)
        patches, rope, weights = random_setup(4, 4, config, seed=19)
        scores = EventFrame(np.random.Generator(np.random.PCG64(20)).random((4, 4)))
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
        scores = EventFrame(np.random.Generator(np.random.PCG64(25)).random((6, 8)))
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
