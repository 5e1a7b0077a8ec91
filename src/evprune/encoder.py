"""Toy ViT-style encoder with deterministic random weights.

The stack is a linear patch embedding followed by pre-norm transformer
blocks (norm -> attention -> residual; norm -> MLP -> residual) with
rotary position factors applied per head to queries and keys only, then
a merge stage that concatenates each merge cell's member tokens and
projects them through a two-layer MLP.

Three forward paths share one implementation, and each returns a
PackedSequence of output rows at their grid coordinates:

- encode_dense: all N grid tokens.
- encode_packed: only retained tokens, each rotated by its original grid
  coordinate, so attention among survivors is position-faithful.
- encode_masked_dense_oracle: all N tokens, but attention logits to
  dropped keys forced to -inf; retained rows of the result are the
  reference against which the packed path is checked.

merge_project takes such a sequence and returns another, one row per
merge cell at its coordinate on the cell grid.

Weights are untrained: the mechanism under test (positional alignment,
packed/dense agreement, cost) does not depend on trained values, and
reproducible random weights make every comparison exact. All math runs
in float64.

Attention runs over blocks of query rows. Each block's (heads, rows, n)
logits fill one tile of about 2 MiB, so the key mask, max-subtract, exp
and row sum passes stay in a per-core L2 cache instead of streaming a
(heads, n, n) array through memory. The unnormalised tile is multiplied
by the values and the (heads, rows, head_dim) result is divided by the
row sums, so the n x n probabilities are never divided. The block rows
depend only on (n, heads). Matmuls are head-batched BLAS calls, whose
summation order is fixed only per matrix shape and BLAS thread count: a
repeated call is bit-identical, and so are sequences of equal length
(dense, all-ones packed and the masked-dense oracle), but sequences of
different lengths (packed versus masked-dense) or different block shapes
agree to rounding, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costmodel import mlp_width
from .errors import ValidationError
from .kvtext import check_field_types, check_keys, parse_kv, parse_record, record_keys
from .packing import PackedSequence
from .rope2d import RopeTable, apply_rope_many
from .saliency import PatchMask, _blocks

_LN_EPS = 1e-5

# Bytes of one query block's (heads, rows, n) float64 logits tile: small
# enough to stay in a 2 MiB per-core L2 cache through the softmax passes.
_TILE_BYTES = 2 * 1024 * 1024

# Upper bound on the number of weights init_weights draws, checked when a
# config is built. At the cap the float64 weights take 512 MiB, plus one
# temporary copy of the largest matrix while it is scaled.
MAX_ENCODER_PARAMS = 2**26


@dataclass(frozen=True)
class EncoderConfig:
    patch_size: int
    channels: int
    d_model: int
    n_layers: int
    n_heads: int
    mlp_ratio: float
    merge_size: int
    d_out: int
    seed: int

    def __post_init__(self):
        check_field_types(self)
        if self.patch_size < 1 or self.channels < 1:
            raise ValidationError("patch_size and channels must be >= 1")
        if self.d_model < 4 or self.d_model % 4 != 0:
            raise ValidationError(f"d_model must be a positive multiple of 4, got {self.d_model}")
        if self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ValidationError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if (self.d_model // self.n_heads) % 4 != 0:
            raise ValidationError(
                "head dimension must be divisible by 4 for per-head rotation"
            )
        if self.n_layers < 0:
            raise ValidationError("n_layers must be >= 0")
        if self.mlp_ratio <= 0:
            raise ValidationError("mlp_ratio must be > 0")
        if self.merge_size < 1:
            raise ValidationError("merge_size must be >= 1")
        if self.d_out < 1:
            raise ValidationError("d_out must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        # mlp_hidden rejects a d_model * mlp_ratio that is not finite
        d, h, md = self.d_model, self.mlp_hidden, self.merge_dim
        params = (self.patch_dim * d + d + self.n_layers * (4 * d * d + 2 * d * h + h + 5 * d)
                  + md * md + md + md * self.d_out + self.d_out)
        if params > MAX_ENCODER_PARAMS:
            raise ValidationError(
                f"config has {params} weights, more than MAX_ENCODER_PARAMS = {MAX_ENCODER_PARAMS}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def mlp_hidden(self) -> int:
        return mlp_width(self.d_model, self.mlp_ratio, "d_model")

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.channels

    @property
    def merge_dim(self) -> int:
        return self.d_model * self.merge_size * self.merge_size


def load_encoder_config(text: str) -> EncoderConfig:
    kv = parse_kv(text)
    check_keys(kv, record_keys(EncoderConfig, ""), "encoder config")
    return parse_record(kv, EncoderConfig, "")


@dataclass(frozen=True, eq=False)
class LayerWeights:
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray
    w_up: np.ndarray
    b_up: np.ndarray
    w_down: np.ndarray
    b_down: np.ndarray


@dataclass(frozen=True, eq=False)
class EncoderWeights:
    w_embed: np.ndarray
    b_embed: np.ndarray
    layers: tuple[LayerWeights, ...]
    w_merge1: np.ndarray
    b_merge1: np.ndarray
    w_merge2: np.ndarray
    b_merge2: np.ndarray


def init_weights(config: EncoderConfig) -> EncoderWeights:
    """Draw every parameter from numpy's PCG64 stream for config.seed.

    The generator is ``np.random.Generator(np.random.PCG64(seed))`` and
    parameters are drawn as standard normals in this fixed order:

      1. w_embed (patch_dim, d_model), scaled 1/sqrt(patch_dim)
      2. b_embed (d_model,), scaled 0.02
      3. per layer: ln1_gamma = 1 + 0.02 z, ln1_beta = 0.02 z,
         wq, wk, wv, wo (d, d) scaled 1/sqrt(d),
         ln2_gamma = 1 + 0.02 z, ln2_beta = 0.02 z,
         w_up (d, h) scaled 1/sqrt(d), b_up (h,) scaled 0.02,
         w_down (h, d) scaled 1/sqrt(h), b_down (d,) scaled 0.02
      4. w_merge1 (merge_dim, merge_dim) scaled 1/sqrt(merge_dim),
         b_merge1 scaled 0.02, w_merge2 (merge_dim, d_out) scaled
         1/sqrt(merge_dim), b_merge2 scaled 0.02

    Same seed gives bit-identical weights on any platform.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    d = config.d_model
    h = config.mlp_hidden

    def normal(*shape, scale):
        return rng.standard_normal(shape) * scale

    w_embed = normal(config.patch_dim, d, scale=1.0 / np.sqrt(config.patch_dim))
    b_embed = normal(d, scale=0.02)
    layers = []
    for _ in range(config.n_layers):
        layers.append(LayerWeights(
            ln1_gamma=1.0 + normal(d, scale=0.02),
            ln1_beta=normal(d, scale=0.02),
            wq=normal(d, d, scale=1.0 / np.sqrt(d)),
            wk=normal(d, d, scale=1.0 / np.sqrt(d)),
            wv=normal(d, d, scale=1.0 / np.sqrt(d)),
            wo=normal(d, d, scale=1.0 / np.sqrt(d)),
            ln2_gamma=1.0 + normal(d, scale=0.02),
            ln2_beta=normal(d, scale=0.02),
            w_up=normal(d, h, scale=1.0 / np.sqrt(d)),
            b_up=normal(h, scale=0.02),
            w_down=normal(h, d, scale=1.0 / np.sqrt(h)),
            b_down=normal(d, scale=0.02),
        ))
    md = config.merge_dim
    return EncoderWeights(
        w_embed=w_embed,
        b_embed=b_embed,
        layers=tuple(layers),
        w_merge1=normal(md, md, scale=1.0 / np.sqrt(md)),
        b_merge1=normal(md, scale=0.02),
        w_merge2=normal(md, config.d_out, scale=1.0 / np.sqrt(md)),
        b_merge2=normal(config.d_out, scale=0.02),
    )


def patchify(image: np.ndarray, patch_size: int) -> np.ndarray:
    """Cut an (H, W, C) raster into N x (p*p*C) rows in raster order.

    N = floor(H/p) * floor(W/p); each row is its p x p x C block
    flattened row-major with channels last. Trailing pixels beyond the
    last full patch are dropped.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3:
        raise ValidationError("image must have shape (H, W) or (H, W, C)")
    p = patch_size
    height, width, channels = img.shape
    if height < p or width < p:
        raise ValidationError(f"image {width}x{height} smaller than one {p}x{p} patch")
    return _blocks(img, p).reshape((height // p) * (width // p), p * p * channels)


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + _LN_EPS) * gamma + beta


def _gelu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 x (1 + erf(x / sqrt 2)), into ``out`` (not ``x`` itself) when given."""
    # Imported here: scipy.special takes most of the package's import time,
    # and only the encoder's forward and merge need it.
    from scipy.special import erf

    out = np.divide(x, np.sqrt(2.0), out=out)
    erf(out, out=out)
    out += 1.0
    out *= x
    out *= 0.5
    return out


def _block_rows(n: int, heads: int) -> int:
    """Query rows per attention block: as many as fit in ``_TILE_BYTES``."""
    return max(1, min(n, _TILE_BYTES // (8 * heads * n)))


def _forward(
    patches: np.ndarray,
    positions: np.ndarray,
    rope: RopeTable,
    weights: EncoderWeights,
    config: EncoderConfig,
    key_keep: np.ndarray | None = None,
) -> np.ndarray:
    n = patches.shape[0]
    if patches.shape[1] != weights.w_embed.shape[0]:
        raise ValidationError(
            f"patch dim {patches.shape[1]} != embedding input {weights.w_embed.shape[0]}"
        )
    if rope.d != config.head_dim:
        raise ValidationError(
            f"rotary table dimension {rope.d} != head dimension {config.head_dim}"
        )
    h = patches @ weights.w_embed + weights.b_embed
    if n == 0:
        return h
    nh, dh = config.n_heads, config.head_dim
    scale = 1.0 / np.sqrt(dh)
    drop = None if key_keep is None else ~key_keep
    rows = _block_rows(n, nh)
    # Buffers reused by every layer. The tile is flat so that a short last
    # block is still one contiguous (heads, rows, n) array.
    tile = np.empty(nh * rows * n)
    mixed = np.empty((n, nh, dh))
    up = np.empty((n, config.mlp_hidden))
    act = np.empty_like(up)
    for lw in weights.layers:
        a = _layer_norm(h, lw.ln1_gamma, lw.ln1_beta)
        q = (a @ lw.wq).reshape(n, nh, dh)
        k = (a @ lw.wk).reshape(n, nh, dh)
        v = (a @ lw.wv).reshape(n, nh, dh)
        q = apply_rope_many(rope, positions, q) * scale
        k = apply_rope_many(rope, positions, k)
        # head-major views: (heads, n_q, d_h), (heads, d_h, n_k), (heads, n_k, d_h)
        qh, kh, vh = q.transpose(1, 0, 2), k.transpose(1, 2, 0), v.transpose(1, 0, 2)
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            logits = tile[: nh * (stop - start) * n].reshape(nh, stop - start, n)
            np.matmul(qh[:, start:stop], kh, out=logits)
            if drop is not None:
                logits[:, :, drop] = -np.inf
            logits -= logits.max(axis=-1, keepdims=True)
            np.exp(logits, out=logits)
            np.divide(logits @ vh, logits.sum(axis=-1, keepdims=True),
                      out=mixed[start:stop].transpose(1, 0, 2))
        h = h + mixed.reshape(n, nh * dh) @ lw.wo
        a2 = _layer_norm(h, lw.ln2_gamma, lw.ln2_beta)
        np.matmul(a2, lw.w_up, out=up)
        up += lw.b_up
        h = h + _gelu(up, out=act) @ lw.w_down + lw.b_down
    return h


def _grid_positions(rows: int, cols: int) -> np.ndarray:
    """Every (row, col) in raster order: the coordinates an all-ones mask packs."""
    return np.argwhere(np.ones((rows, cols), dtype=bool))


def encode_dense(
    patches: np.ndarray,
    rope: RopeTable,
    weights: EncoderWeights,
    config: EncoderConfig,
) -> PackedSequence:
    """Run the full stack over every grid token."""
    seq = np.asarray(patches, dtype=np.float64)
    if seq.ndim != 2 or seq.shape[0] != rope.rows * rope.cols:
        raise ValidationError(
            f"expected {rope.rows * rope.cols} patch rows for a "
            f"{rope.rows}x{rope.cols} grid"
        )
    positions = _grid_positions(rope.rows, rope.cols)
    return PackedSequence(_forward(seq, positions, rope, weights, config), positions,
                          (rope.rows, rope.cols))


def encode_packed(
    packed: PackedSequence,
    rope: RopeTable,
    weights: EncoderWeights,
    config: EncoderConfig,
) -> PackedSequence:
    """Run the stack over retained tokens only.

    Each token's rotary factors come from its original grid coordinate,
    not its index in the shortened sequence.
    """
    if packed.origin_grid != (rope.rows, rope.cols):
        raise ValidationError(
            f"packed grid {packed.origin_grid} != rope extent "
            f"{(rope.rows, rope.cols)}"
        )
    return PackedSequence(_forward(packed.tokens, packed.kept, rope, weights, config),
                          packed.kept, packed.origin_grid)


def encode_masked_dense_oracle(
    patches: np.ndarray,
    rope: RopeTable,
    mask: PatchMask,
    weights: EncoderWeights,
    config: EncoderConfig,
) -> PackedSequence:
    """Reference path: keep all tokens, exclude dropped keys from attention.

    Logits from any query to a dropped key are set to -inf before the
    softmax, so dropped tokens cannot leak into retained rows; after the
    full stack only the retained rows are returned, in raster order.
    """
    seq = np.asarray(patches, dtype=np.float64)
    if (mask.rows, mask.cols) != (rope.rows, rope.cols):
        raise ValidationError("mask grid does not match rope extent")
    if seq.ndim != 2 or seq.shape[0] != mask.rows * mask.cols:
        raise ValidationError("patch count does not match mask grid")
    keep = mask.bits.ravel().astype(bool)
    positions = _grid_positions(mask.rows, mask.cols)
    grid = (mask.rows, mask.cols)
    if not keep.any():
        return PackedSequence(np.zeros((0, config.d_model)), positions[keep], grid)
    full = _forward(seq, positions, rope, weights, config, key_keep=keep)
    return PackedSequence(full[keep], positions[keep], grid)


def merge_project(
    features: PackedSequence,
    config: EncoderConfig,
    weights: EncoderWeights,
) -> PackedSequence:
    """Concatenate each complete merge cell and project through the MLP.

    Tokens are grouped into merge_size x merge_size cells; members are
    concatenated in raster order and passed through
    merge_dim -> merge_dim (gelu) -> d_out. The result holds one row per
    cell, at the cell's coordinate on the (rows // m, cols // m) cell grid.
    A cell with only some of its members present means a patch-granularity
    mask was combined with merge_size > 1 and is rejected.
    """
    if features.tokens.shape[1] != config.d_model:
        raise ValidationError(
            f"feature width {features.tokens.shape[1]} != d_model {config.d_model}")
    m = config.merge_size
    rows, cols = features.origin_grid
    cell_of = features.kept // m
    # kept is raster-ordered, so a stable sort by cell keeps each cell's
    # members in raster order; a partial last cell column still gets an index
    cell_index = cell_of[:, 0] * -(-cols // m) + cell_of[:, 1]
    order = np.argsort(cell_index, kind="stable")
    _, first, counts = np.unique(cell_index, return_index=True, return_counts=True)
    cells = cell_of[first]
    incomplete = np.flatnonzero(counts != m * m)
    if incomplete.size:
        (i, j), k = cells[incomplete[0]], counts[incomplete[0]]
        raise ValidationError(
            f"merge cell ({i}, {j}) has {k} of {m * m} members; "
            f"mask granularity must match merge_size {m}"
        )

    flat = features.tokens[order].reshape(len(cells), config.merge_dim)
    hidden = _gelu(flat @ weights.w_merge1 + weights.b_merge1)
    out = hidden @ weights.w_merge2 + weights.b_merge2
    return PackedSequence(out, cells, (rows // m, cols // m))
