"""Toy ViT-style encoder with deterministic random weights.

The stack is a linear patch embedding followed by pre-norm transformer
blocks (norm -> attention -> residual; norm -> MLP -> residual) with
rotary position factors applied per head to queries and keys only, then
a merge stage that concatenates each merge cell's member tokens and
projects them through a two-layer MLP.

Three entry points wrap one checked forward pass, and each returns a
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
reproducible random weights make every comparison exact. A weight record
is its config's draw: EncoderWeights(config) draws every array and keeps
the config, and the forward and the merge accept only weights drawn for
the config they are given. A process draws a config's weights once and
shares them sealed, so that no caller can make them writable again; the
last config's weights stay resident until another config is drawn, at
most 512 MiB at MAX_ENCODER_PARAMS. All math runs in float64.

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

Each forward reads the loaded OpenBLAS's thread count once, when it
starts (``_lanes``), and that one number decides how the forward spreads
over the CPUs of the process's affinity mask:

- Lanes: one per CPU that BLAS leaves idle, that is the CPUs divided by
  the count, at most half the attention blocks, and at least 1. A BLAS
  without a getter, or one that reports no positive count, counts as on
  every CPU: one lane. So BLAS on every CPU, its default, gives one lane,
  and OPENBLAS_NUM_THREADS=1 or a run-time setter at 1 on an N-CPU host
  gives up to N lanes.
- BLAS: a one-lane forward with BLAS on fewer threads than there are
  CPUs raises the count to the CPUs for the whole call, the embedding and
  every layer, and restores it when the call ends, whether it returns or
  raises. A multi-lane forward and ``merge_project`` leave BLAS as they
  find it: after its last threaded call, OpenBLAS's worker spins for
  about 0.12 s of CPU, which a multi-lane forward started next would
  lose to it.

The (get, set) pair is looked up in the mapped library on the first
forward of a process on more than one CPU (``_blas_threads``). The count
is global to the process, so forwards take one lock, read the count
under it and run one at a time: a multi-lane forward never runs beside a
raised count.

A lane owns a contiguous share of the token rows, a contiguous run of
the attention blocks and a tile of its own, and steps through a layer in
three phases: layer norm, Q/K/V projections and rotation of the lane's
rows; the lane's attention blocks, which read every row's keys and
values; then the out projection, MLP and residuals of its rows. A lane
yields after each of the first two, and a round of a thread pool runs
every lane to its next yield, so no phase starts before every lane has
finished the one before it. The next layer starts on the lane's own
rows, so two yields per layer suffice. Lane 0 runs on the calling
thread, the others on the pool's threads, any of which may resume any
lane; the pool's threads end before the forward returns, and a lane's
error is raised to the caller; one lane starts no thread. A lane gets at
least two blocks: with one each, the lane with the short last block
idles at the end of every layer's attention round, and every lane waits
for the slowest CPU. At n = 308 (blocks of 212 and 96 rows) two lanes
spread the frame tail across benchmark runs about six times as wide as
one lane on a shared 2-CPU machine.

The block boundaries are those of one lane, fixed by (n, heads), because
a block's shape sets its summation order; a lane's matmuls run over
fewer rows than one lane's, which on this BLAS leaves every row's sums
unchanged, so at one BLAS thread count every lane count gives the same
bits, and the tests pin them for 1, 2 and 3 lanes. A one-lane forward's
float64 bits follow the BLAS count it ran at, as any matmul's do; the
float32 feature dumps of the benchmark frames were the same at either
count.

A forward or merge whose float64 arithmetic overflows raises
ValidationError: each lane step, the embedding and the merge run with
numpy's overflow and invalid-value errors raised, so no row is computed
from inf, and no layer norm of an overflowed variance leaves only its
shift.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .costmodel import mlp_width
from .errors import ValidationError, as_record, as_size, real_array, sealed
from .kvtext import check_field_types, check_keys, parse_kv, parse_record, record_keys
from .packing import PackedSequence, _grid_rows
from .rope2d import RopeTable, apply_rope_many
from .saliency import PatchMask, _blocks

_LN_EPS = 1e-5

# Bytes of one query block's (heads, rows, n) float64 logits tile: small
# enough to stay in a 2 MiB per-core L2 cache through the softmax passes.
# Each lane has its own tile. The budget sets the block rows and so the
# block boundaries, which do not move with the lane count.
_TILE_BYTES = 2 * 1024 * 1024

# Upper bound on the number of weights init_weights draws, checked when a
# config is built. At the cap the float64 weights take 512 MiB.
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
        for name, least in (("patch_size", 1), ("channels", 1), ("n_layers", 0), ("merge_size", 1),
                            ("d_out", 1), ("seed", 0), ("d_model", None), ("n_heads", None)):
            as_size(getattr(self, name), name, least)
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
        if self.mlp_ratio <= 0:
            raise ValidationError("mlp_ratio must be > 0")
        params = _weight_count(self)  # mlp_hidden rejects a non-finite width
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


def _param(*dims: str, gain: bool = False, init: bool = True):
    """An array field shaped by the named EncoderConfig attributes."""
    return field(init=init, metadata={"dims": dims, "gain": gain})


@dataclass(frozen=True, eq=False)
class LayerWeights:
    """One transformer block's weights, built only by the draw."""

    ln1_gamma: np.ndarray = _param("d_model", gain=True)
    ln1_beta: np.ndarray = _param("d_model")
    wq: np.ndarray = _param("d_model", "d_model")
    wk: np.ndarray = _param("d_model", "d_model")
    wv: np.ndarray = _param("d_model", "d_model")
    wo: np.ndarray = _param("d_model", "d_model")
    ln2_gamma: np.ndarray = _param("d_model", gain=True)
    ln2_beta: np.ndarray = _param("d_model")
    w_up: np.ndarray = _param("d_model", "mlp_hidden")
    b_up: np.ndarray = _param("mlp_hidden")
    w_down: np.ndarray = _param("mlp_hidden", "d_model")
    b_down: np.ndarray = _param("d_model")


@dataclass(frozen=True, eq=False)
class EncoderWeights:
    """The weights of ``config``, drawn as init_weights documents, each array
    sealed as it is drawn (``errors.sealed``, never writable again); the
    record holds no array a caller made."""

    config: EncoderConfig
    w_embed: np.ndarray = _param("patch_dim", "d_model", init=False)
    b_embed: np.ndarray = _param("d_model", init=False)
    layers: tuple[LayerWeights, ...] = field(init=False, metadata={"per_layer": LayerWeights})
    w_merge1: np.ndarray = _param("merge_dim", "merge_dim", init=False)
    b_merge1: np.ndarray = _param("merge_dim", init=False)
    w_merge2: np.ndarray = _param("merge_dim", "d_out", init=False)
    b_merge2: np.ndarray = _param("d_out", init=False)

    def __post_init__(self):
        config = as_record(self.config, EncoderConfig, "config")
        rng = np.random.Generator(np.random.PCG64(config.seed))
        for name, value in _draw(EncoderWeights, config, rng).items():
            object.__setattr__(self, name, value)


def _weight_fields(record: type) -> list:
    """The fields of ``record`` that hold weights: all but ``config``."""
    return [f for f in fields(record) if f.metadata]


def _shape(f, config: EncoderConfig) -> tuple[int, ...]:
    return tuple(getattr(config, dim) for dim in f.metadata["dims"])


def _weight_count(config: EncoderConfig, record: type = EncoderWeights) -> int:
    """Number of weights init_weights draws for ``config``, from the same
    fields; the layer stack counts as n_layers times one layer, unbuilt."""
    return sum(config.n_layers * _weight_count(config, f.metadata["per_layer"])
               if "per_layer" in f.metadata else math.prod(_shape(f, config))
               for f in _weight_fields(record))


def init_weights(config: EncoderConfig) -> EncoderWeights:
    """Draw every parameter from numpy's PCG64 stream for config.seed.

    The generator is ``np.random.Generator(np.random.PCG64(seed))``. The
    fields of EncoderWeights are drawn in declaration order, ``layers`` as
    n_layers LayerWeights in turn, each array as one standard normal draw
    of the shape its declaration names: a matrix scaled 1/sqrt(rows), a
    vector scaled 0.02, and a layer-norm gain 1 plus that vector.
    Same seed gives bit-identical weights on any platform.

    The record is its config's draw: ``EncoderWeights(config)`` is the only
    way to build one, and the encode paths and the merge accept only
    weights drawn for the config they are given.

    A process draws a config's weights once and shares the record, whose
    arrays cannot be made writable again: a later call with an equal
    config returns the same record.
    The last config's weights stay resident until another config is drawn,
    and while that draw runs both are held: 9.1 MiB at the benchmark
    config, at most 512 MiB per config at MAX_ENCODER_PARAMS.
    """
    return _drawn(as_record(config, EncoderConfig, "config"))


_drawn = functools.lru_cache(maxsize=1)(EncoderWeights)


def _draw(record: type, config: EncoderConfig, rng: np.random.Generator) -> dict:
    """The weights of a ``record``, by field name, each drawn, scaled and sealed in turn."""
    values = {}
    for f in _weight_fields(record):
        if "per_layer" in f.metadata:
            layer = f.metadata["per_layer"]
            values[f.name] = tuple(layer(**_draw(layer, config, rng))
                                   for _ in range(config.n_layers))
            continue
        shape = _shape(f, config)
        # Scaled in place, with the bits of ``standard_normal(shape) * scale`` (+ 1.0).
        z = rng.standard_normal(shape)
        z *= 1.0 / np.sqrt(shape[0]) if len(shape) == 2 else 0.02
        if f.metadata["gain"]:
            z += 1.0
        values[f.name] = sealed(z)
    return values


def _check_drawn_for(weights: EncoderWeights, config: EncoderConfig) -> None:
    """Weights fit ``config`` when they are its draw."""
    if weights.config != config:
        raise ValidationError("weights were drawn for another config")


def patchify(image: np.ndarray, patch_size: int) -> np.ndarray:
    """Cut an (H, W, C) raster into N x (p*p*C) rows in raster order.

    N = floor(H/p) * floor(W/p); each row is its p x p x C block
    flattened row-major with channels last. Trailing pixels beyond the
    last full patch are dropped. The rows keep the image's dtype: a uint8
    raster gives uint8 rows, one byte copy of its pixels.
    """
    img = real_array(image, "image")
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3:
        raise ValidationError("image must have shape (H, W) or (H, W, C)")
    p = as_size(patch_size, "patch size")
    height, width, channels = img.shape
    if height < p or width < p:
        raise ValidationError(f"image {width}x{height} smaller than one {p}x{p} patch")
    return _blocks(img, p).reshape((height // p) * (width // p), p * p * channels)


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """(x - mean) / sqrt(var + eps) * gamma + beta over the last axis, bit for bit
    as ``x.mean`` and ``x.var`` give it: the variance is summed from the same
    deviations ``x.var`` forms, so the mean is computed once."""
    d = x - x.mean(axis=-1, keepdims=True)
    var = np.square(d).sum(axis=-1, keepdims=True)
    var /= x.shape[-1]
    var += _LN_EPS
    # Normalised into a new array, not into d: as fast, and with d divided in
    # place encode_packed's peak RSS rose by 4.7 MiB (the heap fragmented).
    out = d / np.sqrt(var, out=var)
    del d
    out *= gamma
    out += beta
    return out


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
    return max(1, min(n, _TILE_BYTES // (8 * heads * max(n, 1))))


# CPUs in the process's affinity mask, read once. BLAS's thread count is
# read by every forward (``_lanes``), so a count set at run time is seen.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Held by every forward while it runs: BLAS's thread count is global to the
# process, every forward reads it, and a one-lane forward raises it.
_FORWARD = threading.Lock()

# The floating-point errors that fail a forward or a merge.
_OVERFLOW = {"over": "raise", "invalid": "raise"}

# (get, set) thread-count symbols of OpenBLAS builds, in the order tried:
# numpy's wheels, then OpenBLAS's own 64-bit-integer and plain builds.
_BLAS_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                 ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
                 ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.cache
def _blas_threads():
    """The loaded OpenBLAS's (get, set) thread-count functions, or None.

    The library is a path holding ``openblas`` that is mapped into the
    process (all of a ``/proc/self/maps`` line after its fifth field,
    spaces and non-ASCII bytes included), and the pair is the first of
    ``_BLAS_SYMBOLS`` that one of them exports. Called by the first
    forward on more than one CPU, never at import."""
    import ctypes

    try:
        with open("/proc/self/maps", "rb") as fh:
            fields = [line.rstrip(b"\n").split(maxsplit=5) for line in fh]
    except OSError:
        return None
    paths = sorted({os.fsdecode(f[5]) for f in fields
                    if len(f) == 6 and b"openblas" in f[5].lower()})
    libs = []
    for path in paths:
        with contextlib.suppress(OSError):
            libs.append(ctypes.CDLL(path))
    for get_name, set_name in _BLAS_SYMBOLS:
        for lib in libs:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _lanes(blocks: int):
    """Yield the lanes of a forward over ``blocks`` attention blocks: one per
    CPU that BLAS leaves idle, at most half the blocks, and at least 1. BLAS's
    thread count is read once; a one-CPU process does not look it up, and a
    BLAS without a getter, or one that reports no positive count, counts as on
    every CPU. A one-lane forward runs BLAS on every CPU inside the block and
    gives it the count it had back after it."""
    blas = _blas_threads() if _CPUS > 1 else None
    count = blas[0]() if blas else _CPUS
    count = count if count > 0 else _CPUS
    lanes = max(1, min(_CPUS // count, blocks // 2))
    if lanes > 1 or count >= _CPUS:
        yield lanes
        return
    blas[1](_CPUS)
    try:
        yield lanes
    finally:
        blas[1](count)


@contextlib.contextmanager
def _fails_on_overflow(what: str):
    """Run the block with numpy's ``_OVERFLOW`` errors raised on this thread,
    and raise them as a ValidationError that names the overflow."""
    try:
        with np.errstate(**_OVERFLOW):
            yield
    except FloatingPointError as err:
        raise ValidationError(f"{what} overflows float64: {err}") from None


def _run_lanes(lanes: int, lane) -> None:
    """Step the generators ``lane(i)``, i < lanes, in rounds until lane 0's is
    exhausted: a round advances every lane to its next ``yield``, lane 0 on
    this thread and the others on a pool's threads, and ends when all have
    reached it. No step waits for another lane. A step raises numpy's
    ``_OVERFLOW`` errors, set on the thread that runs it: pool threads do not
    inherit the caller's error state. The pool's threads end before this
    returns, and the error of a round's first failing lane, in lane order,
    is raised here; one lane starts no thread."""
    # Imported on first use, like scipy.special in _gelu, which loads it too.
    from concurrent.futures import ThreadPoolExecutor

    def advance(step) -> bool:
        with np.errstate(**_OVERFLOW):
            return next(step, False)

    steps = [lane(i) for i in range(lanes)]
    with ThreadPoolExecutor(max(1, lanes - 1)) as pool:
        while True:
            rest = [pool.submit(advance, step) for step in steps[1:]]
            more = advance(steps[0])
            for future in rest:
                future.result()
            if not more:
                return


def _forward(tokens: np.ndarray, positions: np.ndarray, grid: tuple[int, int], rope: RopeTable,
             weights: EncoderWeights, config: EncoderConfig,
             key_keep: np.ndarray | None = None) -> PackedSequence:
    """Check the inputs and run the stack over the token rows, as float64, at
    their (row, col) ``positions`` on ``grid``. With ``key_keep``, attention to
    the other rows is blocked and only the kept rows are returned."""
    as_record(rope, RopeTable, "rope")
    as_record(weights, EncoderWeights, "weights")
    as_record(config, EncoderConfig, "config")
    if grid != (rope.rows, rope.cols):
        raise ValidationError(f"token grid {grid} != rope extent {(rope.rows, rope.cols)}")
    if not np.isfinite(tokens).all():
        raise ValidationError("patches must be finite")
    if tokens.shape[1] != weights.w_embed.shape[0]:
        raise ValidationError(
            f"patch dim {tokens.shape[1]} != embedding input {weights.w_embed.shape[0]}")
    if rope.d != config.head_dim:
        raise ValidationError(
            f"rotary table dimension {rope.d} != head dimension {config.head_dim}")
    _check_drawn_for(weights, config)
    tokens = tokens.astype(np.float64, copy=False)
    out = slice(None) if key_keep is None else key_keep
    n, nh, dh = len(tokens), config.n_heads, config.head_dim
    rows = _block_rows(n, nh)
    starts = range(0, n, rows)
    with _FORWARD, _lanes(len(starts)) as lanes, _fails_on_overflow("encoder forward"):
        h = tokens @ weights.w_embed + weights.b_embed
        if not len(positions[out]):  # no query row; with no key kept, softmax would be 0/0
            return PackedSequence(h[out], positions[out], grid)
        scale = 1.0 / np.sqrt(dh)
        drop = None if key_keep is None else ~key_keep
        # Shared by the lanes and reused by every layer: rotated queries and
        # keys, values, and the attention result, with head-major views
        # (heads, n_q, d_h), (heads, d_h, n_k), (heads, n_k, d_h).
        q, k, v, mixed = (np.empty((n, nh, dh)) for _ in range(4))
        qh, kh, vh = q.transpose(1, 0, 2), k.transpose(1, 2, 0), v.transpose(1, 0, 2)
        v_rows, mixed_rows = v.reshape(n, nh * dh), mixed.reshape(n, nh * dh)

        def lane(i: int):
            own = slice(i * n // lanes, (i + 1) * n // lanes)
            x, pos = h[own], positions[own]
            # The tile is flat so that a short last block is still one
            # contiguous (heads, rows, n) array.
            tile = np.empty(nh * rows * n)
            up = np.empty((len(x), config.mlp_hidden))
            act = np.empty_like(up)
            for lw in weights.layers:
                a = _layer_norm(x, lw.ln1_gamma, lw.ln1_beta)
                np.multiply(apply_rope_many(rope, pos, (a @ lw.wq).reshape(-1, nh, dh)), scale,
                            out=q[own])
                k[own] = apply_rope_many(rope, pos, (a @ lw.wk).reshape(-1, nh, dh))
                np.matmul(a, lw.wv, out=v_rows[own])
                yield True
                for start in starts[i * len(starts) // lanes: (i + 1) * len(starts) // lanes]:
                    stop = min(start + rows, n)
                    logits = tile[: nh * (stop - start) * n].reshape(nh, stop - start, n)
                    np.matmul(qh[:, start:stop], kh, out=logits)
                    if drop is not None:
                        logits[:, :, drop] = -np.inf
                    logits -= logits.max(axis=-1, keepdims=True)
                    np.exp(logits, out=logits)
                    np.divide(logits @ vh, logits.sum(axis=-1, keepdims=True),
                              out=mixed[start:stop].transpose(1, 0, 2))
                yield True
                x += mixed_rows[own] @ lw.wo
                a2 = _layer_norm(x, lw.ln2_gamma, lw.ln2_beta)
                np.matmul(a2, lw.w_up, out=up)
                up += lw.b_up
                x += _gelu(up, out=act) @ lw.w_down
                x += lw.b_down

        _run_lanes(lanes, lane)
    return PackedSequence(h[out], positions[out], grid)


def encode_dense(
    patches: np.ndarray,
    rope: RopeTable,
    weights: EncoderWeights,
    config: EncoderConfig,
) -> PackedSequence:
    """Run the full stack over every grid token."""
    as_record(rope, RopeTable, "rope")
    grid = (rope.rows, rope.cols)
    return _forward(*_grid_rows(patches, grid), grid, rope, weights, config)


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
    as_record(packed, PackedSequence, "packed")
    return _forward(packed.tokens, packed.kept, packed.origin_grid, rope, weights, config)


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
    as_record(mask, PatchMask, "mask")
    grid = (mask.rows, mask.cols)
    return _forward(*_grid_rows(patches, grid), grid, rope, weights, config,
                    key_keep=mask.bits.ravel().astype(bool))


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
    as_record(features, PackedSequence, "features")
    as_record(config, EncoderConfig, "config")
    as_record(weights, EncoderWeights, "weights")
    _check_drawn_for(weights, config)
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
    with _fails_on_overflow("merge projection"):
        hidden = _gelu(flat @ weights.w_merge1 + weights.b_merge1)
        out = hidden @ weights.w_merge2 + weights.b_merge2
    return PackedSequence(out, cells, (rows // m, cols // m))
