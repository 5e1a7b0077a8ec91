"""Near-valid arguments to every public callable of the package.

Each case starts from a valid argument list and swaps any of its
arguments for a value one step away: an int/float swap, zero, a negative,
an integer beyond float range or too long to print, a fraction or a list
whose repr raises, NaN, the wrong rank, a ragged nesting, a str, complex
or object dtype, or a mapping with its first value so swapped or its
first key missing.
Every call must return a value or raise ValidationError or FormatError;
any other exception, or a warning, fails the test. A record argument
that is None, a str or a record of another type must raise
ValidationError.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evprune
from evprune.costmodel import (ArchProfile, CostReport, LlmDims, VitDims, WorkloadSpec, compare,
                               estimate, load_shipped_profile)
from evprune.encoder import (EncoderConfig, EncoderWeights, encode_dense,
                             encode_masked_dense_oracle, encode_packed, init_weights,
                             merge_project, patchify)
from evprune.errors import FormatError, ValidationError
from evprune.events import (EventFrame, EventStream, accumulate, resize_to, simulate_events,
                            write_events_bin)
from evprune.featio import write_features
from evprune.packing import PackedSequence, pack_patches, unpack_scatter
from evprune.ppm import to_gray01, write_ppm
from evprune.rope2d import (RopeTable, apply_rope, apply_rope_many, build_rope,
                            rope_matrix)
from evprune.saliency import (PatchMask, apply_mask_to_image, mask_to_text, patch_scores,
                              quantile_mask, retained_count)


def near_valid(value) -> list:
    """Values one step away from the valid argument ``value``."""
    if isinstance(value, np.ndarray):
        with_nan = value.astype(np.float64)
        with_nan.flat[0] = np.nan
        rows = value.tolist()
        ragged = [rows[0], rows[0][:-1]] if value.ndim > 1 else [rows[0], rows[:1]]
        return [value.astype(np.float64) + 0.5, value.astype(np.int64), with_nan,
                -value.astype(np.int64) - 1, value[0], value[None], value[:0],
                value.ravel()[0], rows, ragged, value.astype(str),
                value.astype(np.complex128), value.astype(object)]
    if isinstance(value, dict):
        first = next(iter(value))
        return [*(dict(value, **{first: v}) for v in near_valid(value[first])),
                dict(list(value.items())[1:]), list(value.values()), None]
    if isinstance(value, tuple):
        return [value[:1], value + (1,), tuple(v + 0.5 for v in value),
                tuple(-v for v in value), list(value), tuple(map(str, value)),
                (value[0], math.nan), [10**5000, *value[1:]], None]
    return [0, -1, -value, float(value), value + 0.5, int(value), 10**400, -10**5000,
            Fraction(10**5000 + 1, 10**5000), math.nan, math.inf, True, str(value),
            complex(value), np.float64(value), np.int64(int(value)), None]


_RNG = np.random.Generator(np.random.PCG64(83))
_ROPE = build_rope(3, 4, 8)
_STREAM = [3, 2, np.array([5, 1, 3]), np.array([0, 2, 1]), np.array([1, 0, 1]),
           np.array([1, -1, 1])]
_IMAGE = _RNG.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
_BITS = np.array([[1, 0], [0, 1]], dtype=np.uint8)
# A 2x2 patch grid of 2x2 gray patches, and an encoder whose one merge cell covers it.
_CONFIG = [2, 1, 8, 1, 2, 2.0, 2, 4, 0]
_ENCODER = EncoderConfig(*_CONFIG)
_WEIGHTS = init_weights(_ENCODER)
_GRID_ROPE = build_rope(2, 2, _ENCODER.head_dim)
_PATCHES = _RNG.standard_normal((4, _ENCODER.patch_dim))
_ALL_KEPT = np.argwhere(np.ones((2, 2), dtype=bool))
_PROFILE = load_shipped_profile("qwen2vl_2b_like")
_WORK = [448, 448, 0.5, 16, 4]
_REPORT = estimate(_PROFILE, WorkloadSpec(*_WORK))


def rope_at_far_corner(rows, cols, d):
    """A table for the extent and dimension, applied at the last row and column it covers."""
    table = RopeTable(rows, cols, d)
    return apply_rope_many(table, np.array([[table.rows - 1, table.cols - 1]]), np.ones((1, 8)))


# name -> (call, valid arguments); a record argument is passed as its fields
CASES = {
    "EventFrame": (EventFrame, [_RNG.integers(0, 5, size=(3, 4))]),
    "PatchMask": (PatchMask, [np.array([[1, 0], [0, 1]], dtype=np.uint8), 0.5]),
    "PackedSequence": (PackedSequence, [_RNG.standard_normal((2, 3)),
                                        np.array([[0, 0], [1, 1]]), (2, 2)]),
    "RopeTable": (rope_at_far_corner, [_ROPE.rows, _ROPE.cols, _ROPE.d]),
    "resize_to": (lambda counts, width, height: resize_to(EventFrame(counts), width, height),
                  [_RNG.integers(0, 5, size=(3, 4)), 5, 2]),
    "patch_scores": (lambda counts, p: patch_scores(EventFrame(counts), p),
                     [_RNG.integers(0, 5, size=(4, 6)), 2]),
    "quantile_mask": (lambda scores, tau, m: quantile_mask(EventFrame(scores), tau, m),
                      [_RNG.random((2, 4)), 0.5, 2]),
    "EventStream": (EventStream, _STREAM),
    "write_events_bin": (lambda *columns: write_events_bin(EventStream(*columns)), _STREAM),
    "accumulate": (lambda t0, t1: accumulate(EventStream(*_STREAM), t0, t1), [1, 4]),
    "simulate_events": (simulate_events, [_RNG.random((3, 4)), _RNG.random((3, 4)), 0.5, 10]),
    "retained_count": (retained_count, [0.5, 7]),
    "mask_to_text": (lambda bits, tau: mask_to_text(PatchMask(bits, tau)), [_BITS, 0.5]),
    "apply_mask_to_image": (
        lambda image, bits, p, fill: apply_mask_to_image(image, PatchMask(bits, 0.5), p, fill),
        [_IMAGE, np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8), 2, (0, 0, 0)]),
    "write_ppm": (write_ppm, [_IMAGE]),
    "to_gray01": (to_gray01, [_IMAGE]),
    "write_features": (write_features, [_RNG.standard_normal((3, 4))]),
    "pack_patches": (lambda seq, bits: pack_patches(seq, PatchMask(bits, 0.5)),
                     [_PATCHES, _BITS]),
    "unpack_scatter": (lambda tokens, kept, grid, fill:
                       unpack_scatter(PackedSequence(tokens, kept, grid), fill),
                       [_RNG.standard_normal((2, 3)), np.array([[0, 0], [1, 1]]), (2, 2),
                        np.zeros(3)]),
    "build_rope": (build_rope, [3, 4, 8]),
    "apply_rope_many": (lambda positions, v: apply_rope_many(_ROPE, positions, v),
                        [np.array([[2, 3]]), np.ones((1, 8))]),
    "apply_rope": (lambda pos, v: apply_rope(_ROPE, pos, v), [(2, 3), np.ones(8)]),
    "rope_matrix": (rope_matrix, [1, 2, 8]),
    "patchify": (patchify, [_IMAGE, 2]),
    "EncoderConfig": (EncoderConfig, _CONFIG),
    "init_weights": (lambda *fields: init_weights(EncoderConfig(*fields)), _CONFIG),
    "EncoderWeights": (lambda *fields: EncoderWeights(EncoderConfig(*fields)), _CONFIG),
    "encode_dense": (lambda patches: encode_dense(patches, _GRID_ROPE, _WEIGHTS, _ENCODER),
                     [_PATCHES]),
    "encode_packed": (lambda tokens, kept, grid: encode_packed(
        PackedSequence(tokens, kept, grid), _GRID_ROPE, _WEIGHTS, _ENCODER),
                      [_PATCHES, _ALL_KEPT, (2, 2)]),
    "encode_masked_dense_oracle": (lambda patches, bits: encode_masked_dense_oracle(
        patches, _GRID_ROPE, PatchMask(bits, 0.5), _WEIGHTS, _ENCODER), [_PATCHES, _BITS]),
    "merge_project": (lambda tokens, kept, grid: merge_project(
        PackedSequence(tokens, kept, grid), _ENCODER, _WEIGHTS),
                      [_RNG.standard_normal((4, _ENCODER.d_model)), _ALL_KEPT, (2, 2)]),
    "VitDims": (VitDims, [8, 1, 2, 2.0, 2, 1, 1]),
    "LlmDims": (LlmDims, [8, 1, 2, 2.0]),
    "WorkloadSpec": (WorkloadSpec, _WORK),
    "estimate": (lambda *work: estimate(_PROFILE, WorkloadSpec(*work)), _WORK),
    "compare": (lambda *work: compare(estimate(_PROFILE, WorkloadSpec(*work)),
                                      estimate(_PROFILE, WorkloadSpec(*_WORK))), _WORK),
    "CostReport": (CostReport, [dict(_REPORT.breakdown), _REPORT.visual_tokens_dense,
                                _REPORT.visual_tokens_retained, _REPORT.merged_tokens]),
}

# Public callables that take no near-valid arguments in the sense above.
NOT_FUZZED = {
    # exception classes
    "FormatError", "ValidationError",
    # byte and text readers: the CLI's TestFileFuzz drives them with whole files
    "read_events_bin", "read_events_csv", "read_features", "read_ppm", "mask_from_text",
    "load_arch_profile", "load_encoder_config", "load_shipped_profile",
    # a record of records, checked where its fields are built
    "ArchProfile",
}


_FRAME = EventFrame(_RNG.integers(0, 5, size=(4, 6)))
_MASK = PatchMask(_BITS, 0.5)
_PACKED = pack_patches(_PATCHES, _MASK)

# name -> (callable, valid arguments, indices of the record arguments)
RECORD_CASES = {
    "accumulate": (accumulate, [EventStream(*_STREAM), 1, 4], [0]),
    "resize_to": (resize_to, [_FRAME, 5, 2], [0]),
    "write_events_bin": (write_events_bin, [EventStream(*_STREAM)], [0]),
    "patch_scores": (patch_scores, [_FRAME, 2], [0]),
    "quantile_mask": (quantile_mask, [_FRAME, 0.5, 1], [0]),
    "apply_mask_to_image": (apply_mask_to_image, [_IMAGE, _MASK, 2, (0, 0, 0)], [1]),
    "mask_to_text": (mask_to_text, [_MASK], [0]),
    "pack_patches": (pack_patches, [_PATCHES, _MASK], [1]),
    "unpack_scatter": (unpack_scatter, [_PACKED, np.zeros(_ENCODER.patch_dim)], [0]),
    "apply_rope": (apply_rope, [_ROPE, (2, 3), np.ones(8)], [0]),
    "apply_rope_many": (apply_rope_many, [_ROPE, np.array([[2, 3]]), np.ones((1, 8))], [0]),
    "encode_dense": (encode_dense, [_PATCHES, _GRID_ROPE, _WEIGHTS, _ENCODER], [1, 2, 3]),
    "encode_packed": (encode_packed, [_PACKED, _GRID_ROPE, _WEIGHTS, _ENCODER], [0, 1, 2, 3]),
    "encode_masked_dense_oracle": (encode_masked_dense_oracle,
                                   [_PATCHES, _GRID_ROPE, _MASK, _WEIGHTS, _ENCODER],
                                   [1, 2, 3, 4]),
    "merge_project": (merge_project, [encode_dense(_PATCHES, _GRID_ROPE, _WEIGHTS, _ENCODER),
                                      _ENCODER, _WEIGHTS], [0, 1, 2]),
    "init_weights": (init_weights, [_ENCODER], [0]),
    "EncoderWeights": (EncoderWeights, [_ENCODER], [0]),
    "estimate": (estimate, [_PROFILE, WorkloadSpec(*_WORK)], [0, 1]),
    "compare": (compare, [_REPORT, _REPORT], [0, 1]),
    "ArchProfile": (ArchProfile, [_PROFILE.name, _PROFILE.vit, _PROFILE.llm], [0, 1, 2]),
}


@pytest.mark.parametrize("name", RECORD_CASES)
def test_a_record_argument_of_another_type_is_a_validation_error(name):
    # each raised AttributeError, or was accepted (ArchProfile)
    call, valid, records = RECORD_CASES[name]
    assert call(*valid) is not None
    for i in records:
        other = _MASK if isinstance(valid[i], EventFrame) else _FRAME
        for value in (None, "text", other):
            if type(value) is type(valid[i]):
                continue
            with pytest.raises(ValidationError, match=f"must be an? {type(valid[i]).__name__}, "
                                                      f"got {type(value).__name__}"):
                call(*valid[:i], value, *valid[i + 1:])


def test_every_public_callable_is_fuzzed_or_excluded():
    public = {name for name in evprune.__all__ if callable(getattr(evprune, name))}
    assert public == set(CASES) | NOT_FUZZED
    assert not set(CASES) & NOT_FUZZED


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_near_valid_arguments_return_or_raise_domain_errors(name, data):
    call, valid = CASES[name]
    args = [data.draw(st.sampled_from([arg, *near_valid(arg)])) for arg in valid]
    try:
        call(*args)
    except (ValidationError, FormatError):
        pass


@pytest.mark.parametrize("name", CASES)
def test_each_near_valid_argument_alone_returns_or_raises_domain_errors(name):
    call, valid = CASES[name]
    for i, arg in enumerate(valid):
        for value in near_valid(arg):
            try:
                call(*valid[:i], value, *valid[i + 1:])
            except (ValidationError, FormatError):
                pass


@pytest.mark.parametrize("name", CASES)
def test_valid_arguments_return_a_value(name):
    call, valid = CASES[name]
    assert call(*valid) is not None


@pytest.mark.parametrize("call", [
    lambda: patchify(np.zeros((4, 4)), True),
    lambda: build_rope(True, True, 4),
    lambda: retained_count(0.5, True),
    lambda: EventStream(True, True, [0], [0], [0], [1]),
    lambda: PackedSequence(np.zeros((1, 2)), np.array([[0, 0]]), (True, True)),
], ids=["patchify", "build_rope", "retained_count", "EventStream", "PackedSequence"])
def test_a_bool_is_not_an_integer(call):
    # each took True as 1
    with pytest.raises(ValidationError, match="must be an integer, got True"):
        call()


def held_arrays(value, path: str, held: bool = False):
    """(path, array) for every ndarray that a record within ``value`` holds."""
    if isinstance(value, np.ndarray):
        if held:
            yield path, value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from held_arrays(getattr(value, f.name), f"{path}.{f.name}", True)
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from held_arrays(item, f"{path}[{i}]", held)


def test_every_array_a_public_record_holds_is_read_only():
    # the encoder weights were writable, and flags.writeable = True reopened
    # every other record's arrays
    arrays = []
    for name, (call, valid) in CASES.items():
        record, value = getattr(evprune, name), call(*valid)
        if isinstance(record, type) and not isinstance(value, record):
            value = record(*valid)  # the case calls the record and applies it
        arrays += held_arrays(value, name)
    assert {path.split(".")[0] for path, _ in arrays} >= {
        "EventStream", "EventFrame", "PatchMask", "PackedSequence", "RopeTable",
        "init_weights", "EncoderWeights"}
    assert [path for path, arr in arrays if arr.flags.writeable] == []
    reopened = []
    for path, arr in arrays:
        for seen in (arr, arr.view()):
            try:
                seen.flags.writeable = True
            except ValueError:
                continue
            reopened.append(path)
    assert reopened == []
