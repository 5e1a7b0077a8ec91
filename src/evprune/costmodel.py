"""Analytic MAC/FLOP accounting for the sparse visual pipeline.

Counts only the transformer's matrix-multiply work (projections,
attention score and mix matmuls, MLP layers), so flops = 2 * macs holds
identically. Softmax is O(heads*n^2) per layer and normalization and
activations are O(n*d); none is a matmul, so all are excluded. The
patch-embedding matmul (n*p^2*C*d MACs for n patches) is not counted.

Per transformer layer over n tokens of width d with MLP hidden size h:

    macs = 4*n*d^2  (Q, K, V, output projections)
         + 2*n^2*d  (attention logits + value mix)
         + 2*n*d*h  (MLP up + down)

The pipeline stages are the visual encoder over retained patches, the
merge MLP over merged cells, LLM prefill over merged visual plus text
tokens, and optional LLM decode with cached context (per step: one
token's projections and MLP, attention over the grown context).

Sparsity convention: WorkloadSpec.tau is the fraction of visual tokens
DROPPED, the natural x-axis for savings curves. The mask-building API
uses the opposite (retained-fraction) convention; the two never share a
variable name without the suffix making it explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

from .errors import ValidationError
from .kvtext import (check_field_types, check_keys, decode_ascii, parse_kv, parse_record,
                     record_keys)
from .saliency import _merge_grid, retained_count

_STAGES = ("vit_attention", "vit_mlp", "merge", "llm_prefill", "llm_decode")


def mlp_width(d_model: int, mlp_ratio: float, what: str) -> int:
    """The MLP hidden width: d_model * mlp_ratio rounded, and at least 1.

    A product that is not a finite float is a ValidationError; ``what``
    names d_model in its message.
    """
    try:
        width = d_model * mlp_ratio
        finite = math.isfinite(width)
    except OverflowError:
        finite = False
    if not finite:
        raise ValidationError(f"{what} * mlp_ratio must be finite")
    return max(1, round(width))


@dataclass(frozen=True)
class VitDims:
    d_model: int
    n_layers: int
    n_heads: int
    mlp_ratio: float
    patch_size: int
    merge_size: int
    channels: int

    def __post_init__(self):
        check_field_types(self)
        dims = (self.d_model, self.n_layers, self.n_heads,
                self.patch_size, self.merge_size, self.channels)
        if any(v < 1 for v in dims) or self.mlp_ratio <= 0:
            raise ValidationError("all encoder dimensions must be >= 1")
        mlp_width(self.d_model, self.mlp_ratio, "vit d_model")

    @property
    def mlp_hidden(self) -> int:
        return mlp_width(self.d_model, self.mlp_ratio, "vit d_model")


@dataclass(frozen=True)
class LlmDims:
    d_model: int
    n_layers: int
    n_heads: int
    mlp_ratio: float

    def __post_init__(self):
        check_field_types(self)
        if min(self.d_model, self.n_layers, self.n_heads) < 1 or self.mlp_ratio <= 0:
            raise ValidationError("all LLM dimensions must be >= 1")
        mlp_width(self.d_model, self.mlp_ratio, "llm d_model")

    @property
    def mlp_hidden(self) -> int:
        return mlp_width(self.d_model, self.mlp_ratio, "llm d_model")


@dataclass(frozen=True)
class ArchProfile:
    name: str
    vit: VitDims
    llm: LlmDims


@dataclass(frozen=True)
class WorkloadSpec:
    image_height: int
    image_width: int
    tau: float  # fraction of visual tokens dropped
    text_tokens: int
    decode_tokens: int

    def __post_init__(self):
        check_field_types(self)
        if self.image_height < 0 or self.image_width < 0:
            raise ValidationError("image dimensions must be non-negative")
        if not 0.0 <= self.tau <= 1.0:
            raise ValidationError(f"tau must be in [0, 1], got {self.tau}")
        if self.text_tokens < 0 or self.decode_tokens < 0:
            raise ValidationError("token counts must be non-negative")


@dataclass(frozen=True)
class CostReport:
    macs: int
    flops: int
    breakdown: dict[str, int]  # per-stage MACs
    visual_tokens_dense: int
    visual_tokens_retained: int
    merged_tokens: int

    def __post_init__(self):
        if self.flops != 2 * self.macs:
            raise ValidationError("flops must equal 2 * macs in this model")
        if tuple(self.breakdown) != _STAGES:
            raise ValidationError(f"breakdown must cover stages {_STAGES}")
        if any(v < 0 for v in self.breakdown.values()) or self.macs < 0:
            raise ValidationError("costs must be non-negative")
        if self.visual_tokens_retained > self.visual_tokens_dense:
            raise ValidationError("retained tokens cannot exceed dense tokens")

    def to_dict(self) -> dict:
        d = {"macs_total": self.macs, "flops_total": self.flops}
        for stage in _STAGES:
            d[f"macs_{stage}"] = self.breakdown[stage]
        d["visual_tokens_dense"] = self.visual_tokens_dense
        d["visual_tokens_retained"] = self.visual_tokens_retained
        d["merged_tokens"] = self.merged_tokens
        return d


@dataclass(frozen=True)
class CostReduction:
    flops_pct: float
    macs_pct: float

    def to_dict(self) -> dict:
        return {
            "reduction_flops_pct": self.flops_pct,
            "reduction_macs_pct": self.macs_pct,
        }


def _layer_macs(n: int, d: int, hidden: int) -> tuple[int, int]:
    """(attention MACs, MLP MACs) for one layer over n tokens."""
    return 4 * n * d * d + 2 * n * n * d, 2 * n * d * hidden


def estimate(profile: ArchProfile, work: WorkloadSpec) -> CostReport:
    """Total matmul MACs/FLOPs for one image-plus-prompt pass.

    Retention happens at merge-cell granularity so the count agrees with
    what quantile_mask (retained fraction 1 - tau, merge groups) followed
    by pack actually produces.
    """
    vit, llm = profile.vit, profile.llm
    grid_rows = work.image_height // vit.patch_size
    grid_cols = work.image_width // vit.patch_size
    m = vit.merge_size
    cells = math.prod(_merge_grid(grid_rows, grid_cols, m))
    dense = cells * m * m
    kept_cells = retained_count(1.0 - work.tau, cells)
    retained = kept_cells * m * m

    attn, mlp = _layer_macs(retained, vit.d_model, vit.mlp_hidden)
    vit_attention = vit.n_layers * attn
    vit_mlp = vit.n_layers * mlp

    merge_in = vit.d_model * m * m
    merge = kept_cells * (merge_in * merge_in + merge_in * llm.d_model)

    prefill_tokens = kept_cells + work.text_tokens
    attn, mlp = _layer_macs(prefill_tokens, llm.d_model, llm.mlp_hidden)
    llm_prefill = llm.n_layers * (attn + mlp)

    # decode step t attends over prefill_tokens + t cached positions
    k = work.decode_tokens
    d = llm.d_model
    context_sum = k * prefill_tokens + k * (k + 1) // 2
    llm_decode = llm.n_layers * (
        k * 4 * d * d + 2 * d * context_sum + k * 2 * d * llm.mlp_hidden
    )

    breakdown = {
        "vit_attention": vit_attention,
        "vit_mlp": vit_mlp,
        "merge": merge,
        "llm_prefill": llm_prefill,
        "llm_decode": llm_decode,
    }
    macs = sum(breakdown.values())
    return CostReport(
        macs=macs,
        flops=2 * macs,
        breakdown=breakdown,
        visual_tokens_dense=dense,
        visual_tokens_retained=retained,
        merged_tokens=kept_cells,
    )


def compare(dense: CostReport, sparse: CostReport) -> CostReduction:
    """Signed percentage reduction of sparse relative to dense."""
    if dense.flops == 0 or dense.macs == 0:
        raise ValidationError("cannot compute reduction against zero dense cost")
    return CostReduction(
        flops_pct=100.0 * (dense.flops - sparse.flops) / dense.flops,
        macs_pct=100.0 * (dense.macs - sparse.macs) / dense.macs,
    )


def load_arch_profile(text: str) -> ArchProfile:
    kv = parse_kv(text)
    keys = ["name", *record_keys(VitDims, "vit."), *record_keys(LlmDims, "llm.")]
    check_keys(kv, keys, "arch profile")
    # VitDims validates before any llm.* value is parsed
    vit = parse_record(kv, VitDims, "vit.")
    return ArchProfile(kv["name"], vit, parse_record(kv, LlmDims, "llm."))


def shipped_profile_names() -> list[str]:
    root = resources.files("evprune").joinpath("profiles")
    return sorted(p.name[: -len(".cfg")] for p in root.iterdir() if p.name.endswith(".cfg"))


def load_shipped_profile(name: str) -> ArchProfile:
    """Load one of the profiles bundled with the package by bare name."""
    path = resources.files("evprune").joinpath("profiles", f"{name}.cfg")
    try:
        data = path.read_bytes()
    except (FileNotFoundError, OSError):
        raise ValidationError(
            f"no shipped profile {name!r}; available: {shipped_profile_names()}"
        ) from None
    return load_arch_profile(decode_ascii(data, f"shipped profile {name!r}"))
