"""Event-guided visual token sparsification: event handling, patch
saliency masks, position-preserving packing, a toy encoder that proves
packed inference matches masked-dense inference, and an analytic cost
model for the savings."""

__version__ = "0.1.0"

from .costmodel import (
    ArchProfile,
    CostReport,
    LlmDims,
    VitDims,
    WorkloadSpec,
    compare,
    estimate,
    load_arch_profile,
    load_shipped_profile,
)
from .encoder import (
    EncoderConfig,
    EncoderWeights,
    encode_dense,
    encode_masked_dense_oracle,
    encode_packed,
    init_weights,
    load_encoder_config,
    merge_project,
    patchify,
)
from .errors import FormatError, ValidationError
from .events import (
    EventFrame,
    EventStream,
    accumulate,
    read_events_bin,
    read_events_csv,
    resize_to,
    simulate_events,
    write_events_bin,
)
from .featio import read_features, write_features
from .packing import PackedSequence, pack_patches, unpack_scatter
from .ppm import read_ppm, to_gray01, write_ppm
from .rope2d import RopeTable, apply_rope, apply_rope_many, build_rope, rope_matrix
from .saliency import (
    PatchMask,
    apply_mask_to_image,
    mask_from_text,
    mask_to_text,
    patch_scores,
    quantile_mask,
    retained_count,
)

__all__ = [name for name in dir() if not name.startswith("_")]
