"""framepress: desk-scale video token compression.

Per-frame patch features are compressed by a learnable-query
cross-attention adapter, scored by the attention each output token paid
to its best source patch, pruned to the top-K per frame, and assembled
into a decoder-ready sequence — with a calibrated compute cost model,
dataset curriculum tools, and a self-verification suite around it.
"""

from .adapter import (
    AdapterGrads,
    AdapterOutput,
    AdapterParams,
    adapt_video,
    adapter_gradients,
    init_adapter_params,
    load_checkpoint,
    save_checkpoint,
)
from .cost import (
    CalibrationResult,
    CostConfig,
    CostReport,
    REFERENCE_TOTALS,
    calibrate,
    calibrated_config,
    estimate,
    sweep,
)
from .curriculum import (
    StagePlan,
    StageSpec,
    filter_file,
    make_plan,
    subsample_file,
)
from .encoder import (
    ImagePlane,
    VideoTokenTensor,
    patchify_encode,
    synthetic_video,
)
from .errors import (
    EmptyInputError,
    FitError,
    FormatError,
    FramepressError,
    NumericError,
    ParameterError,
    PlanError,
    ShapeError,
)
from .pipeline import (
    RunReport,
    SequenceAssembly,
    ToyTaskSpec,
    assemble_sequence,
    train_toy,
)
from .sampler import (
    SampledTokens,
    compress_video,
    sample_video,
    score_frame,
    select_topk,
)
from .verify import verify_all

__version__ = "0.1.0"

__all__ = [
    "AdapterGrads",
    "AdapterOutput",
    "AdapterParams",
    "CalibrationResult",
    "CostConfig",
    "CostReport",
    "EmptyInputError",
    "FitError",
    "FormatError",
    "FramepressError",
    "ImagePlane",
    "NumericError",
    "ParameterError",
    "PlanError",
    "REFERENCE_TOTALS",
    "RunReport",
    "SampledTokens",
    "SequenceAssembly",
    "ShapeError",
    "StagePlan",
    "StageSpec",
    "ToyTaskSpec",
    "VideoTokenTensor",
    "adapt_video",
    "adapter_gradients",
    "assemble_sequence",
    "calibrate",
    "calibrated_config",
    "compress_video",
    "estimate",
    "filter_file",
    "init_adapter_params",
    "load_checkpoint",
    "make_plan",
    "patchify_encode",
    "sample_video",
    "save_checkpoint",
    "score_frame",
    "select_topk",
    "subsample_file",
    "sweep",
    "synthetic_video",
    "train_toy",
    "verify_all",
]
