"""End-to-end orchestration: sequence assembly, toy training, run reports.

The toy task stands in for the late video-tuning stage of the real
recipe at desk scale: synthetic videos hide a signal vector in a few
patches per frame, the regression target is a linear readout of the mean
signal-patch feature, and the adapter + top-K sampler + linear head are
trained by plain full-batch gradient descent. Because only the signal
patches matter, a sampler that keeps the right tokens should track the
no-pruning baseline closely — which is exactly what the verification
suite measures.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import cost
from .adapter import (
    AdapterGrads,
    AdapterParams,
    adapt_video,
    adapter_gradients,
    apply_grads,
    init_adapter_params,
)
from .encoder import VideoTokenTensor
from .errors import NumericError, ParameterError, ShapeError
from .linalg import _read_only, split_rng
from .sampler import SampledTokens, sample_video

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SequenceAssembly:
    """The decoder-ready token sequence for one video plus prompt budget.

    It holds the (T, K, C) kept tokens of a :class:`SampledTokens`; the
    concatenated sequence and the frame boundaries follow from their
    shape. Like SampledTokens, it checks shapes only; writing non-finite
    tokens to FTV1 raises NumericError.
    """

    frame_tokens: np.ndarray  # (T, K, C)
    prompt_len: int

    def __post_init__(self):
        tokens = _read_only(self.frame_tokens, "frame tokens", ndim=3)
        if 0 in tokens.shape[:2]:
            raise ShapeError(f"a sequence needs frames and kept rows, got shape {tokens.shape}")
        if self.prompt_len < 0:
            raise ParameterError(f"prompt_len must be >= 0, got {self.prompt_len}")
        object.__setattr__(self, "frame_tokens", tokens)

    @property
    def video_tokens(self) -> np.ndarray:
        """The (T*K, C) sequence, frames concatenated in order."""
        t, k, c = self.frame_tokens.shape
        return self.frame_tokens.reshape(t * k, c)

    @property
    def frame_count(self) -> int:
        return self.frame_tokens.shape[0]

    @property
    def frame_boundaries(self) -> tuple[int, ...]:
        """The T+1 fence posts of the frames in :attr:`video_tokens`."""
        k = self.frame_tokens.shape[1]
        return tuple(k * i for i in range(self.frame_count + 1))

    @property
    def total_len(self) -> int:
        return self.video_tokens.shape[0] + self.prompt_len

    def frame_block(self, t: int) -> np.ndarray:
        return self.frame_tokens[t]


def assemble_sequence(sampled: SampledTokens, prompt_len: int) -> SequenceAssembly:
    """Concatenate kept tokens frame by frame and account for the prompt."""
    return SequenceAssembly(sampled.tokens, prompt_len)


@dataclass(frozen=True)
class ToyTaskSpec:
    """Configuration of the synthetic signal-patch regression task."""

    seed: int = 0
    frames: int = 8
    grid_h: int = 8
    grid_w: int = 8
    feature_dim: int = 32
    queries: int = 32
    embed_dim: int = 32
    keep: int = 16
    out_dim: int = 8
    signal_patches: int = 4
    noise_scale: float = 0.05
    steps: int = 150
    learning_rate: float = 0.5
    batch_videos: int = 4

    def __post_init__(self):
        m = self.grid_h * self.grid_w
        if self.frames < 1 or self.grid_h < 1 or self.grid_w < 1:
            raise ParameterError("frames and grid dims must be >= 1")
        if self.feature_dim < 1 or self.queries < 1 or self.embed_dim < 1:
            raise ParameterError("feature_dim, queries and embed_dim must be >= 1")
        if self.out_dim < 1 or self.batch_videos < 1:
            raise ParameterError("out_dim and batch_videos must be >= 1")
        if not 1 <= self.signal_patches <= m:
            raise ParameterError(
                f"signal_patches must be in [1, {m}], got {self.signal_patches}"
            )
        if not 1 <= self.keep <= self.queries:
            raise ParameterError(
                f"keep must be in [1, {self.queries}], got {self.keep}"
            )
        if self.steps < 0:
            raise ParameterError(f"steps must be >= 0, got {self.steps}")
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ParameterError("learning_rate must be finite and >= 0")
        if not np.isfinite(self.noise_scale) or self.noise_scale < 0:
            raise ParameterError("noise_scale must be finite and >= 0")

    @property
    def patch_tokens(self) -> int:
        return self.grid_h * self.grid_w


def spec_from_dict(raw: dict) -> ToyTaskSpec:
    """Build a :class:`ToyTaskSpec` from parsed config text.

    Unknown keys are rejected, and each value must have its default's type:
    an int field takes an int (not a bool), a float field an int or a float.
    """
    defaults = asdict(ToyTaskSpec())
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ParameterError(f"unknown config keys {sorted(unknown)}")
    fields = {}
    for key, value in raw.items():
        want = type(defaults[key])
        allowed = (int, float) if want is float else (want,)
        try:
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise TypeError
            fields[key] = want(value)
        except (TypeError, OverflowError):  # float() overflows past 1.8e308
            raise ParameterError(
                f"config key {key!r} must be {want.__name__}, "
                f"got {type(value).__name__} {value!r}"
            ) from None
    return ToyTaskSpec(**fields)


@dataclass(frozen=True)
class RunReport:
    """A serializable record of one run (training or verification)."""

    kind: str
    config: dict
    loss_curve: tuple[float, ...]
    final_metrics: dict
    checks: tuple[dict, ...]
    cost_summary: dict
    schema_version: int = field(init=False, default=SCHEMA_VERSION)

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        raw = json.loads(text)
        if raw.get("schema_version") != SCHEMA_VERSION:
            raise ParameterError(
                f"unsupported report schema {raw.get('schema_version')!r}"
            )
        return cls(
            kind=raw["kind"],
            config=raw["config"],
            loss_curve=tuple(raw["loss_curve"]),
            final_metrics=raw["final_metrics"],
            checks=tuple(raw["checks"]),
            cost_summary=raw["cost_summary"],
        )


def _make_batch(spec: ToyTaskSpec, data_rng, target_rng):
    """The batch's videos and their (B, out) regression targets."""
    b, t = spec.batch_videos, spec.frames
    m, d, s = spec.patch_tokens, spec.feature_dim, spec.signal_patches
    # A noise_scale near the float64 limit overflows the draw: bad input,
    # refused below, not a divergence for the step loop to report.
    with np.errstate(over="ignore", invalid="ignore"):
        feats = spec.noise_scale * data_rng.normal(size=(b, t, m, d))
        positions = []
        for vb in range(b):
            per_frame = []
            for ft in range(t):
                pos = data_rng.choice(m, size=s, replace=False)
                feats[vb, ft, pos, :] += data_rng.normal(size=d)
                per_frame.append(np.sort(pos))
            positions.append(per_frame)
        readout = target_rng.normal(size=(d, spec.out_dim)) / np.sqrt(d)
        targets = np.empty((b, spec.out_dim))
        for vb in range(b):
            signal_mean = np.mean(
                [feats[vb, ft, positions[vb][ft], :].mean(axis=0) for ft in range(t)],
                axis=0,
            )
            targets[vb] = signal_mean @ readout
    if not (np.all(np.isfinite(feats)) and np.all(np.isfinite(targets))):
        raise ParameterError(
            f"noise_scale {spec.noise_scale} overflows the drawn toy batch"
        )
    # Read-only, so each video wraps a view of the batch without a copy.
    feats.setflags(write=False)
    videos = [
        VideoTokenTensor(feats[vb].reshape(t, spec.grid_h, spec.grid_w, d))
        for vb in range(b)
    ]
    return videos, targets


def _forward(spec: ToyTaskSpec, videos, targets, params: AdapterParams, head):
    """The loss and what the backward pass reads: the pooled tokens, the
    prediction error and the kept tokens of each video."""
    outputs = [adapt_video(video, params) for video in videos]
    sampled = [sample_video(out, spec.keep) for out in outputs]
    pooled = np.stack(
        [s.tokens.reshape(-1, s.width).mean(axis=0) for s in sampled]
    )  # (B, C)
    diff = pooled @ head - targets  # (B, out)
    loss = float(np.mean(diff**2))
    return loss, pooled, diff, sampled


def train_toy(spec: ToyTaskSpec) -> RunReport:
    """Run the toy regression end to end and report the loss curve.

    Trainable tensors: the adapter's input projection, query bank and
    temporal table, plus the readout head. The positional table stays at
    its initialization, and the per-step token selection is treated as a
    constant of the forward pass. Raises a numeric error naming the step
    if the loss leaves the finite range.
    """
    data_rng, target_rng = split_rng(spec.seed, 2)
    videos, targets = _make_batch(spec, data_rng, target_rng)
    params = init_adapter_params(
        queries=spec.queries,
        width=spec.embed_dim,
        feature_dim=spec.feature_dim,
        grid_h=spec.grid_h,
        grid_w=spec.grid_w,
        frames=spec.frames,
        seed=spec.seed,
    )
    head = (
        (target_rng.normal(size=(spec.embed_dim, spec.out_dim)) / np.sqrt(spec.embed_dim))
        .astype(np.float32)
        .astype(np.float64)
    )

    b, t, k = spec.batch_videos, spec.frames, spec.keep
    c = spec.embed_dim
    denom = b * spec.out_dim
    zero_pos = np.zeros_like(params.pos_table)
    curve = []
    for step in range(spec.steps + 1):
        try:
            # Overflow here is not a bug to warn about — it is the
            # divergence this loop reports by step index.
            with np.errstate(over="ignore", invalid="ignore"):
                loss, pooled, diff, sampled = _forward(
                    spec, videos, targets, params, head
                )
        except NumericError as exc:
            raise NumericError(f"loss diverged at step {step}: {exc}") from exc
        if not np.isfinite(loss):
            raise NumericError(f"loss diverged at step {step}: loss={loss}")
        curve.append(loss)
        if step == spec.steps:
            break
        g_preds = 2.0 * diff / denom  # (B, out)
        g_head = pooled.T @ g_preds
        g_pooled = g_preds @ head.T  # (B, C)
        g_proj = np.zeros_like(params.input_proj)
        g_queries = np.zeros_like(params.queries)
        g_temporal = np.zeros_like(params.temporal)
        for vb in range(b):
            # Mean pooling spreads the gradient evenly over the kept tokens.
            row_grads = np.broadcast_to(g_pooled[vb] / (t * k), (t, k, c))
            grads = adapter_gradients(videos[vb], params, sampled[vb].indices, row_grads)
            g_proj += grads.input_proj
            g_queries += grads.queries
            g_temporal += grads.temporal
        # The positional table is not trained: its step is zero.
        grads = AdapterGrads(g_proj, g_queries, zero_pos, g_temporal)
        try:
            params = apply_grads(params, grads, spec.learning_rate)
        except NumericError as exc:
            raise NumericError(f"loss diverged at step {step}: {exc}") from exc
        head = head - spec.learning_rate * g_head

    calibration = cost.calibrate()
    cost_cfg = cost.calibrated_config(
        calibration, frames=spec.frames, tokens_per_frame=spec.keep
    )
    return RunReport(
        kind="train-toy",
        config=asdict(spec),
        loss_curve=tuple(curve),
        final_metrics={
            "initial_loss": curve[0],
            "final_loss": curve[-1],
            "steps_run": spec.steps,
        },
        checks=(),
        cost_summary=cost.estimate(cost_cfg).as_dict(),
    )

