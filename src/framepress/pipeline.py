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
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import cost
from .adapter import AdapterParams, adapt_video, adapter_gradients, init_adapter_params
from .encoder import VideoTokenTensor
from .errors import NumericError, ParameterError, ShapeError
from .ftv1 import _parse_json
from .linalg import _check_count, _check_real, _read_only, split_rng
from .sampler import SampledTokens, sample_video

SCHEMA_VERSION = 1
# What a report field of each annotation must be in JSON: the type, the
# types of a list's items, and how an error names it.
_JSON_OF = {
    "str": (str, (), "a string"),
    "dict": (dict, (), "an object"),
    "tuple[float, ...]": (list, (int, float), "a list of numbers"),
    "tuple[dict, ...]": (list, (dict,), "a list of objects"),
}


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
        object.__setattr__(self, "prompt_len", _check_count("prompt_len", self.prompt_len, low=0))
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
        # Each field in declaration order, by the package's one count or
        # real rule, stored as the plain value the rule returns; the bounds
        # on keep and signal_patches read fields that have already passed.
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            if type(f.default) is float:
                value = _check_real(name, value)
            elif name == "keep":
                value = _check_count(name, value, high=self.queries)
            elif name == "signal_patches":
                value = _check_count(name, value, high=self.patch_tokens)
            else:
                value = _check_count(name, value, low=0 if name in ("seed", "steps") else 1)
            object.__setattr__(self, name, value)

    @property
    def patch_tokens(self) -> int:
        return self.grid_h * self.grid_w


def spec_from_dict(raw: dict) -> ToyTaskSpec:
    """Build a :class:`ToyTaskSpec` from parsed config text, refusing
    unknown keys; the spec itself checks each value."""
    unknown = set(raw) - {f.name for f in fields(ToyTaskSpec)}
    if unknown:
        raise ParameterError(f"unknown config keys {sorted(unknown)}")
    return ToyTaskSpec(**raw)


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
        raw = _parse_json(text, "unreadable report")
        if not isinstance(raw, dict):
            raise ParameterError(f"a report must be a JSON object, got {type(raw).__name__}")
        if raw.get("schema_version") != SCHEMA_VERSION:
            raise ParameterError(f"unsupported report schema {raw.get('schema_version')!r}")
        values = {}
        for f in (f for f in fields(cls) if f.init):
            if f.name not in raw:
                raise ParameterError(f"report field '{f.name}' is missing")
            want, items, what = _JSON_OF[f.type]
            value = raw[f.name]
            if type(value) is not want or (want is list and any(type(v) not in items for v in value)):
                raise ParameterError(f"report field '{f.name}' must be {what}")
            values[f.name] = tuple(value) if want is list else value
        return cls(**values)


def _make_batch(spec: ToyTaskSpec, data_rng, target_rng):
    """The batch as one video of B·T frames, video by video, and its (B, out)
    regression targets."""
    b, t = spec.batch_videos, spec.frames
    m, d, s = spec.patch_tokens, spec.feature_dim, spec.signal_patches
    # A noise_scale near the float64 limit overflows the draw: bad input,
    # refused below, not a divergence for the step loop to report.
    with np.errstate(over="ignore", invalid="ignore"):
        feats = spec.noise_scale * data_rng.normal(size=(b * t, m, d))
        signal = np.empty((b * t, d))  # each frame's mean signal-patch feature
        for f in range(b * t):
            pos = np.sort(data_rng.choice(m, size=s, replace=False))
            feats[f, pos] += data_rng.normal(size=d)
            signal[f] = feats[f, pos].mean(axis=0)
        readout = target_rng.normal(size=(d, spec.out_dim)) / np.sqrt(d)
        targets = signal.reshape(b, t, d).mean(axis=1) @ readout
    if not (np.all(np.isfinite(feats)) and np.all(np.isfinite(targets))):
        raise ParameterError(
            f"noise_scale {spec.noise_scale} overflows the drawn toy batch"
        )
    # Read-only, so the B videos' frames, in order, are one video that
    # wraps the draw without a copy.
    feats.setflags(write=False)
    video = VideoTokenTensor(feats.reshape(b * t, spec.grid_h, spec.grid_w, d))
    return video, targets


def train_toy(spec: ToyTaskSpec) -> RunReport:
    """Run the toy regression end to end and report the loss curve.

    Trainable tensors: the adapter's input projection, query bank and
    temporal table, plus the readout head. The positional table stays at
    its initialization, and the per-step token selection is treated as a
    constant of the forward pass. Each step runs the batch as one video of
    B·T frames, with the (T, D) temporal table tiled once per video.
    Raises a numeric error naming the step if the loss leaves the finite
    range.
    """
    b, t, k = spec.batch_videos, spec.frames, spec.keep
    c, lr = spec.embed_dim, spec.learning_rate
    data_rng, target_rng = split_rng(spec.seed, 2)
    video, targets = _make_batch(spec, data_rng, target_rng)
    params = init_adapter_params(
        queries=spec.queries,
        width=spec.embed_dim,
        feature_dim=spec.feature_dim,
        grid_h=spec.grid_h,
        grid_w=spec.grid_w,
        frames=spec.frames,
        seed=spec.seed,
    )
    temporal = params.temporal  # (T, D)
    params = replace(params, temporal=np.tile(temporal, (b, 1)))
    head = (
        (target_rng.normal(size=(spec.embed_dim, spec.out_dim)) / np.sqrt(spec.embed_dim))
        .astype(np.float32)
        .astype(np.float64)
    )

    curve = []
    for step in range(spec.steps + 1):
        try:
            # Overflow in the forward is not a bug to warn about — it is
            # the divergence this loop reports by step index.
            with np.errstate(over="ignore", invalid="ignore"):
                sampled = sample_video(adapt_video(video, params), k)
                pooled = sampled.tokens.reshape(b, t * k, c).mean(axis=1)  # (B, C)
                diff = pooled @ head - targets  # (B, out)
                loss = float(np.mean(diff**2))
            if not np.isfinite(loss):
                raise NumericError(f"loss={loss}")
            curve.append(loss)
            if step == spec.steps:
                break
            g_preds = 2.0 * diff / diff.size  # (B, out)
            g_head = pooled.T @ g_preds
            g_pooled = g_preds @ head.T  # (B, C)
            # Mean pooling spreads each video's gradient evenly over its T·K kept tokens.
            row_grads = np.broadcast_to(np.repeat(g_pooled / (t * k), t, axis=0)[:, None, :], (b * t, k, c))
            grads = adapter_gradients(video, params, sampled.indices, row_grads)
            temporal = temporal - lr * grads.temporal.reshape(b, t, -1).sum(axis=0)
            params = AdapterParams(
                input_proj=params.input_proj - lr * grads.input_proj,
                queries=params.queries - lr * grads.queries,
                pos_table=params.pos_table,  # not trained
                temporal=np.tile(temporal, (b, 1)),
            )
            head = head - lr * g_head
        except NumericError as exc:
            raise NumericError(f"loss diverged at step {step}: {exc}") from exc

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
        cost_summary=asdict(cost.estimate(cost_cfg)),
    )

