"""Inference compute cost model.

Total decoder-side compute for one video query is modeled as

    total = c0 + c1 * k

in TFLOPs, where k is the number of kept tokens per frame: a fixed
overhead (vision encoder, adapter, prompt processing) and a linear term
for pushing the kept tokens through the decoder's dense layers. Both
coefficients are fit by least squares to measured (k, total) pairs.
"""

from __future__ import annotations

import io
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, ParameterError
from .linalg import _check_count, _check_real

# Measured end-to-end totals (kept tokens per frame -> TFLOPs) for an
# 8-frame pipeline over a 7B-class decoder; used as the default
# calibration points.
REFERENCE_TOTALS = (
    (4, 32.14),
    (16, 33.47),
    (32, 35.24),
    (64, 38.79),
    (128, 45.88),
    (256, 60.07),
)
REFERENCE_FRAMES = 8

# The largest count the model can price: a larger int has no float64 value.
MAX_COUNT = sys.float_info.max


def _priced_count(name: str, value) -> int:
    """A frame or token count as an int, refused unless it is in [1, MAX_COUNT]."""
    count = _check_count(name, value)
    if count > MAX_COUNT:  # not printed: it may run to hundreds of digits
        raise ParameterError(f"{name} must be at most {MAX_COUNT:.2g}")
    return count


@dataclass(frozen=True)
class CostConfig:
    """Inputs of one cost estimate.

    ``encoder_tflops`` and ``adapter_tflops`` are informational slices of
    the fixed overhead ``overhead_tflops`` — they must not exceed it.
    """

    frames: int
    tokens_per_frame: int
    overhead_tflops: float
    per_token_tflops: float
    encoder_tflops: float = 0.0
    adapter_tflops: float = 0.0

    def __post_init__(self):
        for name in ("frames", "tokens_per_frame"):
            object.__setattr__(self, name, _priced_count(name, getattr(self, name)))
        for name in ("overhead_tflops", "per_token_tflops", "encoder_tflops", "adapter_tflops"):
            object.__setattr__(self, name, _check_real(name, getattr(self, name)))
        if self.encoder_tflops + self.adapter_tflops > self.overhead_tflops + 1e-12:
            raise ParameterError(
                "encoder and adapter slices exceed the fixed overhead"
            )

    @property
    def sequence_len(self) -> int:
        return self.frames * self.tokens_per_frame


@dataclass(frozen=True)
class CostReport:
    """One estimate, broken into parts that sum exactly to the total."""

    tokens_per_frame: int
    sequence_len: int
    total_tflops: float
    encoder_tflops: float
    adapter_tflops: float
    llm_linear_tflops: float

    def __post_init__(self):
        # An overflowed total would pass the sum check: inf - inf is NaN.
        if not np.isfinite(self.total_tflops):
            raise NumericError(
                f"the cost at k={self.tokens_per_frame} overflows float64"
            )
        parts = self.encoder_tflops + self.adapter_tflops + self.llm_linear_tflops
        if abs(parts - self.total_tflops) > 1e-9 * max(1.0, abs(self.total_tflops)):
            raise ParameterError("cost breakdown does not sum to the total")


def estimate(cfg: CostConfig) -> CostReport:
    """Evaluate the cost model at one configuration."""
    linear = (
        cfg.overhead_tflops
        - cfg.encoder_tflops
        - cfg.adapter_tflops
        + cfg.per_token_tflops * cfg.tokens_per_frame
    )
    return CostReport(
        tokens_per_frame=cfg.tokens_per_frame,
        sequence_len=cfg.sequence_len,
        total_tflops=cfg.encoder_tflops + cfg.adapter_tflops + linear,
        encoder_tflops=cfg.encoder_tflops,
        adapter_tflops=cfg.adapter_tflops,
        llm_linear_tflops=linear,
    )


@dataclass(frozen=True)
class CalibrationResult:
    """Least-squares coefficients and per-point residuals."""

    overhead_tflops: float  # c0
    per_token_tflops: float  # c1
    points: tuple[tuple[int, float], ...]
    residuals: tuple[float, ...]

    @property
    def max_abs_residual(self) -> float:
        return max(abs(r) for r in self.residuals)


def calibrate(points=REFERENCE_TOTALS) -> CalibrationResult:
    """Fit c0 and c1 to measured (k, total) pairs."""
    pts = []
    for k, total in points:
        k = _priced_count("calibration k", k)
        pts.append((k, _check_real(f"the calibration total at k={k}", total)))
    if len(pts) < 2:
        raise ParameterError(f"need at least 2 calibration points, got {len(pts)}")
    ks = np.array([k for k, _ in pts], dtype=np.float64)
    totals = np.array([t for _, t in pts], dtype=np.float64)
    design = np.stack([np.ones_like(ks), ks], axis=1)
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise ParameterError("calibration points are degenerate (identical k values)")
    # Totals near the float64 limit overflow the fit; that is refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        coef, *_ = np.linalg.lstsq(design, totals, rcond=None)
        residuals = totals - design @ coef
    if not (np.all(np.isfinite(coef)) and np.all(np.isfinite(residuals))):
        raise NumericError("the fit of c0 and c1 to these points overflows float64")
    return CalibrationResult(
        overhead_tflops=float(coef[0]),
        per_token_tflops=float(coef[1]),
        points=tuple(pts),
        residuals=tuple(float(r) for r in residuals),
    )


def calibrated_config(
    result: CalibrationResult,
    frames: int = REFERENCE_FRAMES,
    tokens_per_frame: int = 128,
    encoder_tflops: float = 0.0,
    adapter_tflops: float = 0.0,
) -> CostConfig:
    """A cost configuration using fitted coefficients."""
    return CostConfig(
        frames=frames,
        tokens_per_frame=tokens_per_frame,
        overhead_tflops=result.overhead_tflops,
        per_token_tflops=result.per_token_tflops,
        encoder_tflops=encoder_tflops,
        adapter_tflops=adapter_tflops,
    )


def sweep(k_values, template: CostConfig) -> tuple[CostReport, ...]:
    """Estimates over a range of kept-token budgets, other inputs fixed."""
    ks = list(k_values)
    if not ks:
        raise ParameterError("sweep needs at least one k value")
    return tuple(estimate(replace(template, tokens_per_frame=k)) for k in ks)


def sweep_csv(k_values, template: CostConfig) -> str:
    """CSV rendering of :func:`sweep` (header plus one row per k)."""
    out = io.StringIO()
    out.write("k,total_tflops,encoder,adapter,llm_linear\n")
    for report in sweep(k_values, template):
        out.write(
            f"{report.tokens_per_frame},{report.total_tflops:.6f},"
            f"{report.encoder_tflops:.6f},{report.adapter_tflops:.6f},"
            f"{report.llm_linear_tflops:.6f}\n"
        )
    return out.getvalue()


def calibration_report_text(result: CalibrationResult) -> str:
    """Human-readable calibration summary."""
    lines = [
        f"overhead_tflops (c0):  {result.overhead_tflops:.6f}",
        f"per_token_tflops (c1): {result.per_token_tflops:.6f}",
        f"max |residual|:        {result.max_abs_residual:.6f}",
        "point residuals:",
    ]
    for (k, total), res in zip(result.points, result.residuals):
        lines.append(f"  k={k:<4d} measured={total:<8.2f} residual={res:+.4f}")
    return "\n".join(lines) + "\n"
