"""Self-verification suite.

Each check here guards one of the package's load-bearing properties:
cost-model calibration against the reference totals, exact subsample
arithmetic, sampler-vs-oracle agreement and nesting, attention validity,
analytic-vs-numeric gradients, permutation equivariance, compression
robustness on the toy task, determinism and file round-trips, and
sequence-length arithmetic. Checks never raise on a property violation —
failures are report content, with a counterexample in the detail string.
"""

from __future__ import annotations

import tempfile
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import cost, curriculum, ftv1
from .adapter import (
    AdapterGrads,
    adapt_video,
    adapter_gradients,
    random_adapter_params,
)
from .encoder import VideoTokenTensor, synthetic_video
from .errors import FramepressError
from .linalg import fd_gradient, make_rng, softmax_rows, split_rng
from .pipeline import RunReport, ToyTaskSpec, assemble_sequence, train_toy
from .sampler import SampledTokens, sample_video, score_frame, select_topk

# Fixed-seed toy configurations for the compression-robustness check.
# The pruned run keeps half the queries; the baseline keeps all of them.
# Recorded outcome of these exact specs: final loss 0.061321 (keep=16)
# vs 0.067787 (keep=32), a 9.5% relative gap against the 25% bound.
TOY_PRUNED_SPEC = ToyTaskSpec(
    seed=7, keep=16, batch_videos=12, steps=300, learning_rate=0.5
)
TOY_BASELINE_SPEC = replace(TOY_PRUNED_SPEC, keep=TOY_PRUNED_SPEC.queries)
TOY_REL_TOL = 0.25


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_reference_fit() -> CheckResult:
    """Cost-model calibration lands on the reference totals."""
    name = "cost_reference_fit"
    result = cost.calibrate()
    problems = []
    if abs(result.overhead_tflops - 31.70) > 0.05:
        problems.append(f"c0={result.overhead_tflops:.4f} not within 31.70±0.05")
    if abs(result.per_token_tflops - 0.1108) > 0.001:
        problems.append(f"c1={result.per_token_tflops:.5f} not within 0.1108±0.001")
    if result.max_abs_residual > 0.05:
        problems.append(f"max residual {result.max_abs_residual:.4f} > 0.05")
    for k, total in cost.REFERENCE_TOTALS:
        cfg = cost.calibrated_config(result, tokens_per_frame=k)
        got = cost.estimate(cfg).total_tflops
        if abs(got - total) > 0.05:
            problems.append(f"k={k}: estimate {got:.3f} vs measured {total:.3f}")
    if problems:
        return CheckResult(name, False, "; ".join(problems))
    return CheckResult(
        name,
        True,
        f"c0={result.overhead_tflops:.4f} c1={result.per_token_tflops:.5f} "
        f"max|res|={result.max_abs_residual:.5f}",
    )


def check_subsample_counts() -> CheckResult:
    """The video selection ``subsample_file`` runs hits the exact floor counts."""
    name = "subsample_counts"
    expectations = [
        (228_914, 0.1, 22_891),
        (13_040, 0.1, 1_304),
        (13_040, 0.3, 3_912),
        (13_040, 0.6, 7_824),
    ]
    ids = [f"vid{v:07d}" for v in range(228_914)]  # as synthetic_manifest writes them
    for videos, fraction, want in expectations:
        kept, _ = curriculum._kept_positions(ids[:videos], fraction, 13, None)
        if kept != sorted(set(kept)) or not set(kept) <= set(range(videos)):
            return CheckResult(name, False, "subsample invented records")
        got = len({ids[i] for i in kept})
        if got != want:
            return CheckResult(
                name, False, f"{videos} videos at {fraction} gave {got}, expected {want}"
            )
    return CheckResult(
        name, True, "228914@0.1->22891; 13040@0.1/0.3/0.6->1304/3912/7824"
    )


def _oracle_order(values: np.ndarray) -> list[int]:
    """Selection-sort ranking: repeatedly take the best remaining score,
    ties to the lowest index. Deliberately naive and independent of the
    production path."""
    remaining = list(range(values.size))
    order = []
    while remaining:
        best = remaining[0]
        for i in remaining[1:]:
            if values[i] > values[best]:
                best = i
        order.append(best)
        remaining.remove(best)
    return order


def check_sampler_oracle() -> CheckResult:
    """Top-K selection agrees with the brute-force oracle for every K (seed 2026)."""
    name = "sampler_oracle"
    streams = split_rng(2026, 1000)
    for case, rng in enumerate(streams):
        n = int(rng.integers(2, 33))
        m = int(rng.integers(2, 65))
        logits = rng.normal(size=(n, m))
        if rng.random() < 0.3 and n >= 3:
            # Duplicate attention rows to inject exact score ties.
            src = int(rng.integers(0, n))
            dup = int(rng.integers(0, n))
            logits[dup] = logits[src]
        scores = score_frame(softmax_rows(logits))
        oracle = _oracle_order(scores)
        for k in range(1, n + 1):
            got = set(select_topk(scores, k).tolist())
            want = set(oracle[:k])
            if got != want:
                return CheckResult(
                    name,
                    False,
                    f"case {case} (n={n}, m={m}, k={k}): selected {sorted(got)} "
                    f"vs oracle {sorted(want)}",
                )
    return CheckResult(name, True, f"{len(streams)} attention score vectors, every K, all equal")


def check_nesting() -> CheckResult:
    """Keep-sets nest: the selection for K sits inside the one for K+1 (seed 2027)."""
    name = "sampler_nesting"
    streams = split_rng(2027, 500)
    for case, rng in enumerate(streams):
        n = int(rng.integers(2, 33))
        # Coarse quantization makes exact ties common.
        values = np.round(rng.random(size=n), 1)
        prev = set(select_topk(values, 1).tolist())
        for k in range(2, n + 1):
            cur = set(select_topk(values, k).tolist())
            if not prev <= cur:
                return CheckResult(
                    name,
                    False,
                    f"case {case}: K={k - 1} keep-set {sorted(prev)} not inside "
                    f"K={k} keep-set {sorted(cur)} (scores {values.tolist()})",
                )
            prev = cur
    return CheckResult(name, True, f"{len(streams)} score vectors with ties, all nested")


def _single_frame_case(rng, n_hi: int, m_hi: int, d_hi: int, c_hi: int):
    """Random one-frame adapter params with a zero temporal table, and
    (M, D) features: N in [1, n_hi), M in [2, m_hi), D in [2, d_hi) and
    C in [2, c_hi)."""
    n = int(rng.integers(1, n_hi))
    m = int(rng.integers(2, m_hi))
    d = int(rng.integers(2, d_hi))
    c = int(rng.integers(2, c_hi))
    params = random_adapter_params(
        queries=n,
        width=c,
        feature_dim=d,
        source_tokens=m,
        frames=1,
        seed=int(rng.integers(0, 2**31)),
    )
    params = replace(params, temporal=np.zeros((1, d)))
    return params, rng.normal(size=(m, d))


def check_attention_validity() -> CheckResult:
    """Attention rows sum to one; relevance scores stay in [1/M, 1] (seed 2028)."""
    name = "attention_validity"
    streams = split_rng(2028, 1000)
    worst_sum = 0.0
    for case, rng in enumerate(streams):
        params, feats = _single_frame_case(rng, 17, 25, 13, 17)
        m = params.source_tokens
        try:
            out = adapt_video(VideoTokenTensor(feats[None, :, None, :]), params)
        except FramepressError as exc:  # AdapterOutput rejects rows off by > 1e-9
            return CheckResult(name, False, f"case {case}: {exc}")
        att = out.attention[0]
        row_dev = float(np.max(np.abs(att.sum(axis=1) - 1.0)))
        worst_sum = max(worst_sum, row_dev)
        r = score_frame(att)
        if r.min() < 1.0 / m or r.max() > 1.0:
            return CheckResult(
                name,
                False,
                f"case {case}: scores [{r.min():.6g}, {r.max():.6g}] "
                f"outside [1/{m}, 1]",
            )
    return CheckResult(
        name, True, f"{len(streams)} forward passes, worst row-sum dev {worst_sum:.2e}"
    )


def _grad_check_point(seed: int):
    """``(margin, errors)`` at one instance: the smallest gap between the
    K=2 kept score and the next over its frames, and each parameter field's
    relative gradient error."""
    k = 2
    video = synthetic_video(frames=2, grid_h=2, grid_w=2, feature_dim=3, seed=seed)
    params = random_adapter_params(
        queries=3, width=4, feature_dim=3, source_tokens=4, frames=2, seed=seed + 1
    )
    out = adapt_video(video, params)
    top = np.sort(score_frame(out.attention), axis=1)[:, ::-1]
    margin = float(np.min(top[:, k - 1] - top[:, k]))

    def loss_at(name: str, x: np.ndarray) -> float:
        p = replace(params, **{name: x.reshape(getattr(params, name).shape)})
        sampled = sample_video(adapt_video(video, p), k)
        return float(sum(np.sum(tok**2) for tok in sampled.tokens))

    sampled = sample_video(out, k)
    grads = adapter_gradients(video, params, sampled.indices, 2.0 * sampled.tokens)
    errs = {}
    for name in (f.name for f in fields(AdapterGrads)):
        fd = fd_gradient(partial(loss_at, name), getattr(params, name).ravel())
        num = np.linalg.norm(getattr(grads, name).ravel() - fd)
        errs[name] = num / max(np.linalg.norm(fd), 1e-12)
    return margin, errs


def check_gradients() -> CheckResult:
    """Hand-written backprop matches central finite differences at the 20
    points of seeds 2030-2049.

    The loss runs through the sampler (sum of squared kept tokens, K=2 of
    3 queries), and finite differences must not straddle a selection flip,
    so a point whose top-K boundary gap is under 1e-3 fails the check.
    """
    name = "gradient_correctness"
    points, tol, min_margin = 20, 1e-4, 1e-3
    worst = 0.0
    for seed in range(2030, 2030 + points):
        margin, errs = _grad_check_point(seed)
        if margin < min_margin:
            return CheckResult(
                name, False, f"point seed={seed}: top-K margin {margin:.3e} < {min_margin:g}"
            )
        for field_name, err in errs.items():
            worst = max(worst, err)
            if err > tol:
                return CheckResult(
                    name,
                    False,
                    f"point seed={seed}: {field_name} relative error "
                    f"{err:.3e} > {tol:g}",
                )
    return CheckResult(name, True, f"{points} points, worst relative error {worst:.2e}")


def check_permutation_equivariance() -> CheckResult:
    """With the positional table zeroed, shuffling source tokens changes
    nothing about the compressed output (seed 2030)."""
    name = "permutation_equivariance"
    streams = split_rng(2030, 100)
    worst = 0.0
    for case, rng in enumerate(streams):
        params, feats = _single_frame_case(rng, 9, 17, 9, 13)
        params = replace(params, pos_table=np.zeros_like(params.pos_table))
        n, m = params.query_count, params.source_tokens
        perm = rng.permutation(m)
        out1 = adapt_video(VideoTokenTensor(feats[None, :, None, :]), params)
        out2 = adapt_video(VideoTokenTensor(feats[None, perm, None, :]), params)
        diff = float(np.max(np.abs(out1.tokens - out2.tokens)))
        att_diff = float(np.max(np.abs(out1.attention[..., perm] - out2.attention)))
        worst = max(worst, diff, att_diff)
        if diff > 1e-12 or att_diff > 1e-12:
            return CheckResult(
                name,
                False,
                f"case {case} (n={n}, m={m}): output moved by {diff:.3e}, "
                f"attention by {att_diff:.3e}",
            )
    return CheckResult(name, True, f"{len(streams)} permutations, worst drift {worst:.2e}")


def check_compression_robustness() -> CheckResult:
    """Training with top-half token pruning lands within ``TOY_REL_TOL`` of
    the keep-all run (seed 7, from the toy specs)."""
    name = "compression_robustness"
    pruned = train_toy(TOY_PRUNED_SPEC)
    baseline = train_toy(TOY_BASELINE_SPEC)
    lp = pruned.final_metrics["final_loss"]
    lb = baseline.final_metrics["final_loss"]
    gap = abs(lp - lb)
    bound = TOY_REL_TOL * lb
    detail = (
        f"final loss keep={TOY_PRUNED_SPEC.keep}: {lp:.6f}, "
        f"keep={TOY_BASELINE_SPEC.keep}: {lb:.6f}, gap {gap:.6f} "
        f"(bound {bound:.6f})"
    )
    return CheckResult(name, gap <= bound, detail)


def check_determinism_roundtrips() -> CheckResult:
    """Same seed -> byte-identical reports; files survive round-trips (seed 2031)."""
    name = "determinism_roundtrips"
    small = ToyTaskSpec(
        seed=11,
        frames=2,
        grid_h=2,
        grid_w=2,
        feature_dim=6,
        queries=4,
        embed_dim=8,
        keep=2,
        out_dim=3,
        signal_patches=2,
        steps=8,
        learning_rate=0.2,
        batch_videos=2,
    )
    first = train_toy(small).to_json()
    second = train_toy(small).to_json()
    if first != second:
        return CheckResult(name, False, "repeated toy runs produced different reports")
    if RunReport.from_json(first).to_json() != first:
        return CheckResult(name, False, "report JSON round-trip changed the report")

    rng = make_rng(2031)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i in range(100):
            rank = int(rng.integers(1, 5))
            dims = tuple(int(x) for x in rng.integers(1, 6, size=rank))
            arr = (
                rng.normal(size=dims).astype(np.float32).astype(np.float64)
            )
            path = tmp / f"t{i}.ftv1"
            ftv1.write_tensor(path, arr)
            back = ftv1.read_tensor(path)
            if back.shape != arr.shape or not np.array_equal(back, arr):
                return CheckResult(
                    name, False, f"tensor file {i} (shape {dims}) changed in flight"
                )
        copy = tmp / "copy.jsonl"
        for i in range(20):
            path = tmp / f"m{i}.jsonl"
            curriculum.synthetic_manifest(
                path,
                videos=int(rng.integers(1, 40)),
                qa_per_video=int(rng.integers(1, 5)),
                seed=int(rng.integers(0, 2**31)),
            )
            written = path.read_bytes()
            curriculum.subsample_file(path, copy, 1.0, seed=0)
            same = copy.read_bytes() == written
            curriculum.filter_file(path, copy, curriculum.DATA_TYPES)
            if not same or copy.read_bytes() != written:
                return CheckResult(name, False, f"manifest {i} changed in flight")
    return CheckResult(
        name,
        True,
        "bit-identical reports; 100 tensor + 20 manifest round-trips lossless",
    )


def check_sequence_arithmetic() -> CheckResult:
    """Assembled length is frames * keep + prompt, frames in order, over a grid (seed 2032)."""
    name = "sequence_arithmetic"
    rng = make_rng(2032)
    combos = []
    for t in (1, 8):
        for k in (4, 16, 128):
            for prompt in (0, 64):
                sampled = SampledTokens(
                    indices=np.tile(np.arange(k), (t, 1)),
                    tokens=rng.normal(size=(t, k, 4)),
                )
                seq = assemble_sequence(sampled, prompt)
                want = t * k + prompt
                if seq.total_len != want:
                    return CheckResult(
                        name,
                        False,
                        f"T={t} K={k} prompt={prompt}: total {seq.total_len} != {want}",
                    )
                bounds = seq.frame_boundaries
                for f, block in enumerate(sampled.tokens):
                    if not np.array_equal(seq.video_tokens[bounds[f] : bounds[f + 1]], block):
                        return CheckResult(name, False, f"T={t} K={k}: frame {f} out of place")
                combos.append((t, k, prompt))
    return CheckResult(
        name, True, f"{len(combos)} combos incl. 8x128+0 -> 1024 video tokens"
    )


ALL_CHECKS = (
    check_reference_fit,
    check_subsample_counts,
    check_sampler_oracle,
    check_nesting,
    check_attention_validity,
    check_gradients,
    check_permutation_equivariance,
    check_compression_robustness,
    check_determinism_roundtrips,
    check_sequence_arithmetic,
)


def verify_all() -> RunReport:
    """Run every check and fold the outcomes into one report."""
    results = [fn() for fn in ALL_CHECKS]
    calibration = cost.calibrate()
    cost_cfg = cost.calibrated_config(calibration)
    passed = sum(1 for r in results if r.passed)
    return RunReport(
        kind="verify",
        config={"checks": [r.name for r in results]},
        loss_curve=(),
        final_metrics={"passed": passed, "failed": len(results) - passed},
        checks=tuple(asdict(r) for r in results),
        cost_summary=asdict(cost.estimate(cost_cfg)),
    )


def format_report(report: RunReport) -> str:
    """A terminal-friendly pass/fail listing."""
    lines = []
    for check in report.checks:
        status = "PASS" if check["passed"] else "FAIL"
        lines.append(f"{status}  {check['name']}: {check['detail']}")
    lines.append(
        f"{report.final_metrics['passed']} passed, "
        f"{report.final_metrics['failed']} failed"
    )
    return "\n".join(lines) + "\n"
