"""Command-line interface.

One subcommand per pipeline step (encode, compress, assemble),
plus the cost model, dataset tooling, the toy training loop, and the
self-verification suite. Exit codes: 0 on success, 1 when verification
fails, 2 on bad input (including files that cannot be read or written
and sizes too large to allocate).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import zipfile
from pathlib import Path

import numpy as np

from . import cost, curriculum, ftv1
from .adapter import (
    CHECKPOINT_FILES,
    CHECKPOINT_HEADER,
    attend,
    init_adapter_params,
    load_checkpoint,
    save_checkpoint,
)
from .encoder import (
    DEFAULT_FEATURE_DIM,
    DEFAULT_PATCH_SIZE,
    ImagePlane,
    VideoTokenTensor,
    _patch_grid,
    frozen_projection,
    load_features,
    patchify_encode,
    save_features,
    synthetic_video,
)
from .errors import FormatError, FramepressError, ParameterError, ShapeError
from .pipeline import assemble_sequence, spec_from_dict, train_toy
from .sampler import KEEP_ORDERS, _sidecar_path, compress_video, load_sampled, save_sampled
from .verify import format_report, verify_all

# Adapter shape of a checkpoint that --queries/--width do not set.
DEFAULT_QUERIES = 32
DEFAULT_WIDTH = 32

# Shape of synthetic frames that encode's --frames/--grid do not set.
DEFAULT_FRAMES = 8
DEFAULT_GRID = "8x8"


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        gh, gw = (int(p) for p in text.lower().split("x"))
    except ValueError as exc:
        raise ParameterError(f"grid must look like 8x8, got {text!r}") from exc
    return gh, gw


def _cmd_encode(args) -> int:
    images = args.images is not None
    # Each of these flags shapes the frames of one source only.
    for flag, given, for_images in (
        ("--patch", args.patch, True),
        ("--frames", args.frames, False),
        ("--grid", args.grid, False),
        ("--seed", args.seed, False),
    ):
        if given is not None and for_images != images:
            source = "--images files" if for_images else "synthetic frames"
            raise ParameterError(f"{flag} applies to {source} only")
    if images:
        if not args.images:
            raise ParameterError("--images needs at least one .npy file")
        patch = DEFAULT_PATCH_SIZE if args.patch is None else args.patch
        proj = frozen_projection(patch, args.dim)
        feats = None  # (T, gh, gw, D), allocated once frame 0 sets the grid
        for i, path in enumerate(args.images):
            # np.load leaves a path it opened unclosed when a zip-like
            # file is no archive, so the handle is ours to close.
            with open(path, "rb") as fh:
                try:
                    pixels = np.load(fh)
                except (ValueError, EOFError, zipfile.BadZipFile) as exc:
                    raise FormatError(f"{path}: not a numeric .npy array: {exc}") from exc
            if not isinstance(pixels, np.ndarray):
                raise FormatError(f"{path}: an .npz archive, not a .npy array")
            img = ImagePlane(pixels)
            grid = _patch_grid(img, patch) + (args.dim,)
            if feats is None:
                feats = np.empty((len(args.images),) + grid)
            elif grid != feats.shape[1:]:
                raise ShapeError(
                    f"frame {i} shape {grid} differs from frame 0 {feats.shape[1:]}"
                )
            patchify_encode(img, patch, proj, out=feats[i])
        feats.setflags(write=False)
        video = VideoTokenTensor(feats)
    else:
        frames = DEFAULT_FRAMES if args.frames is None else args.frames
        gh, gw = _parse_grid(DEFAULT_GRID if args.grid is None else args.grid)
        seed = 0 if args.seed is None else args.seed
        video = synthetic_video(frames, gh, gw, args.dim, seed)
    save_features(video, args.out)
    print(
        f"wrote {video.frame_count} frames x {video.token_count} tokens "
        f"x {video.feature_dim} dims -> {args.out}"
    )
    return 0


def _load_or_init_params(args, video: VideoTokenTensor):
    """The adapter params from --checkpoint, or new ones, and whether they
    are new: the caller saves new params only once its forward pass has
    succeeded, so a refused run writes no checkpoint."""
    if args.checkpoint and Path(args.checkpoint, CHECKPOINT_HEADER).is_file():
        params = load_checkpoint(args.checkpoint)
        for flag, given, stored in (
            ("--queries", args.queries, params.query_count),
            ("--width", args.width, params.width),
        ):
            if given is not None and given != stored:
                raise ParameterError(
                    f"{flag} {given} conflicts with the checkpoint in "
                    f"{args.checkpoint}, which has {stored}"
                )
        return params, False
    gh, gw = video.grid_shape
    params = init_adapter_params(
        queries=DEFAULT_QUERIES if args.queries is None else args.queries,
        width=DEFAULT_WIDTH if args.width is None else args.width,
        feature_dim=video.feature_dim,
        grid_h=gh,
        grid_w=gw,
        frames=video.frame_count,
        seed=args.seed,
    )
    return params, bool(args.checkpoint)


def _cmd_compress(args) -> int:
    video = load_features(args.features)
    params, new = _load_or_init_params(args, video)
    sampled = compress_video(video, params, args.k, order=args.order)
    if new:
        save_checkpoint(params, args.checkpoint)
    save_sampled(sampled, args.out, params.query_count)
    if args.attention_out:
        ftv1.write_tensor(args.attention_out, attend(video, params))
    print(
        f"kept top-{sampled.keep} of {params.query_count} tokens per frame "
        f"({sampled.frame_count} frames) -> {args.out}"
    )
    return 0


def _cmd_assemble(args) -> int:
    sampled = load_sampled(args.tokens)
    seq = assemble_sequence(sampled, args.prompt_len)
    if args.out:
        ftv1.write_tensor(args.out, seq.video_tokens)
    print(
        f"sequence length {seq.total_len} = {seq.frame_count} frames x "
        f"{sampled.keep} tokens + {seq.prompt_len} prompt"
    )
    return 0


def _read_calibration_csv(path) -> list[tuple[int, float]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text: {exc}") from exc
    points = []
    first = True
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if first:
            first = False
            try:
                float(parts[0])
            except ValueError:
                continue  # header row
        if len(parts) < 2:
            raise ParameterError(f"{path}:{lineno}: expected 'k,tflops'")
        try:
            k, tflops = int(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ParameterError(f"{path}:{lineno}: expected 'k,tflops', got {line!r}") from exc
        try:
            cost._priced_count("k", k)
        except ParameterError as exc:
            raise ParameterError(f"{path}:{lineno}: {exc}") from None
        if not math.isfinite(tflops) or tflops < 0.0:
            raise ParameterError(
                f"{path}:{lineno}: tflops must be finite and >= 0, got {parts[1]!r}"
            )
        points.append((k, tflops))
    return points


def _parse_ks(text: str) -> list[int]:
    try:
        ks = [int(k) for k in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"--k must be comma-separated integers, got {text!r}") from exc
    return [cost._priced_count("--k values", k) for k in ks]


def _cmd_cost(args) -> int:
    points = (
        _read_calibration_csv(args.calibrate)
        if args.calibrate
        else cost.REFERENCE_TOTALS
    )
    ks = _parse_ks(args.k) if args.k else [k for k, _ in points]
    result = cost.calibrate(points)
    template = cost.calibrated_config(result, tokens_per_frame=ks[0])
    # Build the whole text first: a run that fails prints no partial report.
    print(cost.calibration_report_text(result) + cost.sweep_csv(ks, template), end="")
    return 0


def _cmd_subsample(args) -> int:
    videos, qa_pairs, kept_videos, kept_pairs = curriculum.subsample_file(
        args.manifest, args.out, args.fraction, args.seed, qa_cap_per_video=args.qa_cap
    )
    print(
        f"{videos} videos / {qa_pairs} QA pairs -> "
        f"{kept_videos} videos / {kept_pairs} QA pairs -> {args.out}"
    )
    return 0


def _cmd_filter(args) -> int:
    types = {t.strip() for t in args.types.split(",") if t.strip()}
    qa_pairs, kept_pairs = curriculum.filter_file(args.manifest, args.out, types)
    print(
        f"kept {kept_pairs} of {qa_pairs} QA pairs "
        f"({', '.join(sorted(types))}) -> {args.out}"
    )
    return 0


def _cmd_plan(args) -> int:
    plan = curriculum.make_plan(
        args.strategy,
        pretrain_fraction=args.pretrain_fraction,
        instruct_fraction=args.instruct_fraction,
    )
    text = curriculum.plan_to_text(plan)
    if args.out:
        with ftv1._replacing(args.out) as fh:
            fh.write(text)
    print(text, end="")
    return 0


def _cmd_train_toy(args) -> int:
    spec = spec_from_dict(ftv1._read_json(args.config, "config") if args.config else {})
    report = train_toy(spec)
    if args.report:
        with ftv1._replacing(args.report) as fh:
            fh.write(report.to_json())
    metrics = report.final_metrics
    print(
        f"toy run: keep={spec.keep}/{spec.queries}, {spec.steps} steps, "
        f"loss {metrics['initial_loss']:.6f} -> {metrics['final_loss']:.6f}"
    )
    return 0


def _cmd_verify(args) -> int:
    report = verify_all()
    if args.report:
        with ftv1._replacing(args.report) as fh:
            fh.write(report.to_json())
    print(format_report(report), end="")
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framepress",
        description="Video token compression pipeline: encode, compress, "
        "assemble, cost, data tooling, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="images or synthetic frames -> FTV1 features")
    p.add_argument("--images", nargs="*", help=".npy pixel arrays (H, W, 3) in [0,1]")
    p.add_argument("--patch", type=int, help=f"patch size of --images files: default {DEFAULT_PATCH_SIZE}")
    p.add_argument("--frames", type=int, help=f"synthetic frames: default {DEFAULT_FRAMES}")
    p.add_argument("--grid", help=f"patch grid of synthetic frames: default {DEFAULT_GRID}")
    p.add_argument("--dim", type=int, default=DEFAULT_FEATURE_DIM)
    p.add_argument("--seed", type=int, help="synthetic frames: default 0")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("compress", help="features -> top-k kept tokens per frame")
    p.add_argument("--features", required=True, help="FTV1 (T, gh, gw, D) file")
    p.add_argument("--checkpoint", help="adapter checkpoint directory")
    p.add_argument("--queries", type=int, help=f"new checkpoints: default {DEFAULT_QUERIES}")
    p.add_argument("--width", type=int, help=f"new checkpoints: default {DEFAULT_WIDTH}")
    p.add_argument("--seed", type=int, default=0, help="new checkpoints: default 0")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", choices=KEEP_ORDERS, default="score")
    p.add_argument("--attention-out", help="also write every query row's (T, N, M) attention here")
    p.set_defaults(fn=_cmd_compress)

    p = sub.add_parser("assemble", help="kept tokens -> decoder-ready sequence")
    p.add_argument("--tokens", required=True, help="file written by compress")
    p.add_argument("--prompt-len", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_assemble)

    p = sub.add_parser("cost", help="calibrate and sweep the compute cost model")
    p.add_argument("--k", help="comma-separated kept-token budgets")
    p.add_argument("--calibrate", help="CSV of measured k,tflops pairs")
    p.set_defaults(fn=_cmd_cost)

    p = sub.add_parser("subsample", help="video-level manifest subsampling")
    p.add_argument("manifest")
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--qa-cap", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_subsample)

    p = sub.add_parser("filter", help="keep QA records of given instruction types")
    p.add_argument("manifest")
    p.add_argument("--types", required=True, help="comma-separated type names")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_filter)

    p = sub.add_parser("plan", help="emit a training stage plan")
    p.add_argument("--strategy", required=True, choices=curriculum.STRATEGIES)
    p.add_argument("--pretrain-fraction", type=float, default=None)
    p.add_argument("--instruct-fraction", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("train-toy", help="run the toy regression end to end")
    p.add_argument("--config", help="JSON file overriding ToyTaskSpec defaults")
    p.add_argument("--report", help="write the full run report here")
    p.set_defaults(fn=_cmd_train_toy)

    p = sub.add_parser("verify", help="run the full self-verification suite")
    p.add_argument("--report", help="write the verification report here")
    p.set_defaults(fn=_cmd_verify)

    return parser


# One parser per process: building it costs more than most parses.
_parser = functools.cache(build_parser)

# String flags refused when empty: the commands would take "" for an optional
# flag left out (--checkpoint "" would run on new params and save none).
_NOT_EMPTY = ("checkpoint", "attention_out", "out", "report", "config", "k", "calibrate")

# How numpy's ValueError for a size past its index range begins.
_NUMPY_TOO_BIG = ("array is too big", "Maximum allowed dimension exceeded", "Maximum allowed size exceeded")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # Before any work: an empty value would read as an absent flag, a
        # path that names a directory cannot be written, and of two outputs
        # written to one file, or an output written over a checkpoint file,
        # only the last would survive.
        for flag in _NOT_EMPTY:
            if getattr(args, flag, None) == "":
                raise ParameterError(f"--{flag.replace('_', '-')} must not be empty")
        outputs = [("--" + f.replace("_", "-"), getattr(args, f, None)) for f in ("out", "report", "attention_out")]
        if args.fn is _cmd_compress:
            outputs.append(("--out's index sidecar", _sidecar_path(args.out)))
        if getattr(args, "checkpoint", None):
            outputs += [("--checkpoint", Path(args.checkpoint, name)) for name in CHECKPOINT_FILES]
        written = {}
        for option, path in outputs:
            if path:
                # realpath, unlike Path.resolve, raises nothing on a symlink loop.
                resolved = os.path.realpath(ftv1._output_path(path))
                if resolved in written:
                    raise ParameterError(f"{written[resolved]} and {option} name the same file {path}")
                written[resolved] = option
        return args.fn(args)
    except (FramepressError, OSError) as exc:
        message = exc
    except (MemoryError, ValueError) as exc:
        # numpy refuses sizes it cannot allocate with a MemoryError, and sizes
        # past its index range with a ValueError saying so; any other
        # ValueError is a bug, not bad input.
        if not isinstance(exc, MemoryError) and not str(exc).startswith(_NUMPY_TOO_BIG):
            raise
        message = f"the sizes given do not fit in memory: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
