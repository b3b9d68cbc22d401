"""Spans and call counts around framepress's public functions, and the
per-layer metrics derived from them.

``Tracer.instrument`` wraps every public module-level function of the
traced modules and rebinds the wrapper in every ``framepress`` namespace
that holds the original, so calls through ``from .x import f`` names are
seen as well as calls through module attributes. Nothing under ``src/``
changes; ``Tracer.restore`` puts every original back.

A span is ``(name, start_ns, end_ns, parent, run_id)``: ``parent`` is the
index of the enclosing span (-1 for none) and ``run_id`` the operation it
belongs to. Spans are opened in start order, so the list stays sorted by
start. The two validators run hundreds of thousands of times per training
run, so they only record a timestamp per call, which still lets their
counts be split by training step.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from array import array
from collections import defaultdict

TRACED_MODULES = ("encoder", "ftv1", "adapter", "linalg", "sampler", "pipeline", "curriculum", "cli")
COUNTED = ("linalg.as_matrix", "linalg.frozen_matrix")
OP_SPAN = "bench.op"
NPY_LOAD = "io.npy_load"  # frames read by ``encode --images``
IMAGE_PLANE = "encoder.ImagePlane"  # pixel validation at the encoder's input


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stamps = {name: array("q") for name in COUNTED}
        self.nbytes: dict[int, int] = {}  # span index -> size of the FTV1 file it read or wrote
        self.run_id = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _spanned(self, name, fn, sized=False):
        spans, stack, nbytes, clock = self.spans, self._stack, self.nbytes, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.run_id)
                if sized and args:
                    try:
                        nbytes[sid] = os.path.getsize(args[0])
                    except (OSError, TypeError):
                        pass

        return traced

    def _counted(self, name, fn):
        stamps, clock = self.stamps[name], time.perf_counter_ns

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stamps.append(clock())
            return fn(*args, **kwargs)

        return counted

    def _patch(self, target, attr, value):
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def instrument(self) -> None:
        wrappers = {}
        for short in TRACED_MODULES:
            try:
                module = importlib.import_module(f"framepress.{short}")
            except ImportError:
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                wrappers[obj] = (
                    self._counted(name, obj) if name in COUNTED else self._spanned(name, obj, sized=short == "ftv1")
                )
        for modname, module in list(sys.modules.items()):
            if modname == "framepress" or modname.startswith("framepress."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patch(module, attr, wrappers[obj])
        image_plane = getattr(sys.modules.get("framepress.encoder"), "ImagePlane", None)
        if image_plane is not None and "__post_init__" in vars(image_plane):
            self._patch(image_plane, "__post_init__", self._spanned(IMAGE_PLANE, image_plane.__post_init__))
        numpy = sys.modules["numpy"]
        self._patch(numpy, "load", self._spanned(NPY_LOAD, numpy.load))

    def restore(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def op(self, run_id: int, fn, *args):
        """Run one benchmark operation under a top-level span."""
        self.run_id = run_id
        return self._spanned(OP_SPAN, fn)(*args)

    def dump(self, path) -> None:
        """Write spans as tab-separated lines, times in ns from the first span."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\trun_id\tbytes\n")
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start - origin}\t{end - origin}\t{parent}\t{run_id}\t{self.nbytes.get(i, '')}\n")
            for name, stamps in self.stamps.items():
                fh.write(f"# calls\t{name}\t{len(stamps)}\n")


def _step_bounds(spans, lo, hi):
    """Start of every forward pass in spans[lo:hi].

    A forward pass is the first ``adapt_video`` after the op starts or after
    a backward pass; the interval from one forward to the next is one step.
    The last forward of a training run has no backward after it, so it
    closes the last step and is not a step of its own.
    """
    bounds, pending = [], True
    for i in range(lo, hi):
        name = spans[i][0]
        if name == "adapter.adapt_video" and pending:
            bounds.append(spans[i][1])
            pending = False
        elif name == "adapter.adapter_gradients":
            pending = True
    return bounds


def _op_metrics(tracer, workload, lo, hi, gemm_gflops) -> dict:
    spans = tracer.spans
    _, op_start, op_end, _, _ = spans[lo]
    if workload.stepped:
        bounds = _step_bounds(spans, lo, hi)
        intervals = list(zip(bounds, bounds[1:]))
    else:
        intervals = [(op_start, op_end + 1)]
    n = max(len(intervals), 1)

    child_s = defaultdict(float)  # span index -> seconds covered by its children
    ftv1_child_s = defaultdict(float)
    for i in range(lo + 1, hi):
        name, start, end, parent, _ = spans[i]
        if parent >= 0:
            child_s[parent] += (end - start) / 1e9
            if name.startswith("ftv1."):
                ftv1_child_s[parent] += (end - start) / 1e9

    total_s = defaultdict(float)
    calls = defaultdict(int)
    nbytes = defaultdict(int)
    io_self_s = update_s = step_s = 0.0
    starts = [spans[i][1] for i in range(lo, hi)]
    for a, b in intervals:
        last_backward_end = None
        for i in range(lo + bisect.bisect_left(starts, a), lo + bisect.bisect_left(starts, b)):
            name, start, end, _, _ = spans[i]
            dur = (end - start) / 1e9
            total_s[name] += dur
            calls[name] += 1
            nbytes[name] += tracer.nbytes.get(i, 0)
            if name in ("sampler.save_sampled", "sampler.load_sampled"):
                io_self_s += dur - ftv1_child_s[i]
            elif name == "adapter.adapter_gradients":
                last_backward_end = end
        if workload.stepped:
            step_s += (b - a) / 1e9
            if last_backward_end is not None:
                update_s += (b - last_backward_end) / 1e9
    validations = 0
    for stamps in tracer.stamps.values():
        for a, b in intervals:
            validations += bisect.bisect_left(stamps, b) - bisect.bisect_left(stamps, a)
    cli_self_s = sum(
        (spans[i][2] - spans[i][1]) / 1e9 - child_s[i] for i in range(lo, hi) if spans[i][0] == "cli.main"
    )

    def ms(seconds):
        return 1000.0 * seconds / n

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    def share(seconds):
        return seconds / step_s if step_s > 0 else 0.0

    adapter, patch = workload.adapter_shape, workload.patch_shape
    fwd_flops = calls["adapter.adapt_video"] * adapter.forward_flops_per_video() if adapter else 0
    bwd_flops = calls["adapter.adapter_gradients"] * adapter.backward_useful_flops_per_video() if adapter else 0
    patch_flops = calls["encoder.patchify_encode"] * patch.flops_per_frame() if patch else 0
    forward_gflops = rate(fwd_flops, total_s["adapter.adapt_video"]) / 1e9
    mib = 2.0**20
    return {
        "encoder.ingest_ms": ms(total_s[NPY_LOAD] + total_s[IMAGE_PLANE]),
        "encoder.patchify_ms": ms(total_s["encoder.patchify_encode"]),
        "encoder.patchify_gflops": rate(patch_flops, total_s["encoder.patchify_encode"]) / 1e9,
        "ftv1.write_ms": ms(total_s["ftv1.write_tensor"]),
        "ftv1.read_ms": ms(total_s["ftv1.read_tensor"]),
        "ftv1.write_mib_per_s": rate(nbytes["ftv1.write_tensor"] / mib, total_s["ftv1.write_tensor"]),
        "ftv1.read_mib_per_s": rate(nbytes["ftv1.read_tensor"] / mib, total_s["ftv1.read_tensor"]),
        "ftv1.bytes_per_video": (nbytes["ftv1.write_tensor"] + nbytes["ftv1.read_tensor"]) / n,
        "adapter.forward_ms": ms(total_s["adapter.adapt_video"]),
        "adapter.forward_gflops": forward_gflops,
        "adapter.forward_roofline_frac": forward_gflops / gemm_gflops,
        "adapter.backward_ms": ms(total_s["adapter.adapter_gradients"]),
        "adapter.backward_gflops": rate(bwd_flops, total_s["adapter.adapter_gradients"]) / 1e9,
        "adapter.update_ms": ms(update_s),
        "adapter.checkpoint_load_ms": ms(total_s["adapter.load_checkpoint"]),
        "linalg.cross_attention_ms": ms(total_s["linalg.cross_attention"]),
        "linalg.cross_attention_calls_per_step": calls["linalg.cross_attention"] / n,
        "linalg.validate_calls_per_step": validations / n,
        "sampler.select_ms": ms(total_s["sampler.sample_video"]),
        "sampler.io_ms": ms(io_self_s),
        "pipeline.assemble_ms": ms(total_s["pipeline.assemble_sequence"]),
        "pipeline.step_ms": ms(step_s),
        "pipeline.step_forward_share": share(total_s["adapter.adapt_video"]),
        "pipeline.step_select_share": share(total_s["sampler.sample_video"]),
        "pipeline.step_backward_share": share(total_s["adapter.adapter_gradients"]),
        "pipeline.step_update_share": share(update_s),
        "cli.unaccounted_ms": ms(cli_self_s),
        "curriculum.read_ms": ms(total_s["curriculum.read_manifest"]),
        "curriculum.read_records_per_s": rate(
            calls["curriculum.read_manifest"] * getattr(workload, "records", 0), total_s["curriculum.read_manifest"]
        ),
        "curriculum.subsample_ms": ms(total_s["curriculum.subsample"]),
        "curriculum.filter_ms": ms(total_s["curriculum.filter_type"]),
        "curriculum.write_ms": ms(total_s["curriculum.write_manifest"]),
    }


def layer_metrics(tracer: Tracer, workload, gemm_gflops: float) -> dict:
    """Per-layer metrics: each is taken per work unit within an operation
    (a training step, a video, a manifest pass), then the median over the
    traced operations is reported."""
    spans = tracer.spans
    op_starts = [i for i, s in enumerate(spans) if s[0] == OP_SPAN]
    per_op = [
        _op_metrics(tracer, workload, lo, hi, gemm_gflops)
        for lo, hi in zip(op_starts, op_starts[1:] + [len(spans)])
    ]
    return {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
