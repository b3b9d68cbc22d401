import ast
import re
from pathlib import Path

import numpy as np
import pytest

import framepress
from framepress import ftv1
from framepress.adapter import (
    AdapterParams, adapt_video, adapter_gradients, init_adapter_params,
    random_adapter_params, sinusoidal_pos_table,
)
from framepress.cost import CostConfig, calibrate
from framepress.curriculum import (
    IMAGE_DATASET_ROLES, StageSpec, make_plan, plan_to_text, subsample_file, synthetic_manifest,
)
from framepress.encoder import ImagePlane, VideoTokenTensor, frozen_projection, patchify_encode, synthetic_video
from framepress.errors import ParameterError, ShapeError
from framepress.linalg import (
    as_matrix, attention_weights, cross_attention, fd_gradient, make_rng, softmax_rows, split_rng,
)
from framepress.pipeline import SequenceAssembly, ToyTaskSpec, assemble_sequence
from framepress.sampler import SampledTokens, compress_video, sample_video, save_sampled, score_frame, select_topk


def test_every_export_resolves_once():
    assert len(framepress.__all__) == len(set(framepress.__all__))
    missing = [name for name in framepress.__all__ if not hasattr(framepress, name)]
    assert missing == []


def _video():
    return synthetic_video(frames=2, grid_h=2, grid_w=2, feature_dim=4, seed=0)


def _params():
    return init_adapter_params(
        queries=4, width=4, feature_dim=4, grid_h=2, grid_w=2, frames=2, seed=0
    )


def _manifest(tmp):
    path = tmp / "m.jsonl"
    synthetic_manifest(path, videos=4, qa_per_video=3, seed=1)
    return path


# Every entry point that takes a count, k or seed: the argument's name and
# a call that passes a value for it.
COUNT_ARGUMENTS = {
    "select_topk": ("k", lambda v, tmp: select_topk(np.arange(4.0), v)),
    "compress_video": ("k", lambda v, tmp: compress_video(_video(), _params(), v)),
    "sample_video": ("k", lambda v, tmp: sample_video(adapt_video(_video(), _params()), v)),
    "init_adapter_params": ("queries", lambda v, tmp: init_adapter_params(v, 4, 4, 2, 2, 2, 0)),
    "random_adapter_params": ("queries", lambda v, tmp: random_adapter_params(v, 4, 4, 4, 2, 0)),
    "sinusoidal_pos_table": ("grid_h", lambda v, tmp: sinusoidal_pos_table(v, 2, 4)),
    "frozen_projection": ("patch_size", lambda v, tmp: frozen_projection(v, 4)),
    "synthetic_video": ("frames", lambda v, tmp: synthetic_video(v, 2, 2, 4, seed=0)),
    "make_rng": ("seed", lambda v, tmp: make_rng(v)),
    "split_rng": ("n", lambda v, tmp: split_rng(0, v)),
    "synthetic_manifest": ("videos", lambda v, tmp: synthetic_manifest(tmp / "s.jsonl", v, 2)),
    "CostConfig": ("frames", lambda v, tmp: CostConfig(v, 16, 30.0, 0.1)),
    "ToyTaskSpec steps": ("steps", lambda v, tmp: ToyTaskSpec(steps=v)),
    "ToyTaskSpec seed": ("seed", lambda v, tmp: ToyTaskSpec(seed=v)),
    # Keyed by the record that holds the check; assemble_sequence builds it.
    "SequenceAssembly": (
        "prompt_len", lambda v, tmp: assemble_sequence(sample_video(adapt_video(_video(), _params()), 2), v)
    ),
    # Indices [[0, 1]] need queries >= 2, so np.int64(2) is valid.
    "save_sampled": (
        "queries",
        lambda v, tmp: save_sampled(SampledTokens([[0, 1]], np.ones((1, 2, 3))), tmp / "kept.ftv1", v),
    ),
    "subsample_file seed": (
        "seed", lambda v, tmp: subsample_file(_manifest(tmp), tmp / "o.jsonl", 0.5, v)
    ),
    "subsample_file qa_cap_per_video": (
        "qa_cap_per_video",
        lambda v, tmp: subsample_file(_manifest(tmp), tmp / "o.jsonl", 1.0, 0, qa_cap_per_video=v),
    ),
}


@pytest.mark.parametrize("entry", list(COUNT_ARGUMENTS))
def test_every_count_is_an_int_or_numpy_integer_and_never_a_bool(entry, tmp_path):
    """One rule at every entry point: a float or a bool raises ParameterError
    naming the argument, and a numpy integer is taken as the int it holds."""
    name, call = COUNT_ARGUMENTS[entry]
    for bad in (2.5, True):
        with pytest.raises(ParameterError, match=re.escape(f"{name} must be an int, got {bad!r}")):
            call(bad, tmp_path)
    call(np.int64(2), tmp_path)


# Every entry point that takes a real number: how the refusal names the
# argument, and a call that passes a value for it.
REAL_ARGUMENTS = {
    "CostConfig": ("per_token_tflops", lambda v, tmp: CostConfig(8, 16, 31.7, v).per_token_tflops),
    "calibrate": (
        "the calibration total at k=4", lambda v, tmp: calibrate([(4, v), (16, 33.47)]).points[0][1],
    ),
    "subsample_file": ("fraction", lambda v, tmp: subsample_file(_manifest(tmp), tmp / "o.jsonl", v, 0)),
    "ToyTaskSpec": ("learning_rate", lambda v, tmp: ToyTaskSpec(learning_rate=v).learning_rate),
    "StageSpec": (
        "stage instruct: video fraction",
        lambda v, tmp: StageSpec(
            "instruct", IMAGE_DATASET_ROLES["instruct"], "VideoInstruct", v, ("adapter", "llm")
        ).video_fraction,
    ),
    "make_plan": (
        "stage instruct: video fraction",
        lambda v, tmp: plan_to_text(make_plan("S3-IV", instruct_fraction=v)),
    ),
}


@pytest.mark.parametrize("entry", list(REAL_ARGUMENTS))
def test_every_real_is_an_int_or_float_and_never_a_bool(entry, tmp_path):
    """One rule at every entry point: a bool or a string raises
    ParameterError naming the argument, and a numpy float is taken as the
    float it holds."""
    name, call = REAL_ARGUMENTS[entry]
    for bad in (True, "0.5"):
        with pytest.raises(ParameterError, match=re.escape(f"{name} must be a real number, got {bad!r}")):
            call(bad, tmp_path)
    plain = call(0.5, tmp_path)
    taken = call(np.float32(0.5), tmp_path)
    assert taken == plain and type(taken) is type(plain)


# Every entry point that takes an array: how the refusal names it, the
# shape of a valid value, and a call that passes a value for it. At that
# shape an array of 0.5s is valid for every call.
ARRAY_ARGUMENTS = {
    "VideoTokenTensor": ("video features", (1, 2, 2, 3), lambda v, tmp: VideoTokenTensor(v)),
    "ImagePlane": ("pixels", (2, 2, 3), lambda v, tmp: ImagePlane(v)),
    "AdapterParams": (
        "query bank", (4, 4),
        lambda v, tmp: AdapterParams(np.ones((4, 4)), v, np.ones((4, 4)), np.ones((2, 4))),
    ),
    "SampledTokens": ("sampled tokens", (1, 2, 3), lambda v, tmp: SampledTokens([[0, 1]], v)),
    "SequenceAssembly": ("frame tokens", (1, 2, 3), lambda v, tmp: SequenceAssembly(v, 0)),
    "as_matrix": ("table", (2, 2), lambda v, tmp: as_matrix(v, "table")),
    "write_tensor": ("FTV1 values", (2, 3), lambda v, tmp: ftv1.write_tensor(tmp / "t.ftv1", v)),
    "patchify_encode": (
        "projection", (12, 2), lambda v, tmp: patchify_encode(ImagePlane(np.full((2, 2, 3), 0.5)), 2, v),
    ),
    "adapter_gradients": (
        "row_grads", (2, 1, 4), lambda v, tmp: adapter_gradients(_video(), _params(), [[0], [1]], v),
    ),
    "score_frame": ("attention", (2, 3), lambda v, tmp: score_frame(v)),
    "select_topk": ("scores", (4,), lambda v, tmp: select_topk(v, 1)),
    "softmax_rows": ("softmax input", (2, 3), lambda v, tmp: softmax_rows(v)),
    "attention_weights": (
        "queries", (3, 4), lambda v, tmp: attention_weights(v, np.ones((5, 4)), 1.0, np.zeros((3, 5))),
    ),
    "attention_weights bias": (
        "bias", (3, 5), lambda v, tmp: attention_weights(np.ones((3, 4)), np.ones((5, 4)), 1.0, v),
    ),
    "cross_attention": (
        "features", (5, 4), lambda v, tmp: cross_attention(np.ones((3, 4)), v, 1.0, np.zeros((3, 5))),
    ),
    "fd_gradient": ("x", (3,), lambda v, tmp: fd_gradient(lambda x: 0.0, v)),
}


@pytest.mark.parametrize("entry", list(ARRAY_ARGUMENTS))
def test_every_array_holds_real_numbers_on_non_empty_axes(entry, tmp_path):
    """One rule at every entry point: a complex, a string or an object array
    raises ParameterError naming the argument, never a cast that drops an
    imaginary part or parses text, and a zero-length axis raises ShapeError."""
    name, shape, call = ARRAY_ARGUMENTS[entry]
    call(np.full(shape, 0.5), tmp_path)
    for bad in (np.full(shape, 0.5 + 1j), np.full(shape, "0.5"), np.full(shape, 0.5, dtype=object)):
        with pytest.raises(ParameterError, match=re.escape(f"{name} must hold real numbers, got dtype {bad.dtype}")):
            call(bad, tmp_path)
    for axis in range(len(shape)):
        with pytest.raises(ShapeError):
            call(np.full(shape[:axis] + (0,) + shape[axis + 1:], 0.5), tmp_path)


# Defaulted parameters that no call outside the tests sets, each with the
# reason it stays.
UNSET_DEFAULTS_KEPT = {
    ("calibrated_config", "encoder_tflops"): "ROADMAP item 5 fills it from the encoder's shapes",
    ("calibrated_config", "adapter_tflops"): "ROADMAP item 5 fills it from the adapter's shapes",
}


def _passed(call: ast.Call, index, param: str):
    """The expression ``call`` passes for ``param``, at position ``index``
    (None for keyword-only), or None."""
    for keyword in call.keywords:
        if keyword.arg == param:
            return keyword.value
    if index is not None and index < len(call.args):
        return call.args[index]
    return None


def _package_and_calls():
    """The parsed modules of ``src/framepress``, and every call in them or
    in ``perfbench`` (test files excluded), keyed by the name called."""
    root = Path(__file__).resolve().parent.parent
    package = [ast.parse(p.read_text(encoding="utf-8")) for p in (root / "src/framepress").glob("*.py")]
    harness = [
        ast.parse(p.read_text(encoding="utf-8"))
        for p in (root / "perfbench").glob("*.py")
        if not p.name.startswith("test_")
    ]
    calls_to = {}
    for node in (node for tree in package + harness for node in ast.walk(tree)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls_to.setdefault(name, []).append(node)
    return package, calls_to


def _set_elsewhere(calls, index, param: str, default) -> bool:
    """Whether one of ``calls`` passes ``param`` (at position ``index``, or by
    name) a value other than ``default``."""
    values = (_passed(call, index, param) for call in calls)
    return any(v is not None and ast.dump(v) != ast.dump(default) for v in values)


def test_every_defaulted_parameter_has_a_caller_outside_the_tests():
    """Each defaulted parameter of a public module-level function in
    ``src/framepress`` is set to a value other than its default by some
    call, matched by name, in ``src/framepress`` or ``perfbench`` (test
    files excluded). A parameter only tests set is an option no caller
    needs: delete it, or give it a caller."""
    package, calls_to = _package_and_calls()
    unset = set()
    for fn in (node for tree in package for node in tree.body):
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
            continue
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        defaulted = [(first + i, a, d) for i, (a, d) in enumerate(zip(positional[first:], fn.args.defaults))]
        defaulted += [(None, a, d) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
        for index, arg, default in defaulted:
            if not _set_elsewhere(calls_to.get(fn.name, ()), index, arg.arg, default):
                unset.add((fn.name, arg.arg))
    assert unset == set(UNSET_DEFAULTS_KEPT)


def test_every_defaulted_dataclass_field_has_a_caller_outside_the_tests():
    """The same for each defaulted field of a public dataclass in
    ``src/framepress``: some call outside the tests builds the class with a
    value other than its default, by position or name, or ``replace``s it
    by name. A field only tests set is a setting no caller needs."""
    package, calls_to = _package_and_calls()
    unset = set()
    for cls in (node for tree in package for node in tree.body):
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        if not any(ast.unparse(d).startswith("dataclass") for d in cls.decorator_list):
            continue
        # A field(init=False) is not the caller's to set.
        init = [
            f for f in cls.body
            if isinstance(f, ast.AnnAssign) and not (f.value and "init=False" in ast.unparse(f.value))
        ]
        for index, f in enumerate(init):
            name = f.target.id
            if f.value is not None and not (
                _set_elsewhere(calls_to.get(cls.name, ()), index, name, f.value)
                or _set_elsewhere(calls_to.get("replace", ()), None, name, f.value)
            ):
                unset.add((cls.name, name))
    assert unset == set()


SCALAR_RULES = {"_check_count", "_check_real", "_priced_count"}
ARRAY_RULES = {"_read_only", "_real_array", "as_matrix"}


def _casts_a_parameter(fn: ast.FunctionDef, call: ast.Call) -> bool:
    """Whether ``call`` is ``np.asarray`` or ``np.array`` of one of ``fn``'s
    own parameters with ``dtype=np.float64``: a cast that bypasses the array
    rule, which would take text or drop an imaginary part."""
    func, args = call.func, fn.args
    params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    return (
        ast.unparse(func) in ("np.asarray", "np.array")
        and bool(call.args) and isinstance(call.args[0], ast.Name) and call.args[0].id in params
        and any(k.arg == "dtype" and ast.unparse(k.value) == "np.float64" for k in call.keywords)
    )


def test_every_public_caller_of_a_rule_has_a_row():
    """Each public module-level function or class in ``src/framepress`` that
    calls the count or real rule in its body has a row in COUNT_ARGUMENTS or
    REAL_ARGUMENTS, and each that calls the array rule a row in
    ARRAY_ARGUMENTS (keyed by its name, then an optional argument name), so
    each rule's refusals are tested at every entry point. No public function
    casts one of its parameters to float64 around the array rule."""
    root = Path(__file__).resolve().parent.parent
    scalar_rows = {key.split()[0] for key in (*COUNT_ARGUMENTS, *REAL_ARGUMENTS)}
    array_rows = {key.split()[0] for key in ARRAY_ARGUMENTS}
    scalar_callers, array_callers, bypasses = set(), set(), set()
    for path in (root / "src/framepress").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            calls = [c for c in ast.walk(node) if isinstance(c, ast.Call)]
            called = {f.id if isinstance(f, ast.Name) else getattr(f, "attr", None) for f in (c.func for c in calls)}
            if called & SCALAR_RULES:
                scalar_callers.add(node.name)
            if called & ARRAY_RULES:
                array_callers.add(node.name)
            if isinstance(node, ast.FunctionDef) and any(_casts_a_parameter(node, c) for c in calls):
                bypasses.add(node.name)
    assert scalar_callers - scalar_rows == set()
    assert array_callers - array_rows == set()
    assert bypasses == set()
