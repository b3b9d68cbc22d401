import ast
import re
from pathlib import Path

import numpy as np
import pytest

import framepress
from framepress.adapter import (
    adapt_video, init_adapter_params, random_adapter_params, sinusoidal_pos_table,
)
from framepress.cost import CostConfig, calibrate
from framepress.curriculum import (
    IMAGE_DATASET_ROLES, StageSpec, make_plan, plan_to_text, subsample_file, synthetic_manifest,
)
from framepress.encoder import frozen_projection, synthetic_video
from framepress.errors import ParameterError, PlanError
from framepress.linalg import make_rng, split_rng
from framepress.pipeline import ToyTaskSpec, assemble_sequence
from framepress.sampler import compress_video, sample_video, select_topk


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


# Every entry point that takes a real number: the error class, how the
# refusal names the argument, and a call that passes a value for it.
REAL_ARGUMENTS = {
    "CostConfig": (
        ParameterError, "per_token_tflops",
        lambda v, tmp: CostConfig(8, 16, 31.7, v).per_token_tflops,
    ),
    "calibrate": (
        ParameterError, "the calibration total at k=4",
        lambda v, tmp: calibrate([(4, v), (16, 33.47)]).points[0][1],
    ),
    "subsample_file": (
        ParameterError, "fraction",
        lambda v, tmp: subsample_file(_manifest(tmp), tmp / "o.jsonl", v, 0),
    ),
    "ToyTaskSpec": (
        ParameterError, "learning_rate", lambda v, tmp: ToyTaskSpec(learning_rate=v).learning_rate,
    ),
    "StageSpec": (
        PlanError, "stage instruct: video fraction",
        lambda v, tmp: StageSpec(
            "instruct", IMAGE_DATASET_ROLES["instruct"], "VideoInstruct", v, ("adapter", "llm")
        ).video_fraction,
    ),
    "make_plan": (
        PlanError, "stage instruct: video fraction",
        lambda v, tmp: plan_to_text(make_plan("S3-IV", instruct_fraction=v)),
    ),
}


@pytest.mark.parametrize("entry", list(REAL_ARGUMENTS))
def test_every_real_is_an_int_or_float_and_never_a_bool(entry, tmp_path):
    """One rule at every entry point: a bool or a string raises an error
    naming the argument, and a numpy float is taken as the float it holds."""
    error, name, call = REAL_ARGUMENTS[entry]
    for bad in (True, "0.5"):
        with pytest.raises(error, match=re.escape(f"{name} must be a real number, got {bad!r}")):
            call(bad, tmp_path)
    plain = call(0.5, tmp_path)
    taken = call(np.float32(0.5), tmp_path)
    assert taken == plain and type(taken) is type(plain)


# Defaulted parameters that no call outside the tests sets, each with the
# reason it stays.
UNSET_DEFAULTS_KEPT = {
    ("calibrated_config", "encoder_tflops"): "ROADMAP item 4 fills it from the encoder's shapes",
    ("calibrated_config", "adapter_tflops"): "ROADMAP item 4 fills it from the adapter's shapes",
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


def test_every_defaulted_parameter_has_a_caller_outside_the_tests():
    """Each defaulted parameter of a public module-level function in
    ``src/framepress`` is set to a value other than its default by some
    call, matched by name, in ``src/framepress`` or ``perfbench`` (test
    files excluded). A parameter only tests set is an option no caller
    needs: delete it, or give it a caller."""
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
    unset = set()
    for fn in (node for tree in package for node in tree.body):
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
            continue
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        defaulted = [(first + i, a, d) for i, (a, d) in enumerate(zip(positional[first:], fn.args.defaults))]
        defaulted += [(None, a, d) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
        for index, arg, default in defaulted:
            values = (_passed(call, index, arg.arg) for call in calls_to.get(fn.name, ()))
            if not any(v is not None and ast.dump(v) != ast.dump(default) for v in values):
                unset.add((fn.name, arg.arg))
    assert unset == set(UNSET_DEFAULTS_KEPT)


RULES = {"_check_count", "_check_real", "_priced_count"}


def test_every_public_caller_of_a_rule_has_a_row():
    """Each public module-level function or class in ``src/framepress`` that
    calls the count or real rule in its body has a row in COUNT_ARGUMENTS or
    REAL_ARGUMENTS (keyed by its name, then an optional argument name), so
    the rule's refusals and numpy scalars are tested at every entry point."""
    root = Path(__file__).resolve().parent.parent
    rows = {key.split()[0] for key in (*COUNT_ARGUMENTS, *REAL_ARGUMENTS)}
    callers = set()
    for path in (root / "src/framepress").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            calls = (c.func for c in ast.walk(node) if isinstance(c, ast.Call))
            if any((f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) in RULES for f in calls):
                callers.add(node.name)
    assert callers - rows == set()
