import re

import numpy as np
import pytest

import framepress
from framepress.adapter import (
    adapt_video, init_adapter_params, random_adapter_params, sinusoidal_pos_table,
)
from framepress.cost import CostConfig
from framepress.curriculum import subsample_file, synthetic_manifest
from framepress.encoder import frozen_projection, synthetic_video
from framepress.errors import ParameterError
from framepress.linalg import make_rng, split_rng
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
