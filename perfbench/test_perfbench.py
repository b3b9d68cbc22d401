"""Tests of the benchmark harness itself, at tiny shapes only.

The smoke mode runs every workload through the same setup, measuring,
checking and tracing code as a full run, on inputs small enough to finish
in well under a second each. No full-size workload runs here.
"""

import json
import shutil
import subprocess
import sys

import pytest

import framepress
from framepress import cli, linalg
from perfbench import run
from perfbench.workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_lists_the_harness_workloads_and_metrics():
    # paper_train is a hand-run extra; see perfbench/README.md.
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS) - {"paper_train"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def traced_functions():
    return (cli.main, linalg.as_matrix, framepress.adapt_video, framepress.encoder.ImagePlane.__post_init__)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_is_correct_and_matches_schema(name, trace):
    originals = traced_functions()
    result, details = run.run_benchmark(name, seed=5, seconds=0.05, trace=trace, smoke=True)
    assert run.schema_problems(result, SPEC, trace) == []
    assert result["correct"], details["failures"]
    assert details["named_metrics"]["failed_ops_ratio"] == 0.0
    json.dumps(result, allow_nan=False)
    # Tracing puts every wrapped function back.
    assert traced_functions() == originals
    if trace and name == "toy_train":
        config = details["config"]
        per_step = result["metrics"]["linalg.cross_attention_calls_per_step"]["value"]
        # One attention per frame and video in the forward, and again in the backward.
        assert per_step == 2 * config["batch_videos"] * config["frames"]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max")
    assert run.tail([float(v) for v in range(1, 20)]) == (19.0, "max")
    values = [float(v) for v in range(1, 21)]
    assert run.tail(values) == (10.0, "p50")


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy_train", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
