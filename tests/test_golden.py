"""The pinned outputs of the benchmark's paper-shape workloads: one
``perfbench/GOLDEN.json`` seed of each, run in-process and judged by the
workload's own check, which compares against the golden entry."""

import pytest

from perfbench.workloads import WORKLOADS

# Seed 1 is the seed of the usage line in perfbench/run.py, so this runs
# what a benchmark run started as documented checks.
SEED = 1


@pytest.mark.parametrize("name", ["paper_compress", "paper_train"])
def test_golden_seed_reproduces(name, tmp_path):
    workload = WORKLOADS[name](SEED)
    assert workload.golden is not None
    workload.setup(tmp_path / name)
    # paper_compress pins each of its videos; paper_train one 3-step run.
    for i in range(getattr(workload, "videos", 1)):
        assert workload.check(i, workload.run_op(i)) == []
