"""Write GOLDEN.json: reference outputs of full-size runs, per seed.

    python3 perfbench/golden.py 1 101-110

Run from the repository root, only on a commit whose outputs are trusted.
For each seed it sets ``paper_train`` and ``paper_compress`` up at full
size, runs them once (every video of ``paper_compress``), checks the
outputs as a benchmark run does, and records the ``paper_train`` loss
curve and each video's kept-index digest and sequence sums. A benchmark
run at one of these seeds then checks its outputs against them.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(args: list[str]) -> list[int]:
    seeds = []
    for arg in args:
        lo, _, hi = arg.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def reference(workload, workdir: Path):
    """Run ``workload`` once at full size and return its golden entry."""
    workload.golden = None  # the check must not compare against the file being written
    workload.setup(workdir)
    if workload.name == "paper_train":
        problems = workload.check(0, workload.run_op(0))
        entry = json.loads(workload.report_path.read_bytes())["loss_curve"]
    else:
        problems, entry = [], []
        for v in range(workload.videos):
            problems += workload.check(v, workload.run_op(v))
            entry.append(workload.fingerprint())
    if problems:
        raise RuntimeError(f"{workload.name} seed {workload.seed}: {problems}")
    return entry


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import run

    run.limit_blas_threads()
    from perfbench.workloads import GOLDEN_PATH, WORKLOADS

    seeds = parse_seeds(argv)
    golden = {}
    workdir = run.SCRATCH / "golden"
    try:
        for name in ("paper_train", "paper_compress"):
            golden[name] = {}
            for seed in seeds:
                shutil.rmtree(workdir, ignore_errors=True)
                golden[name][str(seed)] = reference(WORKLOADS[name](seed), workdir)
                print(name, seed, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
