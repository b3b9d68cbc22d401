"""Run one framepress benchmark workload and print its metrics.

    python3 perfbench/run.py --workload toy_train --seed 1 --seconds 36 --trace 0

Run from the repository root. The program under test is imported from
``src/`` next to this directory; without it the run fails with exit 2.
The workload's inputs are generated from ``--seed``, set up several times
(``setup_s`` is the median), then operations run back to back for
``--seconds`` and every output is checked. With ``--trace 0`` the last
stdout line carries the end-to-end metrics; with ``--trace 1``
untraced and traced operations alternate, and the last line carries the
per-layer metrics. The line before it holds run details: machine and
build metadata, the metrics under their per-workload names, sample
counts, failures and computed FLOPs. Scratch files live in
``.perfbench/`` and are removed at exit, except the span file of the last
traced run of each workload.

``--smoke`` runs every workload at tiny shapes, for the harness's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
# Set-up repeats: at least SETUP_MIN_REPEATS, then more while their total
# stays under SETUP_SHARE of --seconds, up to SETUP_MAX_REPEATS. At
# --seconds 36, a 35 ms set-up is timed 40 to 50 times, a 2 s one three times.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 50
SETUP_SHARE = 0.05
# Untraced operations per run even when one fills the window: a second
# operation is what checks that outputs repeat, and gives the median two samples.
MIN_OPS = 2
# One BLAS thread. On a 2-vCPU Xeon VM with OpenBLAS 0.3.31, a second thread
# made toy_train's time swing by about 15% between runs, against 2% with one.
# The count never exceeds the CPUs the process may use.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> None:
    """Pin BLAS to ``BLAS_THREADS`` threads; must run before numpy loads."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and its label.

    Below 20 samples that percentile would lie under the median, so the
    maximum stands in for it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], "max"
    return ordered[n - 11], f"p{math.floor(100 * (n - 10) / n)}"


def gemm_gflops(n: int, repeats: int = 15) -> float:
    """Median float64 GEMM rate at n x n x n, measured now on this machine."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.random((n, n)), rng.random((n, n))
    a @ b  # start the BLAS threads
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    return 2 * n**3 / statistics.median(times) / 1e9


def machine_metadata() -> dict:
    import numpy as np

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Window:
    """Operations of one measuring window, run back to back (closed loop)."""

    def __init__(self):
        self.durations: list[float] = []
        self.failures: list[str] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.durations)


def attempt(workload, window: Window, i: int, tracer=None) -> None:
    """Run operation ``i`` once and check its outputs; only the operation is timed."""
    start = time.perf_counter()
    try:
        out = tracer.op(i, workload.run_op, i) if tracer else workload.run_op(i)
    except Exception:  # an operation that raises is a failed operation
        window.durations.append(time.perf_counter() - start)
        window.failed += 1
        window.failures.append(f"op {i}: {traceback.format_exc(limit=3)}")
        return
    window.durations.append(time.perf_counter() - start)
    try:
        problems = workload.check(i, out)
    except Exception:  # unreadable output is a failed check
        problems = [traceback.format_exc(limit=3)]
    window.failed += bool(problems)
    window.failures.extend(f"op {i}: {p}" for p in problems)


def measure(workload, seconds: float, min_ops: int) -> Window:
    """Run operations until the next one would end past ``seconds``, and at least ``min_ops``."""
    window = Window()
    started = time.perf_counter()
    while window.attempted < min_ops or (
        time.perf_counter() - started + statistics.median(window.durations) <= seconds
    ):
        attempt(workload, window, window.attempted)
    return window


def measure_paired(workload, seconds: float, tracer) -> tuple[Window, Window, list[float]]:
    """Alternate untraced and traced runs of the same operation.

    Pair ``k`` runs operation ``k`` once without and once with the tracer,
    in alternating order, so that machine drift shared by both halves of a
    pair cancels in their difference. An untraced operation 0 runs first
    and is in no pair: the first operation of a process is slower (on
    paper_train by about 0.5 s of 4.7 s), which would bias the first pair.
    Pairs run until the next one would end past ``seconds``, and at least
    one runs. Returns the untraced and traced windows and the
    traced-minus-untraced time of each pair.
    """
    plain, traced = Window(), Window()
    attempt(workload, plain, 0)
    started = time.perf_counter()
    while not traced.attempted or (
        time.perf_counter() - started + 2 * statistics.median(plain.durations[1:] + traced.durations) <= seconds
    ):
        k = traced.attempted + 1
        for with_trace in (False, True) if k % 2 else (True, False):
            if not with_trace:
                attempt(workload, plain, k)
                continue
            tracer.instrument()
            try:
                attempt(workload, traced, k, tracer)
            finally:
                tracer.restore()
    return plain, traced, [t - p for p, t in zip(plain.durations[1:], traced.durations)]


def end_to_end(workload, window: Window, setup_times: list[float]) -> tuple[dict, str]:
    durations = window.durations
    tail_ms, tail_label = tail([1000 * d for d in durations])
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": window.attempted * workload.units_per_op() / sum(durations),
        "op_ms_p50": 1000 * statistics.median(durations),
        "op_ms_tail": tail_ms,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, tail_label


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> tuple[dict, dict]:
    """Set up, measure and check one workload; return (result, details)."""
    from perfbench.trace import Tracer, layer_metrics
    from perfbench.workloads import WORKLOADS, computed_cost

    spec = load_spec()
    workload = WORKLOADS[name](seed, smoke=smoke)
    SCRATCH.mkdir(exist_ok=True)
    workdir = SCRATCH / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPEATS or (
            len(setup_times) < SETUP_MAX_REPEATS
            and sum(setup_times) + statistics.median(setup_times) <= SETUP_SHARE * seconds
        ):
            shutil.rmtree(workdir, ignore_errors=True)
            start = time.perf_counter()
            workload.setup(workdir / f"setup{len(setup_times)}")
            setup_times.append(time.perf_counter() - start)
        if trace:
            tracer = Tracer()
            plain, traced, overheads = measure_paired(workload, seconds, tracer)
            windows = [plain, traced]
        else:
            plain = measure(workload, seconds, MIN_OPS)
            windows = [plain]
        # Read before the GEMM probe, whose arrays would otherwise set the peak.
        e2e, tail_label = end_to_end(workload, plain, setup_times)
        gemm = gemm_gflops(64 if smoke else 1024)
        if trace:
            overhead_ms = 1000 * statistics.median(overheads)
            metrics = {
                **layer_metrics(tracer, workload, gemm),
                "curriculum.kept_videos": getattr(workload, "kept_videos", 0),
                "machine.gemm_gflops": gemm,
                "trace.overhead_ms": overhead_ms,
                "trace.overhead_share": overhead_ms / e2e["op_ms_p50"],
            }
            tracer.dump(SCRATCH / f"trace-{name}.tsv")
        else:
            metrics = e2e
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "unit": workload.unit,
        "machine": {**machine_metadata(), "gemm_gflops": gemm},
        "setup_s_samples": setup_times,
        "ops_untraced": plain.attempted,
        "ops_traced": windows[1].attempted if trace else 0,
        "trace_overhead_ms_per_pair": [1000 * d for d in overheads] if trace else [],
        "tail_percentile": tail_label,
        "named_metrics": {
            **{workload.named.get(k, k): v for k, v in e2e.items()},
            "failed_ops_ratio": failed / attempted,
        },
        "computed_cost": computed_cost(workload.adapter_shape, workload.patch_shape),
        **workload.extra_details(),
        "failures": [f for w in windows for f in w.failures][:20],
    }
    if trace:
        details["named_metrics"]["tracing_overhead_ms"] = metrics["trace.overhead_ms"]
    problems = schema_problems(result, spec, trace)
    if problems:
        raise RuntimeError(f"result breaks the schema: {problems}")
    return result, details


def schema_problems(result: dict, spec: dict, trace: bool) -> list[str]:
    """Ways ``result`` departs from the result line BENCHMARK.json promises."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a boolean")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and isinstance(failed, int) and 0 <= failed <= attempted and attempted >= 1):
        problems.append(f"attempted={attempted!r} failed={failed!r}")
    listed = {m["name"]: m["unit"] for m in (spec["per_layer"] if trace else spec["end_to_end"])}
    metrics = result.get("metrics", {})
    if set(metrics) != set(listed):
        problems.append(f"metrics {sorted(metrics)}, expected {sorted(listed)}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if set(entry) != {"value", "unit"} or entry.get("unit") != listed.get(name):
            problems.append(f"{name}: entry {entry}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{name}: end-to-end value {value} is not positive")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for the harness's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "framepress" / "__init__.py").is_file():
        print(f"error: framepress sources not found under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT / 'BENCHMARK.json'} not found", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result, details = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), smoke=args.smoke)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
