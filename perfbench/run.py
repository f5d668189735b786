"""ddbvp benchmark: one workload per invocation, one process, no worker pools.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run it from the repository root
(it imports ddbvp from ``src/``); spans and result records go to
``perfbench/out/``.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy is first imported.  One thread: on a
# small shared host a multi-threaded LAPACK call stalls whenever one of its
# cores is taken, which made grid pass times jump by up to 3x.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
from speed import SpeedProbe, at_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
P90_MIN_SAMPLES = 100

# End-to-end metrics in the result line: name -> unit.  Raw times, op_p90_ms
# and fail_ratio are printed on the human-readable lines.
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


class RunResult:
    """Op timings (raw and at reference speed, by op key) and failures of one run."""

    def __init__(self):
        self.passes = 0
        self.op_seconds: dict[str, list[float]] = {}
        self.op_ref: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.failures: list[str] = []

    def record_failure(self, key: str, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append("%s: %s" % (key, message))

    def typical(self, at_ref: bool = True) -> list[float]:
        """Each op's median time over the passes of the run.

        A slowdown of the host that hits one op in one pass, which the speed
        samples around the op cannot see when the op is long, drops out here.
        """
        times = self.op_ref if at_ref else self.op_seconds
        return [statistics.median(v) for v in times.values()]


def run_pass(workload, result: RunResult, trace: tracer.Tracer | None = None) -> float:
    """Run every op of one pass; returns the pass time at reference speed.

    Each op is timed alone.  Its time at reference speed is its raw time,
    less the in-op speed sampling, times the median speed sampled before,
    during and after it.  Its output check runs after the clock stops.  An
    op fails when it raises (or exits) or when its check finds a wrong
    output; only the latter makes the run incorrect.  A pass time is the sum
    of its op times.
    """
    gc.collect()
    probe = SpeedProbe(workload.reference)
    total_ref = 0.0
    before = probe.sample()
    for op in workload.ops():
        result.attempted += 1
        if trace is not None:
            trace.active = True
        with probe.during():
            start = time.perf_counter()
            try:
                output = op.run()
            except (Exception, SystemExit) as exc:  # noqa: BLE001 - every raise is a failed op
                error = "raised %s: %s" % (type(exc).__name__, exc)
                output = None
            else:
                error = None
            elapsed = time.perf_counter() - start - probe.overhead
        if trace is not None:
            trace.active = False
        inside = probe.samples
        after = probe.sample()
        at_ref = at_reference(elapsed, before + inside + after)
        before = after
        total_ref += at_ref
        result.op_seconds.setdefault(op.key, []).append(elapsed)
        result.op_ref.setdefault(op.key, []).append(at_ref)
        if error is None:
            error = op.check(output)
            if error is not None:
                result.incorrect += 1
        if error is not None:
            result.record_failure(op.key, error)
    result.passes += 1
    return total_ref


def measure_setup(workload: str, seed: int, workdir: str) -> list[dict[str, float]]:
    """Set-up times (raw and at reference speed) of fresh processes, one at a time."""
    child = os.path.join(HERE, "setup_child.py")
    times = []
    for i in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, child, workload, str(seed), "%s-setup%d" % (workdir, i)],
            check=True, capture_output=True, text=True,
        )
        times.append(json.loads(done.stdout))
    return times


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "seed": seed,
    }


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def make_workload(name: str, seed: int, workdir: str, tiny: bool = False):
    return WORKLOADS[name](seed, workdir, tiny=tiny)


def end_to_end(name: str, seed: int, seconds: float, workdir: str) -> tuple[RunResult, dict, list[str]]:
    setup = measure_setup(name, seed, workdir)
    workload = make_workload(name, seed, workdir)
    workload.warm_up()
    result = RunResult()
    began = time.perf_counter()
    while not result.passes or time.perf_counter() - began < seconds:
        run_pass(workload, result)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    typical, typical_raw = result.typical(), result.typical(at_ref=False)
    metrics = {
        "setup_s": statistics.median(t["ref_s"] for t in setup),
        "wall_s": sum(typical),
        "op_p50_ms": statistics.median(typical) * 1000,
        "peak_rss_mb": peak_mb,
    }
    enough = len(typical) >= P90_MIN_SAMPLES
    lines = ["%s %.6g %s" % (key, value, END_TO_END[key]) for key, value in metrics.items()]
    if enough:
        lines.append("op_p90_ms %.6g ms [%d ops]" % (percentile(typical, 90) * 1000, len(typical)))
    else:
        lines.append("op_p90_ms n/a [%d ops, fewer than %d]" % (len(typical), P90_MIN_SAMPLES))
    lines.append("fail_ratio %.6g (%d failed / %d attempted)" % (
        result.failed / result.attempted, result.failed, result.attempted))
    lines.append("raw, not speed-normalized: setup_s %.6g s, wall_s %.6g s, op_p50_ms %.6g ms%s" % (
        statistics.median(t["raw_s"] for t in setup), sum(typical_raw), statistics.median(typical_raw) * 1000,
        ", op_p90_ms %.6g ms" % (percentile(typical_raw, 90) * 1000) if enough else ""))
    lines.append("passes %d, setup runs %s s" % (result.passes, ", ".join("%.3f" % t["raw_s"] for t in setup)))
    return result, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, lines


def traced(name: str, seed: int, seconds: float, workdir: str, spans_path: str | None,
           tiny: bool = False) -> tuple[RunResult, dict, list[str]]:
    """One untraced pass, then traced passes until ``seconds`` have passed."""
    workload = make_workload(name, seed, workdir, tiny=tiny)
    workload.warm_up()
    result = RunResult()
    began = time.perf_counter()
    untraced_wall = run_pass(workload, result)
    trace = tracer.Tracer()
    trace.install()
    passes = []
    try:
        while not passes or time.perf_counter() - began < seconds:
            trace.begin_pass()
            wall = run_pass(workload, result, trace)
            metrics = trace.pass_metrics(workload.problems_per_pass)
            metrics["bench.trace_overhead"] = wall / untraced_wall
            passes.append(metrics)
    finally:
        trace.uninstall()
    if spans_path:
        trace.write(spans_path)
    values = tracer.median_metrics(passes)
    lines = ["%s %.6g %s" % (key, value, tracer.PER_LAYER[key]) for key, value in values.items()]
    lines.append("traced passes %d, untraced pass %.4f s" % (len(passes), untraced_wall))
    return result, {k: {"value": v, "unit": tracer.PER_LAYER[k]} for k, v in values.items()}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d-pid%d" % (args.workload, args.seed, args.trace, os.getpid())
    workdir = os.path.join(OUT_DIR, "work-" + tag)
    try:
        if args.trace:
            spans = os.path.join(OUT_DIR, "spans-%s.json.gz" % tag)
            result, metrics, lines = traced(args.workload, args.seed, args.seconds, workdir, spans)
        else:
            result, metrics, lines = end_to_end(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "failures": result.failures,
        "correct": result.incorrect == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, "result-%s.json" % tag), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    print("env " + json.dumps(env))
    for failure in result.failures:
        print("failed op " + failure)
    for line in lines:
        print(line)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
