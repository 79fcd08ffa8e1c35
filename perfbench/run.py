"""rolewire benchmark: one workload per run, closed loop, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact-roles --seed 1 --seconds 30 --trace 0

Workloads: exact-roles, coarse-roles, teacher-student (see workloads.py
for why each exists). The run generates the workload's inputs from the
seed with `rolewire.generators` several times and reports the median as
`setup_s`. A separate worker process then repeats the job list, one
`rolewire.cli.main(argv)` call at a time, for about `--seconds` seconds
and checks every output: exit code, `ERR:` lines, exceptions, per-job
invariants, byte-identical outputs across rounds, and, for the default
seed 0, sha256 digests recorded in digests.json.

--trace 0 prints the end-to-end metrics: `wall_s` (median wall time of
one pass over the job list), `setup_s` and `peak_rss_mb` (peak RSS of the
worker). The failed share of jobs is `failed / attempted` in the final
line. --trace 1 alternates untraced and traced passes and prints
per-layer self times and counts (see tracer.py), the tracing overhead
and the share of traced wall time the spans account for. Spans are
written to .perfbench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. BLAS/OpenMP threads are pinned
to one for the benchmark and its worker.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1      # at most nproc; one thread keeps timings steadiest
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0              # the seed whose output digests are recorded
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 2.0       # tiny set-ups repeat until this much time is spent
SETUP_MAX_REPS = 100
WORKER_GRACE_S = 120          # worker time allowed beyond --seconds

PER_LAYER_COUNTS = {
    "partition.refine_eps_be.calls": "count",
    "partition.roles_total": "count",
    "rewire.augmented_nnz": "count",
    "spectral.symmetric_eig.order_sum": "count",
    "spectral.dense_bytes": "B",
    "teacher_student.epochs_total": "count",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        commit = "none"
    src = hashlib.sha256()
    for path in sorted((SRC / "rolewire").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
        "git_commit": commit, "src_sha256": src.hexdigest()[:16], "seed": seed,
        "machine": platform.machine(),
    }


def _setup(write_inputs, args, run_dir: Path, min_reps: int, min_seconds: float) -> list[float]:
    """Time input generation, repeated; returns the time of each repetition."""
    times: list[float] = []
    while len(times) < SETUP_MAX_REPS and (len(times) < min_reps or sum(times) < min_seconds):
        shutil.rmtree(run_dir / "inputs", ignore_errors=True)
        t0 = time.perf_counter()
        write_inputs(args.workload, args.seed, run_dir)
        times.append(time.perf_counter() - t0)
    return times


def _quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rolewire" / "__init__.py").is_file():
        return _fail(f"no rolewire sources at {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tracer
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    out_dir = ROOT / ".perfbench_out"
    run_dir = out_dir / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return _run(args, run_dir, out_dir, tracer, workloads)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, run_dir: Path, out_dir: Path, tracer, workloads) -> int:
    env = _environment(args.seed)
    print("env " + json.dumps(env))

    if args.trace:
        spans = tracer.Tracer()
        uninstall = spans.install()
        try:
            setup_times = _setup(workloads.write_inputs, args, run_dir, 1, 0.0)
        finally:
            uninstall()
        setup_self = tracer.self_times(spans.spans)
    else:
        setup_times = _setup(workloads.write_inputs, args, run_dir,
                             SETUP_MIN_REPS, SETUP_MIN_SECONDS)

    expected = None
    if args.seed == DEFAULT_SEED:
        expected = workloads.recorded_digests()[args.workload]
    spec_path, result_path = run_dir / "spec.json", run_dir / "result.json"
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    spec_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "run_dir": str(run_dir),
        "expected_digests": expected, "spans_path": str(spans_path),
    }))
    worker = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                               str(spec_path), str(result_path)])
    try:
        code = worker.wait(timeout=args.seconds + WORKER_GRACE_S)
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.wait()
    if code != 0:
        return _fail(f"worker exited with code {code}")
    result = json.loads(result_path.read_text())

    rounds = result["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    jobs = [j for r in rounds for j in r["jobs"]]
    failed = [j for j in jobs if j["problems"]]
    for job in failed[:20]:
        print(f"FAILED {job['name']}: {'; '.join(job['problems'][:3])}")
    walls = [r["wall_s"] for r in plain]
    wall_s = statistics.median(walls)
    print(f"rounds {len(plain)} untraced, {len(traced)} traced; untraced wall_s per round "
          + " ".join(f"{w:.4f}" for w in walls)
          + f"; quartile spread {_quartile_spread(walls):.3f} of median")
    print(f"setup reps {len(setup_times)}: " + " ".join(f"{t:.4f}" for t in setup_times))
    print(f"fail_frac {len(failed) / len(jobs)} ratio ({len(failed)} of {len(jobs)} jobs failed)")

    if not args.trace:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        }
    else:
        metrics = _trace_metrics(traced, setup_self, rounds, tracer.SPAN_NAMES)
    for name, (value, unit) in metrics.items():
        share = ""
        if args.trace and name.endswith(".self_s") and not name.startswith("generators."):
            share = f" ({100.0 * value / metrics['trace.wall_s'][0]:.2f}% of traced wall_s)"
        print(f"{name} {value} {unit}{share}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _trace_metrics(traced: list, setup_self: dict, rounds: list, span_names) -> dict:
    """Per-layer metrics: mean self time per traced round, counts per round.

    The overhead compares mean traced and untraced rounds, which alternate.
    """
    n = len(traced)
    self_s = {}
    for r in traced:
        for name, value in r["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value / n
    job_spans = ["cli"] + [n for n in span_names if not n.startswith("generators.")]
    metrics = {f"{name}.self_s": (self_s.get(name, 0.0), "s") for name in job_spans}
    counts = traced[0]["counts"]
    if any(r["counts"] != counts for r in traced):
        print("WARNING: per-round counts differ between traced rounds")
    for name, unit in PER_LAYER_COUNTS.items():
        metrics[name] = (counts.get(name, 0), unit)
    for name in span_names:
        if name.startswith("generators."):
            metrics[f"{name}.self_s"] = (setup_self.get(name, 0.0), "s")
    traced_wall = statistics.fmean(r["wall_s"] for r in traced)
    plain_wall = statistics.fmean(r["wall_s"] for r in rounds if not r["traced"])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.accounted_frac"] = (sum(self_s.values()) / traced_wall, "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
