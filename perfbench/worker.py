"""Closed-loop job runner: one client, one job at a time, in one process.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC names the workload, seed, time budget, whether to trace, the run
directory holding `inputs/`, and the expected digests (or null). The
worker repeats the workload's job list until the budget is spent, times
each job around `rolewire.cli.main(argv)`, checks every output outside
the timed region, and writes one JSON result. Run in a process of its
own, its peak RSS belongs to the jobs alone and not to input set-up.
With tracing, rounds alternate untraced and traced, so both halves see
the same machine conditions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import rolewire.cli  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3            # untraced runs: the median needs a middle value
MIN_TRACED_ROUNDS = 4     # traced runs alternate modes and report means


def run_job(job, ctx, spans: tracer.Tracer | None) -> tuple[float, list[str], dict]:
    """Run one job; return (seconds, problems, output digests)."""
    workloads.clear_outputs(job, ctx.root)
    stdout, stderr = io.StringIO(), io.StringIO()
    problems = []
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = time.perf_counter()
        span = spans.begin("cli") if spans else None
        try:
            rc = rolewire.cli.main(list(job.argv))
        except Exception as exc:     # a traceback is a failed job, not a crash
            rc = None
            problems.append(f"raised {type(exc).__name__}: {exc}")
        finally:
            if spans:
                spans.end(span)
            seconds = time.perf_counter() - t0
    if rc not in (0, None):
        problems.append(f"exit code {rc}")
    problems += [f"stderr: {line}" for line in stderr.getvalue().splitlines()
                 if line.startswith("ERR:")]
    digests = {}
    if not problems:
        try:
            problems += job.check(job, ctx.root / job.out, ctx)
            digests = workloads.output_digests(job, ctx.root, stdout.getvalue())
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return seconds, problems, digests


def run_round(job_list, ctx, spans, reference: dict, expected: dict | None) -> dict:
    """Run the job list once. `reference` collects the first digests seen
    per output; any later round that differs fails that job."""
    result = {"wall_s": 0.0, "jobs": []}
    for job in job_list:
        seconds, problems, digests = run_job(job, ctx, spans)
        for key, digest in digests.items():
            if reference.setdefault(key, digest) != digest:
                problems.append(f"{key} differs from an earlier round")
            if expected is not None and expected.get(key) != digest:
                problems.append(f"{key} does not match the recorded digest")
        if expected is not None and not problems:
            missing = [k for k in expected if k.startswith(job.name + "/") and k not in digests]
            problems += [f"{k} was not written" for k in missing]
        result["wall_s"] += seconds
        result["jobs"].append({"name": job.name, "seconds": seconds, "problems": problems})
    return result


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    root = Path(spec["run_dir"])
    os.chdir(root)
    ctx = workloads.Context(root)
    job_list = workloads.jobs(spec["workload"], spec["seed"])
    spans = tracer.Tracer() if spec["trace"] else None
    reference: dict[str, str] = {}
    rounds = []
    modes = [False, True] if spec["trace"] else [False]
    min_rounds = MIN_TRACED_ROUNDS if spec["trace"] else MIN_ROUNDS
    start = time.perf_counter()
    while True:
        traced = modes[len(rounds) % len(modes)]
        uninstall = spans.install() if traced else None
        first_span = len(spans.spans) if spans else 0
        counts_before = spans.counts.copy() if spans else None
        try:
            rnd = run_round(job_list, ctx, spans if traced else None,
                            reference, spec["expected_digests"])
        finally:
            if uninstall:
                uninstall()
        rnd["traced"] = traced
        if traced:
            rnd["self_s"] = tracer.self_times(spans.spans, first_span)
            rnd["counts"] = dict(spans.counts - counts_before)
        rounds.append(rnd)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in rounds)
        if len(rounds) >= min_rounds and elapsed + typical > spec["seconds"]:
            break
    if spans:
        Path(spec["spans_path"]).write_text(json.dumps(spans.spans))
    Path(result_path).write_text(json.dumps({
        "rounds": rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
