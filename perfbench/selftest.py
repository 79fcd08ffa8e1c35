"""Self-test of the benchmark's failure accounting and tracer.

Usage (from the repository root): python3 perfbench/selftest.py

Checks that a corrupted output, an input error and a non-deterministic
output each count as a failed job, that clean outputs pass, and that the
tracer's self times add up and its wrappers come off again. Exits 0 when
every check holds. Takes a few seconds.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy loads
import tracer
import worker
import workloads

import rolewire.cli
import rolewire.metrics
import rolewire.spectral


def _round(jobs, root, expected=None, reference=None):
    return worker.run_round(jobs, workloads.Context(root), None,
                            {} if reference is None else reference, expected)


def _failed(rnd) -> list[str]:
    return [j["name"] for j in rnd["jobs"] if j["problems"]]


def _after_main(edit):
    """rolewire.cli.main followed by `edit()`, as if the program wrote it."""
    original = rolewire.cli.main

    def main(argv):
        rc = original(argv)
        edit()
        return rc

    return main


def check_failure_accounting(root: Path) -> None:
    seed = run.DEFAULT_SEED
    workloads.write_inputs("exact-roles", seed, root)
    job = workloads.jobs("exact-roles", seed)[0]            # er-select-eps
    expected = workloads.recorded_digests()["exact-roles"]
    candidates = root / job.out / "candidates.csv"

    rnd = _round([job], root, expected)
    assert not _failed(rnd), rnd

    def no_selection():                                     # caught by an invariant
        candidates.write_text(candidates.read_text().replace(",1\n", ",0\n"))

    def digit_flip():                                       # caught by the digest only
        lines = candidates.read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace(lines[2].split(",")[4], "0.123456", 1)
        candidates.write_text("".join(lines))

    original = rolewire.cli.main
    try:
        for edit, expect in ((no_selection, None), (digit_flip, expected)):
            rolewire.cli.main = _after_main(edit)
            rnd = _round([job], root, expect)
            assert _failed(rnd) == [job.name], (edit.__name__, rnd)
    finally:
        rolewire.cli.main = original

    # A later round whose bytes differ from the first fails, digests or not.
    reference: dict[str, str] = {}
    _round([job], root, reference=reference)
    try:
        rolewire.cli.main = _after_main(digit_flip)
        assert _failed(_round([job], root, reference=reference)) == [job.name]
    finally:
        rolewire.cli.main = original

    # An input error (exit 3 with an ERR: line) fails the job.
    (root / "inputs" / "er" / "graph.txt").write_text("0 0\n")
    rnd = _round([job], root)
    assert _failed(rnd) == [job.name], rnd
    assert any("exit code 3" in p for p in rnd["jobs"][0]["problems"]), rnd


def check_tracer() -> None:
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["b", 5.0, 6.0, 0], ["a", 20.0, 21.0, -1]]
    assert tracer.self_times(spans) == {"a": 7.0, "b": 3.0, "c": 1.0}

    t = tracer.Tracer()
    original = rolewire.spectral.symmetric_eig
    srl_report = rolewire.metrics.srl_report
    uninstall = t.install()
    try:
        assert rolewire.spectral.symmetric_eig is not original
        assert rolewire.metrics.srl_report is rolewire.spectral.srl_report
        assert rolewire.metrics.srl_report is not srl_report
        w, _ = rolewire.spectral.symmetric_eig([[2.0, 1.0], [1.0, 2.0]])
    finally:
        uninstall()
    assert rolewire.spectral.symmetric_eig is original
    assert rolewire.metrics.srl_report is srl_report
    assert [s[0] for s in t.spans] == ["spectral.symmetric_eig"]
    assert t.counts["spectral.symmetric_eig.order_sum"] == 2
    assert abs(w[0] - 1.0) < 1e-12 and abs(w[1] - 3.0) < 1e-12


def main() -> int:
    root = run.ROOT / ".perfbench_out" / f"selftest-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        check_failure_accounting(root)
        check_tracer()
    finally:
        os.chdir(cwd)
        shutil.rmtree(root, ignore_errors=True)
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
