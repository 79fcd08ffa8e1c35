"""Record the sha256 digests of every output at the default seed.

Usage (from the repository root): python3 perfbench/record_digests.py

Runs each workload's job list once at seed 0 in a scratch directory under
.perfbench_out/ and rewrites perfbench/digests.json. Outputs are meant to
stay byte-identical, so re-record only for a change that alters outputs
on purpose, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # pins BLAS threads before numpy loads
import worker
import workloads


def main() -> int:
    digests = {}
    for name in workloads.WORKLOADS:
        run_dir = run.ROOT / ".perfbench_out" / f"record-{name}"
        shutil.rmtree(run_dir, ignore_errors=True)
        workloads.write_inputs(name, run.DEFAULT_SEED, run_dir)
        cwd = os.getcwd()
        os.chdir(run_dir)
        try:
            reference: dict[str, str] = {}
            rnd = worker.run_round(workloads.jobs(name, run.DEFAULT_SEED),
                                   workloads.Context(run_dir), None, reference, None)
        finally:
            os.chdir(cwd)
            shutil.rmtree(run_dir, ignore_errors=True)
        problems = [p for job in rnd["jobs"] for p in job["problems"]]
        if problems:
            print(f"{name}: outputs fail their checks: {problems}", file=sys.stderr)
            return 1
        digests[name] = dict(sorted(reference.items()))
        print(f"{name}: {len(reference)} digests, {rnd['wall_s']:.2f} s")
    workloads.DIGESTS.write_text(
        json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
