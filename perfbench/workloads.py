"""Workload definitions: seeded inputs, the job list, and output checks.

Each workload is a fixed list of `rolewire` CLI invocations over input
files that `write_inputs` generates from the seed with
`rolewire.generators`. Why each workload exists (which layer it loads
and which it bypasses):

exact-roles
    `select-eps` and `srl --percentile 0 --variant full` on the largest
    connected component of a sparse ER graph (mean degree 6) and on a
    lobster with a fixed exact role count. At eps = 0 the partition is near-discrete (k close to n), so
    the pure-Python Jacobi `symmetric_eig` and the `per_role_lift` loop
    dominate. The component is used because `gen`-style output of an ER
    graph with isolated nodes fails to load (a known defect; see
    CHANGES.md) and effective resistance needs a connected graph.
coarse-roles
    `partition`, `rewire`, `select-eps` and `effres` on a balanced binary
    tree: large n, k <= 10 at every percentile. Eigen-work nearly
    vanishes; the n-scaled work (dense n x n shifts, Python two-hop sets,
    the dense rewired fill, the dense Laplacian inverse, large CSV
    writes) dominates. The only workload with large outputs.
teacher-student
    Default `ts-sim` (six families, n = 24, percentiles 0/50/100, 5000
    Adam epochs, 18 points). Adam dominates; structural and spectral
    changes should not move it.

Sizes are smaller than the paper-scale graphs so that one job list takes
a few seconds and each timed run holds several repetitions of it.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from rolewire import generators
from rolewire.graph import (
    Graph,
    NodeData,
    bfs_distances,
    compact_ids,
    degree_percentile,
    dump_edge_list,
    dump_labels_csv,
    graph_from_edges,
    load_edge_list,
)
from rolewire.partition import color_refinement_oracle, load_partition_csv, validate_aep

ER_N = 70            # before taking the largest component
LOBSTER_N = 80
LOBSTER_K = 64       # exact role count aimed for; one draw's k ranges about 57..70
LOBSTER_DRAWS = 8
TREE_N = 1023        # balanced binary tree of depth 9: k = 10 at eps = 0
CLASSES = 3
TS_FAMILIES = ("star", "path", "cycle", "grid", "ladder", "tree")   # ts-sim defaults
TS_N = 24
TS_PERCENTILES = (0, 50, 100)
GRID = (0, 25, 50, 75, 100)


@dataclass(frozen=True)
class Job:
    """One CLI call; `check` returns the problems it finds in the outputs."""

    name: str
    argv: tuple[str, ...]
    check: Callable[["Job", Path, "Context"], list[str]]

    @property
    def out(self) -> str:
        return self.argv[self.argv.index("--out") + 1]


class Context:
    """Input graphs, loaded once and shared by the checks of every round."""

    def __init__(self, root: Path):
        self.root = root
        self._graphs: dict[str, Graph] = {}
        self._exact_k: dict[str, int] = {}

    def graph(self, rel: str) -> Graph:
        if rel not in self._graphs:
            with open(self.root / rel) as fh:
                self._graphs[rel] = compact_ids(load_edge_list(fh))[0]
        return self._graphs[rel]

    def exact_k(self, rel: str) -> int:
        """k at eps = 0, from the independent 1-WL oracle."""
        if rel not in self._exact_k:
            self._exact_k[rel] = color_refinement_oracle(self.graph(rel)).k
        return self._exact_k[rel]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _write_dataset(graph: Graph, data: NodeData, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "graph.txt", "w") as fh:
        dump_edge_list(graph, fh)
    with open(out / "labels.csv", "w") as fh:
        dump_labels_csv(data, fh)


def _largest_component(graph: Graph, data: NodeData) -> tuple[Graph, NodeData]:
    """Induced subgraph on the largest component, ids compacted in order.

    Eccentricity labels are per component, so the restricted labels equal
    those the generator would give the component alone.
    """
    best = np.zeros(0, dtype=np.int64)
    seen = np.zeros(graph.num_nodes, dtype=bool)
    for s in range(graph.num_nodes):
        if not seen[s]:
            comp = np.flatnonzero(bfs_distances(graph.indptr, graph.indices, s) >= 0)
            seen[comp] = True
            if len(comp) > len(best):
                best = comp
    new_id = {int(u): i for i, u in enumerate(best)}
    sub = graph_from_edges(len(best), [(new_id[u], new_id[v]) for u, v in graph.edges()
                                       if u in new_id])
    return sub, NodeData(num_nodes=len(best), labels=data.labels[best],
                         train_mask=data.train_mask[best], val_mask=data.val_mask[best],
                         test_mask=data.test_mask[best])


def _lobster(seed: int) -> tuple[Graph, NodeData]:
    """The lobster, among LOBSTER_DRAWS seeded draws, whose exact role
    count is nearest LOBSTER_K (first draw on ties).

    Eigen-work grows with k squared, so a single draw's k would make the
    job list's cost vary by about 10% from seed to seed; fixing k keeps
    runs on different seeds comparable. Every draw is made, so set-up
    time does not depend on which one is chosen.
    """
    draws = [generators.make_dataset("lobster", LOBSTER_N, CLASSES, seed * LOBSTER_DRAWS + i)
             for i in range(LOBSTER_DRAWS)]
    return min(draws, key=lambda d: abs(color_refinement_oracle(d[0]).k - LOBSTER_K))


def write_inputs(workload: str, seed: int, root: Path) -> None:
    """Generate and write the workload's input files under root/inputs."""
    base = root / "inputs"
    if workload == "exact-roles":
        graph, data = generators.make_dataset("er", ER_N, num_classes=CLASSES,
                                              seed=seed, p=6.0 / ER_N)
        _write_dataset(*_largest_component(graph, data), base / "er")
        _write_dataset(*_lobster(seed), base / "lobster")
    elif workload == "coarse-roles":
        _write_dataset(*generators.make_dataset("tree", TREE_N, CLASSES, seed),
                       base / "tree")
    elif workload == "teacher-student":
        # ts-sim builds these graphs itself; the files let the check
        # recompute every point's eps independently of the run.
        for fam in TS_FAMILIES:
            _write_dataset(*generators.make_dataset(fam, TS_N, CLASSES, seed), base / fam)
    else:
        raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _meta(path: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in path.read_text().splitlines() if "=" in line)


def _graph_arg(job: Job) -> str:
    return job.argv[job.argv.index("--graph") + 1]


def _check_partition(job: Job, out: Path, ctx: Context) -> list[str]:
    graph = ctx.graph(_graph_arg(job))
    eps = float(_meta(out / "meta.txt")["eps"])
    with open(out / "partition.csv") as fh:
        part = load_partition_csv(fh)
    if part.num_nodes != graph.num_nodes:
        return [f"partition.csv covers {part.num_nodes} of {graph.num_nodes} nodes"]
    if not validate_aep(graph, part, eps):
        return [f"partition.csv violates the tolerance eps={eps}"]
    return []


def _check_candidates(job: Job, out: Path, ctx: Context) -> list[str]:
    lines = (out / "candidates.csv").read_text().splitlines()
    if lines[0] != "percentile,eps,k,srl,rho,ncs2,srl_star,selected":
        return [f"candidates.csv header {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(GRID):
        return [f"candidates.csv rows {[r[0] for r in rows]} are not the grid {GRID}"]
    selected = [r for r in rows if r[7] == "1"]
    if len(selected) != 1:
        return [f"candidates.csv has {len(selected)} selected rows"]
    problems = []
    if int(rows[0][2]) != ctx.exact_k(_graph_arg(job)):
        problems.append(f"k={rows[0][2]} at eps=0, 1-WL oracle gives {ctx.exact_k(_graph_arg(job))}")
    if float(selected[0][6]) < max(float(r[6]) for r in rows):
        problems.append("selected row does not have the highest srl_star")
    return problems


def _check_srl(job: Job, out: Path, ctx: Context) -> list[str]:
    lines = (out / "srl.csv").read_text().splitlines()
    roles = [line for line in lines[1:] if not line.startswith("#")]
    k = ctx.exact_k(_graph_arg(job))     # --percentile 0 is eps = 0
    problems = []
    if len(roles) != k:
        problems.append(f"srl.csv has {len(roles)} role rows, expected k={k}")
    srl = [line for line in lines if line.startswith("# srl=")]
    if len(srl) != 1 or not math.isfinite(float(srl[0].split("=", 1)[1])):
        problems.append(f"srl.csv footer {srl!r} lacks one finite srl")
    return problems


def _check_effres(job: Job, out: Path, ctx: Context) -> list[str]:
    values = dict(line.split(",") for line in (out / "effres.csv").read_text().splitlines()[1:])
    baseline, rewired = float(values["baseline"]), float(values["rewired"])
    if not rewired <= baseline:
        return [f"effective resistance rose: {rewired} > {baseline}"]
    return []


def _check_ts(job: Job, out: Path, ctx: Context) -> list[str]:
    lines = (out / "ts.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    problems = []
    if len(rows) != len(TS_FAMILIES) * len(TS_PERCENTILES):
        problems.append(f"ts.csv has {len(rows)} rows")
    if not any(line.startswith("# pearson=") for line in lines):
        problems.append("ts.csv lacks a # pearson= line")
    for fam, _, perc, eps, srl, mse, _ in rows:
        want = degree_percentile(ctx.graph(f"inputs/{fam}/graph.txt"), int(perc))
        if eps != f"{want:.6f}":
            problems.append(f"{fam} p={perc}: eps {eps}, graph gives {want:.6f}")
        if not (math.isfinite(float(srl)) and math.isfinite(float(mse))):
            problems.append(f"{fam} p={perc}: non-finite srl or mse")
    return problems


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------

def jobs(workload: str, seed: int) -> list[Job]:
    s = ("--seed", str(seed))
    if workload == "exact-roles":
        out = []
        for g in ("er", "lobster"):
            io = ("--graph", f"inputs/{g}/graph.txt", "--labels", f"inputs/{g}/labels.csv")
            out.append(Job(f"{g}-select-eps",
                           ("select-eps", *io, *s, "--out", f"outputs/{g}-select-eps"),
                           _check_candidates))
            out.append(Job(f"{g}-srl",
                           ("srl", *io, "--percentile", "0", "--variant", "full", *s,
                            "--out", f"outputs/{g}-srl"),
                           _check_srl))
        return out
    if workload == "coarse-roles":
        g = ("--graph", "inputs/tree/graph.txt")
        lab = ("--labels", "inputs/tree/labels.csv")
        return [
            Job("partition", ("partition", *g, "--percentile", "25", *s,
                              "--out", "outputs/partition"), _check_partition),
            Job("rewire", ("rewire", *g, "--percentile", "25", "--variant", "repnodes", *s,
                           "--out", "outputs/rewire"), _check_partition),
            Job("select-eps", ("select-eps", *g, *lab, *s, "--out", "outputs/select-eps"),
                _check_candidates),
            Job("effres", ("effres", *g, "--percentile", "25", "--variant", "repnodes", *s,
                           "--out", "outputs/effres"), _check_effres),
        ]
    if workload == "teacher-student":
        return [Job("ts-sim", ("ts-sim", *s, "--out", "outputs/ts-sim"), _check_ts)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("exact-roles", "coarse-roles", "teacher-student")


def output_digests(job: Job, root: Path, stdout: str) -> dict[str, str]:
    """sha256 of every file the job wrote, plus its standard output."""
    out = root / job.out
    digests = {f"{job.name}/{p.relative_to(out)}": hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.rglob("*")) if p.is_file()}
    digests[f"{job.name}/<stdout>"] = hashlib.sha256(stdout.encode()).hexdigest()
    return digests


DIGESTS = Path(__file__).with_name("digests.json")


def recorded_digests() -> dict[str, dict[str, str]]:
    """Digests of every output at the default seed, per workload."""
    return json.loads(DIGESTS.read_text())


def clear_outputs(job: Job, root: Path) -> None:
    shutil.rmtree(root / job.out, ignore_errors=True)
