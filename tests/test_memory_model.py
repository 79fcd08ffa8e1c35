"""The complexity target as a test: a verb's tracemalloc peak grows no
faster than its memory model, m + n*k (plus nnz(L) for `effres`, and
m + n for a labelled `gen`).

Each case runs one verb in process at two sizes (`partition`, `rewire`
and `effres` at the 25th degree percentile and `repnodes`), and compares
the ratio of the two peaks with the ratio of the model's values. Peaks of one allocation sequence repeat
exactly, so the bound needs no timing noise margin, only SLACK for the
constant terms the model leaves out. `srl`, `select-eps` (ROADMAP item
1) and `ts-sim` (item 10) still build dense shifts, so their case bounds
the peak by the largest one instead.
"""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from rolewire.cli import main
from rolewire.generators import make_dataset, make_graph
from rolewire.graph import PERCENTILE_GRID, Csr, degree_percentile, dump_edge_list, dump_labels_csv
from rolewire.ldl import Ldl
from rolewire.partition import refine_eps_be
from rolewire.rewire import Variant, build_rewired

SLACK = 1.25      # stated once; widening it to let a change through defeats the test
SIZES = {"tree": (1023, 4095), "grid": (1024, 4096), "lobster": (1000, 4000)}
GEN_SIZES = (1000, 4000)


def factor_nnz(csr: Csr) -> int:
    """nnz(L) of the grounded Laplacian's factor that
    `metrics.mean_effective_resistance` builds: the stages' column entries
    and their pivots, and the supernodes' dense column blocks."""
    rows, cols = csr.rows(), csr.indices
    edge = rows != cols
    factor = Ldl(Csr.from_entries(rows[edge], cols[edge], csr.data[edge].astype(np.float64),
                                  csr.shape[0]))
    return (sum(len(stage[0]) + len(stage[2]) for stage in factor.stages)
            + sum(g.size + u.size for g, u, *_ in factor.factors))


def model(family: str, n: int, verb: str) -> int:
    graph = make_graph(family, n)
    eps = degree_percentile(graph, 25)
    part = refine_eps_be(graph, eps)
    size = graph.num_edges + n * part.k
    if verb == "effres":
        rewired = build_rewired(graph, part, Variant.REP_NODES, eps=eps)
        size += max(factor_nnz(graph.csr), factor_nnz(rewired.csr))
    return size


def peak(argv: list[str]) -> int:
    """tracemalloc peak of one `main(argv)` call, its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("family", sorted(SIZES))
@pytest.mark.parametrize("verb", ["partition", "rewire", "effres"])
def test_peak_grows_with_the_model(verb, family, tmp_path):
    args = {"partition": ["--out", str(tmp_path / "out")],
            "rewire": ["--variant", "repnodes", "--out", str(tmp_path / "out")],
            "effres": ["--variant", "repnodes"]}[verb]
    runs = []
    for n in SIZES[family]:
        path = tmp_path / f"{family}{n}.txt"
        with open(path, "w") as fh:
            dump_edge_list(make_graph(family, n), fh)
        runs.append([verb, "--graph", str(path), "--percentile", "25", *args])
    small, large = map(peak, runs)
    growth = model(family, SIZES[family][1], verb) / model(family, SIZES[family][0], verb)
    assert large / small <= SLACK * growth, (large / small, growth)


@pytest.mark.parametrize("family", ["er", "cycle"])
def test_labelled_gen_peak_grows_with_m_plus_n(family, tmp_path):
    """Eccentricity labels on ER (p = 4/n) leave nearly every node to the
    batch BFS, whose chunks hold O(m + n) words; one batch over every open
    node would hold about n^2/64. A cycle is settled in closed form."""
    peaks, sizes = [], []
    for n in GEN_SIZES:
        peaks.append(peak(["gen", "--family", family, "--n", str(n), "--p", str(4 / n),
                           "--classes", "3", "--out", str(tmp_path / f"{family}{n}")]))
        sizes.append(make_graph(family, n, p=4 / n).num_edges + n)
    growth = sizes[1] / sizes[0]
    assert peaks[1] / peaks[0] <= SLACK * growth, (peaks[1] / peaks[0], growth)


@pytest.mark.parametrize("n", SIZES["tree"])
@pytest.mark.parametrize("verb", ["srl", "select-eps", "ts-sim"])
def test_one_dense_shift_at_a_time(verb, n, tmp_path):
    """`srl`, `select-eps` and `ts-sim` read every observed side of the
    lift from the n x n original shift before any rewired shift is built,
    and release each rewiring once its lift is read, so they hold one
    dense shift at a time: their peak stays within 1.5 times the largest
    rewired shift, 8 (n + k_max)^2 bytes, k_max taken over the
    percentiles the verb visits. Holding the original shift beside it
    reads about 2."""
    graph, data = make_dataset("tree", n, num_classes=3, seed=0)
    with open(tmp_path / "graph.txt", "w") as fh:
        dump_edge_list(graph, fh)
    with open(tmp_path / "labels.csv", "w") as fh:
        dump_labels_csv(data, fh)
    percentiles = (0, 50, 100) if verb == "ts-sim" else PERCENTILE_GRID
    k_max = max(refine_eps_be(graph, degree_percentile(graph, p)).k for p in percentiles)
    inputs = ["--graph", str(tmp_path / "graph.txt"), "--labels", str(tmp_path / "labels.csv")]
    args = {"srl": [*inputs, "--percentile", "0", "--variant", "full"],
            "select-eps": inputs,
            "ts-sim": ["--families", "tree", "--n", str(n), "--epochs", "5"]}[verb]
    got = peak([verb, *args, "--out", str(tmp_path / "out")])
    assert got <= 1.5 * 8 * (n + k_max) ** 2, got / (8 * (n + k_max) ** 2)
