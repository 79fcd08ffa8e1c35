"""Shared fixtures: small named graphs and the seeded evaluation corpus."""

import numpy as np
import pytest
import scipy.sparse as sp

from rolewire.generators import erdos_renyi, make_graph
from rolewire.graph import Graph, bfs_distances, graph_from_edges
from rolewire.seeding import rng_for
from rolewire.teacher_student import LinearGnnWeights


def star_graph(leaves: int) -> Graph:
    return graph_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def largest_component(graph):
    """The largest connected component, relabelled 0..size-1."""
    unseen = np.ones(graph.num_nodes, dtype=bool)
    best = np.zeros(0, dtype=np.int64)
    while unseen.any():
        comp = np.flatnonzero(bfs_distances(graph.indptr, graph.indices,
                                            int(np.argmax(unseen))) >= 0)
        unseen[comp] = False
        if comp.size > best.size:
            best = comp
    index = {int(u): i for i, u in enumerate(best)}
    return graph_from_edges(best.size, [(index[u], index[v]) for u, v in graph.edges()
                                        if u in index and v in index])


def pairwise_resistance(adj, span):
    """Effective resistance of every pair among the first span nodes.

    Dense oracle: the diagonal of the weighted adjacency is dropped and the
    Laplacian pseudoinverse is formed by deflating the all-ones nullvector."""
    a = np.asarray(adj, dtype=float).copy()
    np.fill_diagonal(a, 0.0)
    m = a.shape[0]
    ones = np.full((m, m), 1.0 / m)
    lp = np.linalg.inv(np.diag(a.sum(axis=1)) - a + ones) - ones
    d = np.diag(lp)
    return d[:span, None] + d[None, :span] - 2.0 * lp[:span, :span]


def block_degree_matrix(graph: Graph, partition) -> np.ndarray:
    """Dense n x k integer counts A @ R: entry (u, j) counts u's neighbors
    in block j, so row u sums to deg(u).

    Dense oracle for the library's sparse per-block count summaries."""
    counts = np.zeros((graph.num_nodes, partition.k), dtype=np.int64)
    nodes = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    np.add.at(counts, (nodes, partition.block_of[graph.indices]), 1)
    return counts


def grid_graph(rows: int, cols: int) -> Graph:
    edges = []
    for i in range(rows):
        for j in range(cols):
            u = i * cols + j
            if j + 1 < cols:
                edges.append((u, u + 1))
            if i + 1 < rows:
                edges.append((u, u + cols))
    return graph_from_edges(rows * cols, edges)


def master_node_adjacency(graph: Graph) -> sp.csr_matrix:
    """Explicit (n+1)x(n+1) master-node adjacency: one hub tied to all nodes.

    Dense oracle for the master-node limit (criterion 3)."""
    n = graph.num_nodes
    a = np.zeros((n + 1, n + 1))
    for u in range(n):
        for v in graph.neighbors(u):
            a[u, v] = 1.0
    a[:n, n] = 1.0
    a[n, :n] = 1.0
    m = sp.csr_matrix(a)
    m.sort_indices()
    return m


def crop_to_observed(weights: LinearGnnWeights, d: int) -> LinearGnnWeights:
    """Drop the virtual-feature rows of the first layer.

    Because augmented features are block diagonal, the teacher restricted
    to original-node inputs is exactly the same chain with the first
    layer's trailing rows removed.
    """
    first = weights.layers[0][:d, :]
    return LinearGnnWeights(layers=(first,) + weights.layers[1:])


def corpus_graphs() -> list[tuple[str, Graph]]:
    """The >= 50-graph corpus used by the acceptance criteria.

    Stars up to 8 leaves, cycles/paths/grids/ladders/trees up to 64 nodes,
    and seeded Erdos-Renyi draws at n in {16, 32, 64}, p in {0.1, 0.3}.
    """
    graphs: list[tuple[str, Graph]] = []
    for m in range(1, 9):
        graphs.append((f"star{m}", star_graph(m)))
    for n in (3, 4, 5, 6, 8, 12, 16, 32, 64):
        graphs.append((f"cycle{n}", cycle_graph(n)))
    for n in (2, 3, 4, 5, 8, 16, 33, 64):
        graphs.append((f"path{n}", path_graph(n)))
    for rows, cols in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 8), (8, 8)):
        graphs.append((f"grid{rows}x{cols}", grid_graph(rows, cols)))
    for n in (4, 6, 8, 12, 16, 32):
        graphs.append((f"ladder{n}", make_graph("ladder", n)))
    for n in (3, 7, 10, 15, 20, 31, 63):
        graphs.append((f"tree{n}", make_graph("tree", n)))
    for n in (16, 32, 64):
        for p in (0.1, 0.3):
            for seed in (0, 1):
                rng = rng_for(seed, 0)
                graphs.append((f"er{n}_{int(p * 10)}_{seed}",
                               erdos_renyi(n, rng, p=p)))
    return graphs


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, Graph]]:
    graphs = corpus_graphs()
    assert len(graphs) >= 50
    return graphs


@pytest.fixture
def star4() -> Graph:
    return star_graph(3)


@pytest.fixture
def p3() -> Graph:
    return path_graph(3)


@pytest.fixture
def c4() -> Graph:
    return cycle_graph(4)


@pytest.fixture
def k4() -> Graph:
    return complete_graph(4)
