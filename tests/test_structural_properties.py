"""Property tests: the sparse structural kernels against per-node references.

The references are the plain loops the kernels replaced. Every quantity
here is an integer count, a ratio of two, or a value copied from the
quotient, so results must match exactly (floats compared through
float.hex or array equality), on random graphs and tolerances. The one
inequality is the paper's: rewiring never raises effective resistance.
Effective resistance, a float sum in another order than its per-pair
oracle, is compared within a relative 1e-9.
"""

import importlib
import math
import sys
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st

from rolewire import generators
from rolewire.errors import NoEligibleNodesError, ParseError, SelfLoopError
from rolewire.generators import eccentricity_labels
from rolewire.graph import (
    PERCENTILE_GRID,
    UNLABELED,
    Csr,
    Graph,
    bfs_distances,
    compact_ids,
    component_labels,
    degree_percentile,
    graph_from_edges,
)
from rolewire.ldl import Ldl
from rolewire.metrics import mean_effective_resistance, two_hop_class_similarity
from rolewire.partition import (
    Partition,
    _refine_round,
    color_refinement_oracle,
    quotient,
    refine_eps_be,
    validate_aep,
)
from rolewire.rewire import Variant, build_rewired
from rolewire.seeding import rng_for

from conftest import (as_block_set, block_degree_matrix, block_tuples, csr_by_dict,
                      from_blocks, largest_component,
                      mean_effective_resistance_by_solves, membership_matrix,
                      mean_effective_resistance_oracle, neighbors, pairwise_resistance,
                      quotient_by_product, refine_eps_be_by_splitters,
                      rewired_adjacency_by_bmat, splitter_round_by_product, star_graph,
                      two_hop_class_similarity_by_product, two_hop_neighbors)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


def test_a_failing_example_can_be_reported(monkeypatch):
    """On a failing example hypothesis imports `hypothesis.extra._patching`,
    which imports libcst, whose `mypy_extensions.TypedDict` classes warn
    on import. Under the suite's filters that warning must not be an
    error, or the run stops with INTERNALERROR in place of the report.
    `importorskip` imports with every warning ignored, so libcst is then
    imported afresh, under the suite's filters."""
    pytest.importorskip("libcst")
    for name in [m for m in sys.modules
                 if m.split(".")[0] == "libcst" or m == "hypothesis.extra._patching"]:
        monkeypatch.delitem(sys.modules, name)
    importlib.import_module("hypothesis.extra._patching")


# ---------------------------------------------------------------------------
# Reference oracles
# ---------------------------------------------------------------------------

def reference_refine_eps_be(graph, eps):
    """Per-block greedy splitting loop, one splitter and one block at a time."""
    n = graph.num_nodes
    part = from_blocks(n, [list(range(n))])
    while True:
        # toward[u][s]: u's neighbors in splitter s, a round-start block
        toward = [Counter(part.block_of[neighbors(graph, u)].tolist()) for u in range(n)]
        current = [list(b) for b in block_tuples(part)]
        for splitter in range(part.k):
            next_blocks = []
            for block in current:
                if len(block) == 1:
                    next_blocks.append(block)
                    continue
                counted = sorted((toward[u][splitter], u) for u in block)
                groups = []
                group_min = None
                for cnt, u in counted:
                    if group_min is None or cnt - group_min > eps:
                        groups.append([u])
                        group_min = cnt
                    else:
                        groups[-1].append(u)
                next_blocks.extend(groups)
            current = next_blocks
        refined = from_blocks(n, current)
        if block_tuples(refined) == block_tuples(part):
            return refined
        part = refined


def reference_partition_blocks(n, raw_blocks):
    """The dict/sort construction Partition stored before it kept only its
    label array: blocks sorted by minimum node, nodes ascending in each."""
    blocks = sorted((tuple(sorted(b)) for b in raw_blocks if len(b)),
                    key=lambda b: b[0])
    block_of = np.full(n, -1, dtype=np.int64)
    for i, b in enumerate(blocks):
        block_of[list(b)] = i
    return block_of, tuple(blocks)


def reference_partition_assignment(labels):
    raw = {}
    for u, b in enumerate(labels):
        raw.setdefault(int(b), []).append(u)
    return reference_partition_blocks(len(labels), list(raw.values()))


def reference_validate_aep(graph, partition, eps):
    """Per-block spread of per-node neighbor counts."""
    for block in block_tuples(partition):
        rows = np.array([np.bincount(partition.block_of[neighbors(graph, u)],
                                     minlength=partition.k) for u in block])
        if (rows.max(axis=0) - rows.min(axis=0)).max(initial=0) > eps:
            return False
    return True


def reference_two_hop(graph, origin_count, labels, mask):
    """Per-center similarity over graph.two_hop_neighbors sets."""
    eligible = mask & (labels != UNLABELED)
    fractions = []
    for v in np.flatnonzero(eligible):
        labeled = [u for u in two_hop_neighbors(graph, int(v))
                   if u < origin_count and eligible[u]]
        if labeled:
            same = sum(1 for u in labeled if labels[u] == labels[v])
            fractions.append(same / len(labeled))
    if not fractions:
        raise NoEligibleNodesError("no centers")
    return float(np.mean(fractions))


def reference_erdos_renyi_edges(n, rng, p):
    """One rng.random() per pair in row-major order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def reference_grid_edges(n):
    """Right and down neighbours of each cell of the most nearly square grid."""
    rows = math.isqrt(n)
    while n % rows:
        rows -= 1
    cols = n // rows
    edges = []
    for i in range(rows):
        for j in range(cols):
            u = i * cols + j
            if j + 1 < cols:
                edges.append((u, u + 1))
            if i + 1 < rows:
                edges.append((u, u + cols))
    return edges


def reference_ladder_edges(n):
    """Two rails of n // 2 nodes and one rung per position."""
    half = n // 2
    edges = [(i, i + 1) for i in range(half - 1)]
    edges += [(half + i, half + i + 1) for i in range(half - 1)]
    edges += [(i, half + i) for i in range(half)]
    return edges


REFERENCE_EDGES = {     # the Python edge lists the numpy builders replaced
    "star": lambda n: [(0, i) for i in range(1, n)],
    "cycle": lambda n: [(i, (i + 1) % n) for i in range(n)],
    "path": lambda n: [(i, i + 1) for i in range(n - 1)],
    "line": lambda n: [(i, i + 1) for i in range(n - 1)],
    "grid": reference_grid_edges,
    "ladder": reference_ladder_edges,
    "tree": lambda n: [((child - 1) // 2, child) for child in range(1, n)],
}


def reference_eccentricities(graph):
    """Largest BFS distance from every node, one per-source BFS each."""
    return np.array([bfs_distances(graph.indptr, graph.indices, u).max(initial=0)
                     for u in range(graph.num_nodes)])


def reference_eccentricity_labels(graph, num_classes):
    """Per-source BFS eccentricities, binned as eccentricity_labels does."""
    ecc = reference_eccentricities(graph)
    lo, hi = ecc.min(), ecc.max()
    if hi == lo:
        return np.zeros(graph.num_nodes, dtype=np.int64)
    return np.minimum((ecc - lo) * num_classes // (hi - lo + 1), num_classes - 1)


def reference_graph_from_edges(num_nodes, edges):
    """Set of canonical pairs, then one sorted neighbor list per node."""
    seen = set()
    for u, v in edges:
        if u == v:
            raise SelfLoopError(f"self-loop at node {u}")
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ParseError(f"edge ({u},{v}) outside node range 0..{num_nodes - 1}")
        seen.add((min(u, v), max(u, v)))
    adj = [[] for _ in range(num_nodes)]
    for u, v in seen:
        adj[u].append(v)
        adj[v].append(u)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    chunks = []
    for u in range(num_nodes):
        chunks.append(np.array(sorted(adj[u]), dtype=np.int64))
        indptr[u + 1] = indptr[u] + len(chunks[-1])
    return Graph(indptr=indptr, indices=np.concatenate(chunks))


def reference_compact_ids(graph):
    """Rebuild the graph from its relabelled edge list."""
    keep = np.flatnonzero(graph.degrees() > 0)
    if len(keep) == 0:
        keep = np.array([0], dtype=np.int64)
    remap = {int(old): new for new, old in enumerate(keep)}
    edges = [(remap[u], remap[v]) for u, v in graph.edges()]
    return reference_graph_from_edges(len(keep), edges), keep


def reference_dense_adjacency(graph):
    a = np.zeros((graph.num_nodes, graph.num_nodes))
    for u, v in graph.edges():
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def reference_rewired_adjacency(graph, partition, qpair, variant):
    """(n+k)^2 dense fill of [[A, R], [R', corner]], then CSR."""
    n, k = graph.num_nodes, partition.k
    a = np.zeros((n + k, n + k))
    for u in range(n):
        for v in neighbors(graph, u):
            a[u, v] = 1.0
    r = membership_matrix(partition).toarray()
    a[:n, n:] = r
    a[n:, :n] = r.T
    if variant is Variant.FULL:
        a[n:, n:] = (qpair.Q.toarray() + qpair.Q.toarray().T) / 2.0
    elif variant is Variant.REP_EDGES:
        a[n:, n:] = qpair.Q.toarray() > 0
    m = sp.csr_matrix(a)
    m.sort_indices()
    return m


def assert_same_csr(got, want):
    """Shape and the indptr, indices and data arrays equal byte for byte."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def assert_same_graph(got, want):
    for name in ("indptr", "indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b), name


def distinct_family_graphs():
    """(id, graph) for each distinct graph among every generator family at
    n in {120, 200} and seeds 0 and 1: deterministic families ignore the
    seed, and `line` is `path` under another name."""
    cases = {}
    for family in sorted(generators.FAMILIES):
        for n in (120, 200):
            for seed in (0, 1):
                graph = generators.make_graph(family, n, seed=seed)
                cases.setdefault((graph.indptr.tobytes(), graph.indices.tobytes()),
                                 (f"{family}-{n}-{seed}", graph))
    return list(cases.values())


def relabelled(graph, seed):
    """The graph with node u renamed perm[u] for a seeded permutation."""
    perm = np.random.default_rng(seed).permutation(graph.num_nodes)
    return graph_from_edges(graph.num_nodes, [(perm[u], perm[v]) for u, v in graph.edges()])


def pattern_graph(adjacency):
    """Simple Graph on the off-diagonal stored pattern of a symmetric matrix."""
    coo = adjacency.tocoo()
    edges = {(min(u, v), max(u, v))
             for u, v in zip(coo.row.tolist(), coo.col.tolist()) if u != v}
    return graph_from_edges(coo.shape[0], edges)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def graphs(draw, max_nodes=14):
    n = draw(st.integers(1, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = draw(st.sampled_from([0.15, 0.3, 0.6]))
    picks = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [e for e, x in zip(pairs, picks) if x < density])


@st.composite
def relabelled_family_graphs(draw, max_nodes=400):
    """ER (p >= 0.05), lobster or caterpillar draws of up to max_nodes
    nodes, where k is large at small eps, with node ids shuffled."""
    family = draw(st.sampled_from(["er", "lobster", "caterpillar"]))
    n = draw(st.integers(40, max_nodes))
    graph = generators.make_graph(family, n, seed=draw(st.integers(0, 2**16)),
                                  p=draw(st.floats(0.05, 0.2)))
    return relabelled(graph, draw(st.integers(0, 2**32 - 1)))


@st.composite
def component_unions(draw, max_nodes=60, min_nodes=1):
    """Disjoint pieces, each a random tree, a random edge set or both, ids
    shuffled so that components interleave; some nodes stay isolated."""
    n = draw(st.integers(min_nodes, max_nodes))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    edges = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        if hi - lo < 2:
            continue
        if draw(st.booleans()):
            edges += [(draw(st.integers(lo, v - 1)), v) for v in range(lo + 1, hi)]
        ends = st.integers(lo, hi - 1)
        edges += [(u, v) for u, v in draw(st.lists(st.tuples(ends, ends), max_size=hi - lo))
                  if u != v]
    perm = draw(st.permutations(range(n)))
    return graph_from_edges(n, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def edge_mentions(draw, max_nodes=12):
    """A node count and edge mentions with duplicates, reversals, self-loops
    and, in one draw of four, ids outside 0..n-1, some outside int64."""
    n = draw(st.integers(1, max_nodes))
    ids = st.integers(0, n - 1)
    if draw(st.integers(0, 3)) == 0:
        ids = st.one_of(st.integers(-2, n + 1), st.sampled_from([-2**63 - 1, -2**63, 2**63]))
    return n, draw(st.lists(st.tuples(ids, ids), max_size=30))


@st.composite
def label_arrays(draw, max_nodes=30):
    """Arbitrary int64 labels: a few distinct values with gaps and signs."""
    pool = draw(st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=8,
                         unique=True))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_nodes))


@st.composite
def block_lists(draw, max_nodes=20):
    """Disjoint covering blocks in any order, some of them empty."""
    n = draw(st.integers(1, max_nodes))
    nodes = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=8)))
    bounds = [0] + cuts + [n]
    return n, [list(nodes[a:b]) for a, b in zip(bounds, bounds[1:])]


tolerances = st.one_of(
    st.integers(0, 6).map(float),
    st.floats(0, 6, allow_nan=False),
    st.floats(0, 40, allow_nan=False),      # up to past every spread: degrees stay below 30
    st.sampled_from([1e9, math.inf]),
)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@PROPERTY_SETTINGS
@given(labels=label_arrays())
def test_from_assignment_matches_dict_construction(labels):
    block_of, blocks = reference_partition_assignment(labels)
    part = Partition.from_assignment(labels)
    assert part.block_of.dtype == np.int64
    assert np.array_equal(part.block_of, block_of)
    assert part.k == len(blocks) and block_tuples(part) == blocks


@PROPERTY_SETTINGS
@given(case=block_lists())
def test_from_blocks_matches_dict_construction(case):
    n, raw_blocks = case
    block_of, blocks = reference_partition_blocks(n, raw_blocks)
    part = from_blocks(n, raw_blocks)
    assert np.array_equal(part.block_of, block_of)
    assert part.k == len(blocks) and block_tuples(part) == blocks


@PROPERTY_SETTINGS
@given(graph=graphs(), eps=tolerances)
def test_refine_matches_greedy_loop(graph, eps):
    fast = refine_eps_be(graph, eps)
    slow = reference_refine_eps_be(graph, eps)
    assert block_tuples(fast) == block_tuples(slow)
    assert np.array_equal(fast.block_of, slow.block_of)
    assert validate_aep(graph, fast, eps)


@pytest.mark.parametrize("case", distinct_family_graphs(), ids=lambda case: case[0])
def test_refine_matches_greedy_loop_on_families(case):
    """Graphs with enough blocks that most splitters of a round split
    nothing, at every grid tolerance and at 0.25, 0.5, 0.99, 1 and 2:
    the common refinement of eps < 1 at nonzero eps, and the splitter
    loop. No spread exceeds the max degree, so there and at infinity
    the single block stays."""
    _, graph = case
    grid = {degree_percentile(graph, p) for p in PERCENTILE_GRID}
    for eps in sorted(grid | {0.25, 0.5, 0.99, 1.0, 2.0}):
        fast = refine_eps_be(graph, eps)
        assert fast.block_of.tobytes() == reference_refine_eps_be(graph, eps).block_of.tobytes()
        assert validate_aep(graph, fast, eps)
    for eps in (float(graph.degrees().max()), math.inf):
        part = refine_eps_be(graph, eps)
        assert part.k == 1 and not part.block_of.any()


@settings(max_examples=100, deadline=None)
@given(graph=relabelled_family_graphs(),
       eps=st.sampled_from([0.0, 0.25, 0.5, 0.99, 1.0, 1.5, 2.0, 3.0]),
       blocks=st.integers(1, 8), seed=st.integers(0, 2**16))
def test_refine_matches_splitter_oracle_on_large_graphs(graph, eps, blocks, seed):
    """Hundreds of blocks and splitters per round, node ids shuffled.
    One round from a random partition also matches: a round that starts
    from a partition refinement never reaches must still keep blocks
    apart."""
    part = refine_eps_be(graph, eps)
    assert part.block_of.tobytes() == refine_eps_be_by_splitters(graph, eps).block_of.tobytes()
    assert validate_aep(graph, part, eps)
    start = Partition.from_assignment(
        np.random.default_rng(seed).integers(0, blocks, graph.num_nodes))
    got, want = _refine_round(graph, start, eps), splitter_round_by_product(graph, start, eps)
    assert (got is None and want is None) or got.block_of.tobytes() == want.block_of.tobytes()


@pytest.mark.parametrize("case", distinct_family_graphs(), ids=lambda case: case[0])
def test_quotient_and_rewiring_match_product_and_bmat_on_families(case):
    """The sorted summary's quotient and the directly written augmented
    CSR equal the scipy-product quotient and the `bmat` assembly byte
    for byte, at every grid tolerance and, for the master node, at
    infinity."""
    _, graph = case
    for eps in sorted({degree_percentile(graph, p) for p in PERCENTILE_GRID} | {math.inf}):
        part = refine_eps_be(graph, eps)
        got, want = quotient(graph, part), quotient_by_product(graph, part)
        assert_same_csr(got.Q, want.Q)
        assert got.residual.hex() == want.residual.hex()
        for variant in Variant:
            if variant is Variant.MASTER_NODE and part.k != 1:
                continue
            assert_same_csr(build_rewired(graph, part, variant, eps=eps).adjacency,
                            rewired_adjacency_by_bmat(graph, part, variant))


@PROPERTY_SETTINGS
@given(graph=graphs(max_nodes=20))
def test_exact_refine_matches_color_refinement(graph):
    assert as_block_set(refine_eps_be(graph, 0.0)) == \
        as_block_set(color_refinement_oracle(graph))


@PROPERTY_SETTINGS
@given(graph=graphs(), data=st.data())
def test_exact_refine_is_relabelling_invariant(graph, data):
    n = graph.num_nodes
    perm = data.draw(st.permutations(range(n)))         # node u becomes perm[u]
    permuted = graph_from_edges(n, [(perm[u], perm[v]) for u, v in graph.edges()])
    want = {frozenset(perm[u] for u in b) for b in block_tuples(refine_eps_be(graph, 0.0))}
    assert as_block_set(refine_eps_be(permuted, 0.0)) == want


@PROPERTY_SETTINGS
@given(graph=graphs(), eps=tolerances, seed=st.integers(0, 2**16))
def test_block_degree_rows_sum_to_degrees(graph, eps, seed):
    rng = np.random.default_rng(seed)
    part = Partition.from_assignment(rng.integers(0, 4, graph.num_nodes))
    counts = block_degree_matrix(graph, part)
    assert counts.shape == (graph.num_nodes, part.k)
    assert np.array_equal(counts.sum(axis=1), graph.degrees())
    assert validate_aep(graph, part, eps) == reference_validate_aep(graph, part, eps)
    q = (np.eye(part.k, dtype=np.int64)[part.block_of].T @ counts
         / part.block_sizes()[:, None].astype(float))
    qp = quotient(graph, part)
    assert np.array_equal(qp.Q.toarray(), q)
    assert qp.residual == float(np.abs(counts - q[part.block_of]).max(initial=0.0))


@st.composite
def labelled(draw):
    graph = draw(graphs())
    n = graph.num_nodes
    labels = np.array(draw(st.lists(st.sampled_from([UNLABELED, 0, 1, 2, 2**63 - 1]),
                                    min_size=n, max_size=n)), dtype=np.int64)
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return graph, labels, mask


def _same_similarity(obj, reference_graph, origin_count, labels, mask):
    try:
        want = reference_two_hop(reference_graph, origin_count, labels, mask)
    except NoEligibleNodesError:
        with pytest.raises(NoEligibleNodesError):
            two_hop_class_similarity(obj, labels, mask)
        return
    assert two_hop_class_similarity(obj, labels, mask).hex() == want.hex()


@PROPERTY_SETTINGS
@given(case=labelled())
def test_two_hop_matches_reference_on_graphs(case):
    graph, labels, mask = case
    _same_similarity(graph, graph, graph.num_nodes, labels, mask)


@PROPERTY_SETTINGS
@given(case=labelled(), eps=tolerances,
       variant=st.sampled_from(list(Variant)))
def test_two_hop_matches_reference_on_rewired(case, eps, variant):
    graph, labels, mask = case
    n = graph.num_nodes
    part = from_blocks(n, [list(range(n))]) if variant is Variant.MASTER_NODE \
        else refine_eps_be(graph, eps)
    rewired = build_rewired(graph, part, variant, eps=eps)
    _same_similarity(rewired, pattern_graph(rewired.adjacency), n, labels, mask)


@pytest.mark.parametrize(
    "graph", [star_graph(60), generators.lobster(60, np.random.default_rng(3))],
    ids=["star", "lobster"])
def test_two_hop_over_several_chunks_matches_reference(graph):
    n = graph.num_nodes
    two_walks = int((graph.adjacency @ graph.adjacency).sum())
    assert two_walks > graph.adjacency.nnz + n      # the chunk budget splits the centers
    labels = np.arange(n) % 3
    mask = np.ones(n, dtype=bool)
    _same_similarity(graph, graph, n, labels, mask)
    rewired = build_rewired(graph, refine_eps_be(graph, 0.0), Variant.REP_NODES)
    _same_similarity(rewired, pattern_graph(rewired.adjacency), n, labels, mask)


@st.composite
def labelled_relabelled(draw):
    """A labelled graph: a small random graph, a union of components or a
    family draw, node ids shuffled."""
    graph = draw(st.one_of(graphs(), component_unions(), relabelled_family_graphs(max_nodes=120)))
    n = graph.num_nodes
    labels = np.array(draw(st.lists(st.sampled_from([UNLABELED, 0, 1, 2]),
                                    min_size=n, max_size=n)), dtype=np.int64)
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return graph, labels, mask


def _same_as_product(obj, labels, mask):
    try:
        want = two_hop_class_similarity_by_product(obj, labels, mask)
    except NoEligibleNodesError:
        with pytest.raises(NoEligibleNodesError):
            two_hop_class_similarity(obj, labels, mask)
        return
    assert two_hop_class_similarity(obj, labels, mask).hex() == want.hex()


@PROPERTY_SETTINGS
@given(case=labelled_relabelled(), eps=tolerances, variant=st.sampled_from(list(Variant)))
def test_two_hop_kernel_matches_the_sparse_product(case, eps, variant):
    """The CSR two-walk kernel gives the float of the sparse-product form,
    on the graph and on its rewiring."""
    graph, labels, mask = case
    n = graph.num_nodes
    part = from_blocks(n, [list(range(n))]) if variant is Variant.MASTER_NODE \
        else refine_eps_be(graph, eps)
    _same_as_product(graph, labels, mask)
    _same_as_product(build_rewired(graph, part, variant, eps=eps), labels, mask)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("variant", list(Variant))
def test_two_hop_kernel_matches_the_sparse_product_over_several_chunks(seed, variant):
    rng = np.random.default_rng(seed)
    graph = relabelled(star_graph(60) if seed == 0 else generators.lobster(80, rng), seed)
    n = graph.num_nodes
    assert int((graph.adjacency @ graph.adjacency).sum()) > graph.adjacency.nnz + n
    labels = rng.integers(-1, 3, n)
    mask = rng.random(n) < 0.9
    part = from_blocks(n, [list(range(n))]) if variant is Variant.MASTER_NODE \
        else refine_eps_be(graph, 0.0)
    _same_as_product(graph, labels, mask)
    _same_as_product(build_rewired(graph, part, variant), labels, mask)


@st.composite
def sparse_er_graphs(draw, max_nodes=300):
    """ER draws of mean degree 0.2 to 3, most with many components, ids shuffled."""
    n = draw(st.integers(2, max_nodes))
    graph = generators.make_graph("er", n, seed=draw(st.integers(0, 2**16)),
                                  p=draw(st.floats(0.2, 3.0)) / n)
    return relabelled(graph, draw(st.integers(0, 2**32 - 1)))


@PROPERTY_SETTINGS
@given(graph=st.one_of(graphs(), component_unions(), sparse_er_graphs()))
def test_component_labels_match_bfs_reachability(graph):
    want = np.full(graph.num_nodes, -1)
    for s in range(graph.num_nodes):          # ascending: s is its component's least id
        if want[s] < 0:
            want[bfs_distances(graph.indptr, graph.indices, s) >= 0] = s
    assert np.array_equal(component_labels(graph.csr), want)


@PROPERTY_SETTINGS
@given(graph=graphs(max_nodes=20), num_classes=st.integers(1, 5))
def test_eccentricity_labels_match_per_source_bfs(graph, num_classes):
    assert np.array_equal(eccentricity_labels(graph, num_classes),
                          reference_eccentricity_labels(graph, num_classes))


@PROPERTY_SETTINGS
@given(family=st.sampled_from(sorted(generators.FAMILIES)), n=st.sampled_from([24, 60, 200]),
       seed=st.integers(0, 3), p=st.sampled_from([0.02, 0.1, 0.3]))
def test_eccentricities_match_per_source_bfs_on_families(family, n, seed, p):
    graph = generators.make_graph(family, n, seed=seed, p=p)
    assert np.array_equal(generators._eccentricities(graph), reference_eccentricities(graph))


@PROPERTY_SETTINGS
@given(graph=component_unions())
def test_eccentricities_match_per_source_bfs_on_components(graph):
    assert np.array_equal(generators._eccentricities(graph), reference_eccentricities(graph))


@st.composite
def graphs_and_sources(draw):
    """A union of components on at least 130 nodes, and 1, 63, 64, 65 or 130
    distinct sources in drawn order: one bit, a word but one bit, a word, a
    word and one bit, or parts of three words."""
    graph = draw(component_unions(max_nodes=200, min_nodes=130))
    count = draw(st.sampled_from([1, 63, 64, 65, 130]))
    return graph, np.array(draw(st.permutations(range(graph.num_nodes)))[:count])


@PROPERTY_SETTINGS
@given(case=graphs_and_sources())
@example(case=(graph_from_edges(130, []), np.arange(130)))
def test_bfs_depths_match_per_source_bfs(case):
    graph, sources = case
    want = [bfs_distances(graph.indptr, graph.indices, int(s)).max() for s in sources]
    assert np.array_equal(generators._bfs_depths(graph, sources), want)


@pytest.mark.parametrize("family,n", [("tree", 16383), ("grid", 16384), ("er", 4000),
                                      ("cycle", 16384)])
def test_eccentricities_at_16k_match_batch_bfs_on_a_sample(family, n):
    graph = generators.make_graph(family, n)
    sample = np.sort(rng_for(7, 0).choice(n, size=64, replace=False))
    assert np.array_equal(generators._eccentricities(graph)[sample],
                          generators._bfs_depths(graph, sample))


def _record_batch_chunks(monkeypatch):
    """Route `_bfs_depths` through a wrapper; the list collects its chunks."""
    chunks, batch = [], generators._bfs_depths

    def recorded(graph, chunk):
        chunks.append(chunk.tolist())
        return batch(graph, chunk)
    monkeypatch.setattr(generators, "_bfs_depths", recorded)
    return chunks


@pytest.mark.parametrize("family,n,batched", [
    ("tree", 1023, False), ("grid", 1024, False), ("lobster", 1000, False),
    ("path", 1024, False), ("ladder", 1000, False), ("cycle", 1000, False)])
def test_bounds_settle_trees_and_grids_without_the_batch(monkeypatch, family, n, batched):
    graph = generators.make_graph(family, n)
    chunks = _record_batch_chunks(monkeypatch)
    ecc = generators._eccentricities(graph)
    assert bool(chunks) == batched
    if family == "cycle":   # settled in closed form: its bounds meet only at swept nodes
        assert np.array_equal(ecc, np.full(n, n // 2))


def test_eccentricity_chunks_do_not_change_labels(monkeypatch):
    for graph in (generators.make_graph("er", 200, p=0.03),
                  generators.make_graph("er", 300, p=0.01)):    # over 64 open nodes each
        whole = eccentricity_labels(graph, 4)
        chunks = _record_batch_chunks(monkeypatch)
        monkeypatch.setattr(generators, "ECCENTRICITY_CHUNK", 1)
        assert np.array_equal(eccentricity_labels(graph, 4), whole)
        assert len(chunks) > 1      # one word per chunk, and the open nodes fill several
        assert sum(map(len, chunks)) < graph.num_nodes      # the open nodes only
        assert all(len(chunk) <= 64 for chunk in chunks)
        assert np.array_equal(whole, reference_eccentricity_labels(graph, 4))
        monkeypatch.undo()


@st.composite
def csr_entries(draw, max_nodes=8):
    """Entries (rows, cols, values) of an n x n matrix with repeated
    positions and integer values, int64 or float64: shuffled, or in one
    draw of three sorted by position, so runs of equal keys reach the
    constructor's sorted fast path."""
    n = draw(st.integers(1, max_nodes))
    ids = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(ids, ids, st.integers(-9, 9)), max_size=30))
    entries = draw(st.permutations(entries))
    if draw(st.integers(0, 2)) == 0:
        entries = sorted(entries, key=lambda e: e[:2])
    rows, cols, values = (np.array([e[i] for e in entries], dtype=np.int64) for i in range(3))
    return rows, cols, values.astype(draw(st.sampled_from([np.int64, np.float64]))), n


@PROPERTY_SETTINGS
@given(case=csr_entries())
@example(case=(np.array([0, 0, 1]), np.array([1, 1, 0]), np.array([2.0, 3.0, 5.0]), 2))
def test_csr_from_entries_matches_a_dict(case):
    got, want = Csr.from_entries(*case), csr_by_dict(*case)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@PROPERTY_SETTINGS
@given(case=edge_mentions())
@example(case=(5, [(0, 2**63)]))
@example(case=(5, [(1, 2), (-2**63 - 1, 0)]))
@example(case=(5, [(-2**63, 3)]))
def test_graph_from_edges_matches_set_loop(case):
    n, edges = case
    try:
        want = reference_graph_from_edges(n, edges)
    except (SelfLoopError, ParseError) as exc:
        with pytest.raises(type(exc)) as got:
            graph_from_edges(n, edges)
        assert str(got.value) == str(exc)
        return
    assert_same_graph(graph_from_edges(n, edges), want)
    assert_same_graph(graph_from_edges(n, iter(edges)), want)


@PROPERTY_SETTINGS
@given(graph=graphs(max_nodes=16))
def test_bfs_distances_match_csgraph_hop_counts(graph):
    hops = sp.csgraph.shortest_path(graph.adjacency, unweighted=True)
    want = np.where(np.isinf(hops), -1, hops).astype(np.int64)
    for u in range(graph.num_nodes):
        got = bfs_distances(graph.indptr, graph.indices, u)
        assert got.dtype == np.int64 and np.array_equal(got, want[u])


@PROPERTY_SETTINGS
@given(graph=graphs(max_nodes=16))
def test_compact_ids_and_dense_adjacency_match_loops(graph):
    compacted, kept = compact_ids(graph)
    want, want_kept = reference_compact_ids(graph)
    assert_same_graph(compacted, want)
    assert kept.dtype == np.int64 and np.array_equal(kept, want_kept)
    assert np.array_equal(graph.dense_adjacency(), reference_dense_adjacency(graph))


@PROPERTY_SETTINGS
@given(graph=graphs(), eps=tolerances, variant=st.sampled_from(list(Variant)))
def test_build_rewired_matches_dense_fill(graph, eps, variant):
    if variant is Variant.MASTER_NODE:
        eps = math.inf
    part = refine_eps_be(graph, eps)
    qp = quotient(graph, part)
    got = build_rewired(graph, part, variant, eps=eps).adjacency
    want = reference_rewired_adjacency(graph, part, qp, variant)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert got.has_sorted_indices
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@PROPERTY_SETTINGS
@given(graph=graphs(), eps=tolerances, variant=st.sampled_from(list(Variant)))
def test_rewiring_never_raises_effective_resistance(graph, eps, variant):
    """Virtual nodes only add conductance, so by Rayleigh monotonicity the
    mean resistance over the original nodes cannot rise. All-singleton
    blocks add pendant nodes only and leave it unchanged, hence a relative
    tolerance instead of a strict decrease."""
    graph = largest_component(graph)
    assume(graph.num_nodes >= 2)
    if variant is Variant.MASTER_NODE:
        eps = math.inf
    rewired = build_rewired(graph, refine_eps_be(graph, eps), variant, eps=eps)
    base = mean_effective_resistance(graph.adjacency)
    after = mean_effective_resistance(rewired.adjacency, origin_count=graph.num_nodes)
    assert after <= base * (1 + 1e-9)


@PROPERTY_SETTINGS
@given(graph=graphs(max_nodes=30), eps=tolerances, variant=st.sampled_from(list(Variant)))
def test_effective_resistance_matches_per_pair_oracle(graph, eps, variant):
    """The trace and block-sum identity equals the mean of the per-pair
    resistances, on the graph and on its rewiring, over the original nodes
    and over all nodes. FULL rewirings carry weighted virtual edges and
    virtual self-loops, which must be dropped."""
    graph = largest_component(graph)
    assume(graph.num_nodes >= 2)
    if variant is Variant.MASTER_NODE:
        eps = math.inf
    rewired = build_rewired(graph, refine_eps_be(graph, eps), variant, eps=eps)
    n, m = graph.num_nodes, rewired.adjacency.shape[0]
    for adjacency, origin_count, span in ((graph.adjacency, None, n),
                                          (rewired.adjacency, n, n),
                                          (rewired.adjacency, None, m)):
        r = pairwise_resistance(adjacency.toarray(), span)
        want = r[np.triu_indices(span, k=1)].mean()
        got = mean_effective_resistance(adjacency, origin_count=origin_count)
        assert got == pytest.approx(want, rel=1e-9)


@PROPERTY_SETTINGS
@given(graph=graphs(max_nodes=30), eps=tolerances, variant=st.sampled_from(list(Variant)))
def test_effective_resistance_matches_dense_inverse_oracle(graph, eps, variant):
    """The grounded sparse LU agrees with the dense inverse of L + J/m within
    1e-10 relative, on the graph and its rewiring, with and without
    origin_count: the grounded last node lies inside the pair set on the
    graph and in all-pairs mode, and outside it (virtual) otherwise."""
    graph = largest_component(graph)
    assume(graph.num_nodes >= 2)
    if variant is Variant.MASTER_NODE:
        eps = math.inf
    rewired = build_rewired(graph, refine_eps_be(graph, eps), variant, eps=eps)
    n = graph.num_nodes
    for adjacency, origin_count in ((graph.adjacency, None), (graph.adjacency, n),
                                    (rewired.adjacency, n), (rewired.adjacency, None)):
        got = mean_effective_resistance(adjacency, origin_count=origin_count)
        want = mean_effective_resistance_oracle(adjacency, origin_count)
        assert got == pytest.approx(want, rel=1e-10)


@st.composite
def sparse_connected_graphs(draw, max_nodes=120):
    """A random tree plus a few chords: sparse enough that the grounded
    factor has columns outside its dense trailing block, with fill among
    their rows."""
    n = draw(st.integers(2, max_nodes))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    ends = st.integers(0, n - 1)
    edges += [(u, v) for u, v in draw(st.lists(st.tuples(ends, ends), max_size=n // 4))
              if u != v]
    return graph_from_edges(n, edges)


@st.composite
def dense_core_graphs(draw):
    """A random tree on 260 to 320 nodes plus 5n to 8n random chords,
    from a drawn seed: the stages stall early and leave 160 or more nodes
    to the core (the least in 1500 draws), so the minimum-degree order
    and several supernodes run."""
    n = draw(st.integers(260, 320))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chords = rng.integers(0, n, (draw(st.integers(5 * n, 8 * n)), 2))
    u = np.concatenate([rng.integers(0, np.arange(1, n)), chords[:, 0]])
    v = np.concatenate([np.arange(1, n), chords[:, 1]])
    return graph_from_edges(n, list(zip(u[u != v].tolist(), v[u != v].tolist())))


def assert_fosters_theorem(csr: Csr) -> Ldl:
    """Foster (1949): on a connected graph of N nodes, sum_e w_e R_e = N - 1
    within 1e-10. Each edge's R_uv = Z_uu + Z_vv - 2 Z_uv comes from the
    selected inverse Z on the factor's pattern, which holds every edge of
    the grounded graph; an edge to the grounded last node has R = Z_uu.
    Self-loops are dropped. Returns the factor."""
    m = csr.shape[0]
    rows, cols = csr.rows(), csr.indices
    edge = rows != cols
    weights = Csr.from_entries(rows[edge], cols[edge], csr.data[edge].astype(np.float64), m)
    factor = Ldl(weights)
    zdiag, z = factor.selected_inverse()
    rows, cols, w = weights.rows(), weights.indices, weights.data
    inner = (rows < cols) & (cols < m - 1)
    grounded = cols == m - 1
    u, v = rows[inner], cols[inner]
    total = ((w[inner] * (zdiag[u] + zdiag[v] - 2 * z[:inner.sum()])).sum()
             + (w[grounded] * zdiag[rows[grounded]]).sum())
    assert abs(total - (m - 1)) / (m - 1) < 1e-10
    return factor


@PROPERTY_SETTINGS
@given(graph=st.one_of(graphs(max_nodes=30), sparse_connected_graphs()), eps=tolerances,
       variant=st.sampled_from([Variant.FULL, Variant.MASTER_NODE]),
       origin_count=st.integers(2, 30))
def test_selected_inversion_matches_blocked_solves(graph, eps, variant, origin_count):
    """The diagonal read off the factor agrees with the one from identity
    solves within 1e-12 relative, on the graph, on FULL rewirings
    (weighted edges, self-loops) and on master-node rewirings, over the
    original nodes, over all nodes and over a prefix of them."""
    graph = largest_component(graph)
    assume(graph.num_nodes >= 2)
    if variant is Variant.MASTER_NODE:
        eps = math.inf
    rewired = build_rewired(graph, refine_eps_be(graph, eps), variant, eps=eps)
    n = graph.num_nodes
    for adjacency, count in ((graph.adjacency, None), (graph.adjacency, min(origin_count, n)),
                             (rewired.adjacency, n), (rewired.adjacency, None)):
        got = mean_effective_resistance(adjacency, origin_count=count)
        assert got == pytest.approx(mean_effective_resistance_by_solves(adjacency, count),
                                    rel=1e-12)


@PROPERTY_SETTINGS
@given(graph=st.one_of(graphs(max_nodes=30), sparse_connected_graphs()), eps=tolerances,
       variant=st.sampled_from(list(Variant)))
@example(graph=generators.make_graph("grid", 400), eps=0.0, variant=Variant.FULL)
@example(graph=generators.make_graph("er", 300), eps=0.0, variant=Variant.REP_EDGES)
def test_selected_inverse_satisfies_fosters_theorem(graph, eps, variant):
    """Foster's theorem on the graph and on its rewiring, whose FULL
    corner carries weights and self-loops. The drawn graphs leave at most
    128 nodes to the core, one dense block; the two examples leave more,
    so the minimum-degree order and several supernodes run too."""
    graph = largest_component(graph)
    assume(graph.num_nodes >= 2)
    if variant is Variant.MASTER_NODE:
        eps = math.inf
    rewired = build_rewired(graph, refine_eps_be(graph, eps), variant, eps=eps)
    for csr in (graph.csr, rewired.csr):
        assert_fosters_theorem(csr)


@settings(max_examples=40, deadline=None)
@given(graph=dense_core_graphs(), eps=tolerances, variant=st.sampled_from(list(Variant)))
def test_minimum_degree_core_matches_solves_and_fosters_theorem(graph, eps, variant):
    """On graphs whose core exceeds the 128-node dense block, the factor
    has several supernodes, and the mean effective resistance read off it
    matches identity solves within 1e-12 relative and satisfies Foster's
    theorem, on the graph and on its rewiring."""
    if variant is Variant.MASTER_NODE:
        eps = math.inf
    rewired = build_rewired(graph, refine_eps_be(graph, eps), variant, eps=eps)
    factor = assert_fosters_theorem(graph.csr)
    assert len(factor.core) > 128 and len(factor.factors) > 1
    assert_fosters_theorem(rewired.csr)
    for adjacency, count in ((graph.adjacency, None), (rewired.adjacency, graph.num_nodes)):
        got = mean_effective_resistance(adjacency, origin_count=count)
        assert got == pytest.approx(mean_effective_resistance_by_solves(adjacency, count),
                                    rel=1e-12)


@pytest.mark.parametrize("family", sorted(REFERENCE_EDGES))
def test_deterministic_builders_match_their_edge_lists(family):
    fam = generators.FAMILIES[family]
    for n in [*range(1, 60), 97, 1000, 1023, 4095, 4096, 16383, 16384]:
        if fam.size_error(n) is None:
            assert_same_graph(fam.build(n, None), graph_from_edges(n, REFERENCE_EDGES[family](n)))


@PROPERTY_SETTINGS
@given(n=st.integers(1, 80), p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
       seed=st.integers(0, 2**32 - 1))
def test_erdos_renyi_matches_per_pair_draws(n, p, seed):
    rng, reference_rng = rng_for(seed, 0), rng_for(seed, 0)
    want = graph_from_edges(n, reference_erdos_renyi_edges(n, reference_rng, p))
    assert_same_graph(generators.erdos_renyi(n, rng, p), want)
    assert rng.random() == reference_rng.random()   # the same stream was consumed
