"""Property tests: the sparse structural kernels against per-node references.

The references are the plain loops the kernels replaced. Every quantity
here is an integer count, a ratio of two, or a value copied from the
quotient, so results must match exactly (floats compared through
float.hex or array equality), on random graphs and tolerances. The one
inequality is the paper's: rewiring never raises effective resistance.
Effective resistance, a float sum in another order than its per-pair
oracle, is compared within a relative 1e-9.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st

from rolewire import generators
from rolewire.errors import NoEligibleNodesError, ParseError, SelfLoopError
from rolewire.generators import eccentricity_labels
from rolewire.graph import (
    UNLABELED,
    Graph,
    bfs_distances,
    compact_ids,
    graph_from_edges,
)
from rolewire.metrics import mean_effective_resistance, two_hop_class_similarity
from rolewire.partition import (
    Partition,
    color_refinement_oracle,
    membership_matrix,
    quotient,
    refine_eps_be,
    validate_aep,
)
from rolewire.rewire import Variant, build_rewired
from rolewire.seeding import rng_for

from conftest import (as_block_set, block_degree_matrix, from_blocks, largest_component,
                      mean_effective_resistance_by_solves,
                      mean_effective_resistance_oracle, pairwise_resistance,
                      star_graph, two_hop_neighbors)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


# ---------------------------------------------------------------------------
# Reference oracles
# ---------------------------------------------------------------------------

def reference_refine_eps_be(graph, eps):
    """Per-block greedy splitting loop, one splitter and one block at a time."""
    n = graph.num_nodes
    part = from_blocks(n, [list(range(n))])
    while True:
        splitters = part.blocks
        current = [list(b) for b in part.blocks]
        for splitter in splitters:
            in_splitter = np.zeros(n, dtype=bool)
            in_splitter[list(splitter)] = True
            next_blocks = []
            for block in current:
                if len(block) == 1:
                    next_blocks.append(block)
                    continue
                counted = sorted(
                    (int(in_splitter[graph.neighbors(u)].sum()), u) for u in block)
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
        if refined.blocks == part.blocks:
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
    for block in partition.blocks:
        rows = np.array([np.bincount(partition.block_of[graph.neighbors(u)],
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
    return reference_graph_from_edges(len(keep), edges), remap


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
        for v in graph.neighbors(u):
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


def assert_same_graph(got, want):
    for name in ("indptr", "indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b), name


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
def component_unions(draw, max_nodes=60):
    """Disjoint pieces, each a random tree, a random edge set or both, ids
    shuffled so that components interleave; some nodes stay isolated."""
    n = draw(st.integers(1, max_nodes))
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
    assert part.k == len(blocks) and part.blocks == blocks


@PROPERTY_SETTINGS
@given(case=block_lists())
def test_from_blocks_matches_dict_construction(case):
    n, raw_blocks = case
    block_of, blocks = reference_partition_blocks(n, raw_blocks)
    part = from_blocks(n, raw_blocks)
    assert np.array_equal(part.block_of, block_of)
    assert part.k == len(blocks) and part.blocks == blocks


@PROPERTY_SETTINGS
@given(graph=graphs(), eps=tolerances)
def test_refine_matches_greedy_loop(graph, eps):
    fast = refine_eps_be(graph, eps)
    slow = reference_refine_eps_be(graph, eps)
    assert fast.blocks == slow.blocks
    assert np.array_equal(fast.block_of, slow.block_of)
    assert validate_aep(graph, fast, eps)


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
    want = {frozenset(perm[u] for u in b) for b in refine_eps_be(graph, 0.0).blocks}
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


@pytest.mark.parametrize("family,n", [("tree", 16383), ("grid", 16384)])
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
    ("path", 1024, False), ("ladder", 1000, False), ("cycle", 1000, True)])
def test_bounds_settle_trees_and_grids_without_the_batch(monkeypatch, family, n, batched):
    graph = generators.make_graph(family, n)
    chunks = _record_batch_chunks(monkeypatch)
    ecc = generators._eccentricities(graph)
    assert bool(chunks) == batched
    if batched:     # a cycle's bounds meet only at the swept nodes
        assert np.array_equal(ecc, np.full(n, n // 2))


def test_eccentricity_chunks_do_not_change_labels(monkeypatch):
    for graph in (generators.cycle(60, None), generators.grid(60, None)):
        whole = eccentricity_labels(graph, 4)
        chunks = _record_batch_chunks(monkeypatch)
        monkeypatch.setattr(generators, "ECCENTRICITY_CHUNK", 1)
        assert np.array_equal(eccentricity_labels(graph, 4), whole)
        assert 0 < len(chunks) < graph.num_nodes        # the batch ran, on the open nodes only
        assert all(len(chunk) == 1 for chunk in chunks)
        assert np.array_equal(whole, reference_eccentricity_labels(graph, 4))
        monkeypatch.undo()


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
    compacted, remap = compact_ids(graph)
    want, want_remap = reference_compact_ids(graph)
    assert_same_graph(compacted, want)
    assert remap == want_remap
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
@given(n=st.integers(1, 80), p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
       seed=st.integers(0, 2**32 - 1))
def test_erdos_renyi_matches_per_pair_draws(n, p, seed):
    rng, reference_rng = rng_for(seed, 0), rng_for(seed, 0)
    want = graph_from_edges(n, reference_erdos_renyi_edges(n, reference_rng, p))
    assert_same_graph(generators.erdos_renyi(n, rng, p), want)
    assert rng.random() == reference_rng.random()   # the same stream was consumed
