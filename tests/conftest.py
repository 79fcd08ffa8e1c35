"""Shared fixtures: small named graphs and the seeded evaluation corpus."""

import math
from itertools import chain
from typing import IO, Sequence

import numpy as np
import pytest
import scipy.sparse as sp

from rolewire.generators import erdos_renyi, make_graph
from rolewire.graph import (PERCENTILE_GRID, UNLABELED, Csr, Graph, bfs_distances,
                            degree_percentile, graph_from_edges, one_hot_labels,
                            require_symmetric)
from rolewire.errors import (DimensionMismatchError, InputError, NoEligibleNodesError,
                             NonSymmetricError)
from rolewire.metrics import EpsCandidate, srl_star, two_hop_class_similarity
from rolewire.partition import Partition, QuotientPair, refine_eps_be
from rolewire.rewire import RewiredGraph, Variant, build_rewired
from rolewire.seeding import rng_for
from rolewire.spectral import _JACOBI_MAX_SWEEPS, _JACOBI_TOL, srl_report
from rolewire.teacher_student import LinearGnnWeights, _ChainGradient, _stacked_mse


class SizeMismatchError(InputError):
    """Requested block sizes do not sum to the node count."""


def from_blocks(n: int, raw_blocks: Sequence[Sequence[int]]) -> Partition:
    """Canonical partition of arbitrary disjoint covering blocks."""
    nodes = np.fromiter(chain.from_iterable(raw_blocks), dtype=np.int64)
    repeated = np.flatnonzero(np.bincount(nodes, minlength=n) > 1)
    if len(repeated):
        raise ValueError(f"node {repeated[0]} assigned to two blocks")
    labels = np.full(n, -1, dtype=np.int64)
    labels[nodes] = np.repeat(np.arange(len(raw_blocks)),
                              [len(b) for b in raw_blocks])
    if np.any(labels < 0):
        raise ValueError("blocks do not cover all nodes")
    return Partition.from_assignment(labels)


def membership_matrix(partition: Partition) -> sp.csr_matrix:
    """Sparse n x k 0/1 int64 indicator R: R[u, block_of[u]] = 1."""
    n = partition.num_nodes
    return sp.csr_matrix((np.ones(n, dtype=np.int64), (np.arange(n), partition.block_of)),
                         shape=(n, partition.k))


def block_tuples(partition: Partition) -> tuple[tuple[int, ...], ...]:
    """Each block's nodes in ascending order, blocks in canonical order."""
    members = np.argsort(partition.block_of, kind="stable")
    ends = np.cumsum(partition.block_sizes())
    return tuple(tuple(b.tolist()) for b in np.split(members, ends)[:-1])


def as_block_set(partition: Partition) -> frozenset[frozenset[int]]:
    """The partition's blocks as a set of node sets, for order-free equality."""
    return frozenset(frozenset(b) for b in block_tuples(partition))


def neighbors(graph: Graph, u: int) -> np.ndarray:
    return graph.indices[graph.indptr[u]:graph.indptr[u + 1]]


def augment_features_oracle(x: np.ndarray | None, n: int, k: int) -> np.ndarray:
    """Dense block-diagonal [X 0; 0 I_k], a constant all-ones column
    standing in for X when it is None: every cell of the rows
    `dump_augmented_features_csv` writes."""
    x = np.ones((n, 1)) if x is None else x
    d = x.shape[1]
    out = np.zeros((n + k, d + k))
    out[:n, :d] = x
    out[n + np.arange(k), d + np.arange(k)] = 1.0
    return out


def dump_features_csv(x: np.ndarray, stream: IO[str]) -> None:
    """Every cell of a dense feature array in the `node,f0,f1,...` format."""
    d = x.shape[1]
    stream.write("node," + ",".join(f"f{j}" for j in range(d)) + "\n")
    for u in range(x.shape[0]):
        stream.write(f"{u}," + ",".join(f"{v:.6f}" for v in x[u]) + "\n")


def star_graph(leaves: int) -> Graph:
    return graph_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def two_hop_neighbors(graph: Graph, u: int) -> set[int]:
    """Nodes at shortest-path distance exactly 2 from u."""
    first = set(int(v) for v in neighbors(graph, u))
    second = set()
    for v in first:
        second.update(int(w) for w in neighbors(graph, v))
    second.discard(u)
    return second - first


def random_partition(n: int, block_sizes, seed: int) -> Partition:
    """Uniform random assignment with exactly the given block-size multiset."""
    sizes = list(block_sizes)
    if any(s <= 0 for s in sizes) or sum(sizes) != n:
        raise SizeMismatchError(
            f"block sizes {sizes} must be positive and sum to {n}")
    rng = np.random.default_rng(seed)
    labels = np.empty(n, dtype=np.int64)
    labels[rng.permutation(n)] = np.repeat(np.arange(len(sizes)), sizes)
    return Partition.from_assignment(labels)


def mse_loss(propagated: np.ndarray, layers, y_true: np.ndarray) -> float:
    """Mean squared error of propagated @ W(1)...W(L) against y_true.

    `layers` is the weight chain as arrays, e.g. `LinearGnnWeights.layers`.
    """
    return float(_stacked_mse(propagated[None], [w[None] for w in layers],
                              y_true[None])[0])


def gradients(propagated: np.ndarray, weights: LinearGnnWeights,
              y_true: np.ndarray) -> list[np.ndarray]:
    """d(mse)/dW(l) for every layer of one linear chain, through the
    library's batched `_ChainGradient` with a single student.

    `propagated` is the precomputed S^L X, shared by all epochs.
    """
    dims = [weights.dim_in] + [w.shape[1] for w in weights.layers]
    grads = [np.empty((1,) + w.shape) for w in weights.layers]
    _ChainGradient(propagated[None], y_true[None], dims)(
        [w[None] for w in weights.layers], grads)
    return [g[0] for g in grads]


def is_connected(graph: Graph) -> bool:
    if graph.num_nodes == 1:
        return True
    dist = bfs_distances(graph.indptr, graph.indices, 0)
    return bool((dist >= 0).all())


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


def normalized_shift_oracle(adjacency: sp.spmatrix) -> np.ndarray:
    """Dense (A + I)-normalized shift, symmetrized, from n x n temporaries.

    Dense oracle for `graph.normalized_shift`, which must give the same
    bytes from one buffer."""
    a = adjacency.astype(np.float64).toarray()
    require_symmetric(a, "adjacency")
    if a.min(initial=0.0) < 0:
        raise ValueError("adjacency weights must be nonnegative")
    b = a + np.eye(a.shape[0])
    dinv = 1.0 / np.sqrt(b.sum(axis=1))
    s = dinv[:, None] * b * dinv[None, :]
    return (s + s.T) / 2.0


def mean_effective_resistance_oracle(adjacency: sp.spmatrix, origin_count=None) -> float:
    """Mean pair resistance among the first origin_count nodes (all nodes
    without it) from the dense inverse X = (L + J/m)^-1 and the pair-sum
    identity |S| tr(X_SS) - 1^T X_SS 1; self-loops are dropped.

    Dense oracle for the grounded sparse LU in
    `metrics.mean_effective_resistance`."""
    m = adjacency.shape[0]
    span = m if origin_count is None else origin_count
    lap = (-adjacency.astype(np.float64)).toarray()
    np.fill_diagonal(lap, 0.0)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    lap += 1.0 / m
    x = np.linalg.inv(lap)[:span, :span]
    return (span * float(np.trace(x)) - float(x.sum())) / (span * (span - 1) / 2)


RESISTANCE_SOLVE_COLUMNS = 128   # identity columns per grounded solve


def mean_effective_resistance_by_solves(adjacency: sp.spmatrix, origin_count=None) -> float:
    """Mean pair resistance among the first origin_count nodes (all nodes
    without it) from the grounded sparse LU, with the diagonal of X taken
    from identity solves of RESISTANCE_SOLVE_COLUMNS columns at a time and
    1^T X_SS 1 from one solve; self-loops are dropped.

    Oracle for the selected inversion in
    `metrics.mean_effective_resistance`, which reads the same diagonal off
    the factor; inputs are assumed connected and nonnegative."""
    from scipy.sparse.linalg import splu
    weights = sp.csr_matrix(adjacency, dtype=np.float64)
    weights = weights - sp.diags(weights.diagonal())
    weights.eliminate_zeros()
    m = adjacency.shape[0]
    span = m if origin_count is None else origin_count
    lap = sp.diags(np.asarray(weights.sum(axis=1)).ravel()) - weights
    grounded = splu(sp.csc_matrix(lap[:-1, :-1]), permc_spec="MMD_AT_PLUS_A")
    inside = min(span, m - 1)          # nodes of S other than the grounded one
    trace = 0.0
    for lo in range(0, inside, RESISTANCE_SOLVE_COLUMNS):
        hi = min(lo + RESISTANCE_SOLVE_COLUMNS, inside)
        unit = np.zeros((m - 1, hi - lo), order="F")    # the layout SuperLU solves in
        unit[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
        trace += float(np.trace(grounded.solve(unit)[lo:hi]))
    ones = np.zeros(m - 1)
    ones[:inside] = 1.0
    total = float(grounded.solve(ones)[:inside].sum())
    return (span * trace - total) / (span * (span - 1) / 2)


def evaluate_candidates_oracle(graph: Graph, data, variant=Variant.REP_NODES):
    """The percentile grid scored entry by entry: one rewiring, one SRL
    report and one two-hop similarity per grid entry, repeats included.

    Reference for `metrics.evaluate_candidates`, which scores each
    distinct partition once."""
    y = one_hot_labels(data.labels, data.train_mask)
    candidates = []
    for p in PERCENTILE_GRID:
        eps = degree_percentile(graph, p)
        part = refine_eps_be(graph, eps)
        rewired = build_rewired(graph, part, variant, eps=eps)
        report = srl_report(rewired, y)
        try:
            ncs2 = two_hop_class_similarity(rewired, data.labels, data.train_mask)
        except NoEligibleNodesError:
            ncs2 = 0.0
        candidates.append(EpsCandidate(
            percentile=int(p), eps=eps, k=part.k,
            srl=report.srl, rho=report.rho, ncs2=ncs2,
        ))
    return srl_star(candidates)


def two_hop_class_similarity_by_product(graph_or_rewired, labels: np.ndarray,
                                        mask: np.ndarray) -> float:
    """Average same-label fraction among labeled exact-distance-2 neighbors,
    with the 2-walk ends of each chunk of centers from the sparse product
    A[centers] @ A[:, eligible] + A[centers, eligible].

    Oracle for `metrics.two_hop_class_similarity`, which reads the same
    ends off the CSR arrays and must give the same float."""
    if isinstance(graph_or_rewired, RewiredGraph):
        graph, block_of = graph_or_rewired.graph, graph_or_rewired.partition.block_of
    else:
        graph, block_of = graph_or_rewired, np.arange(graph_or_rewired.num_nodes)
    if len(labels) != graph.num_nodes or len(mask) != graph.num_nodes:
        raise DimensionMismatchError(
            f"labels ({len(labels)}) and mask ({len(mask)}) need one entry per "
            f"original node ({graph.num_nodes})")
    eligible = np.flatnonzero(mask & (labels != UNLABELED))
    block = block_of[eligible]
    # classes renumbered 0..c-1, so block * c + class cannot overflow
    classes, cls = np.unique(labels[eligible], return_inverse=True)
    _, pair, pair_count = np.unique(block * len(classes) + cls,
                                    return_inverse=True, return_counts=True)
    to_eligible = graph.adjacency[:, eligible].tocsr()    # loopless 0/1
    first = to_eligible[eligible].tocoo()                 # N(u), eligible ends only
    labeled = np.bincount(block)[block] - 1 - np.bincount(first.row, minlength=len(eligible))
    same = pair_count[pair] - 1 - np.bincount(first.row[cls[first.row] == cls[first.col]],
                                              minlength=len(eligible))
    walks = np.cumsum(graph.adjacency[eligible] @ np.diff(to_eligible.indptr))
    budget = graph.adjacency.nnz + graph.num_nodes
    start = 0
    while start < len(eligible):
        done = walks[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(walks, done + budget, side="right")))
        centers = eligible[start:stop]
        reach = (graph.adjacency[centers] @ to_eligible + to_eligible[centers]).tocoo()
        row = reach.row + start
        outside = block[reach.col] != block[row]        # B(u) is counted whole above
        row, col = row[outside], reach.col[outside]
        labeled[start:stop] += np.bincount(row - start, minlength=stop - start)
        same[start:stop] += np.bincount(row[cls[col] == cls[row]] - start,
                                        minlength=stop - start)
        start = stop
    hit = labeled > 0
    if not hit.any():
        raise NoEligibleNodesError("no masked labeled node has labeled two-hop neighbors")
    return float(np.mean(same[hit] / labeled[hit]))


def block_degree_matrix(graph: Graph, partition) -> np.ndarray:
    """Dense n x k integer counts A @ R: entry (u, j) counts u's neighbors
    in block j, so row u sums to deg(u).

    Dense oracle for the library's sparse per-block count summaries."""
    counts = np.zeros((graph.num_nodes, partition.k), dtype=np.int64)
    nodes = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    np.add.at(counts, (nodes, partition.block_of[graph.indices]), 1)
    return counts


def block_counts_by_product(graph: Graph, partition: Partition):
    """The counts A @ R as a scipy product, and their summary over each
    block's members.

    Returns the CSR product and (block, column, sums, hi, lo) for each
    pair where some member has a neighbor in the column, in ascending
    pair order: the sum, max and min of the member counts, lo = 0 when
    a member has none there. Oracle for the sorted summary the library
    reads off the CSR entries."""
    product = graph.adjacency @ membership_matrix(partition)
    counts = product.tocoo()
    key = partition.block_of[counts.row] * partition.k + counts.col
    order = np.argsort(key)
    key, data = key[order], counts.data[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    block, column = np.divmod(key[starts], partition.k)
    lo = np.minimum.reduceat(data, starts)
    stored = np.diff(np.append(starts, len(key)))
    lo[stored < partition.block_sizes()[block]] = 0
    return (product, block, column, np.add.reduceat(data, starts),
            np.maximum.reduceat(data, starts), lo)


def refine_eps_be_by_splitters(graph: Graph, eps: float) -> Partition:
    """`refine_eps_be` with every splitter run in turn at every eps: the
    rounds of `splitter_round_by_product` from the single block.

    Oracle for the library's one common refinement per round at eps < 1
    and its splitter loop at eps >= 1; fast enough for graphs of a few
    hundred nodes, unlike the per-block Python loop."""
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    part = Partition.from_assignment(np.zeros(graph.num_nodes, dtype=np.int64))
    while (refined := splitter_round_by_product(graph, part, eps)) is not None:
        part = refined
    return part


def splitter_round_by_product(graph: Graph, part: Partition, eps: float):
    """One refinement round from any partition, or None when no block's
    spread exceeds eps.

    A @ R is a scipy product; each violating splitter, ascending,
    regroups all blocks in one lexsort of all n nodes by (block, count
    toward it, node id), grouping greedily while count - group_min <=
    floor(eps)."""
    n = graph.num_nodes
    product, _, column, _, hi, lo = block_counts_by_product(graph, part)
    splitters = np.unique(column[hi - lo > eps]).tolist()
    if not splitters:
        return None
    counts, slack = product.tocsc(), math.floor(eps)
    current = part.block_of.copy()
    for s in splitters:
        cnt = np.zeros(n, dtype=np.int64)
        at = slice(counts.indptr[s], counts.indptr[s + 1])
        cnt[counts.indices[at]] = counts.data[at]
        top = int(cnt.max())
        order = np.lexsort((cnt, current))     # by block, count, node id
        blk = current[order]
        key = blk * (top + slack + 1) + cnt[order]
        first = np.ones(n, dtype=bool)
        first[1:] = blk[1:] != blk[:-1]
        starts = first.copy()
        heads = np.flatnonzero(first)
        while len(heads):
            nxt = np.searchsorted(key, key[heads] + slack, side="right")
            nxt = nxt[nxt < n]
            heads = nxt[~first[nxt]]
            starts[heads] = True
        current[order] = np.cumsum(starts) - 1
    return Partition.from_assignment(current)


def quotient_by_product(graph: Graph, partition: Partition) -> QuotientPair:
    """The quotient and residual from the scipy-product summary.

    Oracle for `partition.quotient`, which must give the same bytes."""
    _, block, column, sums, hi, lo = block_counts_by_product(graph, partition)
    k = partition.k
    q = sums / partition.block_sizes()[block]
    residual = float(np.maximum(hi - q, q - lo).max(initial=0.0))
    indptr = np.searchsorted(block, np.arange(k + 1))
    return QuotientPair(csr=Csr(indptr, column, q, (k, k)), residual=residual)


def csr_by_dict(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, n: int) -> Csr:
    """n x n CSR arrays of the entries (rows[i], cols[i], values[i]), those
    at one position summed in listed order into a dict, keys then sorted.

    Oracle for `Csr.from_entries`: int64 offsets and columns, and values
    of the input's dtype."""
    sums = {}
    for key, value in zip(zip(rows.tolist(), cols.tolist()), values.tolist()):
        sums[key] = sums[key] + value if key in sums else value
    keys = sorted(sums)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for row, _ in keys:
        indptr[row + 1:] += 1
    return Csr(indptr, np.array([col for _, col in keys], dtype=np.int64),
               np.array([sums[key] for key in keys], dtype=values.dtype), (n, n))


def rewired_adjacency_by_bmat(graph: Graph, partition: Partition,
                              variant: Variant) -> sp.csr_matrix:
    """The augmented adjacency [[A, R], [R', corner]] from `scipy.sparse.bmat`.

    Oracle for `rewire.build_rewired`, which sorts the four blocks'
    entries into the same CSR arrays."""
    q = quotient_by_product(graph, partition).Q
    if variant is Variant.FULL:
        corner = (q + q.T) / 2.0
    elif variant is Variant.REP_EDGES:
        corner = (q > 0).astype(float)
    else:
        corner = None
    member = membership_matrix(partition)
    adjacency = sp.bmat([[graph.adjacency, member], [member.T, corner]],
                        format="csr", dtype=np.float64)
    adjacency.eliminate_zeros()
    adjacency.sort_indices()
    return adjacency


def jacobi_eig_oracle(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi with a two-sided rotation of A and a column rotation of V.

    Reference for `spectral.symmetric_eig`: the same pivot order, skip
    rule, convergence test, sort and sign rule, with every pivot updating
    A's columns, then A's rows, then V's columns as separate numpy ops."""
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSymmetricError("matrix must be square")
    require_symmetric(a, "matrix")
    n = a.shape[0]
    v = np.eye(n)
    norm = float(np.linalg.norm(a))
    if n > 1 and norm > 0.0:
        for _ in range(_JACOBI_MAX_SWEEPS):
            off = np.linalg.norm(a - np.diag(np.diag(a)))
            if off <= _JACOBI_TOL * norm:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = a[p, q]
                    if abs(apq) <= 1e-300:
                        continue
                    # A tiny apq makes theta * theta overflow to inf, and t to
                    # 0, as in the library's Python floats, which do not warn.
                    with np.errstate(over="ignore"):
                        theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                        t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0)) \
                            if theta != 0.0 else 1.0
                    c = 1.0 / np.sqrt(t * t + 1.0)
                    s = t * c
                    col_p, col_q = a[:, p].copy(), a[:, q].copy()
                    a[:, p] = c * col_p - s * col_q
                    a[:, q] = s * col_p + c * col_q
                    row_p, row_q = a[p, :].copy(), a[q, :].copy()
                    a[p, :] = c * row_p - s * row_q
                    a[q, :] = s * row_p + c * row_q
                    a[p, q] = a[q, p] = 0.0
                    vcol_p, vcol_q = v[:, p].copy(), v[:, q].copy()
                    v[:, p] = c * vcol_p - s * vcol_q
                    v[:, q] = s * vcol_p + c * vcol_q
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    w = w[order]
    v = v[:, order]
    for j in range(n):
        nz = np.flatnonzero(np.abs(v[:, j]) > 1e-12)
        if len(nz) and v[nz[0], j] < 0:
            v[:, j] = -v[:, j]
    return w, v


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
        for v in neighbors(graph, u):
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
