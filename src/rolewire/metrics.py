"""Rewiring quality metrics and tolerance selection.

Mean effective resistance measures propagation bottlenecks; two-hop class
similarity measures how label-aligned the two-hop topology is; the starred
score blends both (z-scored square roots, weighted by the fourth root of
the role-energy fraction) to pick a tolerance from the percentile grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import IO, Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    DisconnectedError,
    NegativeInputError,
    NoEligibleNodesError,
    NumericError,
)
from .graph import (
    PERCENTILE_GRID, Csr, Graph, NodeData, UNLABELED, component_labels, degree_percentile,
    fixed, one_hot_labels, ranges, sparse, weighted_adjacency, write_table,
)
from .partition import Partition, refine_eps_be
from .rewire import RewiredGraph, Variant, build_rewired
from .spectral import srl_report

__all__ = [
    "EpsCandidate",
    "mean_effective_resistance",
    "two_hop_class_similarity",
    "srl_star",
    "select_epsilon",
    "evaluate_candidates",
    "pearson",
    "dump_candidates_csv",
]


# ---------------------------------------------------------------------------
# Effective resistance
# ---------------------------------------------------------------------------

def mean_effective_resistance(
    adjacency,
    origin_count: Optional[int] = None,
) -> float:
    """Mean pairwise effective resistance of a weighted graph.

    Each weighted edge of an adjacency that passes `weighted_adjacency` (a
    dense array, a `Csr` or a sparse matrix) is a conductance. An edge is
    an entry off the diagonal, not a stored 0.0, whose mirror is stored
    and nonzero; other entries carry no current and are dropped. A graph
    that is not connected raises DisconnectedError, from its component
    labels. With the last
    node g grounded, X is the inverse of the Laplacian without g's row and
    column, padded with zeros at g, and R_ij = X_ii + X_jj - 2 X_ij for
    every pair. So the pair sum over a node set S of size s is s * tr(X_SS)
    - 1^T X_SS 1 (Klein and Randic 1993). With `origin_count`, only
    unordered pairs among the first origin_count nodes are averaged, which
    makes augmented graphs comparable to their source; without it, all pairs
    are. For a rewiring the grounded node is virtual and lies outside S.

    The grounded Laplacian is symmetric positive definite, so SuperLU
    (`splu`) factors it without pivoting, on the
    minimum-degree ordering of L + L^T, which keeps the fill near nnz(L)
    on trees and their rewirings. The diagonal of X is read off that
    factor by selected inversion on L's own pattern, with the factor's
    dense trailing block run densely and fill that underflowed to 0.0
    restored as explicit zeros (`_inverse_diagonal`), and 1^T X_SS 1
    comes from one vector solve, so no dense m x m matrix is formed and
    no identity column is solved.
    """
    weights, at = weighted_adjacency(adjacency)
    rows, cols, data = weights.rows(), weights.indices, weights.data
    # An edge carries current both ways: it is no self-loop and no stored
    # 0.0, and its mirror is stored and nonzero.
    edge = (rows != cols) & (data != 0) & (at >= 0) & (data[at] != 0)
    m = weights.shape[0]
    weights = Csr.from_entries(rows[edge], cols[edge], data[edge], m)
    if component_labels(weights).any():
        raise DisconnectedError("effective resistance needs a connected graph")
    span = m if origin_count is None else origin_count
    if span < 2:
        raise ValueError("need at least two nodes in the pair set")
    if span > m:
        raise ValueError(f"origin_count {span} exceeds the graph's {m} nodes")
    from scipy.sparse.linalg import splu   # several MB of RSS; only this function needs it
    sp = sparse()
    weights = weights.view()
    lap = sp.diags(np.asarray(weights.sum(axis=1)).ravel()) - weights
    grounded = splu(sp.csc_matrix(lap[:-1, :-1]), permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0, options={"SymmetricMode": True})
    if not np.array_equal(grounded.perm_r, grounded.perm_c):
        raise NumericError("the grounded Laplacian needed pivoting")
    inside = min(span, m - 1)          # nodes of S other than the grounded one
    ones = np.zeros(m - 1)
    ones[:inside] = 1.0
    total = float(grounded.solve(ones)[:inside].sum())
    # The inversion needs only these copies (perm_r is a view that would keep
    # the factor alive). Freeing SuperLU's storage first lets the inversion's
    # arrays reuse it instead of stacking above it.
    lower, pivots, where = grounded.L, grounded.U.diagonal(), grounded.perm_r[:inside].copy()
    del grounded
    trace = float(_inverse_diagonal(lower, pivots)[where].sum())
    return (span * trace - total) / (span * (span - 1) / 2)


def _inverse_diagonal(factor, pivots: np.ndarray) -> np.ndarray:
    """Diagonal of B^-1, in B's order, for the unpivoted `splu` factor
    B = L U of a symmetric positive definite B, given as L and the
    pivots diag(U): selected inversion (Takahashi, Fagan and Chin 1973;
    Erisman and Tinney 1975).

    With U = D L^T, Z = B^-1 solves Z = D^-1 L^-1 + (I - L^T) Z. For a
    column j with strictly-lower rows J and l = L[J, j], that reads
        Z[J, j] = -Z[J, J] l,    Z_jj = 1/d_j - l^T Z[J, j],
    from Z of the rows of J only, which are the ancestors of j in the
    elimination tree. J and j form a clique of the filled graph, so
    Z[J, J] lies on L's own pattern, and Z is kept only there. Fill that
    underflowed to 0.0 (values decay along long paths) is missing from
    `splu`'s L: the pass collects the entries of Z[J, J] it did not find
    and the inversion runs again with them stored as explicit zeros. A
    pass that misses none is final, for its pattern is then closed.

    The trailing columns that are full below the diagonal form a dense
    block, whose Z comes from the recurrence run densely
    (`_block_inverse`). L is relabelled so that the block comes first and
    the other columns follow by depth in the elimination tree; each
    column's rows then precede it, and those columns run in batches of one
    depth at a time, each batch a bounded number of numpy calls. Of
    Z[J, J] l, the block's share is a sparse-dense product per chunk of
    block rows, and the rest is gathered from Z on the pattern, pair by
    pair of J. Batches and chunks hold about nnz(L) + n values each.
    """
    sp = sparse()
    lower = sp.tril(factor, -1, format="csc")     # L's unit diagonal is implicit
    lower.sort_indices()
    if not (pivots > 0).all():
        raise NumericError("the grounded Laplacian is not positive definite")
    n = len(pivots)
    count = np.diff(lower.indptr)
    start = int(np.flatnonzero(count != np.arange(n - 1, -1, -1)).max(initial=-1)) + 1
    block = n - start
    parent = np.arange(n)
    parent[count > 0] = lower.indices[lower.indptr[:-1][count > 0]]
    depth = _tree_depths(parent)
    order = np.r_[start:n, np.argsort(depth[:start], kind="stable")]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    coo = lower.tocoo()
    lower = sp.csc_matrix((coo.data, (rank[coo.row], rank[coo.col])), shape=(n, n))
    lower.sort_indices()
    tail = _block_inverse(lower[:block, :block], pivots[start:])
    diag = np.r_[tail.diagonal(), 1.0 / pivots[order[block:]]]   # Z_jj, once its batch ran
    np.fill_diagonal(tail, 0.0)

    # The entries of the columns after the block: their rows, L and Z
    # values, owning column, first entry of that column, and the (column,
    # row) keys of the pattern, sorted.
    base = lower.indptr[block]
    rows = lower.indices[base:].astype(np.int64)
    vals = lower.data[base:]
    owner = np.repeat(np.arange(block, n), np.diff(lower.indptr[block:]))
    first = lower.indptr[owner] - base
    keys = owner * n + rows
    z = np.zeros(len(rows))             # a pass that misses reads Z unwritten, then is discarded
    missed = [keys[:0]]

    # y = Z[J, J] l, which starts as the block rows' share, off Z's diagonal
    y = np.zeros(len(rows))
    share = lower[:block, block:].tocoo()     # block rows sort first in each column
    across = share.T.tocsr()
    budget = lower.nnz + n
    width = max(1, budget // max(1, n - block))
    values = np.empty(share.nnz)
    for r in range(0, block, width):
        near = (share.row >= r) & (share.row < r + width)
        values[near] = (across @ tail[:, r:r + width])[share.col[near], share.row[near] - r]
    y[rows < block] = values
    del tail, share, across

    # Entry b pairs with each earlier entry a of its column when its row
    # lies after the block: Z[row_a, row_b] then sits in column row_b.
    # Batches hold the columns of one depth, and about `budget` pairs.
    pairs = np.where(rows >= block, np.arange(len(rows)) - first, 0)
    through = np.r_[0, np.cumsum(pairs)][lower.indptr[block + 1:] - base]
    cuts = np.flatnonzero(np.diff(depth[order[block:]]) | np.diff(through // budget)) + 1
    for c0, c1 in zip(np.r_[0, cuts], np.r_[cuts, n - block]):
        e0, e1 = lower.indptr[block + c0] - base, lower.indptr[block + c1] - base
        y_batch = y[e0:e1]
        y_batch += diag[rows[e0:e1]] * vals[e0:e1]
        b = e0 + np.flatnonzero(pairs[e0:e1])
        if b.size:
            b = np.repeat(b, pairs[b])
            a = first[b] + np.arange(b.size) - np.searchsorted(b, b)
            want = rows[b] * n + rows[a]
            at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
            missed.append(want[keys[at] != want])
            z_ab = z[at]
            y_batch += np.bincount(a - e0, z_ab * vals[b], minlength=e1 - e0)
            y_batch += np.bincount(b - e0, z_ab * vals[a], minlength=e1 - e0)
        z[e0:e1] = -y_batch
        diag[block + c0:block + c1] += np.bincount(
            owner[e0:e1] - block - c0, y_batch * vals[e0:e1], minlength=c1 - c0)
    missed = np.unique(np.concatenate(missed))
    if missed.size:                     # fill that underflowed: store it as explicit zeros
        ends = order[np.array(np.divmod(missed, n))]
        return _inverse_diagonal(sp.csc_matrix(
            (np.r_[coo.data, np.zeros(missed.size)],
             (np.r_[coo.row, ends.max(axis=0)], np.r_[coo.col, ends.min(axis=0)])),
            shape=(n, n)), pivots)
    inverse = np.empty(n)
    inverse[order] = diag
    return inverse


def _block_inverse(factor, pivots: np.ndarray) -> np.ndarray:
    """(L D L^T)^-1 of a dense block, from its strictly-lower unit factor
    L (sparse) and its pivots D, by the same recurrence run densely: one
    column at a time from the last, each a matrix-vector product."""
    upper = factor.T.toarray()          # row j holds column j of L
    z = np.zeros_like(upper)
    for j in range(len(pivots) - 1, -1, -1):
        l = upper[j, j + 1:]
        z[j + 1:, j] = z[j, j + 1:] = -(z[j + 1:, j + 1:] @ l)
        z[j, j] = 1.0 / pivots[j] - l @ z[j, j + 1:]
    return z


def _tree_depths(parent: np.ndarray) -> np.ndarray:
    """Depth of every node of a forest whose roots are their own parents,
    by pointer jumping: O(n log depth)."""
    depth = (parent != np.arange(len(parent))).astype(np.int64)
    while not np.array_equal(parent[parent], parent):
        depth = depth + depth[parent]
        parent = parent[parent]
    return depth


# ---------------------------------------------------------------------------
# Two-hop class similarity
# ---------------------------------------------------------------------------

def two_hop_class_similarity(
    graph_or_rewired: Union[Graph, RewiredGraph],
    labels: np.ndarray,
    mask: np.ndarray,
) -> float:
    """Average same-label fraction among labeled exact-distance-2 neighbors.

    Only masked labeled original nodes act as centers; neighbors count
    when they are masked labeled original nodes too (virtual nodes carry
    no labels and never contribute). Centers without any labeled two-hop
    neighbor are skipped.

    A virtual node touches exactly its block's members, so in every
    variant the originals within two hops of u are B(u) | N(u) | N2(u),
    and those at exact distance 2 are these less N(u) and u. Here N and N2
    are hop one and 2-walk ends in the graph A, B(u) is u's block, and a
    plain graph is its discrete partition. B(u) is counted from
    per-(block, class) totals, the rest from the distinct eligible ends of
    the walks u -> v -> w with v in N(u) or v = u, read off the CSR arrays
    and made distinct by one sort of (center, end) keys per chunk of
    centers of at most nnz(A) + n two-walks. Every count is an integer,
    so the result is exact. `labels` and `mask` hold one entry per
    original node.
    """
    if isinstance(graph_or_rewired, RewiredGraph):
        graph, block_of = graph_or_rewired.graph, graph_or_rewired.partition.block_of
    else:
        graph, block_of = graph_or_rewired, np.arange(graph_or_rewired.num_nodes)
    n = graph.num_nodes
    if len(labels) != n or len(mask) != n:
        raise DimensionMismatchError(
            f"labels ({len(labels)}) and mask ({len(mask)}) need one entry per "
            f"original node ({n})")
    eligible = np.flatnonzero(mask & (labels != UNLABELED))
    e = len(eligible)
    block = block_of[eligible]
    # classes renumbered 0..c-1, so block * c + class cannot overflow
    classes, cls = np.unique(labels[eligible], return_inverse=True)
    _, pair, pair_count = np.unique(block * len(classes) + cls,
                                    return_inverse=True, return_counts=True)
    # Every node's eligible neighbours, as ranks in `eligible`: A's CSR rows
    # restricted to the eligible columns, ascending in each row.
    rank = np.full(n, -1, dtype=np.int64)
    rank[eligible] = np.arange(e)
    degree = graph.degrees()
    to = rank[graph.indices] >= 0
    near_count = np.bincount(np.repeat(np.arange(n), degree)[to], minlength=n)
    near_ptr = np.append(0, np.cumsum(near_count))
    near = rank[graph.indices[to]]
    first = near[ranges(near_ptr[eligible], near_count[eligible])]   # N(u), eligible ends
    first_row = np.repeat(np.arange(e), near_count[eligible])
    labeled = np.bincount(block)[block] - 1 - near_count[eligible]
    same = pair_count[pair] - 1 - np.bincount(first_row[cls[first_row] == cls[first]],
                                              minlength=e)
    through = np.append(0, np.cumsum(near_count[graph.indices]))
    walks = np.cumsum(through[graph.indptr[eligible + 1]] - through[graph.indptr[eligible]])
    budget = len(graph.indices) + n
    start = 0
    while start < e:
        done = walks[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(walks, done + budget, side="right")))
        centers = eligible[start:stop]
        local = np.arange(stop - start)
        mid = np.concatenate([graph.indices[ranges(graph.indptr[centers], degree[centers])],
                              centers])
        mid_row = np.concatenate([np.repeat(local, degree[centers]), local])
        ends = near[ranges(near_ptr[mid], near_count[mid])]
        row, col = np.divmod(np.unique(np.repeat(mid_row, near_count[mid]) * e + ends), e)
        row += start
        outside = block[col] != block[row]              # B(u) is counted whole above
        row, col = row[outside], col[outside]
        labeled[start:stop] += np.bincount(row - start, minlength=stop - start)
        same[start:stop] += np.bincount(row[cls[col] == cls[row]] - start,
                                        minlength=stop - start)
        start = stop
    hit = labeled > 0
    if not hit.any():
        raise NoEligibleNodesError("no masked labeled node has labeled two-hop neighbors")
    return float(np.mean(same[hit] / labeled[hit]))


# ---------------------------------------------------------------------------
# Tolerance candidates and the starred score
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsCandidate:
    """One percentile-grid entry with its scores."""

    percentile: int
    eps: float
    k: int
    srl: float
    rho: float
    ncs2: float
    srl_star: float = float("nan")


def _zscores(values: np.ndarray) -> np.ndarray:
    std = float(values.std())           # population standard deviation
    if std == 0.0:
        return np.zeros_like(values)
    return (values - values.mean()) / std


def srl_star(candidates: Sequence[EpsCandidate]) -> list[EpsCandidate]:
    """Blend z-scored sqrt(lift) and sqrt(similarity) per candidate.

    The weight on the lift term is rho**(1/4), taken per candidate;
    z-scores use the population standard deviation across exactly the
    given candidate list, and a zero-variance term contributes zero.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    for cand in candidates:
        if cand.srl < -1e-12 or cand.ncs2 < -1e-12:
            raise NegativeInputError(
                f"negative score input at percentile {cand.percentile}")
    sqrt_srl = np.sqrt([max(0.0, c.srl) for c in candidates])
    sqrt_ncs = np.sqrt([max(0.0, c.ncs2) for c in candidates])
    z_srl = _zscores(sqrt_srl)
    z_ncs = _zscores(sqrt_ncs)
    scored = []
    for i, cand in enumerate(candidates):
        w = max(0.0, cand.rho) ** 0.25
        scored.append(replace(cand, srl_star=float(w * z_srl[i] + (1.0 - w) * z_ncs[i])))
    return scored


def select_epsilon(candidates: Sequence[EpsCandidate]) -> EpsCandidate:
    """Candidate with the highest starred score; ties favor the smaller
    percentile (the finer partition)."""
    if not candidates:
        raise ValueError("need at least one candidate")
    return min(candidates, key=lambda c: (-c.srl_star, c.percentile))


def evaluate_candidates(
    graph: Graph,
    data: NodeData,
    variant: Variant = Variant.REP_NODES,
) -> list[EpsCandidate]:
    """Score the percentile grid: one refinement per distinct ε, and one
    rewiring and one report per distinct partition.

    Neighbouring percentiles often give the same ε, and neighbouring
    tolerances often refine to the same partition, whose scores do not
    depend on the ε that produced it. Partitions are canonical, so equal
    ones have equal label arrays. Every grid entry keeps its own
    percentile, ε and k. Each rewiring (and its dense shift) is released
    before the next is built.

    Label information is restricted to the training mask throughout, both
    for the role energies and for the two-hop similarity.
    """
    if variant is Variant.MASTER_NODE:
        raise ValueError("the master-node variant has no tolerance to select")
    y = one_hot_labels(data.labels, data.train_mask)
    partitions: dict[float, Partition] = {}
    scores: dict[bytes, tuple[float, float, float]] = {}
    candidates = []
    for p in PERCENTILE_GRID:
        eps = degree_percentile(graph, p)
        if eps not in partitions:
            partitions[eps] = refine_eps_be(graph, eps)
        part = partitions[eps]
        key = part.block_of.tobytes()
        if key not in scores:
            scores[key] = _partition_scores(
                build_rewired(graph, part, variant, eps=eps), y, data)
        srl, rho, ncs2 = scores[key]
        candidates.append(EpsCandidate(
            percentile=int(p), eps=eps, k=part.k, srl=srl, rho=rho, ncs2=ncs2,
        ))
    return srl_star(candidates)


def _partition_scores(
    rewired: RewiredGraph, y: np.ndarray, data: NodeData,
) -> tuple[float, float, float]:
    """(srl, rho, ncs2) of one rewiring on the training labels."""
    report = srl_report(rewired, y)
    try:
        ncs2 = two_hop_class_similarity(rewired, data.labels, data.train_mask)
    except NoEligibleNodesError:
        ncs2 = 0.0
    return report.srl, report.rho, ncs2


def dump_candidates_csv(
    candidates: Sequence[EpsCandidate],
    chosen: EpsCandidate,
    stream: IO[str],
) -> None:
    write_table(stream, "percentile,eps,k,srl,rho,ncs2,srl_star,selected", (
        [str(c.percentile), fixed(c.eps), str(c.k), fixed(c.srl), fixed(c.rho),
         fixed(c.ncs2), fixed(c.srl_star), str(int(c.percentile == chosen.percentile))]
        for c in candidates))


# ---------------------------------------------------------------------------
# Correlation helper
# ---------------------------------------------------------------------------

def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation of samples scaled by 2**-e, e the binary exponent
    of each one's largest magnitude: exact, and no square can overflow."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("pearson needs two same-length samples of size >= 2")
    x, y = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (x, y))
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        raise NumericError("pearson undefined: zero variance sample")
    return float((xc * yc).sum() / denom)
