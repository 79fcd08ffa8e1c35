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
import scipy.sparse as sp

from .errors import (
    DimensionMismatchError,
    DisconnectedError,
    NegativeInputError,
    NoEligibleNodesError,
    NumericError,
)
from .graph import (
    PERCENTILE_GRID, Graph, NodeData, UNLABELED, bfs_distances, degree_percentile, fixed,
    one_hot_labels, write_table,
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

RESISTANCE_SOLVE_COLUMNS = 128   # identity columns per grounded solve


def mean_effective_resistance(
    adjacency: sp.spmatrix,
    origin_count: Optional[int] = None,
) -> float:
    """Mean pairwise effective resistance of a sparse weighted graph.

    Treats each weighted edge as a conductance; self-loops are dropped
    (they never carry current). With the last node g grounded, X is the
    inverse of the Laplacian without g's row and column, padded with
    zeros at g, and R_ij = X_ii + X_jj - 2 X_ij for every pair. So the
    pair sum over a node set S of size s is s * tr(X_SS) - 1^T X_SS 1
    (Klein and Randic 1993). With `origin_count`, only unordered pairs
    among the first origin_count nodes are averaged, which makes
    augmented graphs comparable to their source; without it, all pairs
    are. For a rewiring the grounded node is virtual and lies outside S.

    The grounded Laplacian is factored once by sparse LU
    (`scipy.sparse.linalg.splu`) on the minimum-degree ordering of
    L + L^T, which keeps the fill near nnz(L) on trees and their
    rewirings. The diagonal over S comes from identity solves of at most
    RESISTANCE_SOLVE_COLUMNS columns at a time, and 1^T X_SS 1 from one
    solve, so no dense m x m matrix is formed.
    """
    weights = sp.csr_matrix(adjacency, dtype=np.float64)
    weights = weights - sp.diags(weights.diagonal())     # self-loops carry no current
    weights.eliminate_zeros()                            # a stored 0.0 is no edge
    if weights.data.min(initial=0.0) < 0:
        raise ValueError("adjacency weights must be nonnegative")
    if (bfs_distances(weights.indptr, weights.indices, 0) < 0).any():
        raise DisconnectedError("effective resistance needs a connected graph")
    m = adjacency.shape[0]
    span = m if origin_count is None else origin_count
    if span < 2:
        raise ValueError("need at least two nodes in the pair set")
    if span > m:
        raise ValueError(f"origin_count {span} exceeds the graph's {m} nodes")
    from scipy.sparse.linalg import splu   # several MB of RSS; only this function needs it
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
    per-(block, class) totals, the rest from the pattern of A[u] @ A + A[u],
    formed for chunks of centers of at most nnz(A) + n two-walks each.
    `labels` and `mask` hold one entry per original node.
    """
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
