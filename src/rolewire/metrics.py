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
    fixed, one_hot_labels, ranges, weighted_adjacency, write_table,
)
from .ldl import Ldl
from .partition import Partition, refine_eps_be
from .rewire import RewiredGraph, Variant, build_rewired
from .spectral import ObservedSide, observed_side, srl_report

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

    The grounded Laplacian B is symmetric positive definite, and
    `ldl.Ldl` factors it on its CSR arrays: numpy stages of independent
    low-degree nodes, then a minimum-degree core by dense supernodes. The
    diagonal of X is read off that factor by selected inversion on the
    factor's pattern, which stores every fill entry whatever its value,
    and 1^T X_SS 1 comes from one forward pass over the factor, so no
    dense m x m matrix is formed and no identity column is solved.
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
    factor = Ldl(weights)
    inside = min(span, m - 1)          # nodes of S other than the grounded one
    ones = np.zeros(m - 1)
    ones[:inside] = 1.0
    total = factor.quadratic(ones)
    trace = float(factor.selected_inverse()[0][:inside].sum())
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
    percentile, ε and k. Each distinct partition is rewired as soon as
    it is refined, and its observed side is read from the original
    shift, which is built once and released before any rewired shift is
    built. Each rewiring (and its dense shift) is released once scored.

    Label information is restricted to the training mask throughout, both
    for the role energies and for the two-hop similarity.
    """
    if variant is Variant.MASTER_NODE:
        raise ValueError("the master-node variant has no tolerance to select")
    y = one_hot_labels(data.labels, data.train_mask)
    grid = [(int(p), degree_percentile(graph, p)) for p in PERCENTILE_GRID]
    s_obs = graph.shift
    partitions: dict[float, Partition] = {}
    pending: dict[bytes, tuple[RewiredGraph, ObservedSide]] = {}
    for _, eps in grid:
        if eps in partitions:
            continue
        part = partitions[eps] = refine_eps_be(graph, eps)
        key = part.block_of.tobytes()
        if key not in pending:          # the quotient reads refinement's last summary
            pending[key] = (build_rewired(graph, part, variant, eps=eps),
                            observed_side(part, s_obs))
    del s_obs
    scores = {}
    for key in list(pending):
        rewired, side = pending.pop(key)
        scores[key] = _partition_scores(rewired, y, data, side)
    candidates = []
    for p, eps in grid:
        part = partitions[eps]
        srl, rho, ncs2 = scores[part.block_of.tobytes()]
        candidates.append(EpsCandidate(
            percentile=p, eps=eps, k=part.k, srl=srl, rho=rho, ncs2=ncs2,
        ))
    return srl_star(candidates)


def _partition_scores(
    rewired: RewiredGraph, y: np.ndarray, data: NodeData, observed: ObservedSide,
) -> tuple[float, float, float]:
    """(srl, rho, ncs2) of one rewiring on the training labels."""
    report = srl_report(rewired, y, observed=observed)
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
