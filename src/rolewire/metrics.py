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
    DisconnectedError,
    NegativeInputError,
    NoEligibleNodesError,
    NumericError,
)
from .graph import (
    PERCENTILE_GRID, Graph, NodeData, UNLABELED, degree_percentile, is_connected,
    one_hot_labels,
)
from .partition import refine_eps_be
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
    adjacency: sp.spmatrix,
    origin_count: Optional[int] = None,
) -> float:
    """Mean pairwise effective resistance of a sparse weighted graph.

    Treats each weighted edge as a conductance; self-loops are dropped
    (they never carry current). One inverse X = (L + J/m)^-1 = L^+ + J/m
    gives the pair sum over a node set S of size s as s * tr(X_SS) -
    1^T X_SS 1, in which the J/m terms cancel (Klein and Randic 1993). With
    `origin_count`, only unordered pairs among the first origin_count nodes
    are averaged, which makes augmented graphs comparable to their source;
    without it, all pairs are.
    """
    pattern = _loopless_pattern(adjacency)
    if not is_connected(Graph(indptr=pattern.indptr, indices=pattern.indices)):
        raise DisconnectedError("effective resistance needs a connected graph")
    m = adjacency.shape[0]
    span = m if origin_count is None else origin_count
    if span < 2:
        raise ValueError("need at least two nodes in the pair set")
    if span > m:
        raise ValueError(f"origin_count {span} exceeds the graph's {m} nodes")
    lap = (-adjacency.astype(np.float64)).toarray()
    np.fill_diagonal(lap, 0.0)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    lap += 1.0 / m
    x = np.linalg.inv(lap)[:span, :span]
    return (span * float(np.trace(x)) - float(x.sum())) / (span * (span - 1) / 2)


# ---------------------------------------------------------------------------
# Two-hop class similarity
# ---------------------------------------------------------------------------

TWO_HOP_CHUNK_NNZ = 1 << 18     # two-walk entries per chunk of centers


def _loopless_pattern(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """0/1 int64 CSR of the stored entries off the diagonal."""
    coo = adjacency.tocoo()
    off = coo.row != coo.col
    return sp.csr_matrix(
        (np.ones(int(off.sum()), dtype=np.int64), (coo.row[off], coo.col[off])),
        shape=coo.shape)


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

    The exact-distance-2 sets are the pattern of A0[centers] @ A0 minus
    the first hop and the center, where A0 is the stored pattern without
    its diagonal. Only eligible columns are formed, and centers go in
    chunks of about TWO_HOP_CHUNK_NNZ two-walks, so memory stays bounded
    next to high-degree virtual nodes.
    """
    pattern = _loopless_pattern(graph_or_rewired.adjacency)
    eligible = np.flatnonzero(mask & (labels != UNLABELED))
    to_eligible = pattern[:, eligible].tocsr()      # A0 restricted to eligible columns
    eligible_labels = labels[eligible]
    walks = np.cumsum(pattern[eligible] @ np.diff(to_eligible.indptr))
    chunks = [np.zeros(0)]
    start = 0
    while start < len(eligible):
        done = walks[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(walks, done + TWO_HOP_CHUNK_NNZ,
                                                  side="right")))
        centers = eligible[start:stop]
        reach = pattern[centers] @ to_eligible
        reach = (reach - reach.multiply(to_eligible[centers])).tocoo()   # drop hop one
        center = np.arange(start, stop)[reach.row]
        keep = (reach.data != 0) & (reach.col != center)
        row, col = reach.row[keep], reach.col[keep]
        labeled = np.bincount(row, minlength=stop - start)
        same = np.bincount(row[eligible_labels[col] == eligible_labels[center[keep]]],
                           minlength=stop - start)
        hit = labeled > 0
        chunks.append(same[hit] / labeled[hit])
        start = stop
    fractions = np.concatenate(chunks)
    if not len(fractions):
        raise NoEligibleNodesError("no masked labeled node has labeled two-hop neighbors")
    return float(np.mean(fractions))


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
    """Score the percentile grid: one rewiring and one report per entry.

    Label information is restricted to the training mask throughout, both
    for the role energies and for the two-hop similarity.
    """
    if variant is Variant.MASTER_NODE:
        raise ValueError("the master-node variant has no tolerance to select")
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


def dump_candidates_csv(
    candidates: Sequence[EpsCandidate],
    chosen: EpsCandidate,
    stream: IO[str],
) -> None:
    stream.write("percentile,eps,k,srl,rho,ncs2,srl_star,selected\n")
    for c in candidates:
        sel = 1 if c.percentile == chosen.percentile else 0
        stream.write(
            f"{c.percentile},{c.eps:.6f},{c.k},{c.srl:.6f},{c.rho:.6f},"
            f"{c.ncs2:.6f},{c.srl_star:.6f},{sel}\n"
        )


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
