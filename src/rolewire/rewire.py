"""Augmented graph construction: one virtual node per partition block.

Each block gets a virtual node adjacent to exactly its members. The
augmented adjacency is assembled sparsely, block by block, with
`scipy.sparse.bmat` from the graph's CSR adjacency A and the sparse
membership indicator R:

    [ A  R ]        virtual-virtual corner: Q    (full, weighted)
    [ R' * ]                                 0    (repnodes)
                                             Q>0  (repedges, unweighted)

The master node (`mn`) is repnodes over the single block, which is the
partition refinement returns at eps = infinity.
Virtual-node features are one-hot, appended block-diagonally to X.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Optional

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, ParseError
from .graph import Graph
from .partition import Partition, QuotientPair, membership_matrix

__all__ = [
    "Variant",
    "RewiredGraph",
    "build_rewired",
    "augment_features",
    "dump_rewired",
    "load_rewired",
]


class Variant(enum.Enum):
    FULL = "full"
    REP_NODES = "repnodes"
    REP_EDGES = "repedges"
    MASTER_NODE = "mn"

    @classmethod
    def parse(cls, text: str) -> "Variant":
        for v in cls:
            if v.value == text:
                return v
        raise ValueError(f"unknown variant {text!r}")


@dataclass(frozen=True)
class RewiredGraph:
    """Weighted symmetric adjacency over n original + k virtual nodes."""

    adjacency: sp.csr_matrix          # (n+k) x (n+k), float64
    origin_count: int
    virtual_count: int
    variant: Variant
    features: np.ndarray              # (n+k) x (d+k)
    eps: float = 0.0
    residual: float = 0.0

    @property
    def size(self) -> int:
        return self.origin_count + self.virtual_count

    def dense_adjacency(self) -> np.ndarray:
        return self.adjacency.toarray()


def augment_features(x: Optional[np.ndarray], n: int, k: int) -> np.ndarray:
    """Block-diagonal [X 0; 0 I_k]; a constant all-ones column stands in
    for X in the featureless regime."""
    if x is None:
        x = np.ones((n, 1))
    if x.shape[0] != n:
        raise DimensionMismatchError(
            f"feature rows {x.shape[0]} != node count {n}")
    d = x.shape[1]
    out = np.zeros((n + k, d + k))
    out[:n, :d] = x
    out[n:, d:] = np.eye(k)
    return out


def build_rewired(
    graph: Graph,
    partition: Partition,
    qpair: QuotientPair,
    variant: Variant,
    features: Optional[np.ndarray] = None,
    eps: float = 0.0,
) -> RewiredGraph:
    """Assemble the augmented adjacency and features for one variant.

    Virtual node j is adjacent (weight 1) to exactly the nodes of block j.
    The virtual-virtual corner is Q for FULL, zero for REP_NODES and
    MASTER_NODE, and the 0/1 pattern of Q for REP_EDGES. MASTER_NODE
    requires the single-block partition.
    """
    n, k = graph.num_nodes, partition.k
    if partition.num_nodes != n:
        raise DimensionMismatchError(
            f"partition covers {partition.num_nodes} nodes, graph has {n}")
    if qpair.Q.shape != (k, k):
        raise DimensionMismatchError(
            f"quotient shape {qpair.Q.shape} != ({k}, {k})")
    if variant is Variant.MASTER_NODE and k != 1:
        raise DimensionMismatchError(
            "master-node variant requires the single-block partition")

    if variant is Variant.FULL:
        corner = (qpair.Q + qpair.Q.T) / 2.0   # symmetrize; equal for exact EPs
    elif variant is Variant.REP_EDGES:
        corner = qpair.Q_bar
    else:
        corner = np.zeros((k, k))
    member = membership_matrix(partition.block_of, k)
    # The corner's diagonal is kept: it is the within-block degree.
    adjacency = sp.bmat([[graph.adjacency, member],
                         [member.T, sp.csr_matrix(corner)]],
                        format="csr", dtype=np.float64)
    adjacency.eliminate_zeros()
    adjacency.sort_indices()
    return RewiredGraph(
        adjacency=adjacency,
        origin_count=n,
        virtual_count=k,
        variant=variant,
        features=augment_features(features, n, k),
        eps=eps,
        residual=qpair.residual,
    )


# ---------------------------------------------------------------------------
# File format: weighted edge list plus key=value metadata sidecar
# ---------------------------------------------------------------------------

def dump_rewired(rg: RewiredGraph, edge_stream: IO[str], meta_stream: IO[str]) -> None:
    coo = sp.triu(rg.adjacency, k=0).tocoo()   # k=0: virtual self-loop weights survive
    order = np.lexsort((coo.col, coo.row))
    for i in order:
        edge_stream.write(f"{coo.row[i]} {coo.col[i]} {coo.data[i]:.6f}\n")
    meta_stream.write(f"n={rg.origin_count}\n")
    meta_stream.write(f"k={rg.virtual_count}\n")
    meta_stream.write(f"variant={rg.variant.value}\n")
    meta_stream.write(f"eps={rg.eps!r}\n")
    meta_stream.write(f"residual={rg.residual!r}\n")


def load_rewired(
    edge_path: Path,
    meta_path: Path,
    features: Optional[np.ndarray] = None,
) -> RewiredGraph:
    """Read back a rewired graph; `features` are the original n x d values
    (the virtual one-hot block is re-appended here).

    The metadata must give integer n >= 1 and k >= 0, a known variant, and
    numeric eps and residual. Every edge line must be `u v weight` with
    endpoints in [0, n+k) and a finite weight, and every one of the n+k
    nodes must have an edge (each original node links to its block's
    virtual node). Anything else raises an InputError subclass.
    """
    meta = {}
    for line in Path(meta_path).read_text().splitlines():
        if "=" in line:
            key, val = line.split("=", 1)
            meta[key] = val
    missing = [key for key in ("n", "k", "variant", "eps", "residual") if key not in meta]
    if missing:
        raise ParseError(f"rewired metadata lacks {', '.join(missing)}")
    try:
        n, k = int(meta["n"]), int(meta["k"])
        eps, residual = float(meta["eps"]), float(meta["residual"])
        variant = Variant.parse(meta["variant"])
    except ValueError as exc:
        raise ParseError(f"rewired metadata: {exc}") from None
    if n < 1 or k < 0:
        raise ParseError(f"rewired metadata needs n >= 1 and k >= 0, got n={n} k={k}")
    size = n + k
    weights = {}                      # (row, col) -> weight; a later line wins
    for lineno, line in enumerate(Path(edge_path).read_text().splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'u v weight', got {line.strip()!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: bad numeric token in {line.strip()!r}") from None
        if not (0 <= u < size and 0 <= v < size):
            raise ParseError(f"line {lineno}: endpoint outside [0, {size})")
        if not math.isfinite(w):
            raise ParseError(f"line {lineno}: non-finite weight {parts[2]!r}")
        weights[u, v] = w
        weights[v, u] = w
    ids = sorted({u for u, _ in weights})
    first_gap = next((i for i, u in enumerate(ids) if u != i), len(ids))
    if first_gap < size:
        raise ParseError(f"node {first_gap} has no edge, but the metadata "
                         f"gives n+k={size} nodes")
    adjacency = sp.csr_matrix((list(weights.values()), tuple(zip(*weights))),
                              shape=(size, size))
    adjacency.eliminate_zeros()
    adjacency.sort_indices()
    return RewiredGraph(
        adjacency=adjacency,
        origin_count=n,
        virtual_count=k,
        variant=variant,
        features=augment_features(features, n, k),
        eps=eps,
        residual=residual,
    )
