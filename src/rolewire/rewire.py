"""Augmented graph construction: one virtual node per partition block.

Each block gets a virtual node adjacent to exactly its members. The
augmented adjacency is assembled sparsely, block by block, with
`scipy.sparse.bmat` from the graph's CSR adjacency A and the sparse
membership indicator R:

    [ A  R ]        virtual-virtual corner: (Q + Q')/2  (full, weighted)
    [ R' * ]                                 empty       (repnodes)
                                             Q > 0       (repedges, unweighted)

Q is the partition's sparse quotient, so every block stays sparse.
The master node (`mn`) is repnodes over the single block, which is the
partition refinement returns at eps = infinity.

A rewiring carries no node features. `augment_features` builds them,
one-hot for the virtual nodes and appended block-diagonally to X, where
they are read: the `rewire` verb's features.csv and the teacher.

A `RewiredGraph` is the one record of a rewiring: it keeps the graph and
the partition it was built from, and what is derived from the rewiring,
such as the SRL report, reads them from it. `build_rewired` is its only
constructor. The weighted edge list and
metadata sidecar that `dump_rewired` writes are an output format only;
nothing reads them back, since a file cannot carry the graph and
partition a rewiring came from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Optional

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError
from .graph import Graph
from .partition import Partition, membership_matrix, quotient

__all__ = [
    "Variant",
    "RewiredGraph",
    "build_rewired",
    "augment_features",
    "dump_rewired",
]


class Variant(enum.Enum):
    FULL = "full"
    REP_NODES = "repnodes"
    REP_EDGES = "repedges"
    MASTER_NODE = "mn"


@dataclass(frozen=True)
class RewiredGraph:
    """One rewiring of `graph` by `partition`: the weighted symmetric
    adjacency over its n original + k virtual nodes."""

    graph: Graph
    partition: Partition
    variant: Variant
    adjacency: sp.csr_matrix          # (n+k) x (n+k), float64
    eps: float
    residual: float

    @property
    def origin_count(self) -> int:
        return self.graph.num_nodes

    @property
    def virtual_count(self) -> int:
        return self.partition.k

    @property
    def size(self) -> int:
        return self.origin_count + self.virtual_count

    @cached_property
    def shift(self) -> np.ndarray:
        """Read-only dense normalized shift, built once per rewired graph."""
        from .spectral import normalized_shift   # spectral imports this module
        shift = normalized_shift(self.adjacency)
        shift.setflags(write=False)
        return shift


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
    out[n + np.arange(k), d + np.arange(k)] = 1.0
    return out


def build_rewired(
    graph: Graph,
    partition: Partition,
    variant: Variant,
    eps: float = 0.0,
) -> RewiredGraph:
    """Assemble the sparse augmented adjacency for one variant.

    Virtual node j is adjacent (weight 1) to exactly the nodes of block j.
    The virtual-virtual corner is the symmetrized sparse quotient
    (Q + Q')/2 for FULL, empty for REP_NODES and MASTER_NODE, and the 0/1
    pattern of Q for REP_EDGES. MASTER_NODE requires the single-block
    partition. Node features are not part of a rewiring; see
    `augment_features`.
    """
    n, k = graph.num_nodes, partition.k
    if partition.num_nodes != n:
        raise DimensionMismatchError(
            f"partition covers {partition.num_nodes} nodes, graph has {n}")
    if variant is Variant.MASTER_NODE and k != 1:
        raise DimensionMismatchError(
            "master-node variant requires the single-block partition")

    qpair = quotient(graph, partition)
    if variant is Variant.FULL:
        corner = (qpair.Q + qpair.Q.T) / 2.0   # symmetrize; equal for exact EPs
    elif variant is Variant.REP_EDGES:
        corner = (qpair.Q > 0).astype(float)
    else:
        corner = None
    member = membership_matrix(partition)
    # The corner's diagonal is kept: it is the within-block degree.
    adjacency = sp.bmat([[graph.adjacency, member],
                         [member.T, corner]],
                        format="csr", dtype=np.float64)
    adjacency.eliminate_zeros()
    adjacency.sort_indices()
    return RewiredGraph(
        graph=graph,
        partition=partition,
        variant=variant,
        adjacency=adjacency,
        eps=eps,
        residual=qpair.residual,
    )


# ---------------------------------------------------------------------------
# Output format: weighted edge list plus key=value metadata sidecar
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
