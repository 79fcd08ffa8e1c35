"""Augmented graph construction: one virtual node per partition block.

Each block gets a virtual node adjacent to exactly its members. The
augmented adjacency, in the block form below with A the graph's
adjacency and R the membership indicator, is written straight into CSR
arrays from the graph's rows, the labels and the quotient's CSR: the
block columns [A; R'] and [R; corner] are interleaved row by row, so
original row u is A's row u followed by its virtual node n +
block_of[u], and virtual row j is block j's members followed by the
corner's row j shifted by n.

    [ A  R ]        virtual-virtual corner: (Q + Q')/2  (full, weighted)
    [ R' * ]                                 empty       (repnodes)
                                             Q > 0       (repedges, unweighted)

Q is the partition's sparse quotient, so every block stays sparse.
The master node (`mn`) is repnodes over the single block, which is the
partition refinement returns at eps = infinity.

A rewiring carries no node features. `augment_features` builds them,
one-hot for the virtual nodes and appended block-diagonally to X, for
the teacher; `dump_augmented_features_csv` writes the same rows to the
`rewire` verb's features.csv without building the dense array.

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
from itertools import chain
from typing import IO, Optional

import numpy as np

from .errors import DimensionMismatchError
from .graph import Csr, Graph, fixed, write_meta, write_table
from .partition import Partition, quotient

__all__ = [
    "Variant",
    "RewiredGraph",
    "build_rewired",
    "augment_features",
    "dump_rewired",
    "dump_augmented_features_csv",
]


class Variant(enum.Enum):
    FULL = "full"
    REP_NODES = "repnodes"
    REP_EDGES = "repedges"
    MASTER_NODE = "mn"


@dataclass(frozen=True)
class RewiredGraph:
    """One rewiring of `graph` by `partition`: the weighted symmetric
    adjacency over its n original + k virtual nodes, as CSR arrays."""

    graph: Graph
    partition: Partition
    variant: Variant
    csr: Csr                          # (n+k) x (n+k), float64
    eps: float
    residual: float

    @cached_property
    def adjacency(self):
        """Sparse CSR view of `csr`, built on first access and cached."""
        return self.csr.view()

    @property
    def origin_count(self) -> int:
        return self.graph.num_nodes

    @property
    def virtual_count(self) -> int:
        return self.partition.k

    @property
    def size(self) -> int:
        return self.origin_count + self.virtual_count

    shift = Graph.shift     # the one read-only normalized shift of `csr`, cached


def _node_features(x: Optional[np.ndarray], n: int) -> np.ndarray:
    if x is None:
        return np.ones((n, 1))
    if x.shape[0] != n:
        raise DimensionMismatchError(
            f"feature rows {x.shape[0]} != node count {n}")
    return x


def augment_features(x: Optional[np.ndarray], n: int, k: int) -> np.ndarray:
    """Block-diagonal [X 0; 0 I_k]; a constant all-ones column stands in
    for X in the featureless regime."""
    x = _node_features(x, n)
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
    q = qpair.csr
    if variant is Variant.FULL:
        # A symmetric graph gives Q a symmetric pattern, so the entries
        # sorted by (column, row) are the mirrors of those in row order.
        corner = (q.indptr, q.indices,
                  (q.data + q.data[np.argsort(q.indices * k + q.rows())]) / 2.0)
    elif variant is Variant.REP_EDGES:
        corner = (q.indptr, q.indices, np.ones(len(q.data)))
    else:
        corner = (np.zeros(k + 1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
    # The corner's diagonal is kept: it is the within-block degree.
    corner_ptr, corner_idx, corner_data = corner
    nnz = len(graph.indices)
    left = (np.append(graph.indptr, nnz + np.cumsum(partition.block_sizes())),      # [A; R']
            np.append(graph.indices, np.argsort(partition.block_of, kind="stable")),
            np.ones(nnz + n))
    right = (np.append(np.arange(n + 1), n + corner_ptr[1:]),                       # [R; corner]
             np.append(partition.block_of, corner_idx),
             np.append(np.ones(n), corner_data))
    indptr, indices, data = _side_by_side(left, right, n)
    return RewiredGraph(
        graph=graph,
        partition=partition,
        variant=variant,
        csr=Csr(indptr, indices, data, (n + k, n + k)),
        eps=eps,
        residual=qpair.residual,
    )


def _side_by_side(left, right, shift: int):
    """(indptr, indices, data) of the rows [L | R], with R's columns
    shifted by `shift` past L's; each side is an (indptr, indices, data)
    triple over the same rows, each row sorted."""
    left_ptr, left_idx, left_data = left
    right_ptr, right_idx, right_data = right
    indptr = left_ptr + right_ptr
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1])
    # A left entry moves past the right entries of the rows above it; a
    # right entry past the left entries of its own row and those above.
    at = np.arange(len(left_idx)) + np.repeat(right_ptr[:-1], np.diff(left_ptr))
    indices[at], data[at] = left_idx, left_data
    at = np.arange(len(right_idx)) + np.repeat(left_ptr[1:], np.diff(right_ptr))
    indices[at], data[at] = right_idx + shift, right_data
    return indptr, indices, data


# ---------------------------------------------------------------------------
# Output format: weighted edge list plus key=value metadata sidecar
# ---------------------------------------------------------------------------

def dump_rewired(rg: RewiredGraph, edge_stream: IO[str], meta_stream: IO[str]) -> None:
    """Write each entry (u, v, w) of the upper triangle, diagonal included
    (virtual self-loop weights survive), in row-major order, then the sidecar."""
    rows = rg.csr.rows()
    upper = rows <= rg.csr.indices
    write_table(edge_stream, None, zip(map(str, rows[upper].tolist()),
                                       map(str, rg.csr.indices[upper].tolist()),
                                       map(fixed, rg.csr.data[upper].tolist())), sep=" ")
    write_meta(meta_stream, {"n": rg.origin_count, "k": rg.virtual_count,
                             "variant": rg.variant.value, "eps": rg.eps,
                             "residual": rg.residual})


def dump_augmented_features_csv(x: Optional[np.ndarray], n: int, k: int,
                                stream: IO[str]) -> None:
    """Write `augment_features(x, n, k)` in the `node,f0,f1,...` format.

    The bytes are those of formatting every cell of the dense array, but
    only X's own values are formatted: the padding zeros and the virtual
    nodes' one-hot entries are constant cells.
    """
    x = _node_features(x, n)
    d = x.shape[1]
    zero, one = fixed(0.0), fixed(1.0)
    original = ([str(u), *map(fixed, row), *[zero] * k]
                for u, row in enumerate(np.asarray(x, dtype=np.float64).tolist()))
    virtual = ([str(n + j), *[zero] * (d + j), one, *[zero] * (k - 1 - j)] for j in range(k))
    write_table(stream, "node," + ",".join(f"f{j}" for j in range(d + k)),
                chain(original, virtual))
