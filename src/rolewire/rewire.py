"""Augmented graph construction: one virtual node per partition block.

Each block gets a virtual node adjacent to exactly its members. The
augmented adjacency, in the block form below with A the graph's
adjacency and R the membership indicator, is the CSR of the entries of
its four blocks: A's from the graph's rows, R's (u, n + block_of[u]) and
their mirrors from the labels, and the corner's from the quotient's CSR
shifted by n, sorted row-major by `Csr.from_entries`.

    [ A  R ]        virtual-virtual corner: (Q + Q')/2  (full, weighted)
    [ R' * ]                                 empty       (repnodes)
                                             Q > 0       (repedges, unweighted)

Q is the partition's sparse quotient, so every block stays sparse.
The master node (`mn`) is repnodes over the single block, which is the
partition refinement returns at eps = infinity.

A rewiring carries no node features. `augment_features` builds the
teacher's featureless input, a constant column for the original nodes
and one-hot for the virtual ones; `dump_augmented_features_csv` writes
the block-diagonal [X 0; 0 I_k] of given features X to the `rewire`
verb's features.csv without building the dense array.

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
from .graph import Csr, Graph, _mirrors, fixed, write_meta, write_table
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

    # Graph's read-only normalized shift of `csr`, cached: the teacher of
    # `run_ts_experiment` and the lift both read a rewiring's shift.
    shift = cached_property(Graph.shift.fget)


def augment_features(n: int, k: int) -> np.ndarray:
    """Block-diagonal [1 0; 0 I_k]: a constant all-ones column for the n
    original nodes, one-hot for the k virtual nodes."""
    out = np.zeros((n + k, 1 + k))
    out[:n, 0] = 1.0
    out[n + np.arange(k), 1 + np.arange(k)] = 1.0
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
    # The corner's diagonal is kept: it is the within-block degree.
    corner_rows, corner_cols = n + q.rows(), n + q.indices
    if variant is Variant.FULL:
        # A symmetric graph gives Q a symmetric pattern: every entry has a mirror.
        corner = (q.data + q.data[_mirrors(q)]) / 2.0
    elif variant is Variant.REP_EDGES:
        corner = np.ones(len(q.data))
    else:
        corner_rows, corner_cols, corner = corner_rows[:0], corner_cols[:0], q.data[:0]
    nodes, virtual = np.arange(n), n + partition.block_of
    # R' lists its entries by block, so all four blocks are sorted runs
    # and the stable sort in `Csr.from_entries` only merges them.
    members = np.argsort(partition.block_of, kind="stable")
    csr = Csr.from_entries(                                 # A, R, R', corner
        np.concatenate([np.repeat(nodes, graph.degrees()), nodes, virtual[members],
                        corner_rows]),
        np.concatenate([graph.indices, virtual, members, corner_cols]),
        np.concatenate([np.ones(len(graph.indices) + 2 * n), corner]), n + k)
    return RewiredGraph(
        graph=graph,
        partition=partition,
        variant=variant,
        csr=csr,
        eps=eps,
        residual=qpair.residual,
    )


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
    """Write the block-diagonal [X 0; 0 I_k] in the `node,f0,f1,...`
    format, a constant all-ones column standing in for X when it is None.

    The bytes are those of formatting every cell of the dense array, but
    only X's own values are formatted: the padding zeros and the virtual
    nodes' one-hot entries are constant cells.
    """
    if x is None:
        x = np.ones((n, 1))
    elif x.shape[0] != n:
        raise DimensionMismatchError(f"feature rows {x.shape[0]} != node count {n}")
    d = x.shape[1]
    zero, one = fixed(0.0), fixed(1.0)
    original = ([str(u), *map(fixed, row), *[zero] * k]
                for u, row in enumerate(np.asarray(x, dtype=np.float64).tolist()))
    virtual = ([str(n + j), *[zero] * (d + j), one, *[zero] * (k - 1 - j)] for j in range(k))
    write_table(stream, "node," + ",".join(f"f{j}" for j in range(d + k)),
                chain(original, virtual))
