"""Immutable undirected graph container and file formats.

Graphs are simple (no self-loops, no multi-edges), undirected and
unweighted, stored in compressed sparse form: row offsets plus sorted
neighbor lists. Node ids are dense 0-based integers.

File formats
------------
edge list : plain text, one "u v" pair per line, '#' starts a comment
features  : CSV with header "node,f0,f1,...", one row per node
labels    : CSV with header "node,label,split", split in {train,val,test,none}
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable, Optional

import numpy as np
import scipy.sparse as sp

from .errors import (
    EmptyGraphError,
    ParseError,
    SelfLoopError,
)

UNLABELED = -1

__all__ = [
    "Graph",
    "NodeData",
    "UNLABELED",
    "graph_from_edges",
    "load_edge_list",
    "dump_edge_list",
    "compact_ids",
    "load_features_csv",
    "dump_features_csv",
    "load_labels_csv",
    "dump_labels_csv",
    "one_hot_labels",
    "degree_percentile",
    "two_hop_neighbors",
    "bfs_distances",
    "is_connected",
]


# ---------------------------------------------------------------------------
# Core containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    """Undirected simple graph in CSR-style adjacency form.

    Attributes
    ----------
    indptr : int64 array, shape (n+1,)
        Row offsets into `indices`.
    indices : int64 array
        Concatenated neighbor lists, sorted ascending within each row.
    """

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        if self.num_nodes < 1:
            raise EmptyGraphError("graph must have at least one node")

    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """n x n 0/1 int64 CSR adjacency; products with it count neighbors
        exactly. Built once per graph and shared by every caller."""
        n = self.num_nodes
        return sp.csr_matrix(
            (np.ones(len(self.indices), dtype=np.int64), self.indices, self.indptr),
            shape=(n, n))

    def edges(self) -> Iterable[tuple[int, int]]:
        """Yield each undirected edge once, as (u, v) with u < v."""
        for u in range(self.num_nodes):
            for v in self.neighbors(u):
                if u < v:
                    yield u, int(v)

    def dense_adjacency(self) -> np.ndarray:
        return self.adjacency.astype(np.float64).toarray()

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return i < len(row) and row[i] == v


@dataclass
class NodeData:
    """Optional per-node payload: features, class labels, split masks.

    Labels use UNLABELED (-1) as the "no label" sentinel. The three masks
    are pairwise disjoint and every masked node must carry a label.
    """

    num_nodes: int
    features: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None
    train_mask: np.ndarray = field(default=None)  # type: ignore[assignment]
    val_mask: np.ndarray = field(default=None)  # type: ignore[assignment]
    test_mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        n = self.num_nodes
        if self.train_mask is None:
            self.train_mask = np.zeros(n, dtype=bool)
        if self.val_mask is None:
            self.val_mask = np.zeros(n, dtype=bool)
        if self.test_mask is None:
            self.test_mask = np.zeros(n, dtype=bool)
        if self.features is not None and self.features.shape[0] != n:
            raise ValueError("feature row count must equal num_nodes")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("label count must equal num_nodes")
        if np.any(self.train_mask & self.val_mask) or \
           np.any(self.train_mask & self.test_mask) or \
           np.any(self.val_mask & self.test_mask):
            raise ValueError("train/val/test masks must be pairwise disjoint")
        masked = self.train_mask | self.val_mask | self.test_mask
        if np.any(masked):
            if self.labels is None or np.any(self.labels[masked] == UNLABELED):
                raise ValueError("every masked node must carry a label")

    @property
    def num_classes(self) -> int:
        if self.labels is None:
            return 0
        valid = self.labels[self.labels != UNLABELED]
        return int(valid.max()) + 1 if len(valid) else 0


# ---------------------------------------------------------------------------
# Construction and parsing
# ---------------------------------------------------------------------------

def graph_from_edges(num_nodes: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from undirected edge pairs, deduplicating mentions.

    Reversed and repeated mentions of the same edge collapse to one.
    Self-loops and ids outside 0..num_nodes-1 are rejected, naming the
    first such edge in input order.

    Both directions of every edge become keys row * n + col; one sorted
    `np.unique` over them is the CSR entry list, rows ascending and
    neighbors ascending within each row.
    """
    if num_nodes < 1:
        raise EmptyGraphError("graph must have at least one node")
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    u, v = pairs[:, 0], pairs[:, 1]
    bad = (u == v) | (u < 0) | (u >= num_nodes) | (v < 0) | (v >= num_nodes)
    if bad.any():
        first = int(np.argmax(bad))
        bu, bv = int(u[first]), int(v[first])
        if bu == bv:
            raise SelfLoopError(f"self-loop at node {bu}")
        raise ParseError(f"edge ({bu},{bv}) outside node range 0..{num_nodes - 1}")
    keys = np.unique(np.concatenate([u * num_nodes + v, v * num_nodes + u]))
    rows, indices = np.divmod(keys, num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
    return Graph(indptr=indptr, indices=indices)


def load_edge_list(stream: IO[str]) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    Lines starting with '#' are comments. The node set is 0..max_id, so
    unmentioned ids below the maximum become isolated nodes (compact_ids
    removes such gaps when wanted). Duplicate and reversed mentions of an
    edge collapse to one undirected edge; duplicates emit a warning.
    """
    edges = []
    max_id = -1
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two node ids, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer token in {line!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative node id in {line!r}")
        if u == v:
            raise SelfLoopError(f"line {lineno}: self-loop at node {u}")
        edges.append((u, v))
        max_id = max(max_id, u, v)
    if max_id < 0:
        raise EmptyGraphError("edge list holds no nodes")
    graph = graph_from_edges(max_id + 1, edges)
    if graph.num_edges < len(edges):
        warnings.warn(f"collapsed {len(edges) - graph.num_edges} duplicate edge mentions")
    return graph


def dump_edge_list(graph: Graph, stream: IO[str]) -> None:
    """Write the canonical edge list: one "u v" line per edge, u < v."""
    for u, v in graph.edges():
        stream.write(f"{u} {v}\n")


def compact_ids(graph: Graph) -> tuple[Graph, dict[int, int]]:
    """Remove isolated gap nodes, remapping to dense ids.

    Returns the compacted graph and the old-id -> new-id map. Nodes with
    degree zero that sit below the max id are treated as gaps and dropped;
    a graph with no edges keeps node 0 only. Dropped nodes own no CSR
    entries, so the kept rows keep their offsets and only the neighbor ids
    change, through one monotone old -> new id array.
    """
    keep = np.flatnonzero(graph.degrees() > 0)
    if len(keep) == 0:
        keep = np.array([0], dtype=np.int64)
    new_id = np.zeros(graph.num_nodes, dtype=np.int64)
    new_id[keep] = np.arange(len(keep))
    compacted = Graph(indptr=np.append(graph.indptr[keep], graph.indptr[-1]),
                      indices=new_id[graph.indices])
    return compacted, dict(zip(keep.tolist(), range(len(keep))))


# ---------------------------------------------------------------------------
# Feature / label CSV formats
# ---------------------------------------------------------------------------

def load_features_csv(stream: IO[str], num_nodes: int) -> np.ndarray:
    header = stream.readline().strip()
    cols = header.split(",")
    if not cols or cols[0] != "node":
        raise ParseError(f"feature header must start with 'node', got {header!r}")
    d = len(cols) - 1
    x = np.zeros((num_nodes, d))
    seen = np.zeros(num_nodes, dtype=bool)
    for lineno, raw in enumerate(stream, start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != d + 1:
            raise ParseError(f"line {lineno}: expected {d + 1} fields")
        try:
            u = int(parts[0])
            vals = [float(p) for p in parts[1:]]
        except ValueError:
            raise ParseError(f"line {lineno}: bad numeric token") from None
        if not (0 <= u < num_nodes):
            raise ParseError(f"line {lineno}: node {u} out of range")
        x[u] = vals
        seen[u] = True
    if not seen.all():
        raise ParseError(f"features missing for node {int(np.flatnonzero(~seen)[0])}")
    return x


def dump_features_csv(x: np.ndarray, stream: IO[str]) -> None:
    d = x.shape[1]
    stream.write("node," + ",".join(f"f{j}" for j in range(d)) + "\n")
    for u in range(x.shape[0]):
        stream.write(f"{u}," + ",".join(f"{v:.6f}" for v in x[u]) + "\n")


_SPLITS = ("train", "val", "test", "none")


def load_labels_csv(stream: IO[str], num_nodes: int) -> NodeData:
    header = stream.readline().strip()
    if header != "node,label,split":
        raise ParseError(f"label header must be 'node,label,split', got {header!r}")
    labels = np.full(num_nodes, UNLABELED, dtype=np.int64)
    masks = {s: np.zeros(num_nodes, dtype=bool) for s in _SPLITS[:3]}
    for lineno, raw in enumerate(stream, start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 3 fields")
        try:
            u = int(parts[0])
            lab = UNLABELED if parts[1] == "" else int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: bad integer token") from None
        if parts[1] != "" and lab < 0:
            raise ParseError(f"line {lineno}: negative label {lab}; "
                             "leave the field empty for an unlabeled node")
        split = parts[2]
        if split not in _SPLITS:
            raise ParseError(f"line {lineno}: unknown split {split!r}")
        if not (0 <= u < num_nodes):
            raise ParseError(f"line {lineno}: node {u} out of range")
        labels[u] = lab
        if split != "none":
            masks[split][u] = True
    return NodeData(
        num_nodes=num_nodes,
        labels=labels,
        train_mask=masks["train"],
        val_mask=masks["val"],
        test_mask=masks["test"],
    )


def dump_labels_csv(data: NodeData, stream: IO[str]) -> None:
    stream.write("node,label,split\n")
    labels = data.labels if data.labels is not None else \
        np.full(data.num_nodes, UNLABELED, dtype=np.int64)
    for u in range(data.num_nodes):
        if data.train_mask[u]:
            split = "train"
        elif data.val_mask[u]:
            split = "val"
        elif data.test_mask[u]:
            split = "test"
        else:
            split = "none"
        lab = "" if labels[u] == UNLABELED else str(int(labels[u]))
        stream.write(f"{u},{lab},{split}\n")


# ---------------------------------------------------------------------------
# Degree statistics and neighborhoods
# ---------------------------------------------------------------------------

def one_hot_labels(
    labels: Optional[np.ndarray],
    mask: np.ndarray,
    num_classes: Optional[int] = None,
) -> np.ndarray:
    """One-hot matrix over masked labeled nodes; other rows stay zero."""
    n = len(mask)
    if labels is None:
        return np.zeros((n, max(1, num_classes or 1)))
    active = mask & (labels != UNLABELED)
    if num_classes is None:
        num_classes = int(labels[active].max()) + 1 if active.any() else 1
    y = np.zeros((n, num_classes))
    for u in np.flatnonzero(active):
        y[u, labels[u]] = 1.0
    return y


def degree_percentile(graph: Graph, p: int) -> float:
    """Nearest-rank percentile of the degree sequence.

    p must lie in {0, 25, 50, 75, 100}. p=0 is pinned to 0.0 (the exact
    refinement limit) rather than the minimum degree; p=100 returns the
    maximum degree; interior values use the nearest-rank index
    ceil(p/100 * n) - 1 on the ascending degree sequence.
    """
    if p not in (0, 25, 50, 75, 100):
        raise ValueError(f"percentile must be one of 0,25,50,75,100, got {p}")
    if p == 0:
        return 0.0
    sorted_degrees = np.sort(graph.degrees())
    if p == 100:
        return float(sorted_degrees[-1])
    n = graph.num_nodes
    idx = int(np.ceil(p / 100.0 * n)) - 1
    return float(sorted_degrees[idx])


def two_hop_neighbors(graph: Graph, u: int) -> set[int]:
    """Nodes at shortest-path distance exactly 2 from u."""
    first = set(int(v) for v in graph.neighbors(u))
    second = set()
    for v in first:
        second.update(int(w) for w in graph.neighbors(v))
    second.discard(u)
    return second - first


def bfs_distances(indptr: np.ndarray, indices: np.ndarray, source: int) -> np.ndarray:
    """Unweighted BFS distances from source; unreachable nodes get -1."""
    n = len(indptr) - 1
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in indices[indptr[u]:indptr[u + 1]]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(int(v))
    return dist


def is_connected(graph: Graph) -> bool:
    if graph.num_nodes == 1:
        return True
    dist = bfs_distances(graph.indptr, graph.indices, 0)
    return bool((dist >= 0).all())
