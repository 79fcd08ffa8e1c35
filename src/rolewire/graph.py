"""Immutable undirected graph container, the matrix gate, and file formats.

Graphs are simple (no self-loops, no multi-edges), undirected and
unweighted, stored in compressed sparse form: row offsets plus sorted
neighbor lists. Node ids are dense 0-based integers.

Every matrix a caller hands the library, dense or sparse, passes one gate,
`require_symmetric`, on its CSR arrays (an adjacency then passes the
weight rules of `weighted_adjacency`); `Graph.shift` builds `normalized_shift`
on each access.
The library computes on CSR arrays (`Csr`), and every CSR it assembles
from entries comes from `Csr.from_entries`. The sparse-matrix package
loads only on the first call of `sparse`, which only the views callers
read (`Graph.adjacency`, `Csr.view`) make.

File formats (read through `table_rows`, written through `write_table`)
------------------------------------------------------------------------
edge list : plain text, one "u v" pair per line
features  : CSV with header "node,f0,f1,...", one row per node
labels    : CSV with header "node,label,split", split in {train,val,test,none}
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    EmptyGraphError,
    NonSymmetricError,
    ParseError,
    SelfLoopError,
)

UNLABELED = -1

# Csr.from_entries keys each entry as u * n + v in int64, which holds
# exactly while n <= isqrt(2**63 - 1); larger ids would wrap silently.
MAX_NODE_ID = math.isqrt(2**63 - 1) - 1

__all__ = [
    "Csr",
    "Graph",
    "NodeData",
    "UNLABELED",
    "graph_from_edges",
    "load_edge_list",
    "dump_edge_list",
    "compact_ids",
    "load_features_csv",
    "load_labels_csv",
    "dump_labels_csv",
    "fixed",
    "write_table",
    "write_meta",
    "one_hot_labels",
    "PERCENTILE_GRID",
    "degree_percentile",
    "bfs_distances",
    "normalized_shift",
]


# ---------------------------------------------------------------------------
# Core containers, the matrix gate and the normalized shift
# ---------------------------------------------------------------------------

def sparse():
    """The sparse-matrix module, imported on the first call. Only the views
    (`Csr.view`) call it, so no verb loads it; it needs the `views` extra."""
    import scipy.sparse as sp     # ~17 MB of RSS and ~0.3 s of start-up when imported
    return sp


class Csr(NamedTuple):
    """A matrix as CSR arrays: row offsets, column ids ascending within
    each row, and the values. `tocsr` returns the record itself, so a
    reader that takes a caller's sparse matrix through its `tocsr()`
    reads these arrays the same way."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_entries(cls, rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                     n: int) -> "Csr":
        """The one constructor: n x n CSR arrays of the int64 entries (rows[i],
        cols[i]) with values[i], listed in any order. Entries at one position
        are summed in listed order (one stable sort of the keys row * n +
        col, which only merges where the entries come as a few sorted runs);
        entries already row-major and distinct are taken as they are."""
        keys = rows * n + cols
        if not (keys[1:] > keys[:-1]).all():
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            if (keys[1:] > keys[:-1]).all():       # distinct: only reordered
                cols, values = cols[order], values[order]
            else:
                first = runs(keys)[0]
                values = np.add.reduceat(values[order], first)
                rows, cols = rows[order[first]], cols[order[first]]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(indptr, cols, values, (n, n))

    def tocsr(self) -> "Csr":
        return self

    def rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def view(self):
        """The matrix as a sparse CSR matrix over these arrays, for callers
        and tests; the library never computes on it."""
        return sparse().csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)


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

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def csr(self) -> Csr:
        """The 0/1 int64 adjacency as CSR arrays over the graph's own."""
        n = self.num_nodes
        return Csr(self.indptr, self.indices, np.ones(len(self.indices), dtype=np.int64),
                   (n, n))

    @cached_property
    def adjacency(self):
        """n x n 0/1 int64 sparse CSR view of `csr`, built on first access
        and cached; products with it count neighbors exactly."""
        return self.csr.view()

    def edges(self) -> Iterable[tuple[int, int]]:
        """Each undirected edge once, as (u, v) with u < v, rows ascending."""
        rows = np.repeat(np.arange(self.num_nodes), np.diff(self.indptr))
        upper = rows < self.indices
        return zip(rows[upper].tolist(), self.indices[upper].tolist())

    def dense_adjacency(self) -> np.ndarray:
        """Dense float64 0/1 adjacency, for tests; the library never calls it."""
        dense = np.zeros((self.num_nodes, self.num_nodes))
        dense[self.csr.rows(), self.indices] = 1.0
        return dense

    @property
    def shift(self) -> np.ndarray:
        """Read-only normalized shift of `csr`, built on each access, so a
        caller holds this n x n array only as long as it keeps it
        (`RewiredGraph.shift` caches its own)."""
        shift = normalized_shift(self.csr)
        shift.setflags(write=False)
        return shift


@dataclass
class NodeData:
    """Per-node payload: class labels and split masks.

    Labels use UNLABELED (-1) as the "no label" sentinel. The three masks
    are pairwise disjoint and every masked node must carry a label.
    """

    num_nodes: int
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

    def __post_init__(self):
        if len(self.labels) != self.num_nodes:
            raise ValueError("label count must equal num_nodes")
        splits = self.train_mask.astype(np.int64) + self.val_mask + self.test_mask
        if np.any(splits > 1):
            raise ValueError("train/val/test masks must be pairwise disjoint")
        if np.any(self.labels[splits > 0] == UNLABELED):
            raise ValueError("every masked node must carry a label")


def require_symmetric(m, what: str) -> tuple[Csr, np.ndarray]:
    """The one gate for a matrix a caller hands the library: square and
    within 1e-12 * max(1, max |m|) of m^T (else NonSymmetricError), and
    finite (else ValueError). m is read as float64 CSR arrays, the nonzeros
    of a dense m or the entries of any other through its `tocsr()`, with
    duplicates summed; each stored entry is compared with its mirror, 0
    where none is stored. Returns the arrays and each entry's mirror
    position (`_mirrors`), for callers to reuse. m is never written."""
    m = m.tocsr() if hasattr(m, "tocsr") else np.asarray(m, dtype=np.float64)
    if len(m.shape) != 2 or m.shape[0] != m.shape[1]:
        raise NonSymmetricError(f"{what} must be square")
    n = m.shape[0]
    if hasattr(m, "indptr"):
        rows = np.repeat(np.arange(n), np.diff(np.asarray(m.indptr, dtype=np.int64)))
        cols, values = np.asarray(m.indices, dtype=np.int64), np.asarray(m.data, dtype=np.float64)
    else:
        rows, cols = np.nonzero(m)
        values = m[rows, cols]
    csr = Csr.from_entries(rows, cols, values, n)
    at = _mirrors(csr)
    if not np.isfinite(csr.data).all():
        raise ValueError(f"{what} has a non-finite entry")
    scale = max(1.0, float(np.abs(csr.data).max(initial=0.0)))
    if np.abs(csr.data - np.where(at >= 0, csr.data[at], 0.0)).max(initial=0.0) > 1e-12 * scale:
        raise NonSymmetricError(f"{what} is not symmetric")
    return csr, at


def _mirrors(csr: Csr) -> np.ndarray:
    """For each stored entry (i, j) of a square CSR matrix, the position of
    its mirror (j, i) among the stored entries, or -1 where none is stored."""
    n = csr.shape[0]
    rows = csr.rows()
    keys = rows * n + csr.indices                  # ascending
    mirrors = csr.indices * n + rows
    order = np.argsort(mirrors)                    # ascending needles search fastest
    at = np.empty(len(keys), dtype=np.int64)
    at[order] = np.searchsorted(keys, mirrors[order])
    np.minimum(at, len(keys) - 1, out=at)
    return np.where(keys[at] == mirrors, at, -1) if len(keys) else at


def weighted_adjacency(adjacency) -> tuple[Csr, np.ndarray]:
    """Float64 CSR arrays of an adjacency that passes `require_symmetric`,
    and their mirror positions, with weights >= 0 and finite degrees (else
    ValueError)."""
    a, at = require_symmetric(adjacency, "adjacency")
    if a.data.min(initial=0.0) < 0:
        raise ValueError("adjacency weights must be nonnegative")
    if not np.isfinite(np.bincount(a.rows(), a.data, minlength=a.shape[0])).all():
        raise ValueError("adjacency's weighted degrees overflow")
    return a, at


def normalized_shift(adjacency) -> np.ndarray:
    """Self-loop-normalized propagation matrix of a weighted adjacency: a
    dense array, a `Csr`, or a sparse matrix read through its `tocsr()`.

    With B = A + I and D the diagonal of B's row sums, returns the dense
    D^{-1/2} B D^{-1/2}, symmetrized as (S + S^T)/2. Every diagonal of B
    is at least 1, so D is invertible without special cases.

    A passes `weighted_adjacency`, and the result is built in one n x n
    buffer: B is densified once (as 0.0 + a_ij, so an explicit -0.0 weight
    lands as +0.0, as in A + I) and its dense row sums give D. Off the
    stored entries, their mirrors and the diagonal, the result is B's zero;
    on them, (b_ij d_i) d_j is averaged with its mirror and written back.
    The bits are those of (dinv[:, None] * (A + I)) * dinv[None, :] averaged
    with its transpose.
    """
    a, _ = weighted_adjacency(adjacency)
    n = a.shape[0]
    rows = a.rows()
    b = np.zeros((n, n))
    b[rows, a.indices] = 0.0 + a.data
    b.flat[::n + 1] += 1.0
    dinv = 1.0 / np.sqrt(b.sum(axis=1))
    i = np.concatenate([rows, np.arange(n)])
    j = np.concatenate([a.indices, np.arange(n)])
    mean = (b[i, j] * dinv[i] * dinv[j] + b[j, i] * dinv[j] * dinv[i]) / 2.0
    b[i, j] = mean
    b[j, i] = mean
    return b


def component_labels(csr: Csr) -> np.ndarray:
    """Each node's connected component, labelled by its smallest node id,
    in the graph whose edges are the stored entries of a square CSR
    matrix. The pattern must be symmetric: (j, i) is stored wherever
    (i, j) is.

    Min-label hooking with full pointer jumping (Shiloach and Vishkin,
    J. Algorithms 1982): each round hooks every root to the smallest root
    across its edges, then shortcuts every pointer to its root. Roots
    point to smaller ids only, so the forest never cycles, and every
    round that finds two roots joined by an edge removes at least one.
    """
    u, v = csr.rows(), csr.indices                 # each edge in both directions
    label = np.arange(csr.shape[0])
    while True:
        lu, lv = label[u], label[v]
        cross = lu != lv
        if not cross.any():
            return label
        np.minimum.at(label, lu[cross], lv[cross])   # lu holds roots only
        while not np.array_equal(jumped := label[label], label):
            label = jumped


# ---------------------------------------------------------------------------
# Construction and parsing
# ---------------------------------------------------------------------------

def graph_from_edges(num_nodes: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from undirected edge pairs, deduplicating mentions.

    Reversed and repeated mentions of the same edge collapse to one.
    Self-loops and ids outside 0..num_nodes-1 are rejected, naming the
    first such edge in input order.

    Both directions of every edge are entries of `Csr.from_entries`,
    which collapses repeats: its rows and columns are the CSR lists.
    """
    if num_nodes < 1:
        raise EmptyGraphError("graph must have at least one node")
    pairs = int_array(edges if isinstance(edges, np.ndarray) else list(edges)).reshape(-1, 2)
    u, v = pairs[:, 0], pairs[:, 1]
    bad = (u == v) | (u < 0) | (u >= num_nodes) | (v < 0) | (v >= num_nodes)
    if bad.any():
        first = int(np.argmax(bad))
        bu, bv = int(u[first]), int(v[first])
        if bu == bv:
            raise SelfLoopError(f"self-loop at node {bu}")
        raise ParseError(f"edge ({bu},{bv}) outside node range 0..{num_nodes - 1}")
    u, v = u.astype(np.int64), v.astype(np.int64)
    csr = Csr.from_entries(np.concatenate([u, v]), np.concatenate([v, u]),
                           np.ones(2 * len(u), dtype=np.int64), num_nodes)
    return Graph(indptr=csr.indptr, indices=csr.indices)


def load_edge_list(stream: IO[str]) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    Rows follow `table_rows` with two fields, both node ids in
    0..MAX_NODE_ID. The node set is 0..max_id, so unmentioned ids below
    the maximum become isolated nodes (compact_ids removes such gaps when
    wanted). Duplicate and reversed mentions of an edge collapse to one
    undirected edge; duplicates emit a warning.
    """
    ends = _edge_ends(stream)
    return _edge_graph(int(ends.max()) + 1, ends)


def _edge_ends(stream: IO[str]) -> np.ndarray:
    """The m x 2 int64 node ids of an edge list's rows, under the rules of
    `load_edge_list`."""
    body = list(table_rows(stream, width=2, sep=None))
    if not body:
        raise EmptyGraphError("edge list holds no nodes")
    ends = int_array([parse_column(body, 0, int, "a node id"),
                      parse_column(body, 1, int, "a node id")]).T
    negative = (ends < 0).any(axis=1)
    above = (ends > MAX_NODE_ID).any(axis=1)
    bad = negative | above | (ends[:, 0] == ends[:, 1])
    if bad.any():
        i = int(np.argmax(bad))
        lineno, fields = body[i]
        if not (negative[i] or above[i]):
            raise SelfLoopError(f"line {lineno}: self-loop at node {ends[i, 0]}")
        what = "negative node id" if negative[i] else f"node id above {MAX_NODE_ID}"
        raise ParseError(f"line {lineno}: {what} in {' '.join(fields)!r}")
    return ends.astype(np.int64)


def _edge_graph(num_nodes: int, ends: np.ndarray) -> Graph:
    """The graph of edge-list rows on nodes 0..num_nodes-1, warning when
    duplicate mentions collapse."""
    graph = graph_from_edges(num_nodes, ends)
    if graph.num_edges < len(ends):
        warnings.warn(f"collapsed {len(ends) - graph.num_edges} duplicate edge mentions")
    return graph


def dump_edge_list(graph: Graph, stream: IO[str]) -> None:
    """Write the canonical edge list: one "u v" line per edge, u < v."""
    write_table(stream, None, (map(str, edge) for edge in graph.edges()), sep=" ")


def compact_ids(graph: Graph) -> tuple[Graph, np.ndarray]:
    """Remove isolated gap nodes, remapping to dense ids.

    Returns the compacted graph and `keep`, the ascending int64 array of
    the old ids kept: new id i is old id `keep[i]`. Nodes with degree zero
    that sit below the max id are treated as gaps and dropped; a graph
    with no edges keeps node 0 only. Dropped nodes own no CSR
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
    return compacted, keep


# ---------------------------------------------------------------------------
# Text tables: the one reader and the one writer behind every file
# ---------------------------------------------------------------------------

def fixed(value: float) -> str:
    """The one number format of every output table: six decimals."""
    return f"{value:.6f}"


def write_table(stream: IO[str], header: Optional[str], rows: Iterable[Iterable[str]],
                footer: Iterable[tuple[str, float]] = (), sep: str = ",") -> None:
    """Write the `header` line (unless None), each row's string cells
    joined by `sep` (numbers become cells through `fixed` or `str`), then
    a `# key=value` line per footer entry, its value a `fixed` cell."""
    if header is not None:
        stream.write(header + "\n")
    stream.writelines(sep.join(row) + "\n" for row in rows)
    stream.writelines(f"# {key}={fixed(value)}\n" for key, value in footer)


def write_meta(stream: IO[str], entries: Mapping[str, object]) -> None:
    """Write a `key=value` line per entry: a float as `repr(float(v))`, which
    reads back exactly (never `np.float64(...)`), None as empty, else `str`."""
    for key, v in entries.items():
        v = "" if v is None else repr(float(v)) if isinstance(v, float) else v
        stream.write(f"{key}={v}\n")


def table_rows(stream: IO[str], width: Optional[int] = None,
               sep: Optional[str] = ",") -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each row of a text table, under the
    row rules of every input file: lines are numbered from 1 and stripped,
    blank lines and lines starting with '#' are skipped, and every other
    line splits on `sep` (None: runs of whitespace) into exactly `width`
    fields, or a ParseError names its line. With `width` None the first
    row, a CSV header, sets it; callers take the header with `next` and
    check it before reading on."""
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        fields = line.split(sep)
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ParseError(f"line {lineno}: expected {width} fields, got {line!r}")
        yield lineno, fields


def parse_column(body: Sequence[tuple[int, list[str]]], col: int, convert: Callable,
                 what: str) -> list:
    """convert(fields[col]) for every row; a field that convert rejects
    with ValueError raises a ParseError naming its line."""
    values: list = []
    try:
        values.extend(map(convert, [fields[col] for _, fields in body]))
    except ValueError:
        # extend keeps the values converted before the failure, so their
        # count is the index of the bad row
        lineno, fields = body[len(values)]
        raise ParseError(f"line {lineno}: {fields[col]!r} is not {what}") from None
    return values


def int_array(values: list[int]) -> np.ndarray:
    """int64 array of `values`, or an object array when one is outside int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def first_repeat(values: np.ndarray) -> int:
    """Index of the first value listed earlier too, or -1 when all differ;
    one sort, O(n log n)."""
    _, first = np.unique(values, return_index=True)
    if len(first) == len(values):
        return -1
    repeat = np.ones(len(values), dtype=bool)
    repeat[first] = False
    return int(np.argmax(repeat))


def runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal values in a sorted array."""
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return starts, np.diff(starts, append=len(key))


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[i] .. starts[i] + lengths[i] - 1."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - ends + lengths, lengths)


def node_ids(body: Sequence[tuple[int, list[str]]], num_nodes: int,
             require_all: bool = False) -> np.ndarray:
    """The first column of a node table as int64 ids, under the id rules
    of every node table: each id is an integer in 0..num_nodes-1, listed
    at most once, and with `require_all` every node is listed. The first
    line that breaks a rule is named in a ParseError."""
    ids = int_array(parse_column(body, 0, int, "a node id"))
    outside = (ids < 0) | (ids >= num_nodes)
    if outside.any():
        i = int(np.argmax(outside))
        raise ParseError(f"line {body[i][0]}: node {ids[i]} out of range")
    ids = ids.astype(np.int64)
    i = first_repeat(ids)
    if i >= 0:
        raise ParseError(f"line {body[i][0]}: node {ids[i]} listed twice")
    if require_all and len(ids) < num_nodes:
        raise ParseError(f"no row for node {np.setdiff1d(np.arange(num_nodes), ids)[0]}")
    return ids


def load_features_csv(stream: IO[str], num_nodes: int) -> np.ndarray:
    """Read `node,f0,f1,...` rows into an (num_nodes, d) array.

    Rows follow `table_rows` and the ids `node_ids`; every node is listed,
    in any order, with finite values.
    """
    rows = table_rows(stream)
    header = next(rows, (0, [""]))[1]
    if header[0] != "node":
        raise ParseError(f"feature header must start with 'node', got {','.join(header)!r}")
    body = list(rows)
    nodes = node_ids(body, num_nodes, require_all=True)
    values = np.array([parse_column(body, j, float, "a number")
                       for j in range(1, len(header))]).T.reshape(len(body), len(header) - 1)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ParseError(f"line {body[int(np.argmin(finite))][0]}: non-finite feature value")
    return values[np.argsort(nodes)]   # every node listed once: a permutation


_SPLITS = ("train", "val", "test", "none")


def _label(token: str) -> int:
    """A label field: empty for an unlabeled node, else a class id in [0, 2**63)."""
    label = int(token) if token else UNLABELED
    if token and not 0 <= label < 2**63:
        raise ValueError(token)
    return label


def load_labels_csv(stream: IO[str], num_nodes: int) -> NodeData:
    """Read `node,label,split` rows into a NodeData.

    Rows follow `table_rows` and the ids `node_ids`; unlisted nodes are
    unlabeled and in no split, and a node in a split needs a label.
    """
    rows = table_rows(stream)
    header = ",".join(next(rows, (0, []))[1])
    if header != "node,label,split":
        raise ParseError(f"label header must be 'node,label,split', got {header!r}")
    body = list(rows)
    nodes = node_ids(body, num_nodes)
    labels = np.array(parse_column(
        body, 1, _label, "a label: a class id in [0, 2**63), or empty for none"),
        dtype=np.int64)
    splits = np.array(parse_column(body, 2, _SPLITS.index, f"one of the splits {_SPLITS}"),
                      dtype=np.int64)
    none = _SPLITS.index("none")
    unlabeled = (splits != none) & (labels == UNLABELED)
    if unlabeled.any():
        i = int(np.argmax(unlabeled))
        raise ParseError(f"line {body[i][0]}: node {nodes[i]} is in split "
                         f"{_SPLITS[splits[i]]!r} but has no label")
    node_labels = np.full(num_nodes, UNLABELED, dtype=np.int64)
    node_labels[nodes] = labels
    node_split = np.full(num_nodes, none)
    node_split[nodes] = splits
    return NodeData(num_nodes=num_nodes, labels=node_labels, train_mask=node_split == 0,
                    val_mask=node_split == 1, test_mask=node_split == 2)


def dump_labels_csv(data: NodeData, stream: IO[str]) -> None:
    """Write a `node,label,split` row per node; an unlabeled node's label is empty."""
    splits = np.select([data.train_mask, data.val_mask, data.test_mask], _SPLITS[:3], "none")
    labels = ["" if label == UNLABELED else str(label) for label in data.labels.tolist()]
    write_table(stream, "node,label,split",
                zip(map(str, range(data.num_nodes)), labels, splits.tolist()))


# ---------------------------------------------------------------------------
# Degree statistics and neighborhoods
# ---------------------------------------------------------------------------

def one_hot_labels(labels: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """One-hot matrix over masked labeled nodes, one column per class up
    to the largest masked label; other rows stay zero."""
    active = mask & (labels != UNLABELED)
    num_classes = int(labels[active].max()) + 1 if active.any() else 1
    y = np.zeros((len(mask), num_classes))
    y[active, labels[active]] = 1.0
    return y


PERCENTILE_GRID = (0, 25, 50, 75, 100)


def degree_percentile(graph: Graph, p: int) -> float:
    """Nearest-rank percentile of the degree sequence.

    p must lie in PERCENTILE_GRID. p=0 is pinned to 0.0 (the exact
    refinement limit) rather than the minimum degree; p=100 returns the
    maximum degree; interior values use the nearest-rank index
    ceil(p/100 * n) - 1 on the ascending degree sequence.
    """
    if p not in PERCENTILE_GRID:
        raise ValueError(f"percentile must be one of 0,25,50,75,100, got {p}")
    if p == 0:
        return 0.0
    sorted_degrees = np.sort(graph.degrees())
    idx = int(np.ceil(p / 100.0 * graph.num_nodes)) - 1     # p = 100: the last
    return float(sorted_degrees[idx])


def bfs_distances(indptr: np.ndarray | list, indices: np.ndarray | list,
                  source: int) -> np.ndarray:
    """Unweighted BFS distances from source; unreachable nodes get -1.

    indptr and indices are the CSR arrays, or the same as Python lists: a
    caller running many BFS on one graph converts them once. Past an O(n)
    fill, the work is linear in the part of the graph the BFS reaches.
    """
    starts = indptr.tolist() if isinstance(indptr, np.ndarray) else indptr
    neighbors = indices.tolist() if isinstance(indices, np.ndarray) else indices
    dist = [-1] * (len(starts) - 1)
    dist[source] = 0
    order = [source]
    for u in order:                 # order grows as it is read: the FIFO queue
        du = dist[u] + 1
        for v in neighbors[starts[u]:starts[u + 1]]:
            if dist[v] < 0:
                dist[v] = du
                order.append(v)
    if len(order) == len(dist):
        return np.array(dist, dtype=np.int64)
    out = np.full(len(dist), -1, dtype=np.int64)   # converts only the reached nodes
    out[order] = [dist[v] for v in order]
    return out
