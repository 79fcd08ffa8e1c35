"""Tolerance-based equitable partition refinement and quotient matrices.

A partition is equitable when all nodes in a block have the same number of
neighbors in every block; the tolerance variant allows those per-block
counts to differ by at most eps (infinity norm over the count vector).
`refine_eps_be` computes such a partition by iterated splitting;
`color_refinement_oracle` is an independent 1-WL implementation used to
cross-check the eps=0 case.

A `Partition` stores only its canonical label array and block count;
R, its membership indicator, is never formed. `refine_eps_be`,
`validate_aep` and `quotient` all read one summary of the counts A @ R,
made from the graph's CSR arrays by sorting: the keys row * k +
block_of[indices] sort into runs, one per (node, column) count, and a
second sort of those pairs by (block, column) gives each pair's sum,
max and min over the block's members. None of them forms the product
A @ R or any n x k or k x k dense array; the quotient Q is k x k CSR
arrays with at most nnz(A) entries. The last summary made is kept,
keyed by its graph and partition, so the quotient of the partition that
refinement returns reads the summary of refinement's last round.

Refinement starts from the single block and stops as soon as
`validate_aep` holds. Until then each round splits along the columns
where some block's spread exceeds eps. Counts are integers, so at
eps < 1 each such splitter separates unequal counts only, in any
order, and the round is one common refinement: nodes grouped by
(block, count row). At eps >= 1 the greedy groups depend on splitter
order, and the splitters run in turn, each regrouping all n nodes in
one sort. A round therefore costs O(m log m) at eps < 1 and
O(m log m + s n log n) for s splitters at eps >= 1.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import IO, NamedTuple, Optional, Sequence

import numpy as np

from .errors import EmptyGraphError, ParseError
from .graph import (
    Csr, Graph, fixed, int_array, node_ids, parse_column, runs, table_rows, write_table,
)

__all__ = [
    "Partition",
    "QuotientPair",
    "refine_eps_be",
    "validate_aep",
    "quotient",
    "color_refinement_oracle",
    "load_partition_csv",
    "dump_partition_csv",
    "dump_quotient_csv",
]


@dataclass(frozen=True)
class Partition:
    """Block assignment of nodes 0..n-1 in canonical order: block ids
    dense 0..k-1, numbered by each block's minimum node id."""

    block_of: np.ndarray          # int64, node -> canonical block id
    k: int

    @property
    def num_nodes(self) -> int:
        return len(self.block_of)

    def block_sizes(self) -> np.ndarray:
        return np.bincount(self.block_of, minlength=self.k)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Each block's nodes in ascending order, blocks in canonical order."""
        members = np.argsort(self.block_of, kind="stable")
        ends = np.cumsum(self.block_sizes())
        return tuple(tuple(b.tolist()) for b in np.split(members, ends)[:-1])

    @classmethod
    def from_assignment(cls, block_of: Sequence[int]) -> "Partition":
        """Canonicalize any label array; the one place labels are renumbered."""
        labels = np.asarray(block_of, dtype=np.int64)
        _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        return cls(block_of=rank[inverse], k=len(first))


@dataclass(frozen=True)
class QuotientPair:
    """Quotient Q and its residual.

    Q averages block-degree counts over each source block, so exact
    equitable partitions give integer entries and zero residual. The
    residual is the largest absolute entry of A R - R Q, where R is the
    partition's membership indicator.
    """

    csr: Csr            # k x k, float64; its 0/1 pattern is Q > 0
    residual: float

    @cached_property
    def Q(self):
        """Q as a sparse CSR view of `csr`, built on first access and cached."""
        return self.csr.view()


# ---------------------------------------------------------------------------
# Block-degree counting
# ---------------------------------------------------------------------------


class _BlockCounts(NamedTuple):
    """The counts A @ R in two forms, from sorting the CSR entries.

    node, col, cnt: each (node, column) pair with a nonzero count, in
    ascending (node, column) order, i.e. the CSR entries of A @ R.
    block, column, sums, hi, lo: each (block, column) pair where some
    member has a neighbor in the column, in ascending pair order, with
    the sum, max and min of the member counts; lo = 0 when a member has
    none there. Every other pair counts 0 throughout.
    """

    node: np.ndarray
    col: np.ndarray
    cnt: np.ndarray
    block: np.ndarray
    column: np.ndarray
    sums: np.ndarray
    hi: np.ndarray
    lo: np.ndarray


def _block_counts(graph: Graph, partition: Partition) -> _BlockCounts:
    """Sort the keys row * k + block_of[indices] (k <= n <= MAX_NODE_ID,
    so they fit in int64): each run is one (node, column) count, and one
    more sort of those pairs by (block_of[node], column) gives the
    per-(block, column) summary."""
    n, k = graph.num_nodes, partition.k
    rows = np.repeat(np.arange(n), np.diff(graph.indptr))
    # The entries come row by row, so sorting only reorders each row and
    # rows[i] stays the row of sorted key i. Stable sorts run faster
    # here than the default on such ordered runs.
    key = np.sort(rows * k + partition.block_of[graph.indices], kind="stable")
    starts, cnt = runs(key)
    node = rows[starts]
    col = key[starts] - node * k
    pair = partition.block_of[node] * k + col
    order = np.argsort(pair, kind="stable")
    pair, data = pair[order], cnt[order]
    starts, stored = runs(pair)
    block, column = np.divmod(pair[starts], k)
    lo = np.minimum.reduceat(data, starts)
    lo[stored < partition.block_sizes()[block]] = 0
    return _BlockCounts(node, col, cnt, block, column, np.add.reduceat(data, starts),
                        np.maximum.reduceat(data, starts), lo)


# (graph, partition, summary) of the last summary made, the two keys held
# weakly: refinement ends on a summary of the partition it returns, and
# the quotient of that partition reads it from here instead of sorting
# the same keys again.
_last_summary: tuple = ()


def _summary(graph: Graph, partition: Partition) -> _BlockCounts:
    """`_block_counts(graph, partition)`, reused when it was the last made."""
    global _last_summary
    last = _last_summary              # one read: another thread may replace it
    if last and last[0]() is graph and last[1]() is partition:
        return last[2]
    counts = _block_counts(graph, partition)
    _last_summary = (weakref.ref(graph), weakref.ref(partition), counts)
    return counts


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------

def refine_eps_be(graph: Graph, eps: float) -> Partition:
    """Partition with per-block block-degree spread at most eps.

    From the single block, each round reads the per-(block, column)
    spread that `validate_aep` reads and returns the partition once none
    exceeds eps. Otherwise each column with a spread above eps, ascending,
    is a splitter: every current block's nodes are sorted by (count toward
    it, node id) and grouped greedily while count - group_min <= eps. Any
    other column would split nothing, since each current block lies in a
    round-start block whose spread there is at most eps. Ties break on
    node id everywhere.

    Counts are integers, so `count - group_min > eps` is `count >
    group_min + floor(eps)`; eps is finite, being below some spread. At
    eps < 1 the slack is 0: each splitter splits by equal counts, so the
    round's result is the same in any splitter order, and one grouping
    by (round-start block, count row) gives it (`_common_refinement`).
    At eps >= 1 the greedy groups depend on splitter order, and the
    splitters run in turn (`_greedy_splits`).
    """
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    part = Partition.from_assignment(np.zeros(graph.num_nodes, dtype=np.int64))
    while (refined := _refine_round(graph, part, eps)) is not None:
        part = refined
    return part


def _refine_round(graph: Graph, part: Partition, eps: float) -> Optional[Partition]:
    """The partition one round makes of `part`, or None when no block's
    spread exceeds eps."""
    counts = _summary(graph, part)
    splitters = np.unique(counts.column[counts.hi - counts.lo > eps])
    if not len(splitters):
        return None
    if eps < 1:
        return Partition.from_assignment(_common_refinement(part, counts))
    return Partition.from_assignment(_greedy_splits(part, counts, splitters, math.floor(eps)))


def _common_refinement(part: Partition, counts: _BlockCounts) -> np.ndarray:
    """Labels grouping nodes by (block, sparse count row).

    Rows of one length are ranked together with one lexsort over their
    (column, count) words; rows of different lengths differ anyway. A
    count is below n, so word = column * n + count is one-to-one.
    """
    n = part.num_nodes
    length = np.bincount(counts.node, minlength=n)
    members = np.argsort(length, kind="stable")
    entries = np.argsort(length[counts.node], kind="stable")
    words = (counts.col * n + counts.cnt)[entries]
    sizes = np.bincount(length)
    label = np.empty(n, dtype=np.int64)
    node_at = entry_at = offset = 0
    for size in np.flatnonzero(sizes).tolist():
        group = members[node_at:node_at + sizes[size]]
        rows = words[entry_at:entry_at + len(group) * size].reshape(len(group), size)
        keys = np.vstack([rows.T, part.block_of[group]])
        order = np.lexsort(keys)
        keys = keys[:, order]
        rank = np.cumsum(np.append(0, (keys[:, 1:] != keys[:, :-1]).any(axis=0)))
        label[group[order]] = offset + rank
        offset += int(rank[-1]) + 1
        node_at += len(group)
        entry_at += rows.size
    return label


def _greedy_splits(part: Partition, counts: _BlockCounts, splitters: np.ndarray,
                   slack: int) -> np.ndarray:
    """Labels after each splitter, ascending, splits every current block.

    A block's nodes are sorted by (count, node id) and grouped while
    count - group_min <= slack; all blocks regroup in one sort per
    splitter. Each splitter's count column comes from the round's pairs
    toward the splitters, sorted by column.
    """
    n = part.num_nodes
    entries = np.flatnonzero(np.isin(counts.col, splitters))
    entries = entries[np.argsort(counts.col[entries])]
    bounds = np.searchsorted(counts.col[entries], np.stack([splitters, splitters + 1]))
    current = part.block_of.copy()
    for lo, hi in bounds.T.tolist():
        cnt = np.zeros(n, dtype=np.int64)
        at = entries[lo:hi]
        cnt[counts.node[at]] = counts.cnt[at]
        # One key, sorted stably by block, count, node id; a block's keys
        # sit more than slack below the next block's, so a jump never
        # crosses into another block.
        key = current * (int(cnt.max()) + slack + 1) + cnt
        order = np.argsort(key, kind="stable")
        key, blk = key[order], current[order]
        first = np.ones(n, dtype=bool)
        first[1:] = blk[1:] != blk[:-1]
        starts = first.copy()
        heads = np.flatnonzero(first)
        while len(heads):
            nxt = np.searchsorted(key, key[heads] + slack, side="right")
            nxt = nxt[nxt < n]
            heads = nxt[~first[nxt]]
            starts[heads] = True
        current[order] = np.cumsum(starts) - 1
    return current


def validate_aep(graph: Graph, partition: Partition, eps: float) -> bool:
    """True iff within every block each per-block count spread is <= eps."""
    counts = _summary(graph, partition)
    return not (counts.hi - counts.lo).max(initial=0) > eps


def quotient(graph: Graph, partition: Partition) -> QuotientPair:
    """Block-averaged quotient matrix with its residual.

    Q[i, j] is the mean neighbor count toward block j over nodes of block
    i, and the residual is max |A R - R Q| entrywise. Each stored pair's
    largest deviation is at its max or min count (fl(c - q) is monotone
    in c); a pair with no stored count has q = 0 and deviation 0.
    """
    counts = _summary(graph, partition)
    k = partition.k
    q = counts.sums / partition.block_sizes()[counts.block]
    residual = float(np.maximum(counts.hi - q, q - counts.lo).max(initial=0.0))
    return QuotientPair(csr=Csr.from_entries(counts.block, counts.column, q, k),
                        residual=residual)


# ---------------------------------------------------------------------------
# Independent 1-WL oracle
# ---------------------------------------------------------------------------

def color_refinement_oracle(graph: Graph) -> Partition:
    """Coarsest equitable partition via classic color refinement.

    Starts from a uniform coloring and repeatedly recolors each node by
    the multiset of its neighbors' colors until stable. Kept deliberately
    independent of refine_eps_be (different algorithm and data flow) so
    the two can cross-check each other at eps=0.
    """
    n = graph.num_nodes
    colors = np.zeros(n, dtype=np.int64)
    num_colors = 1
    while True:
        signatures = [
            (int(colors[u]), tuple(sorted(int(colors[v]) for v in graph.neighbors(u))))
            for u in range(n)
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new_colors = np.array([palette[sig] for sig in signatures], dtype=np.int64)
        new_count = len(palette)
        if new_count == num_colors:
            break
        colors, num_colors = new_colors, new_count
    return Partition.from_assignment(colors)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def dump_partition_csv(partition: Partition, stream: IO[str]) -> None:
    write_table(stream, "node,block", zip(map(str, range(partition.num_nodes)),
                                          map(str, partition.block_of.tolist())))


def load_partition_csv(stream: IO[str]) -> Partition:
    """Read `node,block` rows back into a Partition.

    Rows follow `graph.table_rows` and the ids `graph.node_ids`, with n
    the row count: every node 0..n-1 is listed once, in any order, and
    block ids fit in int64.
    """
    rows = table_rows(stream)
    header = ",".join(next(rows, (0, []))[1])
    if header != "node,block":
        raise ParseError(f"partition header must be 'node,block', got {header!r}")
    body = list(rows)
    if not body:
        raise EmptyGraphError("partition lists no nodes")
    nodes = node_ids(body, len(body), require_all=True)
    blocks = int_array(parse_column(body, 1, int, "a block id"))
    wide = (blocks < -2**63) | (blocks >= 2**63)
    if wide.any():
        i = int(np.argmax(wide))
        raise ParseError(f"line {body[i][0]}: block id {blocks[i]} does not fit in int64")
    return Partition.from_assignment(blocks[np.argsort(nodes)])


def dump_quotient_csv(pair: QuotientPair, eps: float, stream: IO[str]) -> None:
    """Write Q as k dense rows; only its stored entries are formatted."""
    q = pair.csr
    starts, columns, values = q.indptr.tolist(), q.indices.tolist(), q.data.tolist()
    zero = fixed(0.0)

    def row(i: int) -> list[str]:
        cells = [zero] * q.shape[1]
        for at in range(starts[i], starts[i + 1]):
            cells[columns[at]] = fixed(values[at])
        return cells

    write_table(stream, f"# eps={fixed(eps)} residual={fixed(pair.residual)}",
                map(row, range(q.shape[0])))
