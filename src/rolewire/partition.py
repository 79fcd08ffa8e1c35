"""Tolerance-based equitable partition refinement and quotient matrices.

A partition is equitable when all nodes in a block have the same number of
neighbors in every block; the tolerance variant allows those per-block
counts to differ by at most eps (infinity norm over the count vector).
`refine_eps_be` computes such a partition by iterated splitting;
`color_refinement_oracle` is an independent 1-WL implementation used to
cross-check the eps=0 case.

A `Partition` stores only its canonical label array and block count;
the sparse `membership_matrix` is its one indicator R. `validate_aep`
and `quotient` both read one per-(block, column) summary of the sparse
counts A @ R, so neither forms an n x k or k x k dense array, and the
quotient Q is a k x k CSR matrix with at most nnz(A) entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import IO, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import EmptyGraphError, ParseError, SizeMismatchError
from .graph import Graph

__all__ = [
    "Partition",
    "QuotientPair",
    "membership_matrix",
    "refine_eps_be",
    "validate_aep",
    "quotient",
    "color_refinement_oracle",
    "random_partition",
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

    def as_block_set(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(b) for b in self.blocks)

    @classmethod
    def from_blocks(cls, n: int, raw_blocks: Sequence[Sequence[int]]) -> "Partition":
        """Canonicalize arbitrary disjoint covering blocks."""
        nodes = np.fromiter(chain.from_iterable(raw_blocks), dtype=np.int64)
        repeated = np.flatnonzero(np.bincount(nodes, minlength=n) > 1)
        if len(repeated):
            raise ValueError(f"node {repeated[0]} assigned to two blocks")
        labels = np.full(n, -1, dtype=np.int64)
        labels[nodes] = np.repeat(np.arange(len(raw_blocks)),
                                  [len(b) for b in raw_blocks])
        if np.any(labels < 0):
            raise ValueError("blocks do not cover all nodes")
        return cls.from_assignment(labels)

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

    Q: sp.csr_matrix    # k x k, float64; its 0/1 pattern is Q > 0
    residual: float


# ---------------------------------------------------------------------------
# Block-degree counting
# ---------------------------------------------------------------------------

def membership_matrix(partition: Partition) -> sp.csr_matrix:
    """Sparse n x k 0/1 int64 indicator R: R[u, block_of[u]] = 1."""
    n = partition.num_nodes
    return sp.csr_matrix((np.ones(n, dtype=np.int64), (np.arange(n), partition.block_of)),
                         shape=(n, partition.k))


def _block_counts(graph: Graph, partition: Partition):
    """Summary of the counts A @ R over each block's members.

    Returns (block, column, sums, hi, lo) for every (block, column) pair
    where some member has a neighbor in the column, in ascending pair
    order: the sum, max and min of the member counts, with lo = 0 when a
    member has no neighbor there. Every other pair counts 0 throughout.
    """
    k = partition.k
    counts = (graph.adjacency @ membership_matrix(partition)).tocoo()
    key = partition.block_of[counts.row] * k + counts.col
    order = np.argsort(key)
    key, data = key[order], counts.data[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    block, column = np.divmod(key[starts], k)
    lo = np.minimum.reduceat(data, starts)
    stored = np.diff(np.append(starts, len(key)))
    lo[stored < partition.block_sizes()[block]] = 0
    return (block, column, np.add.reduceat(data, starts),
            np.maximum.reduceat(data, starts), lo)


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------

def refine_eps_be(graph: Graph, eps: float) -> Partition:
    """Partition with per-block block-degree spread at most eps.

    Splitting rule, iterated to a fixpoint from the single-block partition:
    for each splitter block of the round-start partition (ascending
    canonical id) and each current block B, sort B's nodes by (neighbor
    count toward the splitter, node id) and greedily group consecutive
    nodes while count - group_min <= eps. At the fixpoint every block has
    per-coordinate count spread <= eps, so validate_aep holds. Ties break
    on node id everywhere; the result is deterministic.

    Each round takes the splitter counts once as the sparse product A @ R
    and regroups all current blocks per splitter in one sort. Counts are
    integers, so `count - group_min > eps` is `count > group_min + slack`
    with slack = floor(eps); a slack of n never splits (covers inf/nan).
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    n = graph.num_nodes
    slack = math.floor(eps) if eps < n else n
    part = Partition.from_assignment(np.zeros(n, dtype=np.int64))
    while True:
        counts = (graph.adjacency @ membership_matrix(part)).tocsc()
        current = part.block_of.copy()
        for s in range(part.k):
            cnt = np.zeros(n, dtype=np.int64)
            lo, hi = counts.indptr[s], counts.indptr[s + 1]
            cnt[counts.indices[lo:hi]] = counts.data[lo:hi]
            top = int(cnt.max())
            if top <= slack:
                continue               # no block can spread beyond eps
            order = np.lexsort((cnt, current))     # by block, count, node id
            blk = current[order]
            # One ascending key; a block's keys sit more than slack below
            # the next block's, so a jump never crosses into another block.
            key = blk * (top + slack + 1) + cnt[order]
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
        refined = Partition.from_assignment(current)
        if refined.k == part.k:        # refinement only splits: fixpoint
            return refined
        part = refined


def validate_aep(graph: Graph, partition: Partition, eps: float) -> bool:
    """True iff within every block each per-block count spread is <= eps."""
    _, _, _, hi, lo = _block_counts(graph, partition)
    return not (hi - lo).max(initial=0) > eps


def quotient(graph: Graph, partition: Partition) -> QuotientPair:
    """Block-averaged quotient matrix with its residual.

    Q[i, j] is the mean neighbor count toward block j over nodes of block
    i, and the residual is max |A R - R Q| entrywise. Each stored pair's
    largest deviation is at its max or min count (fl(c - q) is monotone
    in c); a pair with no stored count has q = 0 and deviation 0.
    """
    block, column, sums, hi, lo = _block_counts(graph, partition)
    k = partition.k
    q = sums / partition.block_sizes()[block]
    residual = float(np.maximum(hi - q, q - lo).max(initial=0.0))
    indptr = np.searchsorted(block, np.arange(k + 1))   # pairs come row-major
    return QuotientPair(Q=sp.csr_matrix((q, column, indptr), shape=(k, k)),
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
# Random control partitions
# ---------------------------------------------------------------------------

def random_partition(n: int, block_sizes: Sequence[int], seed: int) -> Partition:
    """Uniform random assignment with exactly the given block-size multiset."""
    sizes = list(block_sizes)
    if any(s <= 0 for s in sizes) or sum(sizes) != n:
        raise SizeMismatchError(
            f"block sizes {sizes} must be positive and sum to {n}")
    rng = np.random.default_rng(seed)
    labels = np.empty(n, dtype=np.int64)
    labels[rng.permutation(n)] = np.repeat(np.arange(len(sizes)), sizes)
    return Partition.from_assignment(labels)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def dump_partition_csv(partition: Partition, stream: IO[str]) -> None:
    stream.write("node,block\n")
    for u in range(partition.num_nodes):
        stream.write(f"{u},{int(partition.block_of[u])}\n")


def load_partition_csv(stream: IO[str]) -> Partition:
    """Read `node,block` rows back into a Partition.

    The node ids must be 0..n-1, each listed once in any order. Malformed
    input raises an InputError subclass naming the line or node.
    """
    header = stream.readline().strip()
    if header != "node,block":
        raise ParseError(f"partition header must be 'node,block', got {header!r}")
    pairs = []
    for lineno, raw in enumerate(stream, start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 2 fields, got {line!r}")
        try:
            u, block = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer token in {line!r}") from None
        if not -2**63 <= block < 2**63:
            raise ParseError(f"line {lineno}: block id {block} does not fit in int64")
        pairs.append((u, block))
    if not pairs:
        raise EmptyGraphError("partition lists no nodes")
    pairs.sort()
    nodes = [u for u, _ in pairs]
    if nodes[0] < 0:
        raise ParseError(f"negative node id {nodes[0]}")
    for u, nxt in zip(nodes, nodes[1:]):
        if u == nxt:
            raise ParseError(f"node {u} listed twice")
    for expected, u in enumerate(nodes):
        if u != expected:
            raise ParseError(f"node {expected} missing from partition")
    return Partition.from_assignment([b for _, b in pairs])


def dump_quotient_csv(pair: QuotientPair, eps: float, stream: IO[str]) -> None:
    stream.write(f"# eps={eps:.6f} residual={pair.residual:.6f}\n")
    q = pair.Q
    for i in range(q.shape[0]):
        row = np.zeros(q.shape[1])
        lo, hi = q.indptr[i], q.indptr[i + 1]
        row[q.indices[lo:hi]] = q.data[lo:hi]
        stream.write(",".join(f"{v:.6f}" for v in row) + "\n")
