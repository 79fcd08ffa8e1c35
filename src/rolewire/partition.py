"""Tolerance-based equitable partition refinement and quotient matrices.

A partition is equitable when all nodes in a block have the same number of
neighbors in every block; the tolerance variant allows those per-block
counts to differ by at most eps (infinity norm over the count vector).
`refine_eps_be` computes such a partition by iterated splitting;
`color_refinement_oracle` is an independent 1-WL implementation used to
cross-check the eps=0 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import EmptyGraphError, ParseError, SizeMismatchError
from .graph import Graph

__all__ = [
    "Partition",
    "QuotientPair",
    "membership_matrix",
    "block_degree_matrix",
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
    """Block assignment of nodes 0..n-1 in canonical order.

    Canonical order: blocks sorted by their minimum node id, nodes sorted
    ascending inside each block, block ids dense 0..k-1.
    """

    block_of: np.ndarray          # int64, node -> block id
    blocks: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def num_nodes(self) -> int:
        return len(self.block_of)

    def block_sizes(self) -> np.ndarray:
        return np.array([len(b) for b in self.blocks], dtype=np.int64)

    def indicator(self) -> np.ndarray:
        """Dense n x k 0/1 membership matrix."""
        r = np.zeros((self.num_nodes, self.k))
        r[np.arange(self.num_nodes), self.block_of] = 1.0
        return r

    def as_block_set(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(b) for b in self.blocks)

    @classmethod
    def from_blocks(cls, n: int, raw_blocks: Sequence[Sequence[int]]) -> "Partition":
        """Canonicalize arbitrary disjoint covering blocks."""
        blocks = sorted((tuple(sorted(b)) for b in raw_blocks if len(b)),
                        key=lambda b: b[0])
        block_of = np.full(n, -1, dtype=np.int64)
        for i, b in enumerate(blocks):
            for u in b:
                if block_of[u] != -1:
                    raise ValueError(f"node {u} assigned to two blocks")
                block_of[u] = i
        if np.any(block_of < 0):
            raise ValueError("blocks do not cover all nodes")
        return cls(block_of=block_of, blocks=tuple(blocks))

    @classmethod
    def from_assignment(cls, block_of: Sequence[int]) -> "Partition":
        ids = np.asarray(block_of, dtype=np.int64)
        raw: dict[int, list[int]] = {}
        for u, b in enumerate(ids):
            raw.setdefault(int(b), []).append(u)
        return cls.from_blocks(len(ids), list(raw.values()))


@dataclass(frozen=True)
class QuotientPair:
    """Quotient Q, its 0/1 pattern, and residual.

    Q averages block-degree counts over each source block, so exact
    equitable partitions give integer entries and zero residual. The
    residual is the largest absolute entry of A R - R Q, where R is the
    partition's membership indicator.
    """

    Q: np.ndarray       # k x k, real
    Q_bar: np.ndarray   # k x k, 0/1
    residual: float


# ---------------------------------------------------------------------------
# Block-degree counting
# ---------------------------------------------------------------------------

def membership_matrix(block_of: np.ndarray, k: int) -> sp.csr_matrix:
    """Sparse n x k 0/1 int64 indicator R: R[u, block_of[u]] = 1."""
    n = len(block_of)
    return sp.csr_matrix(
        (np.ones(n, dtype=np.int64), (np.arange(n), block_of)), shape=(n, k))


def _splitter_counts(graph: Graph, block_of: np.ndarray, k: int) -> sp.csr_matrix:
    """Sparse n x k product A @ R of the adjacency and block membership."""
    return graph.adjacency @ membership_matrix(block_of, k)


def block_degree_matrix(graph: Graph, partition: Partition) -> np.ndarray:
    """n x k integer matrix A @ R; entry (u, j) counts u's neighbors in
    block j, so row u sums to deg(u)."""
    return _splitter_counts(graph, partition.block_of, partition.k).toarray()


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------

def _canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel blocks 0..k-1 in order of their minimum node id."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


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
    block_of = np.zeros(n, dtype=np.int64)
    k = 1
    while True:
        counts = _splitter_counts(graph, block_of, k).tocsc()
        current = block_of.copy()
        for s in range(k):
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
        k_next = int(current.max()) + 1
        if k_next == k:                # refinement only splits: fixpoint
            return Partition.from_assignment(block_of)
        block_of, k = _canonical_labels(current), k_next


def validate_aep(graph: Graph, partition: Partition, eps: float) -> bool:
    """True iff within every block each per-block count spread is <= eps."""
    counts = block_degree_matrix(graph, partition)
    order = np.argsort(partition.block_of, kind="stable")
    rows = counts[order]
    starts = np.flatnonzero(np.diff(partition.block_of[order], prepend=-1))
    spread = np.maximum.reduceat(rows, starts) - np.minimum.reduceat(rows, starts)
    return not spread.max(initial=0) > eps


def quotient(graph: Graph, partition: Partition) -> QuotientPair:
    """Block-averaged quotient matrix with its 0/1 pattern and residual.

    Q[i, j] is the mean neighbor count toward block j over nodes of block
    i; Q_bar thresholds strictly at zero using exact integer sums, and the
    residual is max |A R - R Q| entrywise.
    """
    counts = block_degree_matrix(graph, partition)
    k = partition.k
    sums = np.zeros((k, k), dtype=np.int64)
    np.add.at(sums, partition.block_of, counts)
    sizes = partition.block_sizes().astype(float)
    q = sums / sizes[:, None]
    q_bar = (sums > 0).astype(float)
    residual = float(np.abs(counts - q[partition.block_of]).max(initial=0.0))
    return QuotientPair(Q=q, Q_bar=q_bar, residual=residual)


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
    perm = rng.permutation(n)
    raw, start = [], 0
    for s in sizes:
        raw.append([int(u) for u in perm[start:start + s]])
        start += s
    return Partition.from_blocks(n, raw)


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
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer token in {line!r}") from None
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
    for row in pair.Q:
        stream.write(",".join(f"{v:.6f}" for v in row) + "\n")
