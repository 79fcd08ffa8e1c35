"""Synthetic benchmark graphs with eccentricity-binned labels.

Families: star, cycle, path (alias line), grid, ladder, balanced tree,
caterpillar, lobster, and seeded Erdos-Renyi. Long-range families get
labels by binning node eccentricity into a requested class count, and
splits come from a seeded permutation (85/5/10).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import InputError
from .graph import Graph, NodeData, graph_from_edges
from .seeding import rng_for

__all__ = [
    "FAMILIES",
    "make_graph",
    "make_dataset",
    "eccentricity_labels",
    "assign_splits",
]


def star(n: int, rng) -> Graph:
    if n < 2:
        raise InputError("star needs n >= 2")
    return graph_from_edges(n, [(0, i) for i in range(1, n)])


def cycle(n: int, rng) -> Graph:
    if n < 3:
        raise InputError("cycle needs n >= 3")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int, rng) -> Graph:
    if n < 1:
        raise InputError("path needs n >= 1")
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def grid(n: int, rng) -> Graph:
    rows = max(1, math.isqrt(n))
    while n % rows:
        rows -= 1
    cols = n // rows
    edges = []
    for i in range(rows):
        for j in range(cols):
            u = i * cols + j
            if j + 1 < cols:
                edges.append((u, u + 1))
            if i + 1 < rows:
                edges.append((u, u + cols))
    return graph_from_edges(n, edges)


def ladder(n: int, rng) -> Graph:
    if n < 4 or n % 2:
        raise InputError("ladder needs even n >= 4")
    half = n // 2
    edges = [(i, i + 1) for i in range(half - 1)]
    edges += [(half + i, half + i + 1) for i in range(half - 1)]
    edges += [(i, half + i) for i in range(half)]
    return graph_from_edges(n, edges)


def balanced_tree(n: int, rng) -> Graph:
    if n < 1:
        raise InputError("tree needs n >= 1")
    edges = []
    for i in range(n):
        for child in (2 * i + 1, 2 * i + 2):
            if child < n:
                edges.append((i, child))
    return graph_from_edges(n, edges)


def caterpillar(n: int, rng) -> Graph:
    if n < 2:
        raise InputError("caterpillar needs n >= 2")
    spine = max(1, n // 2)
    edges = [(i, i + 1) for i in range(spine - 1)]
    for leg in range(spine, n):
        edges.append((int(rng.integers(0, spine)), leg))
    return graph_from_edges(n, edges)


def lobster(n: int, rng) -> Graph:
    if n < 3:
        raise InputError("lobster needs n >= 3")
    spine = max(1, n // 3)
    mid = max(spine + 1, (2 * n) // 3)
    mid = min(mid, n)
    edges = [(i, i + 1) for i in range(spine - 1)]
    for leg in range(spine, mid):
        edges.append((int(rng.integers(0, spine)), leg))
    for toe in range(mid, n):
        edges.append((int(rng.integers(spine, mid)), toe))
    return graph_from_edges(n, edges)


def erdos_renyi(n: int, rng, p: float = 0.1) -> Graph:
    if n < 1:
        raise InputError("er needs n >= 1")
    edges = [(u, int(v)) for u in range(n)
             for v in u + 1 + np.flatnonzero(rng.random(n - u - 1) < p)]
    return graph_from_edges(n, edges)


FAMILIES: dict[str, Callable] = {
    "star": star,
    "cycle": cycle,
    "path": path,
    "line": path,
    "grid": grid,
    "ladder": ladder,
    "tree": balanced_tree,
    "caterpillar": caterpillar,
    "lobster": lobster,
    "er": erdos_renyi,
}


def make_graph(family: str, n: int, seed: int = 0, p: float = 0.1) -> Graph:
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}; choose from "
                         + ",".join(sorted(FAMILIES)))
    rng = rng_for(seed, 0)
    if family == "er":
        return FAMILIES[family](n, rng, p=p)
    return FAMILIES[family](n, rng)


# ---------------------------------------------------------------------------
# Labels and splits
# ---------------------------------------------------------------------------

ECCENTRICITY_CHUNK = 1 << 18    # bound on per-level (node, source) entries


def _bfs_depths(graph: Graph, sources: np.ndarray) -> np.ndarray:
    """Largest finite BFS distance from each source.

    All sources advance together, one level per pass over the frontier's
    (node, source) pairs. `stamp` marks reached pairs; stamping each fresh
    candidate with its position and keeping the candidates whose stamp
    survived leaves one copy of every pair reached twice in a level.
    """
    indptr, indices = graph.indptr, graph.indices
    stamp = np.full((graph.num_nodes, len(sources)), -1, dtype=np.int64)
    rows, cols = sources, np.arange(len(sources))
    stamp[rows, cols] = 0
    depth = np.zeros(len(sources), dtype=np.int64)
    level = 0
    while len(rows):
        level += 1
        lo = indptr[rows]
        span = indptr[rows + 1] - lo
        ends = np.cumsum(span)
        pos = np.arange(ends[-1]) + np.repeat(lo - ends + span, span)
        rows, cols = indices[pos], np.repeat(cols, span)
        fresh = stamp[rows, cols] < 0
        rows, cols = rows[fresh], cols[fresh]
        ids = np.arange(len(rows))
        stamp[rows, cols] = ids
        kept = stamp[rows, cols] == ids
        rows, cols = rows[kept], cols[kept]
        depth[cols] = level
    return depth


def eccentricity_labels(graph: Graph, num_classes: int) -> np.ndarray:
    """Bin per-component eccentricity into equal-width classes.

    A node's eccentricity is its largest finite BFS distance, so isolated
    nodes get 0. Sources go in chunks so that no level holds more than
    about ECCENTRICITY_CHUNK entries.
    """
    n = graph.num_nodes
    ecc = np.zeros(n, dtype=np.int64)
    step = max(1, ECCENTRICITY_CHUNK // max(n, len(graph.indices)))
    for start in range(0, n, step):
        sources = np.arange(start, min(start + step, n))
        ecc[sources] = _bfs_depths(graph, sources)
    lo, hi = int(ecc.min()), int(ecc.max())
    if hi == lo:
        return np.zeros(n, dtype=np.int64)
    spread = hi - lo + 1
    return np.minimum(((ecc - lo) * num_classes) // spread,
                      num_classes - 1).astype(np.int64)


def assign_splits(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint train/val/test masks in 85/5/10 proportions, seeded."""
    rng = rng_for(seed, 1)
    order = rng.permutation(n)
    n_val = max(1, int(0.05 * n)) if n >= 3 else 0
    n_test = max(1, int(0.10 * n)) if n >= 3 else 0
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    val[order[:n_val]] = True
    test[order[n_val:n_val + n_test]] = True
    train[order[n_val + n_test:]] = True
    return train, val, test


def make_dataset(
    family: str,
    n: int,
    num_classes: int = 3,
    seed: int = 0,
    p: float = 0.1,
) -> tuple[Graph, NodeData]:
    """Graph plus eccentricity labels and seeded splits."""
    graph = make_graph(family, n, seed=seed, p=p)
    labels = eccentricity_labels(graph, num_classes)
    train, val, test = assign_splits(graph.num_nodes, seed)
    data = NodeData(
        num_nodes=graph.num_nodes,
        labels=labels,
        train_mask=train,
        val_mask=val,
        test_mask=test,
    )
    return graph, data
