"""Synthetic benchmark graphs with eccentricity-binned labels.

Families: star, cycle, path (alias line), grid, ladder, balanced tree,
caterpillar, lobster and seeded Erdos-Renyi, each declared once with its
sizes n in `FAMILIES`. Long-range families get labels by binning node
eccentricity into classes; splits come from a seeded permutation (85/5/10).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import InputError
from .graph import Graph, NodeData, bfs_distances, graph_from_edges
from .seeding import rng_for

__all__ = [
    "FAMILIES",
    "make_graph",
    "make_dataset",
    "eccentricity_labels",
    "assign_splits",
]


def star(n: int, rng) -> Graph:
    return graph_from_edges(n, [(0, i) for i in range(1, n)])


def cycle(n: int, rng) -> Graph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int, rng) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def grid(n: int, rng) -> Graph:
    rows = math.isqrt(n)
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
    half = n // 2
    edges = [(i, i + 1) for i in range(half - 1)]
    edges += [(half + i, half + i + 1) for i in range(half - 1)]
    edges += [(i, half + i) for i in range(half)]
    return graph_from_edges(n, edges)


def balanced_tree(n: int, rng) -> Graph:
    return graph_from_edges(n, [((child - 1) // 2, child) for child in range(1, n)])


def caterpillar(n: int, rng) -> Graph:
    spine = n // 2
    edges = [(i, i + 1) for i in range(spine - 1)]
    for leg in range(spine, n):
        edges.append((int(rng.integers(0, spine)), leg))
    return graph_from_edges(n, edges)


def lobster(n: int, rng) -> Graph:
    spine, mid = n // 3, (2 * n) // 3
    edges = [(i, i + 1) for i in range(spine - 1)]
    for leg in range(spine, mid):
        edges.append((int(rng.integers(0, spine)), leg))
    for toe in range(mid, n):
        edges.append((int(rng.integers(spine, mid)), toe))
    return graph_from_edges(n, edges)


def erdos_renyi(n: int, rng, p: float = 0.1) -> Graph:
    edges = [(u, int(v)) for u in range(n)
             for v in u + 1 + np.flatnonzero(rng.random(n - u - 1) < p)]
    return graph_from_edges(n, edges)


class Family(NamedTuple):
    """A generator family: its builder and the sizes n >= `smallest` (even if `even`) it takes."""
    name: str
    build: Callable
    smallest: int
    even: bool = False

    def size_error(self, n: int) -> Optional[str]:
        """Why the family has no graph on n nodes; None when it has one."""
        if n < self.smallest or self.even and n % 2:
            return f"{self.name} needs {'even ' * self.even}n >= {self.smallest}"
        return None


FAMILIES: dict[str, Family] = {f.name: f for f in (
    Family("star", star, 2),
    Family("cycle", cycle, 3),
    Family("path", path, 1),
    Family("grid", grid, 1),
    Family("ladder", ladder, 4, even=True),
    Family("tree", balanced_tree, 1),
    Family("caterpillar", caterpillar, 2),
    Family("lobster", lobster, 3),
    Family("er", erdos_renyi, 1),
    Family("line", path, 1),        # a path, under the name its errors give
)}


def make_graph(family: str, n: int, seed: int = 0, p: float = 0.1) -> Graph:
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}; choose from "
                         + ",".join(sorted(FAMILIES)))
    fam = FAMILIES[family]
    if problem := fam.size_error(n):
        raise InputError(problem)
    kwargs = {"p": p} if family == "er" else {}
    return fam.build(n, rng_for(seed, 0), **kwargs)


# ---------------------------------------------------------------------------
# Labels and splits
# ---------------------------------------------------------------------------

ECCENTRICITY_CHUNK = 1 << 18    # bound on per-level (node, source) entries of the batch BFS


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


def _induced_lists(graph: Graph, nodes: np.ndarray) -> tuple[list, list]:
    """CSR lists of the subgraph on `nodes`, sorted whole components; node
    i of the lists is nodes[i]."""
    lo = graph.indptr[nodes]
    span = graph.indptr[nodes + 1] - lo
    ends = np.cumsum(span)
    pos = np.arange(ends[-1]) + np.repeat(lo - ends + span, span)
    return [0] + ends.tolist(), np.searchsorted(nodes, graph.indices[pos]).tolist()


def _eccentricities(graph: Graph) -> np.ndarray:
    """Exact per-component eccentricity of every node, isolated nodes 0.

    Bounds of Takes & Kosters (2013): a BFS from v, with e_v its largest
    distance, gives every w of v's component
    max(d_v(w), e_v - d_v(w)) <= ecc(w) <= e_v + d_v(w), and w is settled
    when the two meet. Per component: a double sweep (BFS from its lowest
    id r, from a farthest from r, from b farthest from a; lowest id on
    ties), which settles a tree whole since there ecc(w) = max(d_a(w),
    d_b(w)); otherwise rounds that alternately sweep the open node with the
    smallest lower bound and the one with the largest upper bound (higher
    degree, then lower id, on ties) while the sweeps so far, squared, do
    not exceed the open count. Nodes still open go to `_bfs_depths` in
    chunks of about ECCENTRICITY_CHUNK level entries. Sweeps after the
    first walk the component's own lists, so a graph of many small
    components does not pay O(n) per sweep.
    """
    n = graph.num_nodes
    degree = graph.degrees()
    starts, neighbors = graph.indptr.tolist(), graph.indices.tolist()   # once for every BFS
    ecc = np.zeros(n, dtype=np.int64)
    seen = degree == 0
    batch = []
    for r in range(n):
        if seen[r]:
            continue
        dist = bfs_distances(starts, neighbors, r)
        comp = np.flatnonzero(dist >= 0)
        seen[comp] = True
        lists = (starts, neighbors) if len(comp) == n else _induced_lists(graph, comp)
        deg = degree[comp]
        lower = np.zeros(len(comp), dtype=np.int64)
        upper = np.full(len(comp), len(comp), dtype=np.int64)

        def sweep(d: np.ndarray) -> int:
            """Tighten the bounds by distances d over comp; return the farthest node."""
            e = d.max()
            np.maximum(lower, np.maximum(d, e - d), out=lower)
            np.minimum(upper, e + d, out=upper)
            return int(np.argmax(d))

        a = sweep(dist[comp])
        b = sweep(bfs_distances(*lists, a))
        if b != 0:                  # else the sweep from b is the one from r
            sweep(bfs_distances(*lists, b))
        if deg.sum() // 2 == len(comp) - 1:
            upper = lower           # a tree: ecc(w) = max(d_a(w), d_b(w)) = lower(w)
        sweeps, smallest = 2 + (b != 0), True
        while sweeps * sweeps <= np.count_nonzero(lower < upper):
            open_ = np.flatnonzero(lower < upper)
            key = lower[open_] if smallest else -upper[open_]
            sweep(bfs_distances(*lists, open_[np.lexsort((open_, -deg[open_], key))[0]]))
            sweeps, smallest = sweeps + 1, not smallest
        settled = lower == upper
        ecc[comp[settled]] = lower[settled]
        batch.append(comp[~settled])
    sources = np.concatenate(batch) if batch else np.zeros(0, dtype=np.int64)
    step = max(1, ECCENTRICITY_CHUNK // max(n, len(graph.indices)))
    for start in range(0, len(sources), step):
        chunk = sources[start:start + step]
        ecc[chunk] = _bfs_depths(graph, chunk)
    return ecc


def eccentricity_labels(graph: Graph, num_classes: int) -> np.ndarray:
    """Bin per-component eccentricity into equal-width classes.

    A node's eccentricity is its largest finite BFS distance, so isolated
    nodes get 0. `_eccentricities` computes them exactly from BFS bounds:
    a tree component takes at most 3 BFS (O(m)) and grids and ladders a
    handful, while cycles and Erdos-Renyi graphs leave nearly every node
    open and still cost one BFS per node (O(n·m)).
    """
    ecc = _eccentricities(graph)
    lo, hi = int(ecc.min()), int(ecc.max())
    if hi == lo:
        return np.zeros(graph.num_nodes, dtype=np.int64)
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
