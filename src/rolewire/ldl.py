"""The grounded Laplacian's LDL^T factor and its selected inverse.

`Ldl(weights)` factors B, the Laplacian of a connected weighted graph
without its last node's row and column, on the library's CSR arrays.
Every value is kept as a conductance, with each node's conductance to
ground: Schur complements then only add nonnegative terms, so nothing
cancels however weakly the ground pulls on a node (as in Grassmann,
Taksar and Heyman's elimination). Two phases share one elimination order:

- *Stages.* Each stage eliminates, at once, an independent set of the
  nodes whose degree in the elimination graph is at most max(3, twice
  the least degree), chosen in three Luby rounds: a node wins over each
  candidate neighbour of higher (degree, scrambled id), and winners'
  neighbours drop out of the next round. Where that set is too small
  (fewer than 4 + E/512 nodes, E edges left), the bound widens to the
  median degree, as around the hubs of a rewiring. Paths and trees leave
  in O(log n) stages, each a bounded number of numpy calls on the
  remaining edges. Every fill entry is stored under an edge id, whatever
  its value, so the pattern is closed under elimination even where
  values underflow to 0.0.
- *Core.* Once even the widened set is below 2(4 + E/512) nodes, or at
  most 64 nodes are left, the rest, with the values the stages left, is
  one dense block if at most 128 nodes, and is otherwise ordered by
  minimum degree on its quotient graph (`_minimum_degree`). Each
  eliminated supervariable is a supernode, whose columns share one row
  set, and it is factored as one dense frontal matrix (multifrontal).

Every eliminated block K with rows J below it keeps G = F_KK^-1 and
U = F_JK G, F its Schur complement when K is eliminated; a stage's node
is a block of width 1. Then b^T B^-1 b = sum over blocks of b_K^T G b_K,
with b_J -= U b_K along the way (`Ldl.quadratic`), and the selected
inverse Z = B^-1 on the factor's pattern follows from the last block
back (Takahashi, Fagan and Chin 1973; by supernodes as in SelInv, Lin,
Yang, Meza, Lu, Ying and E, ACM TOMS 2011):
    Z_JK = -Z_JJ U,    Z_KK = G - U^T Z_JK,
where J and K form a clique of the filled graph, so Z_JJ lies on the
pattern: a stage reads it by the ids of the edges it filled, and a
supernode gathers it from its parent's dense block, the inverse
multifrontal method (Campbell and Davis 1995).
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import NumericError
from .graph import Csr, ranges, runs

__all__: list[str] = []


def _spd_inverse(block: np.ndarray) -> np.ndarray:
    """G = block^-1 of a symmetric positive definite block, by one solve;
    its Cholesky factorization first turns a non-positive pivot into a
    NumericError."""
    try:
        np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        raise NumericError("the grounded Laplacian is not positive definite") from None
    return np.linalg.solve(block, np.eye(len(block)))


def _independent(free: np.ndarray, eu: np.ndarray, ev: np.ndarray,
                 loser: np.ndarray) -> np.ndarray:
    """The mask of an independent set of the `free` nodes of the graph with
    edges (eu, ev), in three Luby rounds: each round takes the free nodes
    that lose no edge to another free node (`loser` is each edge's losing
    end), and drops their neighbours."""
    pick = np.zeros(len(free), dtype=bool)
    for _ in range(3):
        win = free.copy()
        win[loser[free[eu] & free[ev]]] = False
        pick |= win
        free &= ~win
        free[eu[win[ev]]] = False
        free[ev[win[eu]]] = False
        if not free.any():
            break
    return pick


class Ldl:
    """LDL^T of the grounded Laplacian of `weights`, a connected graph's
    symmetric CSR arrays of positive edge weights with no self-loop. Edge
    ids 0..E-1 are its entries (u, v) with u < v < m - 1, in CSR order;
    fill gets the ids after them."""

    def __init__(self, weights: Csr):
        n = weights.shape[0] - 1
        rows, cols, w = weights.rows(), weights.indices, weights.data
        # a node's excess: its Schur diagonal less its row's conductances
        ground = cols == n
        excess = np.bincount(rows[ground], w[ground], minlength=n + 1)[:n]
        upper = (rows < cols) & ~ground
        eu, ev, val = rows[upper], cols[upper], w[upper]
        self.n = n
        ids = np.arange(len(eu))
        keys = eu * n + ev
        rank = (np.arange(n, dtype=np.int64) * 2654435761) % 2**32   # a bijection
        alive = np.ones(n, dtype=bool)
        left, fresh = n, len(eu)
        self.stages = []
        while left > 64:                  # below that, one dense block is cheaper
            deg = np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
            prio = deg * 2**32 + rank
            loser = np.where(prio[eu] > prio[ev], eu, ev)
            need = 4 + len(eu) // 512         # a stage must pay for its pass over the edges
            cap = max(3, 2 * int(deg[alive].min()))
            pick = _independent(alive & (deg <= cap), eu, ev, loser)
            if pick.sum() < need:             # widen to the median degree once
                wide = int(np.median(deg[alive]))
                if wide > cap:
                    pick = _independent(alive & (deg <= wide), eu, ev, loser)
                if pick.sum() < 2 * need:     # wider stages must pay for their fill too
                    break
            sel = np.flatnonzero(pick)
            at_u = pick[eu]                  # the edge's eliminated end is u
            inc = at_u | pick[ev]
            owner = np.where(at_u, eu, ev)[inc]
            order = np.argsort(owner, kind="stable")
            owner, other = owner[order], np.where(at_u, ev, eu)[inc][order]
            c, col_ids = val[inc][order], ids[inc][order]
            pivot = excess[sel] + np.bincount(owner, c, minlength=n)[sel]
            if not (pivot > 0).all():
                raise NumericError("the grounded Laplacian is not positive definite")
            g = np.zeros(n)
            g[sel] = 1.0 / pivot
            u = -c * g[owner]                  # L's multipliers
            excess += np.bincount(other, c * g[owner] * excess[owner], minlength=n)
            # each entry pairs with the earlier entries of its column
            start = np.searchsorted(owner, owner)      # the first entry of each one's column
            before = np.arange(len(owner)) - start
            pa, pb = ranges(start, before), np.repeat(np.arange(len(owner)), before)
            lo, hi = np.minimum(other[pa], other[pb]), np.maximum(other[pa], other[pb])
            keep = ~inc
            kept = int(keep.sum())
            merged = np.concatenate([keys[keep], lo * n + hi])
            order = np.argsort(merged, kind="stable")    # the kept keys are one sorted run
            starts, lengths = runs(merged[order])
            head = order[starts]                         # a kept edge heads its run
            keys = merged[head]
            run_of = np.empty(len(order), dtype=np.int64)
            run_of[order] = np.repeat(np.arange(len(starts)), lengths)
            val = np.bincount(run_of, np.concatenate([val[keep], -c[pa] * u[pb]]),
                              minlength=len(keys))
            new = head >= kept               # a kept edge keeps its id; new fill takes the next
            ids = np.concatenate([ids[keep], fresh + np.arange(new.sum())])[
                np.where(new, kept + np.cumsum(new) - 1, head)]
            fresh += int(new.sum())
            eu, ev = np.divmod(keys, n)
            self.stages.append((sel, g[sel], owner, other, col_ids, u, pa, pb,
                                ids[run_of[kept:]]))
            alive[sel] = False
            left -= len(sel)
        self.fill = fresh
        self._core(np.flatnonzero(alive), excess, eu, ev, val, ids)

    def _core(self, core, excess, eu, ev, val, ids):
        """Order, analyse and factor the nodes the stages left, by supernodes."""
        r = len(core)
        local = np.full(self.n, -1)
        local[core] = np.arange(r)
        cu, cv = local[eu], local[ev]
        if r <= 128:                      # cheaper as one dense block than ordered
            blocks = [(list(range(r)), [])]
        else:
            pattern = Csr.from_entries(np.r_[cu, cv], np.r_[cv, cu], np.r_[val, val], r)
            blocks = _minimum_degree(r, pattern.indptr.tolist(), pattern.indices.tolist())
        order = np.array([x for cols, _ in blocks for x in cols], dtype=np.int64)
        pos = np.empty(r, dtype=np.int64)
        pos[order] = np.arange(r)
        self.core, self.pos = core, pos
        self.first, self.below, self.factors = [], [], []
        first = 0
        for cols, rows in blocks:
            self.first.append(first)
            first += len(cols)
            self.below.append(np.sort(pos[np.array(rows, dtype=np.int64)]))
        snode = np.repeat(np.arange(len(blocks)), [len(cols) for cols, _ in blocks])
        self.parent = [int(snode[j[0]]) if len(j) else -1 for j in self.below]
        # the Schur complement's lower entries, by column position
        pr, pc = np.maximum(pos[cu], pos[cv]), np.minimum(pos[cu], pos[cv])
        by_col = np.argsort(pc, kind="stable")
        entry_row, entry_col, entry_val = pr[by_col], pc[by_col], -val[by_col]
        self.entry_ids = ids[by_col]
        self.colptr = np.searchsorted(entry_col, np.arange(r + 1))
        sx = np.empty(r)                  # the excess, by position
        sx[pos] = excess[core]
        pending: dict[int, list] = {}
        where = np.empty(r, dtype=np.int64)
        for s, (f, j) in enumerate(zip(self.first, self.below)):
            w = len(blocks[s][0])
            rl = np.concatenate((np.arange(f, f + w), j))
            where[rl] = np.arange(len(rl))
            front = np.zeros((len(rl), len(rl)))
            e0, e1 = self.colptr[f], self.colptr[f + w]
            lr, lc = where[entry_row[e0:e1]], where[entry_col[e0:e1]]
            front[lr, lc] = entry_val[e0:e1]
            front[lc, lr] = entry_val[e0:e1]
            for rows, update in pending.pop(s, ()):
                idx = where[rows]
                front[idx[:, None], idx] += update
            # K's rows are complete, so their diagonal is excess + conductances;
            # the diagonals of the updates are never read.
            diag = np.arange(w)
            front[diag, diag] = 0.0
            front[diag, diag] = sx[f:f + w] - front[:w].sum(axis=1)
            g = _spd_inverse(front[:w, :w])
            u = front[w:, :w] @ g
            if len(j):
                sx[j] -= u @ sx[f:f + w]
                pending.setdefault(self.parent[s], []).append(
                    (j, front[w:, w:] - u @ front[:w, w:]))
            self.factors.append((g, u, lr, lc))

    def quadratic(self, b: np.ndarray) -> float:
        """b^T B^-1 b, by one forward pass over the factor."""
        b = np.array(b, dtype=np.float64)
        total = 0.0
        for sel, g, owner, other, _, u, *_ in self.stages:
            total += float((b[sel] ** 2 * g).sum())
            b -= np.bincount(other, u * b[owner], minlength=self.n)
        b = b[self.core][np.argsort(self.pos)]       # in elimination order
        for (g, u, *_), f, j in zip(self.factors, self.first, self.below):
            bk = b[f:f + len(g)]
            total += float(bk @ (g @ bk))
            b[j] -= u @ bk
        return total

    def selected_inverse(self) -> tuple[np.ndarray, np.ndarray]:
        """Z = B^-1 on the factor's pattern: its diagonal, by node, and its
        value on every edge of the elimination graph, by edge id."""
        zdiag, z = np.empty(self.n), np.empty(self.fill)
        zcore = np.empty(len(self.core))             # Z's diagonal, by position
        full: dict[int, np.ndarray] = {}
        children = np.bincount(np.array(self.parent, dtype=np.int64) + 1,
                               minlength=len(self.factors) + 1)[1:]
        for s in range(len(self.factors) - 1, -1, -1):
            (g, u, lr, lc), f, j, p = self.factors[s], self.first[s], self.below[s], self.parent[s]
            w = len(g)
            if p < 0:
                block = g
            else:
                idx = np.searchsorted(self.below[p], j) + len(self.factors[p][0])
                inside = j < self.first[p] + len(self.factors[p][0])
                idx[inside] = j[inside] - self.first[p]
                zjj = full[p][idx[:, None], idx]
                zjk = -zjj @ u
                block = np.empty((w + len(j), w + len(j)))
                block[:w, :w] = g - u.T @ zjk
                block[w:, :w], block[:w, w:], block[w:, w:] = zjk, zjk.T, zjj
                children[p] -= 1
                if not children[p]:
                    del full[p]
            if children[s]:
                full[s] = block
            zcore[f:f + w] = block.diagonal()[:w]
            z[self.entry_ids[self.colptr[f]:self.colptr[f + w]]] = block[lr, lc]
        zdiag[self.core] = zcore[self.pos]
        for sel, g, owner, other, col_ids, u, pa, pb, pair_ids in reversed(self.stages):
            zp = z[pair_ids]
            y = zdiag[other] * u
            y += np.bincount(pa, zp * u[pb], minlength=len(y))
            y += np.bincount(pb, zp * u[pa], minlength=len(y))
            z[col_ids] = -y
            zdiag[sel] = g + np.bincount(owner, u * y, minlength=self.n)[sel]
        return zdiag, z


def _minimum_degree(r: int, indptr: list, indices: list) -> list:
    """Minimum-degree order of the graph on r nodes with these CSR lists, on
    its quotient graph: supervariables, element absorption and the
    approximate external degree of Amestoy, Davis and Duff. Returns each
    eliminated supervariable's nodes and the nodes of its column below it,
    in elimination order. As in their AMD, a node of degree above
    max(16, 10 sqrt(r)) is dense: it goes last, and no degree or
    supervariable test reads its long adjacency. Once the least degree
    reaches half the nodes left, they all form one last block: its
    frontal matrix would be dense anyway."""
    adj = [set(indices[indptr[i]:indptr[i + 1]]) for i in range(r)]
    elem = [set() for _ in range(r)]
    members: dict[int, set] = {}
    size: dict[int, int] = {}
    weight = [1] * r
    group = [[i] for i in range(r)]
    dense = max(16, 10 * math.sqrt(r))
    deg = [len(a) if len(a) <= dense else r for a in adj]
    heap = [(d, i) for i, d in enumerate(deg)]
    heapq.heapify(heap)
    gone = [False] * r
    left = r
    blocks = []
    while heap:
        d, p = heapq.heappop(heap)
        if gone[p] or d != deg[p]:
            continue
        if 2 * d >= left:                 # the rest is dense or nearly: one last block
            blocks.append(([x for i in range(r) if not gone[i] for x in group[i]], []))
            break
        lp = adj[p]
        for e in elem[p]:
            lp |= members.pop(e)
        lp.discard(p)
        gone[p] = True
        left -= weight[p]
        absorbed = elem[p]
        outside: dict[int, int] = {}
        sparse = []
        for i in lp:
            ei = elem[i]
            ei -= absorbed
            ei.add(p)
            ai = adj[i]
            ai -= lp
            ai.discard(p)
            if deg[i] < r:
                sparse.append(i)
                for e in ei:
                    if e != p:
                        outside[e] = outside.get(e, size[e]) - weight[i]
        seen: dict = {}
        for i in sparse:
            j = seen.setdefault((frozenset(adj[i]), frozenset(elem[i])), i)
            if j != i:                    # indistinguishable: i joins supervariable j
                weight[j] += weight[i]
                group[j] += group[i]
                gone[i] = True
                for e in elem[i]:
                    if e != p:
                        members[e].discard(i)
                for x in adj[i]:
                    adj[x].discard(i)
                lp.discard(i)
        members[p] = lp
        wl = size[p] = sum(weight[i] for i in lp)
        blocks.append((group[p], [x for i in lp for x in group[i]]))
        for i in sparse:
            if gone[i]:
                continue
            ei = elem[i]
            for e in [e for e in ei if e != p and outside[e] <= 0]:
                ei.discard(e)             # an element inside L_p is absorbed by p
                members.pop(e, None)
            ext = (len(adj[i]) + wl - weight[i]
                   + sum(outside[e] for e in ei if e != p))
            deg[i] = min(left - weight[i], deg[i] + wl - weight[i], ext)
            heapq.heappush(heap, (deg[i], i))
    return blocks
