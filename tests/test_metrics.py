"""Effective resistance, two-hop similarity, starred scores, selection."""

import io
from dataclasses import astuple

import numpy as np
import pytest
import scipy.sparse as sp

from rolewire.errors import (
    DimensionMismatchError,
    DisconnectedError,
    NegativeInputError,
    NoEligibleNodesError,
    NumericError,
)
import rolewire.graph
from rolewire import metrics
from rolewire.generators import assign_splits, eccentricity_labels, erdos_renyi, make_graph
from rolewire.graph import (PERCENTILE_GRID, bfs_distances, degree_percentile,
                            graph_from_edges)
from rolewire.metrics import (
    EpsCandidate,
    dump_candidates_csv,
    evaluate_candidates,
    mean_effective_resistance,
    pearson,
    select_epsilon,
    srl_star,
    two_hop_class_similarity,
)
from rolewire.graph import NodeData
from rolewire.partition import refine_eps_be
from rolewire.rewire import Variant, build_rewired
from rolewire.seeding import rng_for

from conftest import (block_tuples, cycle_graph, evaluate_candidates_oracle, from_blocks,
                      is_connected, largest_component, mean_effective_resistance_by_solves,
                      mean_effective_resistance_oracle, pairwise_resistance, path_graph,
                      star_graph)


def mean_pair_resistance(adjacency, span):
    r = pairwise_resistance(adjacency.toarray(), span)
    return r[np.triu_indices(span, k=1)].mean()


class TestEffectiveResistance:
    def test_single_edge(self):
        g = graph_from_edges(2, [(0, 1)])
        assert mean_effective_resistance(g.adjacency) == pytest.approx(1.0)

    def test_path3(self, p3):
        assert mean_effective_resistance(p3.adjacency) == \
            pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_cycle4(self, c4):
        assert mean_effective_resistance(c4.adjacency) == \
            pytest.approx(5.0 / 6.0, abs=1e-9)

    def test_disconnected_errors(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedError):
            mean_effective_resistance(g.adjacency)

    def test_pair_set_larger_than_graph_rejected(self):
        path = path_graph(4)
        assert mean_effective_resistance(path.adjacency, origin_count=4) == \
            pytest.approx(5.0 / 3.0, abs=1e-9)
        with pytest.raises(ValueError, match="origin_count 9"):
            mean_effective_resistance(path.adjacency, origin_count=9)

    def test_rewiring_never_increases(self, corpus):
        for name, g in corpus:
            if g.num_nodes > 40 or not is_connected(g):
                continue
            base = mean_effective_resistance(g.adjacency)
            part = refine_eps_be(g, 0)
            for variant in (Variant.REP_NODES, Variant.REP_EDGES):
                rg = build_rewired(g, part, variant)
                after = mean_effective_resistance(rg.adjacency,
                                                  origin_count=g.num_nodes)
                assert after <= base + 1e-9, name
                if max(len(b) for b in block_tuples(part)) >= 2:
                    assert base - after > 1e-6, name

    def test_rayleigh_per_pair(self):
        for g in (star_graph(4), path_graph(6), cycle_graph(6)):
            n = g.num_nodes
            base = pairwise_resistance(g.dense_adjacency(), n)
            part = refine_eps_be(g, 0)
            for variant in (Variant.REP_NODES, Variant.REP_EDGES):
                rg = build_rewired(g, part, variant)
                after = pairwise_resistance(rg.adjacency.toarray(), n)
                assert (after <= base + 1e-9).all()

    def test_pendant_virtual_nodes_keep_resistance(self, p3):
        # all-singleton partition: hubs are pendant, original pairs unchanged
        part = from_blocks(3, [[0], [1], [2]])
        rg = build_rewired(p3, part, Variant.REP_NODES)
        after = mean_effective_resistance(rg.adjacency, origin_count=3)
        assert after == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_two_nodes(self):
        adjacency = sp.csr_matrix(np.array([[0.0, 2.5], [2.5, 0.0]]))
        assert mean_effective_resistance(adjacency) == pytest.approx(0.4, rel=1e-12)
        assert mean_effective_resistance(adjacency, origin_count=2) == \
            pytest.approx(0.4, rel=1e-12)

    def test_two_origin_nodes_in_a_larger_graph(self):
        g = path_graph(6)
        for origin_count in (2, 3):
            got = mean_effective_resistance(g.adjacency, origin_count=origin_count)
            assert got == pytest.approx(mean_pair_resistance(g.adjacency, origin_count),
                                        rel=1e-12)
        assert mean_effective_resistance(g.adjacency, origin_count=2) == \
            pytest.approx(1.0, rel=1e-12)

    def test_weighted_full_corner_drops_self_loops(self):
        g = cycle_graph(6)
        rg = build_rewired(g, refine_eps_be(g, 0), Variant.FULL)
        assert rg.adjacency.diagonal()[6:].max() > 0      # within-block self-loops
        loopless = rg.adjacency - sp.diags(rg.adjacency.diagonal())
        for origin_count, span in ((6, 6), (None, 7)):
            got = mean_effective_resistance(rg.adjacency, origin_count=origin_count)
            assert got == mean_effective_resistance(loopless, origin_count=origin_count)
            assert got == pytest.approx(mean_pair_resistance(rg.adjacency, span),
                                        rel=1e-12)

    def test_grounded_node_inside_and_outside_the_pair_set(self):
        # baseline: the grounded last node is one of S; rewired: it is a
        # virtual node outside S
        g = make_graph("tree", 15)
        rg = build_rewired(g, refine_eps_be(g, 0), Variant.REP_NODES)
        n, m = g.num_nodes, rg.csr.shape[0]
        for adjacency, origin_count, span in ((g.adjacency, None, n),
                                              (rg.adjacency, n, n),
                                              (rg.adjacency, None, m)):
            got = mean_effective_resistance(adjacency, origin_count=origin_count)
            assert got == pytest.approx(mean_pair_resistance(adjacency, span), rel=1e-12)
            assert got == pytest.approx(
                mean_effective_resistance_oracle(adjacency, origin_count), rel=1e-12)

    def test_checks_come_before_the_factorization(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("factorized")

        monkeypatch.setattr(metrics, "Ldl", refuse)
        with pytest.raises(DisconnectedError):
            mean_effective_resistance(graph_from_edges(4, [(0, 1), (2, 3)]).adjacency)
        path = path_graph(4)
        for origin_count in (1, 9):
            with pytest.raises(ValueError, match="pair set|origin_count 9"):
                mean_effective_resistance(path.adjacency, origin_count=origin_count)
        with pytest.raises(AssertionError, match="factorized"):
            mean_effective_resistance(path.adjacency)

    def test_stored_zero_weights_are_no_edges(self):
        zeros = sp.csr_matrix((np.zeros(2), ([0, 1], [1, 0])), shape=(2, 2))
        assert zeros.nnz == 2
        with pytest.raises(DisconnectedError):
            mean_effective_resistance(zeros)

    @pytest.mark.parametrize("one_sided", [
        {(0, 2): 1e-300}, {(2, 0): 1e-300}, {(0, 2): 1e-13, (2, 0): 0.0}])
    def test_a_link_stored_on_one_side_only_does_not_connect(self, one_sided):
        """A tiny weight whose mirror is missing, or stored as 0.0, passes
        the symmetry gate but carries no current both ways: the graph is
        disconnected, and the factorization never sees its singular Laplacian."""
        rows, cols = [0, 1, *(i for i, _ in one_sided)], [1, 0, *(j for _, j in one_sided)]
        adjacency = sp.csr_matrix((np.array([1.0, 1.0, *one_sided.values()]), (rows, cols)),
                                  shape=(3, 3))
        assert adjacency.nnz == len(rows)
        with pytest.raises(DisconnectedError):
            mean_effective_resistance(adjacency)

    def test_mirrors_are_found_once_per_call(self, monkeypatch):
        """The gate's mirror positions give the edge rule, and component
        labelling reads a symmetric pattern without looking for mirrors."""
        g = make_graph("tree", 31)
        rg = build_rewired(g, refine_eps_be(g, 0), Variant.FULL)
        calls = []

        def counting(csr, _original=rolewire.graph._mirrors):
            calls.append(csr.shape)
            return _original(csr)

        monkeypatch.setattr(rolewire.graph, "_mirrors", counting)
        for adjacency in (g.adjacency, g.csr, g.dense_adjacency(), rg.adjacency, rg.csr):
            calls.clear()
            mean_effective_resistance(adjacency, origin_count=g.num_nodes)
            assert calls == [adjacency.shape]
        calls.clear()
        assert not rolewire.graph.component_labels(rg.csr).any()
        assert calls == []

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            mean_effective_resistance(sp.csr_matrix([[0.0, -1.0], [-1.0, 0.0]]))

    def test_all_pairs_mode(self, p3):
        part = refine_eps_be(p3, 0)
        rg = build_rewired(p3, part, Variant.REP_NODES)
        full = mean_effective_resistance(rg.adjacency)
        orig = mean_effective_resistance(rg.adjacency, origin_count=3)
        assert full > orig   # pendant hubs add resistive pairs

    # On a tree R_ij is the path length, so the mean is the Wiener index
    # over C(n, 2): the sum over edges of s (n - s), s the nodes below it.
    @pytest.mark.parametrize("family, n", [("tree", 16383), ("path", 16384)])
    def test_trees_give_the_wiener_index(self, family, n):
        g = make_graph(family, n)
        dist = bfs_distances(g.indptr, g.indices, 0)
        below = np.ones(n, dtype=np.int64)
        rows = np.repeat(np.arange(n), g.degrees())
        up = dist[g.indices] == dist[rows] - 1
        parent = np.zeros(n, dtype=np.int64)
        parent[rows[up]] = g.indices[up]
        for v in np.argsort(-dist, kind="stable")[:-1]:
            below[parent[v]] += below[v]
        wiener = int((below[1:] * (n - below[1:])).sum())
        if family == "path":
            assert wiener == (n**3 - n) // 6
        assert mean_effective_resistance(g.adjacency) == \
            pytest.approx(wiener / (n * (n - 1) / 2), rel=1e-9)

    def test_dense_fill_matches_blocked_solves(self):
        # Most of this factor is one dense trailing block; the columns
        # before it reach into the block and into each other.
        g = make_graph("er", 1000, seed=1, p=0.02)
        assert is_connected(g)
        eps = degree_percentile(g, 25)
        rg = build_rewired(g, refine_eps_be(g, eps), Variant.REP_NODES, eps=eps)
        for adjacency, origin_count in ((g.adjacency, None), (rg.adjacency, 1000)):
            assert mean_effective_resistance(adjacency, origin_count) == pytest.approx(
                mean_effective_resistance_by_solves(adjacency, origin_count), rel=1e-12)

    @pytest.mark.parametrize("family,n,seed,percentile", [
        ("lobster", 2710, 1, 50), ("caterpillar", 3700, 0, 25)])
    def test_fill_that_underflows_is_stored_as_zeros(self, family, n, seed, percentile):
        # Along these long spines some fill of an LU factor underflows to
        # 0.0 (SuperLU then dropped it). The factor's pattern keeps every
        # fill entry whatever its value, so the selected inversion finds
        # every entry it reads, and the result matches the blocked solves.
        g = make_graph(family, n, seed=seed)
        eps = degree_percentile(g, percentile)
        rg = build_rewired(g, refine_eps_be(g, eps), Variant.REP_NODES, eps=eps)
        assert mean_effective_resistance(rg.csr, g.num_nodes) == pytest.approx(
            mean_effective_resistance_by_solves(rg.adjacency, g.num_nodes), rel=1e-12)

    def test_one_vector_solve_and_no_identity_solves(self, monkeypatch):
        solves = []
        quadratic = metrics.Ldl.quadratic

        def counted(factor, rhs):
            solves.append(np.ndim(rhs))
            return quadratic(factor, rhs)

        monkeypatch.setattr(metrics.Ldl, "quadratic", counted)
        g = make_graph("tree", 300)
        rg = build_rewired(g, refine_eps_be(g, 0), Variant.FULL)
        for adjacency, origin_count in ((g.adjacency, None), (rg.adjacency, 300),
                                        (rg.adjacency, None), (cycle_graph(6).adjacency, 2)):
            solves.clear()
            mean_effective_resistance(adjacency, origin_count)
            assert solves == [1]


class TestTwoHopClassSimilarity:
    def test_single_class(self, c4):
        labels = np.zeros(4, dtype=np.int64)
        mask = np.ones(4, dtype=bool)
        assert two_hop_class_similarity(c4, labels, mask) == 1.0

    def test_path_aba(self, p3):
        labels = np.array([0, 1, 0])
        mask = np.ones(3, dtype=bool)
        assert two_hop_class_similarity(p3, labels, mask) == 1.0

    def test_path_abc(self, p3):
        labels = np.array([0, 1, 2])
        mask = np.ones(3, dtype=bool)
        assert two_hop_class_similarity(p3, labels, mask) == 0.0

    def test_mask_restricts_centers_and_neighbors(self, p3):
        labels = np.array([0, 1, 1])
        mask = np.array([True, False, False])
        with pytest.raises(NoEligibleNodesError):
            two_hop_class_similarity(p3, labels, mask)   # lone masked node

    def test_relabeling_invariance(self, corpus):
        for _, g in corpus[:8]:
            labels = eccentricity_labels(g, 3)
            mask = np.ones(g.num_nodes, dtype=bool)
            try:
                before = two_hop_class_similarity(g, labels, mask)
            except NoEligibleNodesError:
                continue
            permuted = np.array([2, 0, 1])[labels]
            assert two_hop_class_similarity(g, permuted, mask) == before

    def test_rewired_hubs_bring_blocks_together(self):
        # two far-apart leaves of a path share a role hub after rewiring
        g = path_graph(6)
        labels = np.array([0, 1, 1, 1, 1, 0])
        mask = np.ones(6, dtype=bool)
        part = refine_eps_be(g, 0)
        rg = build_rewired(g, part, Variant.REP_NODES)
        base = two_hop_class_similarity(g, labels, mask)
        rew = two_hop_class_similarity(rg, labels, mask)
        assert rew > base   # endpoints see each other through their hub

    @pytest.mark.parametrize("rewired", [False, True], ids=["plain", "repnodes"])
    @pytest.mark.parametrize("wrong", ["labels", "mask"])
    @pytest.mark.parametrize("length", [5, 9])
    def test_labels_and_mask_need_one_entry_per_original_node(self, rewired, wrong, length):
        g = path_graph(6)
        arrays = {"labels": np.array([0, 1, 1, 1, 1, 0]), "mask": np.ones(6, dtype=bool)}
        arrays[wrong] = np.resize(arrays[wrong], length)
        graph = build_rewired(g, refine_eps_be(g, 0), Variant.REP_NODES) if rewired else g
        with pytest.raises(DimensionMismatchError):
            two_hop_class_similarity(graph, arrays["labels"], arrays["mask"])

    def test_range(self, corpus):
        for _, g in corpus[:10]:
            labels = eccentricity_labels(g, 2)
            mask = np.ones(g.num_nodes, dtype=bool)
            try:
                value = two_hop_class_similarity(g, labels, mask)
            except NoEligibleNodesError:
                continue
            assert 0.0 <= value <= 1.0


class TestSrlStar:
    def cands(self, srls, ncs, rhos):
        return [EpsCandidate(percentile=p, eps=float(i), k=1,
                             srl=s, rho=r, ncs2=c)
                for i, (p, s, c, r) in enumerate(zip((0, 25, 50, 75, 100),
                                                     srls, ncs, rhos))]

    def test_rho_one_reduces_to_lift_zscore(self):
        srls = [0.0, 0.01, 0.04, 0.09, 0.16]
        scored = srl_star(self.cands(srls, [0.5] * 5, [1.0] * 5))
        roots = np.sqrt(srls)
        z = (roots - roots.mean()) / roots.std()
        for cand, expected in zip(scored, z):
            assert cand.srl_star == pytest.approx(expected)

    def test_rho_zero_reduces_to_similarity_zscore(self):
        ncs = [0.1, 0.2, 0.3, 0.4, 0.9]
        scored = srl_star(self.cands([0.02] * 5, ncs, [0.0] * 5))
        roots = np.sqrt(ncs)
        z = (roots - roots.mean()) / roots.std()
        for cand, expected in zip(scored, z):
            assert cand.srl_star == pytest.approx(expected)

    def test_zero_variance_term_drops(self):
        scored = srl_star(self.cands([0.04] * 5, [0.1, 0.2, 0.3, 0.4, 0.5],
                                     [1.0] * 5))
        for cand in scored:
            assert cand.srl_star == 0.0   # rho=1 keeps only the degenerate term

    def test_translation_invariant_ranking(self):
        srls = [0.01, 0.09, 0.25, 0.04, 0.16]
        base = srl_star(self.cands(srls, [0.3] * 5, [1.0] * 5))
        shifted_roots = np.sqrt(srls) + 0.7
        shifted = srl_star(self.cands(list(shifted_roots ** 2),
                                      [0.3] * 5, [1.0] * 5))
        rank = lambda cs: np.argsort([c.srl_star for c in cs])
        assert np.array_equal(rank(base), rank(shifted))

    def test_negative_inputs_rejected(self):
        with pytest.raises(NegativeInputError):
            srl_star([EpsCandidate(0, 0.0, 1, srl=-0.5, rho=1.0, ncs2=0.1)])


class TestSelectEpsilon:
    def test_single_candidate(self):
        cand = EpsCandidate(0, 0.0, 1, 0.1, 1.0, 0.5, srl_star=0.3)
        assert select_epsilon([cand]) is cand

    def test_argmax(self):
        scores = [-1.0, 0.0, 2.0, 0.5, 0.0]
        cands = [EpsCandidate(p, 0.0, 1, 0.0, 1.0, 0.0, srl_star=s)
                 for p, s in zip((0, 25, 50, 75, 100), scores)]
        assert select_epsilon(cands).percentile == 50

    def test_tie_prefers_finer(self):
        cands = [EpsCandidate(p, 0.0, 1, 0.0, 1.0, 0.0, srl_star=s)
                 for p, s in zip((0, 25, 50, 75, 100), [0.0, 1.0, 1.0, 0.0, 1.0])]
        assert select_epsilon(cands).percentile == 25


class TestEvaluateCandidates:
    def test_full_grid(self):
        g = path_graph(8)
        labels = eccentricity_labels(g, 2)
        train, val, test = assign_splits(8, seed=0)
        data = NodeData(num_nodes=8, labels=labels, train_mask=train,
                        val_mask=val, test_mask=test)
        cands = evaluate_candidates(g, data)
        assert [c.percentile for c in cands] == [0, 25, 50, 75, 100]
        assert all(np.isfinite(c.srl_star) for c in cands)
        assert cands[-1].k == 1   # 100th percentile collapses

    def test_csv_has_one_selected_row(self):
        g = star_graph(5)
        labels = eccentricity_labels(g, 2)
        none = np.zeros(6, dtype=bool)
        data = NodeData(num_nodes=6, labels=labels, train_mask=np.ones(6, dtype=bool),
                        val_mask=none, test_mask=none)
        cands = evaluate_candidates(g, data)
        chosen = select_epsilon(cands)
        out = io.StringIO()
        dump_candidates_csv(cands, chosen, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "percentile,eps,k,srl,rho,ncs2,srl_star,selected"
        assert len(lines) == 6
        assert sum(line.endswith(",1") for line in lines[1:]) == 1


def grid_data(graph, seed=0):
    n = graph.num_nodes
    train, val, test = assign_splits(n, seed=seed)
    return NodeData(num_nodes=n, labels=eccentricity_labels(graph, 2),
                    train_mask=train, val_mask=val, test_mask=test)


def distinct_partitions(graph):
    return len({refine_eps_be(graph, degree_percentile(graph, p)).block_of.tobytes()
                for p in PERCENTILE_GRID})


class TestDistinctPartitions:
    """The grid scores each distinct partition once and equals scoring
    every entry on its own, bit for bit."""

    CASES = [
        ("tree63", make_graph("tree", 63), 2),   # 0/25/50 and 75/100 coincide
        ("path8", path_graph(8), 2),
        ("er20", largest_component(erdos_renyi(20, rng_for(0, 0), p=0.15)), 5),
    ]

    @pytest.mark.parametrize("variant", [Variant.REP_NODES, Variant.FULL, Variant.REP_EDGES])
    @pytest.mark.parametrize("name,graph,distinct", CASES, ids=[c[0] for c in CASES])
    def test_matches_the_per_entry_loop(self, name, graph, distinct, variant):
        assert distinct_partitions(graph) == distinct
        data = grid_data(graph)
        got = evaluate_candidates(graph, data, variant)
        want = evaluate_candidates_oracle(graph, data, variant)
        assert len(got) == len(want) == len(PERCENTILE_GRID)
        for g, w in zip(got, want):
            assert astuple(g) == astuple(w)

    @pytest.mark.parametrize("name,graph,distinct", CASES, ids=[c[0] for c in CASES])
    def test_one_report_per_distinct_partition(self, monkeypatch, name, graph, distinct):
        calls = []
        original = metrics.srl_report

        def counting(observed, y, *args, **kwargs):
            calls.append(observed.rewired.partition.k)
            return original(observed, y, *args, **kwargs)

        monkeypatch.setattr(metrics, "srl_report", counting)
        evaluate_candidates(graph, grid_data(graph))
        assert len(calls) == distinct

    @pytest.mark.parametrize("name,graph,distinct", CASES, ids=[c[0] for c in CASES])
    def test_one_refinement_per_distinct_eps(self, monkeypatch, name, graph, distinct):
        grid_eps = [degree_percentile(graph, p) for p in PERCENTILE_GRID]
        calls = []
        original = metrics.refine_eps_be

        def counting(graph, eps):
            calls.append(eps)
            return original(graph, eps)

        monkeypatch.setattr(metrics, "refine_eps_be", counting)
        got = evaluate_candidates(graph, grid_data(graph))
        assert calls == list(dict.fromkeys(grid_eps))
        assert [c.eps for c in got] == grid_eps

    def test_tree_grid_repeats_two_tolerances(self):
        """On a balanced binary tree, percentiles 25/50 and 75/100 share an ε."""
        graph = make_graph("tree", 1023)
        assert [degree_percentile(graph, p) for p in PERCENTILE_GRID] == [0, 1, 1, 3, 3]


class TestPearson:
    def test_perfect_line(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_zero_variance_rejected(self):
        with pytest.raises(NumericError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_short_sample_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])

    def test_huge_sample_keeps_the_bits_of_its_scaled_copy(self):
        # 2**1000-scaled squares overflow unless each sample is rescaled first
        big = pearson(np.ldexp([1.0, 2.0, 4.0], 1000), [1, 2, 3])
        assert big.hex() == pearson([1, 2, 4], [1, 2, 3]).hex()
