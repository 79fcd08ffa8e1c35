"""Effective resistance, two-hop similarity, starred scores, selection."""

import io

import numpy as np
import pytest

from rolewire.errors import (
    DisconnectedError,
    NegativeInputError,
    NoEligibleNodesError,
    NumericError,
)
from rolewire.generators import assign_splits, eccentricity_labels
from rolewire.graph import graph_from_edges, is_connected
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

from conftest import cycle_graph, pairwise_resistance, path_graph, star_graph


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
                if max(len(b) for b in part.blocks) >= 2:
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
        from rolewire.partition import Partition
        part = Partition.from_blocks(3, [[0], [1], [2]])
        rg = build_rewired(p3, part, Variant.REP_NODES)
        after = mean_effective_resistance(rg.adjacency, origin_count=3)
        assert after == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_all_pairs_mode(self, p3):
        part = refine_eps_be(p3, 0)
        rg = build_rewired(p3, part, Variant.REP_NODES)
        full = mean_effective_resistance(rg.adjacency)
        orig = mean_effective_resistance(rg.adjacency, origin_count=3)
        assert full > orig   # pendant hubs add resistive pairs


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
