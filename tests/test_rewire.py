"""Augmented adjacency block structure, features, and the output format."""

import io
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from rolewire.errors import DimensionMismatchError
from rolewire.generators import erdos_renyi
from rolewire.graph import bfs_distances
from rolewire.partition import (
    color_refinement_oracle,
    quotient,
    refine_eps_be,
    validate_aep,
)
from rolewire.seeding import rng_for
from rolewire.rewire import (
    Variant,
    augment_features,
    build_rewired,
    dump_augmented_features_csv,
    dump_rewired,
)

from conftest import dump_features_csv, from_blocks, master_node_adjacency, membership_matrix



def rewire(graph, eps, variant):
    part = refine_eps_be(graph, eps)
    return part, build_rewired(graph, part, variant, eps=eps)


class TestRecord:
    def test_keeps_its_graph_and_partition(self, star4):
        part = refine_eps_be(star4, 0)
        rg = build_rewired(star4, part, Variant.REP_NODES)
        assert rg.graph is star4 and rg.partition is part
        assert rg.origin_count == 4 and rg.virtual_count == part.k == 2


class TestBlockStructure:
    def test_repnodes_star(self, star4):
        part, rg = rewire(star4, 0, Variant.REP_NODES)
        a = rg.adjacency.toarray()
        assert rg.size == 6 and rg.virtual_count == 2
        assert np.array_equal(a[:4, :4], star4.dense_adjacency())
        assert np.array_equal(a[:4, 4:], membership_matrix(part).toarray())
        assert not a[4:, 4:].any()
        # every pair of leaves sits at distance 2 through their hub
        adj = rg.adjacency
        dist = bfs_distances(adj.indptr.astype(np.int64),
                             adj.indices.astype(np.int64), 1)
        assert dist[2] == 2 and dist[3] == 2

    def test_repedges_star_connects_hubs(self, star4):
        _, rg = rewire(star4, 0, Variant.REP_EDGES)
        a = rg.adjacency.toarray()
        assert np.array_equal(a[4:, 4:], [[0.0, 1.0], [1.0, 0.0]])

    def test_repedges_corner_is_quotient_pattern(self, corpus):
        # the corner links two hubs exactly when some edge joins their blocks
        for _, g in corpus[:12]:
            n = g.num_nodes
            part, rg = rewire(g, 1.0, Variant.REP_EDGES)
            r = membership_matrix(part).toarray()
            block_edges = r.T @ g.dense_adjacency() @ r
            assert np.array_equal(rg.adjacency.toarray()[n:, n:],
                                  (block_edges > 0).astype(float))

    def test_full_uses_weighted_quotient(self, c4):
        part, rg = rewire(c4, 0, Variant.FULL)
        a = rg.adjacency.toarray()
        assert part.k == 1
        assert a[4, 4] == 2.0      # average within-block degree of the cycle

    def test_single_block_repnodes_is_master_node(self, c4):
        part = from_blocks(4, [[0, 1, 2, 3]])
        rg = build_rewired(c4, part, Variant.REP_NODES)
        explicit = master_node_adjacency(c4)
        assert np.array_equal(rg.adjacency.indptr, explicit.indptr)
        assert np.array_equal(rg.adjacency.indices, explicit.indices)
        assert np.array_equal(rg.adjacency.data, explicit.data)

    def test_master_node_variant_requires_single_block(self, star4):
        part = refine_eps_be(star4, 0)
        with pytest.raises(DimensionMismatchError):
            build_rewired(star4, part, Variant.MASTER_NODE)

    def test_adjacency_symmetric(self, corpus):
        for _, g in corpus[:8]:
            for variant in (Variant.FULL, Variant.REP_NODES, Variant.REP_EDGES):
                _, rg = rewire(g, 1.0, variant)
                a = rg.adjacency.toarray()
                assert np.abs(a - a.T).max() == 0.0

    def test_virtual_nodes_cover_their_blocks(self, corpus):
        for _, g in corpus[:8]:
            part, rg = rewire(g, 0, Variant.REP_NODES)
            a = rg.adjacency.toarray()
            n = g.num_nodes
            for j, block in enumerate(part.blocks):
                attached = set(np.flatnonzero(a[n + j, :n]))
                assert attached == set(block)


class TestScale:
    def test_exact_roles_stay_sparse(self):
        # ER at eps = 0 has nearly one role per node: one dense n x k int64
        # count array would take ~125 MB here.
        n = 4000
        graph = erdos_renyi(n, rng_for(0, 0), p=4 / n)
        part = color_refinement_oracle(graph)
        assert part.k > 0.9 * n
        tracemalloc.start()
        try:
            qp = quotient(graph, part)
            assert sp.issparse(qp.Q)
            assert qp.Q.nnz <= graph.adjacency.nnz
            assert validate_aep(graph, part, 0.0)
            build_rewired(graph, part, Variant.FULL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * part.k * 8 / 20


class TestVariantRelations:
    def test_removing_virtual_nodes_recovers_original(self, corpus):
        for _, g in corpus[:10]:
            for variant in (Variant.FULL, Variant.REP_NODES, Variant.REP_EDGES):
                _, rg = rewire(g, 1.0, variant)
                n = g.num_nodes
                assert np.array_equal(rg.adjacency.toarray()[:n, :n],
                                      g.dense_adjacency())

    def test_repedges_superset_and_full_same_pattern(self, corpus):
        for _, g in corpus[:10]:
            _, nodes = rewire(g, 0, Variant.REP_NODES)
            _, edges = rewire(g, 0, Variant.REP_EDGES)
            _, full = rewire(g, 0, Variant.FULL)
            a_nodes = nodes.adjacency.toarray() > 0
            a_edges = edges.adjacency.toarray() > 0
            a_full = full.adjacency.toarray() > 0
            assert (a_edges | a_nodes).sum() == a_edges.sum()   # superset
            assert np.array_equal(a_edges, a_full)

    def test_same_block_pairs_within_two_hops(self, corpus):
        for _, g in corpus[:10]:
            part, rg = rewire(g, 1.0, Variant.REP_NODES)
            adj = rg.adjacency
            indptr = adj.indptr.astype(np.int64)
            indices = adj.indices.astype(np.int64)
            for block in part.blocks:
                dist = bfs_distances(indptr, indices, block[0])
                assert all(dist[u] <= 2 for u in block)


class TestFeatures:
    def test_block_diagonal_identity(self):
        out = augment_features(np.eye(2), 2, 1)
        assert np.array_equal(out, np.eye(3))

    def test_featureless_constant_column(self):
        out = augment_features(None, 3, 2)
        expected = np.zeros((5, 3))
        expected[:3, 0] = 1.0
        expected[3:, 1:] = np.eye(2)
        assert np.array_equal(out, expected)

    def test_zero_features_keep_identity_corner(self):
        out = augment_features(np.zeros((2, 3)), 2, 2)
        assert out.shape == (4, 5)
        assert np.count_nonzero(out) == 2
        assert np.array_equal(out[2:, 3:], np.eye(2))

    def test_row_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            augment_features(np.zeros((3, 2)), 2, 1)
        with pytest.raises(DimensionMismatchError):
            dump_augmented_features_csv(np.zeros((3, 2)), 2, 1, io.StringIO())

    @pytest.mark.parametrize("x", [
        None,
        np.array([[-0.0, 1.25], [3e-7, -2.5], [0.0, -7e-7]]),
        np.zeros((3, 0)),
    ], ids=["featureless", "signed-zero-and-tiny", "no-columns"])
    @pytest.mark.parametrize("k", [1, 4])
    def test_csv_bytes_match_dense_array(self, x, k):
        expected, out = io.StringIO(), io.StringIO()
        dump_features_csv(augment_features(x, 3, k), expected)
        dump_augmented_features_csv(x, 3, k, out)
        assert out.getvalue() == expected.getvalue()


class TestRewiredIo:
    def test_round_trip(self, star4):
        _, rg = rewire(star4, 0, Variant.FULL)
        efh, mfh = io.StringIO(), io.StringIO()
        dump_rewired(rg, efh, mfh)
        rows = [line.split() for line in efh.getvalue().splitlines()]
        u, v = (np.array([int(r[i]) for r in rows]) for i in (0, 1))
        w = np.array([float(r[2]) for r in rows])
        back = sp.csr_matrix((w, (u, v)), shape=(rg.size, rg.size))
        assert np.allclose(back.toarray(), sp.triu(rg.adjacency).toarray(),
                           atol=5e-7)    # 6-decimal edge weights

    def test_metadata_fields(self, tmp_path, c4):
        _, rg = rewire(c4, 2.0, Variant.REP_NODES)
        efh, mfh = io.StringIO(), io.StringIO()
        dump_rewired(rg, efh, mfh)
        meta = dict(line.split("=", 1) for line in mfh.getvalue().splitlines())
        assert meta["n"] == "4" and meta["k"] == "1"
        assert meta["variant"] == "repnodes"
        assert float(meta["eps"]) == 2.0
        assert float(meta["residual"]) == 0.0
