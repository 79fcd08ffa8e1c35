"""Augmented adjacency block structure, features, and file round trips."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rolewire.errors import DimensionMismatchError, InputError, ParseError
from rolewire.graph import bfs_distances
from rolewire.partition import Partition, membership_matrix, refine_eps_be
from rolewire.rewire import (
    Variant,
    augment_features,
    build_rewired,
    dump_rewired,
    load_rewired,
)

from conftest import master_node_adjacency



def rewire(graph, eps, variant, features=None):
    part = refine_eps_be(graph, eps)
    return part, build_rewired(graph, part, variant, features=features, eps=eps)


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
        part = Partition.from_blocks(4, [[0, 1, 2, 3]])
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


class TestRewiredIo:
    def test_round_trip(self, tmp_path, star4):
        _, rg = rewire(star4, 0, Variant.FULL)
        edge_path = tmp_path / "rewired.txt"
        meta_path = tmp_path / "rewired.meta"
        with open(edge_path, "w") as efh, open(meta_path, "w") as mfh:
            dump_rewired(rg, efh, mfh)
        back = load_rewired(edge_path, meta_path)
        assert back.origin_count == 4 and back.virtual_count == 2
        assert back.variant is Variant.FULL
        assert np.allclose(back.adjacency.toarray(), rg.adjacency.toarray(),
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


def write_rewired(tmp_path, edges, meta):
    edge_path, meta_path = tmp_path / "rewired.txt", tmp_path / "rewired.meta"
    edge_path.write_text(edges)
    meta_path.write_text(meta)
    return edge_path, meta_path


# a star on nodes 0..2 (hub 0) with one virtual node 3 linked to all three
GOOD_EDGES = "0 1 1.000000\n0 2 1.000000\n0 3 1.000000\n1 3 1.000000\n2 3 1.000000\n"
GOOD_META = "n=3\nk=1\nvariant=repnodes\neps=2.0\nresidual=0.0\n"


class TestRewiredLoadErrors:
    def test_good_files_load(self, tmp_path):
        rg = load_rewired(*write_rewired(tmp_path, GOOD_EDGES, GOOD_META))
        assert rg.size == 4 and rg.adjacency.nnz == 10
        assert rg.variant is Variant.REP_NODES

    @pytest.mark.parametrize("meta", [
        "k=1\nvariant=repnodes\neps=2.0\nresidual=0.0\n",          # n missing
        "n=3\nvariant=repnodes\neps=2.0\nresidual=0.0\n",          # k missing
        "n=3\nk=1\nvariant=repnodes\nresidual=0.0\n",              # eps missing
    ], ids=["no-n", "no-k", "no-eps"])
    def test_missing_metadata(self, tmp_path, meta):
        with pytest.raises(ParseError):
            load_rewired(*write_rewired(tmp_path, GOOD_EDGES, meta))

    @pytest.mark.parametrize("meta", [
        "n=three\nk=1\nvariant=repnodes\neps=2.0\nresidual=0.0\n",
        "n=3\nk=1.5\nvariant=repnodes\neps=2.0\nresidual=0.0\n",
        "n=3\nk=-1\nvariant=repnodes\neps=2.0\nresidual=0.0\n",
        "n=3\nk=1\nvariant=bogus\neps=2.0\nresidual=0.0\n",
        "n=3\nk=1\nvariant=repnodes\neps=two\nresidual=0.0\n",
    ], ids=["n-word", "k-float", "k-negative", "variant-unknown", "eps-word"])
    def test_bad_metadata_values(self, tmp_path, meta):
        with pytest.raises(ParseError):
            load_rewired(*write_rewired(tmp_path, GOOD_EDGES, meta))

    @pytest.mark.parametrize("line", ["0 4 1.0", "-1 2 1.0", "7 0 1.0"])
    def test_endpoint_out_of_range(self, tmp_path, line):
        with pytest.raises(ParseError):
            load_rewired(*write_rewired(tmp_path, GOOD_EDGES + line + "\n", GOOD_META))

    @pytest.mark.parametrize("line", ["0 1", "0", "0 1 1.0 2.0"])
    def test_short_or_long_line(self, tmp_path, line):
        with pytest.raises(ParseError):
            load_rewired(*write_rewired(tmp_path, GOOD_EDGES + line + "\n", GOOD_META))

    @pytest.mark.parametrize("line", ["0 x 1.0", "0 1.5 1.0", "0 1 heavy", "0 1 nan"])
    def test_non_numeric_line(self, tmp_path, line):
        with pytest.raises(ParseError):
            load_rewired(*write_rewired(tmp_path, GOOD_EDGES + line + "\n", GOOD_META))

    def test_node_count_disagrees_with_edges(self, tmp_path):
        meta = GOOD_META.replace("k=1", "k=2")      # node 4 would have no edge
        with pytest.raises(ParseError):
            load_rewired(*write_rewired(tmp_path, GOOD_EDGES, meta))

    def test_feature_rows_disagree_with_n(self, tmp_path):
        with pytest.raises(DimensionMismatchError):
            load_rewired(*write_rewired(tmp_path, GOOD_EDGES, GOOD_META),
                         features=np.ones((4, 1)))

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(st.lists(st.sampled_from(["0", "1", "3", "4", "-1", "x", "1.5", "inf"]),
                                   max_size=4), max_size=6),
           n=st.sampled_from(["3", "0", "x", "10000000000000"]))
    def test_any_text_gives_graph_or_input_error(self, tmp_path_factory, lines, n):
        edges = "".join(" ".join(line) + "\n" for line in lines)
        meta = GOOD_META.replace("n=3", "n=" + n)
        paths = write_rewired(tmp_path_factory.mktemp("fuzz"), edges, meta)
        try:
            rg = load_rewired(*paths)
        except InputError:
            return
        assert (rg.adjacency != rg.adjacency.T).nnz == 0
