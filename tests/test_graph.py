"""Graph container, parsing, percentiles, and neighborhoods."""

import io

import numpy as np
import pytest

from rolewire.errors import EmptyGraphError, ParseError, SelfLoopError
from rolewire.graph import (
    NodeData,
    UNLABELED,
    compact_ids,
    degree_percentile,
    dump_edge_list,
    dump_features_csv,
    dump_labels_csv,
    graph_from_edges,
    is_connected,
    load_edge_list,
    load_features_csv,
    load_labels_csv,
    one_hot_labels,
    two_hop_neighbors,
)

from conftest import cycle_graph, star_graph


def load(text):
    return load_edge_list(io.StringIO(text))


class TestLoadEdgeList:
    def test_two_edge_path(self):
        g = load("0 1\n1 2")
        assert g.num_nodes == 3
        assert list(g.degrees()) == [1, 2, 1]

    def test_symmetric_dedup(self):
        with pytest.warns(UserWarning):
            g = load("0 1\n1 0")
        assert g.num_nodes == 2
        assert list(g.degrees()) == [1, 1]
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            load("0 0")

    def test_non_integer_token(self):
        with pytest.raises(ParseError):
            load("0 x")

    def test_empty_stream(self):
        with pytest.raises(EmptyGraphError):
            load("# only a comment\n")

    def test_comments_and_blank_lines(self):
        g = load("# header\n\n0 1\n# middle\n1 2\n")
        assert g.num_edges == 2

    def test_gap_ids_become_isolated_until_compacted(self):
        g = load("0 5\n")
        assert g.num_nodes == 6
        compacted, remap = compact_ids(g)
        assert compacted.num_nodes == 2
        assert remap == {0: 0, 5: 1}

    def test_round_trip(self):
        with pytest.warns(UserWarning):
            g = load("2 0\n0 1\n1 2\n0 1\n")   # shuffled, one duplicate
        out = io.StringIO()
        dump_edge_list(g, out)
        reparsed = load(out.getvalue())
        assert set(g.edges()) == set(reparsed.edges())
        assert set(g.edges()) == {(0, 1), (0, 2), (1, 2)}


class TestNeighborhoods:
    def test_two_hop_path(self, p3):
        assert two_hop_neighbors(p3, 0) == {2}

    def test_two_hop_complete(self, k4):
        for u in range(4):
            assert two_hop_neighbors(k4, u) == set()

    def test_two_hop_star_leaf(self):
        g = star_graph(3)
        assert two_hop_neighbors(g, 1) == {2, 3}

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_two_hop_disjoint_from_closed_neighborhood(self, n):
        g = cycle_graph(n)
        for u in range(n):
            second = two_hop_neighbors(g, u)
            assert u not in second
            assert not second & set(int(v) for v in g.neighbors(u))


class TestDegreePercentile:
    def test_p0_is_zero(self, p3):
        assert degree_percentile(p3, 0) == 0.0

    def test_p100_is_max(self, p3):
        assert degree_percentile(p3, 100) == 2.0

    def test_nearest_rank_star(self):
        g = star_graph(4)   # sorted degrees [1, 1, 1, 1, 4]
        assert degree_percentile(g, 50) == 1.0

    def test_monotone_in_p(self, corpus):
        for _, g in corpus[:20]:
            values = [degree_percentile(g, p) for p in (0, 25, 50, 75, 100)]
            assert values == sorted(values)

    def test_rejects_off_grid(self, p3):
        with pytest.raises(ValueError):
            degree_percentile(p3, 10)


class TestDegreeStats:
    def test_consistency(self, corpus):
        for _, g in corpus[:10]:
            deg = g.degrees()
            assert deg.sum() == 2 * g.num_edges
            assert deg.max(initial=0) <= g.num_nodes - 1


class TestNodeData:
    def test_disjoint_masks_enforced(self):
        both = np.array([True, False])
        with pytest.raises(ValueError):
            NodeData(num_nodes=2, labels=np.array([0, 0]),
                     train_mask=both, val_mask=both)

    def test_masked_needs_label(self):
        with pytest.raises(ValueError):
            NodeData(num_nodes=2, labels=np.array([0, UNLABELED]),
                     train_mask=np.array([False, True]))

    def test_labels_csv_round_trip(self):
        data = NodeData(
            num_nodes=4,
            labels=np.array([0, 1, UNLABELED, 2]),
            train_mask=np.array([True, False, False, False]),
            val_mask=np.array([False, True, False, False]),
            test_mask=np.array([False, False, False, True]),
        )
        out = io.StringIO()
        dump_labels_csv(data, out)
        back = load_labels_csv(io.StringIO(out.getvalue()), 4)
        assert np.array_equal(back.labels, data.labels)
        assert np.array_equal(back.train_mask, data.train_mask)
        assert np.array_equal(back.val_mask, data.val_mask)
        assert np.array_equal(back.test_mask, data.test_mask)

    def test_negative_label_rejected(self):
        text = "node,label,split\n0,,none\n1,-2,train\n"
        with pytest.raises(ParseError, match="line 3"):
            load_labels_csv(io.StringIO(text), 2)
        back = load_labels_csv(io.StringIO(text.replace("-2", "1")), 2)
        assert back.labels.tolist() == [UNLABELED, 1]

    def test_features_csv_round_trip(self):
        x = np.array([[1.25, -2.0], [0.0, 3.5]])
        out = io.StringIO()
        dump_features_csv(x, out)
        back = load_features_csv(io.StringIO(out.getvalue()), 2)
        assert np.allclose(back, x)

    def test_one_hot_masks_rows(self):
        labels = np.array([0, 1, 1, UNLABELED])
        mask = np.array([True, True, False, False])
        y = one_hot_labels(labels, mask)
        assert y.shape == (4, 2)
        assert y[0, 0] == 1.0 and y[1, 1] == 1.0
        assert not y[2:].any()


class TestConnectivity:
    def test_connected(self, c4):
        assert is_connected(c4)

    def test_disconnected(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        assert not is_connected(g)

    def test_single_node(self):
        assert is_connected(graph_from_edges(1, []))
