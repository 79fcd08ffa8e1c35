"""Graph container, parsing, percentiles, and neighborhoods."""

import io
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import rolewire.graph
import rolewire.spectral
from rolewire.errors import (EmptyGraphError, InputError, NonSymmetricError, ParseError,
                             SelfLoopError)
from rolewire.graph import (
    MAX_NODE_ID,
    NodeData,
    UNLABELED,
    compact_ids,
    degree_percentile,
    dump_edge_list,
    dump_labels_csv,
    graph_from_edges,
    load_edge_list,
    load_features_csv,
    load_labels_csv,
    normalized_shift,
    one_hot_labels,
)
from rolewire.metrics import mean_effective_resistance
from rolewire.spectral import symmetric_eig
from rolewire.teacher_student import LinearGnnWeights, forward

from conftest import cycle_graph, dump_features_csv, is_connected, star_graph, two_hop_neighbors


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

    @pytest.mark.parametrize("big", [2**63, 10**20])
    def test_node_id_too_large(self, big):
        with pytest.raises(ParseError, match="^line 3: node id above 3037000498 "):
            load(f"0 1\n# c\n{big} 1\n")

    def test_empty_stream(self):
        with pytest.raises(EmptyGraphError):
            load("# only a comment\n")

    def test_comments_and_blank_lines(self):
        g = load("# header\n\n0 1\n# middle\n1 2\n")
        assert g.num_edges == 2

    def test_gap_ids_become_isolated_until_compacted(self):
        g = load("0 5\n")
        assert g.num_nodes == 6
        compacted, kept = compact_ids(g)
        assert compacted.num_nodes == 2
        assert kept.dtype == np.int64 and np.array_equal(kept, [0, 5])

    def test_round_trip(self):
        with pytest.warns(UserWarning):
            g = load("2 0\n0 1\n1 2\n0 1\n")   # shuffled, one duplicate
        out = io.StringIO()
        dump_edge_list(g, out)
        reparsed = load(out.getvalue())
        assert set(g.edges()) == set(reparsed.edges())
        assert set(g.edges()) == {(0, 1), (0, 2), (1, 2)}


def four_cycle(weight_01=1.0) -> np.ndarray:
    """The 4-cycle's adjacency with entry (0, 1) and its mirror set to `weight_01`."""
    a = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=float)
    a[0, 1] = a[1, 0] = weight_01
    return a


ONE_SIDED = four_cycle()
ONE_SIDED[0, 1] = 3.0


def skewed(asymmetry):
    """The 4-cycle scaled to max |m| = 1000, with entry (0, 1) off its
    mirror by `asymmetry` times that scale."""
    a = 1000.0 * four_cycle()
    a[0, 1] += asymmetry * 1000.0
    return a


# (input, the class every entry point that takes it raises or None where
# each accepts it, whether it is a weighted adjacency only: a general
# symmetric matrix may be negative or huge)
GATE_CASES = {
    "asymmetric-4-cycle": (ONE_SIDED, NonSymmetricError, False),
    "nan-weight": (four_cycle(np.nan), ValueError, False),
    "inf-weight": (four_cycle(np.inf), ValueError, False),
    "negative-weight": (four_cycle(-1.0), ValueError, True),
    "non-square": (four_cycle()[:3], NonSymmetricError, False),
    "1e308-weights": (1e308 * four_cycle(), ValueError, True),
    "nan-off-diagonal": (np.array([[1.0, np.nan], [np.nan, 2.0]]), ValueError, False),
    "asymmetry-5e-13-of-scale": (skewed(5e-13), None, False),
    "asymmetry-2e-12-of-scale": (skewed(2e-12), NonSymmetricError, False),
}
FORMS = {"dense": np.asarray, "csr": sp.csr_matrix}
# (call, the forms it accepts, whether it takes weighted adjacencies)
ENTRY_POINTS = {
    "require_symmetric": (lambda m: rolewire.graph.require_symmetric(m, "matrix"),
                          ("dense", "csr"), False),
    "normalized_shift": (normalized_shift, ("dense", "csr"), True),
    "mean_effective_resistance": (mean_effective_resistance, ("dense", "csr"), True),
    "symmetric_eig": (symmetric_eig, ("dense",), False),
    "forward": (lambda m: forward(m, np.ones((m.shape[0], 1)),
                                  LinearGnnWeights(layers=(np.ones((1, 1)),))),
                ("dense", "csr"), False),
}


class TestMatrixGate:
    """Every matrix a caller hands the library passes one gate in graph.py,
    whether it comes dense or sparse."""

    @pytest.mark.parametrize("case,entry,form", [
        (case, entry, form) for case, (_, _, weights_only) in GATE_CASES.items()
        for entry, (_, forms, takes_weights) in ENTRY_POINTS.items()
        if takes_weights or not weights_only for form in forms])
    def test_each_input_meets_its_rule(self, case, entry, form):
        matrix, error, _ = GATE_CASES[case]
        call, _, _ = ENTRY_POINTS[entry]
        if error is None:
            call(FORMS[form](matrix))
            return
        with pytest.raises(error) as caught:
            call(FORMS[form](matrix))
        assert caught.type is error

    def test_symmetric_eig_refuses_an_overflowing_norm(self):
        """Finite entries whose Frobenius norm overflows would pass the
        convergence test before any sweep."""
        with pytest.raises(ValueError, match="norm overflows"):
            symmetric_eig(1e308 * four_cycle())

    def test_spectral_reexports_normalized_shift(self):
        assert rolewire.spectral.normalized_shift is rolewire.graph.normalized_shift


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
                     train_mask=both, val_mask=both, test_mask=np.zeros(2, dtype=bool))

    def test_masked_needs_label(self):
        with pytest.raises(ValueError):
            NodeData(num_nodes=2, labels=np.array([0, UNLABELED]),
                     train_mask=np.array([False, True]),
                     val_mask=np.zeros(2, dtype=bool), test_mask=np.zeros(2, dtype=bool))

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

    @pytest.mark.parametrize("big", [2**63, 10**20])
    def test_label_outside_int64_rejected(self, big):
        text = f"node,label,split\n0,,none\n1,{big},train\n"
        with pytest.raises(ParseError, match="line 3"):
            load_labels_csv(io.StringIO(text), 2)

    @pytest.mark.parametrize("second", ["0,1,test", "0,1,train", "0,0,none"])
    def test_label_row_listed_twice_rejected(self, second):
        text = f"node,label,split\n0,0,train\n{second}\n"
        with pytest.raises(ParseError, match="^line 3: node 0 listed twice"):
            load_labels_csv(io.StringIO(text), 2)

    def test_split_needs_a_label(self):
        text = "node,label,split\n0,1,none\n1,,val\n"
        with pytest.raises(ParseError, match="^line 3: node 1 is in split 'val'"):
            load_labels_csv(io.StringIO(text), 2)

    def test_feature_row_listed_twice_rejected(self):
        text = "node,f0\n0,1.0\n1,2.0\n0,3.0\n"
        with pytest.raises(ParseError, match="^line 4: node 0 listed twice"):
            load_features_csv(io.StringIO(text), 2)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_feature_rejected(self, value):
        text = f"node,f0,f1\n0,1.0,2.0\n1,0.5,{value}\n"
        with pytest.raises(ParseError, match="^line 3: non-finite"):
            load_features_csv(io.StringIO(text), 2)

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


# ---------------------------------------------------------------------------
# Parser fuzz: any text gives a result or an InputError, never another error
# ---------------------------------------------------------------------------

# Valid ids stay small, so no draw allocates a large graph; the ids just
# above the limits check the range errors.
IDS = ["0", "1", "2", "-1", "x", "1.5", "", str(MAX_NODE_ID + 1), str(2**63), "\u0663"]
VALUES = ["0", "2", "-1.5", "", "x", "nan", "inf", "-inf", "1e400", str(2**63)]
SPLITS = ["train", "val", "test", "none", "", "bogus"]
ANY = st.sampled_from(IDS + VALUES + SPLITS + ["#"])


@st.composite
def node_rows(draw, *fields):
    """One row per node 0..n-1 in a drawn order, the other fields drawn from
    `fields`, then up to two edits: a junk row inserted, a node listed
    again with fresh fields, or a row dropped."""
    n = draw(st.integers(1, 3))
    rows = [[str(u)] + [draw(st.sampled_from(f)) for f in fields]
            for u in draw(st.permutations(range(n)))]
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["junk", "again", "drop"]))
        at = draw(st.integers(0, len(rows)))
        if edit == "junk":
            rows.insert(at, draw(st.lists(ANY, max_size=4)))
        elif edit == "again":
            rows.insert(at, [str(draw(st.integers(0, n - 1)))]
                        + [draw(st.sampled_from(f)) for f in fields])
        elif rows:
            rows.pop(at % len(rows))
    return n, "".join(",".join(r) + "\n" for r in rows)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.one_of(st.tuples(ANY, ANY).map(list), st.lists(ANY, max_size=4)),
                     max_size=6),
       sep=st.sampled_from([" ", "\t", ","]))
def test_any_text_gives_edge_list_or_input_error(rows, sep):
    text = "".join(sep.join(r) + "\n" for r in rows)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # collapsed duplicate mentions
            g = load(text)
    except InputError:
        return
    assert all(0 <= u < v < g.num_nodes for u, v in g.edges())


@settings(max_examples=200, deadline=None)
@given(case=node_rows(VALUES, SPLITS))
def test_any_text_gives_labels_or_input_error(case):
    n, body = case
    try:
        data = load_labels_csv(io.StringIO("node,label,split\n" + body), n)
    except InputError:
        return
    assert len(data.labels) == n
    assert not (data.train_mask & data.val_mask).any()
    assert (data.labels[data.train_mask | data.val_mask | data.test_mask]
            != UNLABELED).all()


@settings(max_examples=200, deadline=None)
@given(header=st.sampled_from(["node,f0", "node", "id,f0", ""]), case=node_rows(VALUES))
def test_any_text_gives_features_or_input_error(header, case):
    n, body = case
    try:
        x = load_features_csv(io.StringIO(header + "\n" + body), n)
    except InputError:
        return
    assert x.shape == (n, len(header.split(",")) - 1)
    assert np.isfinite(x).all()
