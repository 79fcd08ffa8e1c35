"""The one writer every output file goes through.

`graph.fixed` is the one number format, `graph.write_table` writes every
table (header, rows, `# key=value` footer) and `graph.write_meta` every
`key=value` sidecar. What the table writers emit reads back through the
matching loader as an equal object.
"""

import io
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import rolewire
from rolewire.graph import (
    NodeData,
    UNLABELED,
    dump_edge_list,
    dump_labels_csv,
    fixed,
    graph_from_edges,
    load_edge_list,
    load_labels_csv,
    write_meta,
    write_table,
)
from rolewire.partition import Partition, dump_partition_csv, load_partition_csv

SOURCES = sorted(Path(rolewire.__file__).parent.glob("*.py"))


def written(writer, *args) -> str:
    stream = io.StringIO()
    writer(*args, stream)
    return stream.getvalue()


class TestWriteTable:
    def test_header_rows_and_footer(self):
        stream = io.StringIO()
        write_table(stream, "a,b", [["1", fixed(0.5)], ["2", fixed(2.0)]],
                    footer=[("rho", 1 / 3), ("srl", 0.0)])
        assert stream.getvalue() == ("a,b\n1,0.500000\n2,2.000000\n"
                                     "# rho=0.333333\n# srl=0.000000\n")

    def test_headerless_with_a_separator(self):
        stream = io.StringIO()
        write_table(stream, None, iter([("0", "1"), ("1", "2")]), sep=" ")
        assert stream.getvalue() == "0 1\n1 2\n"

    def test_empty_table_is_its_header(self):
        stream = io.StringIO()
        write_table(stream, "node,block", [])
        assert stream.getvalue() == "node,block\n"


class TestWriteMeta:
    def test_floats_are_reprs_of_python_floats(self):
        stream = io.StringIO()
        write_meta(stream, {"eps": np.float64(0.1), "residual": 1e-300, "inf": float("inf"),
                            "k": 3, "n": np.int64(7), "percentile": None,
                            "variant": "full"})
        assert stream.getvalue() == ("eps=0.1\nresidual=1e-300\ninf=inf\nk=3\nn=7\n"
                                     "percentile=\nvariant=full\n")


def test_the_number_format_has_one_owner():
    """Six-decimal cells are formatted only by `fixed`, and no module
    spells a formatted number out as a literal."""
    texts = [path.read_text() for path in SOURCES]
    assert sum(text.count(":.6f") for text in texts) == 1
    assert not any(literal in text for text in texts
                   for literal in ('"0.000000"', '"1.000000"'))


# ---------------------------------------------------------------------------
# Round trips: each table writer's output loads back as an equal object
# ---------------------------------------------------------------------------

ROUND_TRIP = settings(max_examples=100, deadline=None)


@ROUND_TRIP
@given(edges=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40))
                      .filter(lambda e: e[0] != e[1]), min_size=1, max_size=60))
def test_edge_list_round_trip(edges):
    graph = graph_from_edges(max(map(max, edges)) + 1, edges)
    back = load_edge_list(io.StringIO(written(dump_edge_list, graph)))
    assert np.array_equal(back.indptr, graph.indptr)
    assert np.array_equal(back.indices, graph.indices)


@st.composite
def node_data(draw, max_nodes=30):
    """Labels in [0, 2**63) or none, each labeled node in any split and
    each unlabeled one in none."""
    n = draw(st.integers(1, max_nodes))
    labels = draw(st.lists(st.one_of(st.just(UNLABELED), st.integers(0, 2**63 - 1)),
                           min_size=n, max_size=n))
    splits = np.array([0 if label == UNLABELED else draw(st.integers(0, 3))
                       for label in labels])
    return NodeData(num_nodes=n, labels=np.array(labels, dtype=np.int64),
                    train_mask=splits == 1, val_mask=splits == 2, test_mask=splits == 3)


@ROUND_TRIP
@given(data=node_data())
def test_labels_round_trip(data):
    back = load_labels_csv(io.StringIO(written(dump_labels_csv, data)), data.num_nodes)
    for field in ("labels", "train_mask", "val_mask", "test_mask"):
        assert np.array_equal(getattr(back, field), getattr(data, field)), field


@ROUND_TRIP
@given(assignment=st.lists(st.integers(0, 6), min_size=1, max_size=40))
def test_partition_round_trip(assignment):
    partition = Partition.from_assignment(np.array(assignment, dtype=np.int64))
    back = load_partition_csv(io.StringIO(written(dump_partition_csv, partition)))
    assert back.k == partition.k
    assert np.array_equal(back.block_of, partition.block_of)
