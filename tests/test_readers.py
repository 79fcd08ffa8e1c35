"""The reader contract every text input shares.

Five readers parse text: the edge list, the labels, features and
partition tables, and the score tables `srl-correlate` reads. They share
one row reader (`graph.table_rows`: line numbers, comment and blank
lines, field counts) and, for node tables, one node-id check
(`graph.node_ids`). So one table of single-fault inputs holds for all of
them: the library raises a ParseError naming the faulty line, and the CLI
exits 3 with one `ERR:INPUT:` line naming the same line.
"""

import io
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from rolewire.cli import _read_percentile_table, main
from rolewire.errors import ParseError
from rolewire.graph import MAX_NODE_ID, load_edge_list, load_features_csv, load_labels_csv
from rolewire.partition import Partition, load_partition_csv

# Each reader's text before the faulty row: a header where it has one and a
# comment, so the faulty row is on line 4 (line 3 for the headerless edge
# list), and rows for nodes 0 and 1 of a four-node table.
FAULTY_LINE = {"edges": 3, "labels": 4, "features": 4, "partition": 4, "table": 4}
PREFIX = {
    "edges": "0 1\n# comment\n",
    "labels": "node,label,split\n# comment\n0,0,train\n",
    "features": "node,f0\n# comment\n0,1.5\n",
    "partition": "node,block\n# comment\n0,0\n",
    "table": "percentile,srl_star\n# comment\n0,0.5\n",
}
SUFFIX = {
    "edges": "2 3\n",
    "labels": "2,1,val\n3,,none\n",
    "features": "2,0.5\n3,0.5\n",
    "partition": "2,1\n3,1\n",
    "table": "50,0.2\n100,0.3\n",
}
# The faulty row per fault and reader; a reader with no such fault is absent
# (an edge list may repeat a node, and a score table takes any percentile).
FAULTS = {
    "short-row": {"edges": "1", "labels": "1,0", "features": "1",
                  "partition": "1", "table": "25"},
    "long-row": {"edges": "1 2 3", "labels": "1,0,train,x", "features": "1,0.5,2",
                 "partition": "1,0,2", "table": "25,0.1,2"},
    "non-integer-id": {"edges": "1 x", "labels": "x,0,train", "features": "1.5,0.5",
                       "partition": "x,0", "table": "x,0.1"},
    "negative-id": {"edges": "1 -2", "labels": "-1,0,train", "features": "-1,0.5",
                    "partition": "-1,0"},
    "out-of-range-id": {"edges": f"1 {MAX_NODE_ID + 1}", "labels": "4,0,train",
                        "features": "4,0.5", "partition": "4,0"},
    "duplicate-id": {"labels": "0,1,test", "features": "0,0.5", "partition": "0,1",
                     "table": "0,0.1"},
}
CASES = [pytest.param(reader, PREFIX[reader] + row + "\n" + SUFFIX[reader],
                      id=f"{reader}-{fault}")
         for fault, rows in FAULTS.items() for reader, row in rows.items()]


def load(reader, text, tmp_path=None):
    """The reader's library entry point on `text`."""
    stream = io.StringIO(text)
    if reader == "edges":
        return load_edge_list(stream)
    if reader == "labels":
        return load_labels_csv(stream, 4)
    if reader == "features":
        return load_features_csv(stream, 4)
    if reader == "partition":
        return load_partition_csv(stream)
    path = tmp_path / "table.csv"
    path.write_text(text)
    return _read_percentile_table(str(path), "srl_star")


def cli_argv(reader, path, good):
    """A CLI call that reads `path` with the reader; `good` holds valid inputs."""
    if reader == "edges":
        return ["partition", "--graph", path, "--eps", "0"]
    if reader == "labels":
        return ["select-eps", "--graph", good / "graph.txt", "--labels", path]
    if reader == "features":
        return ["rewire", "--graph", good / "graph.txt", "--eps", "0",
                "--variant", "repnodes", "--features", path]
    return ["srl-correlate", "--table", path, "--accuracy", good / "accuracy.csv"]


@pytest.fixture
def good(tmp_path):
    """A four-node path graph and an accuracy table, both valid."""
    root = tmp_path / "good"
    root.mkdir()
    (root / "graph.txt").write_text("0 1\n1 2\n2 3\n")
    (root / "accuracy.csv").write_text("percentile,accuracy\n0,0.1\n50,0.2\n100,0.3\n")
    return root


@pytest.mark.parametrize("reader, text", CASES)
def test_single_fault_names_its_line(tmp_path, reader, text):
    with pytest.raises(ParseError, match=f"line {FAULTY_LINE[reader]}: "):
        load(reader, text, tmp_path)


@pytest.mark.parametrize("reader, text", [c for c in CASES if c.values[0] != "partition"])
def test_single_fault_is_one_err_input_line(tmp_path, capsys, good, reader, text):
    """No verb reads a partition back, so the partition cases are library-only."""
    path = tmp_path / "input.txt"
    path.write_text(text)
    out = tmp_path / "o"
    argv = [str(a) for a in cli_argv(reader, path, good)] + ["--out", str(out)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("ERR:INPUT: ") and captured.err.count("\n") == 1
    assert f"line {FAULTY_LINE[reader]}: " in captured.err
    assert not out.exists()


# ---------------------------------------------------------------------------
# Row order, comments and blank lines do not change what a reader loads
# ---------------------------------------------------------------------------

HEADERS = {"labels": "node,label,split", "features": "node,f0,f1",
           "partition": "node,block", "table": "percentile,srl_star"}
SPLITS = ("train", "val", "test", "none")


@st.composite
def tables(draw):
    """A valid input for one reader: (reader, header or None, data rows)."""
    reader = draw(st.sampled_from(["edges", "labels", "features", "partition", "table"]))
    n = 4
    if reader == "edges":
        pairs = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5))
                              .filter(lambda e: e[0] != e[1]), min_size=1, max_size=10))
        return reader, None, [f"{u} {v}" for u, v in pairs]
    if reader == "labels":
        nodes = draw(st.lists(st.integers(0, n - 1), unique=True))
        rows = []
        for u in nodes:
            split = draw(st.sampled_from(SPLITS))
            label = draw(st.integers(0, 2)) if split != "none" else \
                draw(st.sampled_from(["", "1"]))
            rows.append(f"{u},{label},{split}")
        return reader, HEADERS[reader], rows
    if reader == "features":
        values = st.floats(-1e6, 1e6, allow_nan=False)
        return reader, HEADERS[reader], [f"{u},{draw(values)!r},{draw(values)!r}"
                                         for u in range(n)]
    if reader == "partition":
        size = draw(st.integers(1, 6))
        return reader, HEADERS[reader], [f"{u},{draw(st.integers(-3, 3))}"
                                         for u in range(size)]
    percentiles = draw(st.lists(st.integers(0, 100), unique=True, min_size=1, max_size=5))
    return reader, HEADERS[reader], [f"{p},{draw(st.floats(0, 1))!r}" for p in percentiles]


def loaded(reader, text, tmp_path):
    """What the reader loads, in a form `==` compares."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # collapsed duplicate edge mentions
        got = load(reader, text, tmp_path)
    if reader == "edges":
        return got.indptr.tolist(), got.indices.tolist()
    if reader == "labels":
        return [m.tolist() for m in (got.labels, got.train_mask, got.val_mask, got.test_mask)]
    if reader == "features":
        return got.tolist()
    if isinstance(got, Partition):
        return got.block_of.tolist(), got.k
    return got


@settings(max_examples=200, deadline=None)
@given(case=tables(), data=st.data())
def test_order_comments_and_blank_lines_load_the_same(tmp_path_factory, case, data):
    reader, header, rows = case
    tmp_path = tmp_path_factory.mktemp("t")
    clean = "".join(line + "\n" for line in ([header] if header else []) + rows)
    noise = st.sampled_from(["", "   ", "# a comment", "#", "  # indented, 1,2,3"])
    lines = [data.draw(noise) for _ in range(data.draw(st.integers(0, 3)))]
    if header:
        lines.append(header)
    for row in data.draw(st.permutations(rows)):
        lines.extend(data.draw(noise) for _ in range(data.draw(st.integers(0, 2))))
        lines.append(row)
    noisy = "".join(line + "\n" for line in lines)
    assert loaded(reader, noisy, tmp_path) == loaded(reader, clean, tmp_path)


def test_select_eps_reads_commented_labels_alike(tmp_path, capsys):
    """Comments and blank lines in labels.csv change no output byte."""
    assert main(["gen", "--family", "tree", "--n", "31", "--classes", "3",
                 "--out", str(tmp_path / "g")]) == 0
    clean = tmp_path / "g" / "labels.csv"
    header, *rows = clean.read_text().splitlines()
    noisy = tmp_path / "noisy.csv"
    noisy.write_text("# labels\n\n" + header + "\n" + "".join(
        f"{row}\n" + ("# every third row\n\n" if i % 3 == 0 else "")
        for i, row in enumerate(rows)))
    outputs = []
    for labels in (clean, noisy):
        out = tmp_path / labels.stem
        capsys.readouterr()
        assert main(["select-eps", "--graph", str(tmp_path / "g" / "graph.txt"),
                     "--labels", str(labels), "--out", str(out)]) == 0
        outputs.append(((out / "candidates.csv").read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
