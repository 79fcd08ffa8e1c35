"""Command parsing, verb behavior, exit codes, and reproducibility."""

import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rolewire
from rolewire import cli
from rolewire.cli import main, parse_args
from rolewire.errors import UsageError
from rolewire.generators import FAMILIES, make_graph
from rolewire.graph import Graph, dump_edge_list
from rolewire.partition import refine_eps_be
from rolewire.rewire import Variant, build_rewired

from conftest import mean_effective_resistance_oracle


def run(argv, capsys=None):
    code = main([str(a) for a in argv])
    if capsys is not None:
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return code


def tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


@pytest.fixture
def star_files(tmp_path):
    code = main(["gen", "--family", "star", "--n", "4", "--classes", "2",
                 "--out", str(tmp_path / "g")])
    assert code == 0
    return tmp_path / "g"


class TestParseArgs:
    def test_rewire_command(self):
        ns = parse_args(["rewire", "--graph", "g.txt", "--eps", "0",
                         "--variant", "repnodes", "--out", "o"])
        assert ns.verb == "rewire"
        assert ns.variant == "repnodes"
        assert ns.seed == 0

    def test_bogus_variant(self):
        with pytest.raises(UsageError):
            parse_args(["rewire", "--graph", "g.txt", "--eps", "0",
                        "--variant", "bogus", "--out", "o"])

    def test_unknown_flag(self):
        with pytest.raises(UsageError):
            parse_args(["gen", "--family", "star", "--n", "4", "--out", "o",
                        "--frobnicate", "1"])

    def test_verb_required(self):
        with pytest.raises(UsageError):
            parse_args([])

    def test_eps_percentile_exclusive(self):
        with pytest.raises(UsageError):
            parse_args(["partition", "--graph", "g", "--eps", "1",
                        "--percentile", "50", "--out", "o"])

    def test_eps_or_percentile_required(self):
        with pytest.raises(UsageError):
            parse_args(["partition", "--graph", "g", "--out", "o"])

    def test_select_eps_needs_no_tolerance(self):
        # valid without --out or --eps; the percentile grid is implicit
        ns = parse_args(["select-eps", "--graph", "g.txt", "--labels", "y.csv"])
        assert ns.verb == "select-eps"
        assert ns.out is None

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["--help"])
        assert err.value.code == 0

    def test_parser_is_built_once(self, monkeypatch, capsys, star_files):
        def rebuild():
            raise AssertionError("the parser was rebuilt")
        monkeypatch.setattr(cli, "_build_parser", rebuild)
        code, _, err = run(["select-eps", "--graph", star_files / "graph.txt",
                            "--labels", star_files / "labels.csv"], capsys)
        assert code == 0, err

    def test_negative_eps_rejected(self):
        with pytest.raises(UsageError):
            parse_args(["partition", "--graph", "g", "--eps", "-1",
                        "--out", "o"])


# One valid command line per verb ({g} is the star fixture; a test that runs
# srl-correlate writes its two tables there), to which a test appends one flag.
SEEDED_ARGV = [
    ["gen", "--family", "er", "--n", "10", "--classes", "2"],
    ["partition", "--graph", "{g}/graph.txt", "--eps", "0"],
    ["rewire", "--graph", "{g}/graph.txt", "--eps", "0", "--variant", "repnodes"],
    ["srl", "--graph", "{g}/graph.txt", "--labels", "{g}/labels.csv", "--eps", "0"],
    ["select-eps", "--graph", "{g}/graph.txt", "--labels", "{g}/labels.csv"],
    ["effres", "--graph", "{g}/graph.txt"],
    ["ts-sim", "--n", "6", "--epochs", "5"],
    ["srl-correlate", "--table", "{g}/scores.csv", "--accuracy", "{g}/accuracy.csv"],
]


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        code, _, err = run(["rewire", "--variant", "bogus"], capsys)
        assert code == 2
        assert err.startswith("ERR:USAGE:")

    def test_missing_file_is_3(self, tmp_path, capsys):
        code, _, err = run(["partition", "--graph", tmp_path / "nope.txt",
                            "--eps", "0", "--out", tmp_path / "o"], capsys)
        assert code == 3
        assert err.startswith("ERR:INPUT:")

    def test_disconnected_effres_is_3(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n2 3\n")
        code, _, err = run(["effres", "--graph", graph], capsys)
        assert code == 3

    def test_zero_variance_correlation_is_4(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("percentile,srl_star\n0,0.5\n50,0.5\n100,0.5\n")
        acc = tmp_path / "a.csv"
        acc.write_text("percentile,accuracy\n0,0.1\n50,0.2\n100,0.3\n")
        code, _, err = run(["srl-correlate", "--table", table,
                            "--accuracy", acc], capsys)
        assert code == 4
        assert err.startswith("ERR:NUMERIC:")

    def test_missing_features_is_3(self, tmp_path, capsys, star_files):
        code, _, err = run(["rewire", "--graph", star_files / "graph.txt",
                            "--eps", "0", "--variant", "repnodes",
                            "--features", tmp_path / "nonexistent",
                            "--out", tmp_path / "o"], capsys)
        assert code == 3
        assert err.startswith("ERR:INPUT:") and err.count("\n") == 1

    def test_short_table_row_is_3(self, tmp_path, capsys):
        table = tmp_path / "candidates.csv"
        table.write_text("percentile,eps,k,srl,rho,ncs2,srl_star,selected\n0,0,3\n")
        acc = tmp_path / "a.csv"
        acc.write_text("percentile,accuracy\n0,0.1\n50,0.2\n")
        code, _, err = run(["srl-correlate", "--table", table,
                            "--accuracy", acc], capsys)
        assert code == 3
        assert err.startswith("ERR:INPUT:") and err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["srl", "select-eps"])
    def test_negative_label_is_3(self, tmp_path, capsys, star_files, verb):
        labels = tmp_path / "labels.csv"
        labels.write_text("node,label,split\n0,0,train\n1,-2,train\n2,1,val\n3,,none\n")
        argv = [verb, "--graph", star_files / "graph.txt", "--labels", labels]
        if verb == "srl":
            argv += ["--eps", "0", "--out", tmp_path / "o"]
        code, stdout, err = run(argv, capsys)
        assert code == 3 and stdout == ""
        assert err.startswith("ERR:INPUT:") and err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["srl", "select-eps"])
    def test_label_outside_int64_is_3(self, tmp_path, capsys, star_files, verb):
        labels = tmp_path / "labels.csv"
        labels.write_text("node,label,split\n0,100000000000000000000,train\n")
        argv = [verb, "--graph", star_files / "graph.txt", "--labels", labels]
        if verb == "srl":
            argv += ["--eps", "0", "--out", tmp_path / "o"]
        code, stdout, err = run(argv, capsys)
        assert code == 3 and stdout == ""
        assert err.startswith("ERR:INPUT: line 2:") and err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["srl", "select-eps"])
    def test_features_flag_is_2(self, tmp_path, capsys, star_files, verb):
        features = tmp_path / "features.csv"
        features.write_text("node,f0\n0,1\n1,1\n2,1\n3,1\n")
        argv = [verb, "--graph", star_files / "graph.txt",
                "--labels", star_files / "labels.csv", "--features", features]
        if verb == "srl":
            argv += ["--eps", "0", "--out", tmp_path / "o"]
        code, stdout, err = run(argv, capsys)
        assert code == 2 and stdout == ""
        assert err.startswith("ERR:USAGE:") and "--features" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("graph_args", [
        ["--family", "er", "--n", "10", "--p", "0"],
        ["--family", "path", "--n", "1"],
    ])
    def test_gen_without_edges_is_3(self, tmp_path, capsys, graph_args):
        out = tmp_path / "g"
        code, _, err = run(["gen", *graph_args, "--out", out], capsys)
        assert code == 3
        assert err.startswith("ERR:INPUT:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["srl", "--graph", "{g}/graph.txt", "--labels", "{g}/labels.csv",
          "--eps", "0", "--layers", "0"], "--layers"),
        (["srl", "--graph", "{g}/graph.txt", "--labels", "{g}/labels.csv",
          "--eps", "0", "--layers", "-1"], "--layers"),
        (["gen", "--family", "tree", "--n", "5", "--classes", "-1"], "--classes"),
        (["ts-sim", "--families", "star", "--n", "6", "--classes", "0"], "--classes"),
        (["ts-sim", "--families", "star", "--n", "6", "--classes", "-2"], "--classes"),
        (["partition", "--graph", "{g}/graph.txt", "--percentile", "30"], "--percentile"),
        *(([*argv, "--seed", "-1"], "--seed") for argv in SEEDED_ARGV),
        *(([*argv, "--seed", str(2**64)], "--seed") for argv in SEEDED_ARGV),
        *((["gen", "--family", family, "--n", str(FAMILIES[family].smallest - 1)],
           f"argument --n: {family} needs") for family in sorted(FAMILIES)),
        (["ts-sim", "--n", "1", "--epochs", "5"], "argument --n: star needs"),
        (["ts-sim", "--n", "25", "--epochs", "5"], "argument --n: ladder needs even"),
    ], ids=["srl-layers-0", "srl-layers-neg", "gen-classes-neg",
            "ts-sim-classes-0", "ts-sim-classes-neg", "partition-percentile-off-grid",
            *(f"{argv[0]}-seed-neg" for argv in SEEDED_ARGV),
            *(f"{argv[0]}-seed-2**64" for argv in SEEDED_ARGV),
            *(f"gen-{family}-n-below-smallest" for family in sorted(FAMILIES)),
            "ts-sim-n-1", "ts-sim-n-odd-ladder"])
    def test_bad_count_is_2(self, tmp_path, capsys, star_files, argv, flag):
        out = tmp_path / "o"
        argv = [a.format(g=star_files) for a in argv] + ["--out", out]
        code, stdout, err = run(argv, capsys)
        assert code == 2 and stdout == ""
        assert err.startswith("ERR:USAGE:") and flag in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", SEEDED_ARGV, ids=lambda argv: argv[0])
    def test_largest_seed_is_accepted(self, argv):
        argv = [*argv, "--seed", str(2**64 - 1), "--out", "o"]
        assert parse_args(argv).seed == 2**64 - 1

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("argv", SEEDED_ARGV, ids=lambda argv: argv[0])
    def test_unusable_out_is_3(self, tmp_path, capsys, star_files, argv, under):
        (star_files / "scores.csv").write_text("percentile,srl_star\n0,0.1\n50,0.4\n")
        (star_files / "accuracy.csv").write_text("percentile,accuracy\n0,0.3\n50,0.9\n")
        out = tmp_path / "taken"
        out.write_text("")
        argv = [a.format(g=star_files) for a in argv]
        code, stdout, err = run([*argv, "--out", out / "x" if under else out], capsys)
        assert code == 3 and stdout == ""
        assert err.startswith("ERR:INPUT: cannot write") and err.count("\n") == 1
        assert str(out) in err

    def test_output_file_that_is_a_directory_is_3(self, tmp_path, capsys, star_files):
        out = tmp_path / "o"
        (out / "srl.csv").mkdir(parents=True)
        code, stdout, err = run(["srl", "--graph", star_files / "graph.txt", "--labels",
                                 star_files / "labels.csv", "--eps", "0", "--out", out], capsys)
        assert code == 3 and stdout == ""
        assert err.startswith("ERR:INPUT: cannot write") and err.count("\n") == 1
        assert str(out / "srl.csv") in err

    # Each verb's last output file, blocked by a directory of its name: the
    # verb must write none of its files and leave the ones there alone.
    @pytest.mark.parametrize("argv", [
        ["gen", "--family", "tree", "--n", "7", "--classes", "2"],
        ["partition", "--graph", "{g}/graph.txt", "--eps", "0"],
        ["rewire", "--graph", "{g}/graph.txt", "--eps", "0", "--variant", "repnodes"],
    ], ids=lambda argv: argv[0])
    def test_failed_verb_writes_none_of_its_files(self, tmp_path, capsys, star_files, argv):
        out = tmp_path / "o"
        (out / "meta.txt").mkdir(parents=True)
        kept = ["graph.txt", "partition.csv", "rewired.txt", "notes.txt"]
        for name in kept:
            (out / name).write_text("kept\n")
        before = tree_digest(out)
        code, stdout, err = run([*(a.format(g=star_files) for a in argv), "--out", out],
                                capsys)
        assert code == 3 and stdout == ""
        assert err.startswith("ERR:INPUT: cannot write") and err.count("\n") == 1
        assert str(out / "meta.txt") in err
        assert tree_digest(out) == before
        assert sorted(os.listdir(out)) == sorted([*kept, "meta.txt"])

    @pytest.mark.parametrize("verb", ["srl", "select-eps"])
    def test_labels_without_train_is_3(self, tmp_path, capsys, star_files, verb):
        labels = tmp_path / "labels.csv"
        labels.write_text("node,label,split\n0,0,val\n1,1,test\n2,1,none\n")
        out = tmp_path / "o"
        argv = [verb, "--graph", star_files / "graph.txt", "--labels", labels, "--out", out]
        if verb == "srl":
            argv += ["--eps", "0"]
        code, stdout, err = run(argv, capsys)
        assert code == 3 and stdout == ""
        assert err.startswith("ERR:INPUT:") and err.count("\n") == 1
        assert str(labels) in err and "'train'" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["partition"],
        ["rewire", "--variant", "repnodes"],
        ["srl", "--labels", "{g}/labels.csv"],
        ["effres", "--variant", "repnodes"],
    ], ids=lambda argv: argv[0])
    def test_nan_eps_is_2(self, tmp_path, capsys, star_files, argv):
        out = tmp_path / "o"
        argv = [a.format(g=star_files) for a in argv] + [
            "--graph", star_files / "graph.txt", "--eps", "nan", "--out", out]
        code, stdout, err = run(argv, capsys)
        assert code == 2 and stdout == ""
        assert err.startswith("ERR:USAGE:") and "--eps" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("p", ["2", "-0.1", "nan", "inf"])
    def test_gen_p_outside_unit_interval_is_2(self, tmp_path, capsys, p):
        out = tmp_path / "o"
        code, stdout, err = run(["gen", "--family", "er", "--n", "10", "--p", p,
                                 "--out", out], capsys)
        assert code == 2 and stdout == ""
        assert err.startswith("ERR:USAGE:") and "--p" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["partition", "--graph", "{tmp}/nope.txt", "--eps", "0"],
        ["rewire", "--graph", "{tmp}/nope.txt", "--eps", "0", "--variant", "repnodes"],
        ["srl", "--graph", "{g}/graph.txt", "--labels", "{tmp}/nope.csv", "--eps", "0"],
    ], ids=lambda argv: argv[0])
    def test_missing_input_leaves_no_out(self, tmp_path, capsys, star_files, argv):
        out = tmp_path / "o"
        argv = [a.format(g=star_files, tmp=tmp_path) for a in argv] + ["--out", out]
        code, stdout, err = run(argv, capsys)
        assert code == 3 and stdout == ""
        assert err.startswith("ERR:INPUT: cannot read") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("big", [2**63, 10**20])
    def test_node_id_too_large_is_3(self, tmp_path, capsys, big):
        graph = tmp_path / "g.txt"
        graph.write_text(f"0 1\n1 {big}\n")
        code, stdout, err = run(["partition", "--graph", graph, "--eps", "0",
                                 "--out", tmp_path / "o"], capsys)
        assert code == 3 and stdout == ""
        assert err.startswith("ERR:INPUT: line 2:") and err.count("\n") == 1

    def test_select_eps_has_no_layers_flag(self, capsys, star_files):
        code, stdout, err = run(["select-eps", "--graph", star_files / "graph.txt",
                                 "--labels", star_files / "labels.csv",
                                 "--layers", "2"], capsys)
        assert code == 2 and stdout == ""
        assert err.startswith("ERR:USAGE:") and "--layers" in err

    @pytest.mark.parametrize("flags, named", [
        (["--epochs", "0"], "--epochs"),
        (["--epochs", "-3"], "--epochs"),
        (["--lr", "0"], "--lr"),
        (["--lr", "-0.1"], "--lr"),
        (["--lr", "nan"], "--lr"),
        (["--lr", "inf"], "--lr"),
        (["--percentiles", ","], "--percentiles"),
        (["--percentiles", "30"], "--percentiles"),
        (["--families", ","], "--families"),
        (["--families", "star", "--percentiles", "0"], "--families"),
        (["--families", "star,bogus"], "--families"),
    ], ids=["epochs-0", "epochs-neg", "lr-0", "lr-neg", "lr-nan", "lr-inf",
            "percentiles-empty", "percentile-off-grid", "families-empty",
            "one-point-grid", "families-unknown"])
    def test_bad_ts_sim_flag_is_2(self, tmp_path, capsys, flags, named):
        out = tmp_path / "o"
        code, stdout, err = run(["ts-sim", "--n", "6", "--epochs", "5", *flags,
                                 "--out", out], capsys)
        assert code == 2 and stdout == ""
        assert err.startswith("ERR:USAGE:") and named in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("rows, lineno", [
        ("0,0.5\n0,0.7\n50,0.2\n", 3),
        ("x,0.5\n50,0.2\n", 2),
        ("0,abc\n50,0.2\n", 2),
        ("50,0.2\n0,nan\n", 3),
        ("0,inf\n50,0.2\n", 2),
    ], ids=["percentile-twice", "percentile-not-int", "score-not-number",
            "score-nan", "score-inf"])
    def test_bad_table_row_names_file_and_line(self, tmp_path, capsys, rows, lineno):
        table = tmp_path / "t.csv"
        table.write_text("percentile,srl_star\n" + rows)
        acc = tmp_path / "a.csv"
        acc.write_text("percentile,accuracy\n0,0.1\n50,0.2\n")
        out = tmp_path / "o"
        code, stdout, err = run(["srl-correlate", "--table", table,
                                 "--accuracy", acc, "--out", out], capsys)
        assert code == 3 and stdout == ""
        assert err.startswith("ERR:INPUT:") and err.count("\n") == 1
        assert str(table) in err and f"line {lineno}:" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, code, kind", [
        (["--n", "1"], 2, "ERR:USAGE:"),
        (["--families", "star,bogus"], 2, "ERR:USAGE:"),
        (["--lr", "1e300"], 4, "ERR:NUMERIC:"),
    ], ids=["n-1", "unknown-family", "diverges"])
    def test_failed_ts_sim_writes_nothing(self, tmp_path, capsys, flags, code, kind):
        out = tmp_path / "o"
        got, stdout, err = run(["ts-sim", "--n", "6", "--epochs", "5", *flags,
                                "--out", out], capsys)
        assert got == code and stdout == ""
        assert err.startswith(kind) and err.count("\n") == 1
        assert not out.exists()


# Malformed inputs per verb: {g} is a good generated star (nodes 0..3), {bad}
# a directory of the files in BAD_FILES. Every case must end in one ERR: line
# with the documented exit code, print nothing to stdout and create no --out.
BAD_FILES = {
    "word.txt": "0 1\n1 x\n",
    "loop.txt": "0 1\n1 1\n",
    "empty.txt": "# no edges\n",
    "negative.txt": "0 1\n0 -1\n",
    "split.txt": "0 1\n2 3\n",
    "labels-header.csv": "node,class,split\n0,0,train\n",
    "labels-twice.csv": "node,label,split\n0,0,train\n0,1,test\n",
    "labels-range.csv": "node,label,split\n9,0,train\n",
    "labels-unlabeled.csv": "node,label,split\n0,,train\n",
    "features-nan.csv": "node,f0\n0,1\n1,nan\n2,1\n3,1\n",
    "features-twice.csv": "node,f0\n0,1\n1,1\n1,2\n2,1\n3,1\n",
    "features-short.csv": "node,f0\n0,1\n1,1\n",
    "table-short.csv": "percentile,srl_star\n0\n",
    "table-flat.csv": "percentile,srl_star\n0,0.5\n50,0.5\n100,0.5\n",
    "accuracy.csv": "percentile,accuracy\n0,0.1\n50,0.2\n100,0.3\n",
    "table-nan.csv": "percentile,srl_star\n0,nan\n50,0.2\n100,0.4\n",
    "accuracy-inf.csv": "percentile,accuracy\n0,inf\n50,0.2\n100,0.3\n",
}
MALFORMED = [
    ("gen-no-edges", ["gen", "--family", "path", "--n", "1"], 3),
    ("gen-bad-family", ["gen", "--family", "bogus", "--n", "4"], 2),
    ("partition-word", ["partition", "--graph", "{bad}/word.txt", "--eps", "0"], 3),
    ("partition-loop", ["partition", "--graph", "{bad}/loop.txt", "--eps", "0"], 3),
    ("partition-empty", ["partition", "--graph", "{bad}/empty.txt", "--eps", "0"], 3),
    ("partition-no-eps", ["partition", "--graph", "{g}/graph.txt"], 2),
    ("rewire-negative", ["rewire", "--graph", "{bad}/negative.txt", "--eps", "0",
                         "--variant", "full"], 3),
    *((f"rewire-{name}", ["rewire", "--graph", "{g}/graph.txt", "--eps", "0",
                          "--variant", "full", "--features", f"{{bad}}/{name}.csv"], 3)
      for name in ("features-nan", "features-twice", "features-short")),
    *((f"srl-{name}", ["srl", "--graph", "{g}/graph.txt", "--eps", "0",
                       "--labels", f"{{bad}}/{name}.csv"], 3)
      for name in ("labels-header", "labels-twice", "labels-range", "labels-unlabeled")),
    ("select-eps-word", ["select-eps", "--graph", "{bad}/word.txt",
                         "--labels", "{g}/labels.csv"], 3),
    ("select-eps-labels", ["select-eps", "--graph", "{g}/graph.txt",
                           "--labels", "{bad}/labels-twice.csv"], 3),
    ("effres-disconnected", ["effres", "--graph", "{bad}/split.txt"], 3),
    ("effres-no-tolerance", ["effres", "--graph", "{g}/graph.txt",
                             "--variant", "full"], 2),
    ("ts-sim-family", ["ts-sim", "--families", "star,bogus", "--n", "6",
                       "--epochs", "5"], 2),
    ("ts-sim-diverges", ["ts-sim", "--n", "6", "--epochs", "5", "--lr", "1e300"], 4),
    ("srl-correlate-short", ["srl-correlate", "--table", "{bad}/table-short.csv",
                             "--accuracy", "{bad}/accuracy.csv"], 3),
    ("srl-correlate-flat", ["srl-correlate", "--table", "{bad}/table-flat.csv",
                            "--accuracy", "{bad}/accuracy.csv"], 4),
    ("srl-correlate-nan", ["srl-correlate", "--table", "{bad}/table-nan.csv",
                           "--accuracy", "{bad}/accuracy.csv"], 3),
    ("srl-correlate-inf", ["srl-correlate", "--table", "{bad}/table-flat.csv",
                           "--accuracy", "{bad}/accuracy-inf.csv"], 3),
]
ERR_KIND = {2: "ERR:USAGE: ", 3: "ERR:INPUT: ", 4: "ERR:NUMERIC: "}


@pytest.mark.parametrize("argv, code", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_gives_one_err_line(tmp_path, capsys, star_files, argv, code):
    bad = tmp_path / "bad"
    bad.mkdir()
    for name, text in BAD_FILES.items():
        (bad / name).write_text(text)
    out = tmp_path / "o"
    argv = [a.format(g=star_files, bad=bad) for a in argv] + ["--out", out]
    got, stdout, err = run(argv, capsys)
    assert got == code and stdout == ""
    assert err.startswith(ERR_KIND[code]) and err.count("\n") == 1
    assert not out.exists()


class TestLibraryWarnings:
    """A library warning raised during a verb is one `WARN:` line on
    stderr, before any `ERR:` line; stdout and the files do not change."""

    DUPLICATE = "WARN: collapsed 1 duplicate edge mentions\n"

    def test_duplicate_edge_warns_and_changes_no_output(self, tmp_path, capsys):
        results = []
        for name, text in (("clean", "0 1\n1 2\n2 3\n"), ("dup", "0 1\n1 2\n2 3\n1 0\n")):
            (tmp_path / f"{name}.txt").write_text(text)
            out = tmp_path / name
            code, stdout, err = run(["partition", "--graph", tmp_path / f"{name}.txt",
                                     "--eps", "0", "--out", out], capsys)
            code_e, stdout_e, err_e = run(["effres", "--graph", tmp_path / f"{name}.txt"],
                                          capsys)
            assert code == code_e == 0
            results.append((stdout, stdout_e, tree_digest(out), err, err_e))
        (*clean, clean_err, clean_err_e), (*dup, dup_err, dup_err_e) = results
        assert dup == clean
        assert clean_err == clean_err_e == ""
        assert dup_err == dup_err_e == self.DUPLICATE

    def test_warning_precedes_the_error_line(self, tmp_path, capsys):
        (tmp_path / "dup.txt").write_text("0 1\n1 2\n0 1\n")
        code, stdout, err = run(["srl", "--graph", tmp_path / "dup.txt", "--eps", "0",
                                 "--labels", tmp_path / "missing.csv",
                                 "--out", tmp_path / "o"], capsys)
        assert code == 3 and stdout == ""
        warn, error = err.splitlines()
        assert warn + "\n" == self.DUPLICATE and error.startswith("ERR:INPUT: ")


class TestGenPartition:
    def test_star_partition_blocks(self, tmp_path, star_files):
        out = tmp_path / "p"
        assert run(["partition", "--graph", star_files / "graph.txt",
                    "--eps", "0", "--out", out]) == 0
        rows = (out / "partition.csv").read_text().splitlines()[1:]
        blocks = {}
        for row in rows:
            node, block = row.split(",")
            blocks.setdefault(block, set()).add(int(node))
        assert set(frozenset(b) for b in blocks.values()) == \
            {frozenset({0}), frozenset({1, 2, 3})}

    def test_quotient_file(self, tmp_path, star_files):
        out = tmp_path / "p"
        run(["partition", "--graph", star_files / "graph.txt",
             "--eps", "0", "--out", out])
        lines = (out / "quotient.csv").read_text().splitlines()
        assert lines[0] == "# eps=0.000000 residual=0.000000"
        assert lines[1] == "0.000000,3.000000"
        assert lines[2] == "1.000000,0.000000"

    def test_percentile_flag(self, tmp_path, star_files):
        out = tmp_path / "p"
        assert run(["partition", "--graph", star_files / "graph.txt",
                    "--percentile", "100", "--out", out]) == 0
        meta = dict(line.split("=", 1)
                    for line in (out / "meta.txt").read_text().splitlines())
        assert meta["k"] == "1" and meta["percentile"] == "100"

    def test_inf_eps_is_the_single_block(self, tmp_path, star_files):
        out = tmp_path / "p"
        assert run(["partition", "--graph", star_files / "graph.txt",
                    "--eps", "inf", "--out", out]) == 0
        meta = dict(line.split("=", 1)
                    for line in (out / "meta.txt").read_text().splitlines())
        assert meta["k"] == "1" and meta["eps"] == "inf"

    def test_gen_drops_isolated_nodes_for_select_eps(self, tmp_path, capsys):
        # seed 0 leaves nodes 5, 12, 23 and 25 isolated; the loader drops them
        out = tmp_path / "er"
        assert run(["gen", "--family", "er", "--n", "30", "--p", "0.06",
                    "--classes", "3", "--out", out]) == 0
        labels = (out / "labels.csv").read_text().splitlines()
        assert len(labels) - 1 == 26
        assert "n=26" in (out / "meta.txt").read_text().splitlines()
        code, stdout, err = run(["select-eps", "--graph", out / "graph.txt",
                                 "--labels", out / "labels.csv"], capsys)
        assert code == 0, err
        assert stdout.splitlines()[-1].startswith("selected percentile=")

    @pytest.mark.parametrize("family,n", [("grid", 16384), ("tree", 16383)])
    def test_gen_labels_at_16k(self, tmp_path, family, n):
        out = tmp_path / family
        assert run(["gen", "--family", family, "--n", n, "--classes", "3", "--out", out]) == 0
        assert len((out / "labels.csv").read_text().splitlines()) - 1 == n


class TestRewireVerb:
    def test_max_degree_gives_master_node(self, tmp_path, star_files):
        out = tmp_path / "r"
        assert run(["rewire", "--graph", star_files / "graph.txt",
                    "--eps", "3", "--variant", "repnodes", "--out", out]) == 0
        meta = dict(line.split("=", 1)
                    for line in (out / "meta.txt").read_text().splitlines())
        assert meta["k"] == "1"

    def test_mn_variant_ignores_tolerance(self, tmp_path, star_files):
        out = tmp_path / "r"
        assert run(["rewire", "--graph", star_files / "graph.txt",
                    "--eps", "0", "--variant", "mn", "--out", out]) == 0
        meta = dict(line.split("=", 1)
                    for line in (out / "meta.txt").read_text().splitlines())
        assert meta["k"] == "1"

    def test_emits_augmented_features(self, tmp_path, star_files):
        out = tmp_path / "r"
        run(["rewire", "--graph", star_files / "graph.txt",
             "--eps", "0", "--variant", "repedges", "--out", out])
        header = (out / "features.csv").read_text().splitlines()[0]
        assert header == "node,f0,f1,f2"   # constant column + 2 hub one-hots


class TestEffres:
    def test_path3_value(self, tmp_path, capsys):
        graph = tmp_path / "p3.txt"
        graph.write_text("0 1\n1 2\n")
        code, out, _ = run(["effres", "--graph", graph], capsys)
        assert code == 0
        assert "1.333333" in out

    def test_tolerance_without_variant_rejected(self, tmp_path, capsys, star_files):
        code, _, err = run(["effres", "--graph", star_files / "graph.txt",
                            "--eps", "1"], capsys)
        assert code == 2
        assert err.startswith("ERR:USAGE:")

    def test_variant_without_tolerance_rejected_before_reading(self, tmp_path, capsys):
        code, out, err = run(["effres", "--graph", tmp_path / "nope.txt",
                              "--variant", "repnodes"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("ERR:USAGE:") and "--eps" in err and err.count("\n") == 1

    def test_no_dense_inverse(self, tmp_path, capsys, monkeypatch):
        """effres factors the grounded Laplacian sparsely: it gives the dense
        inverse's values with numpy's inverse disabled."""
        graph = tmp_path / "tree.txt"
        tree = make_graph("tree", 63)
        with open(graph, "w") as fh:
            dump_edge_list(tree, fh)
        rewired = build_rewired(tree, refine_eps_be(tree, 1.0), Variant.FULL)
        want = [f"baseline {mean_effective_resistance_oracle(tree.adjacency):.6f}",
                f"rewired {mean_effective_resistance_oracle(rewired.adjacency, 63):.6f}"]

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.inv called")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        code, out, _ = run(["effres", "--graph", graph, "--eps", "1",
                            "--variant", "full", "--out", tmp_path / "e"], capsys)
        assert code == 0
        assert out.splitlines() == want

    def test_rewired_reported(self, tmp_path, capsys, star_files):
        code, out, _ = run(["effres", "--graph", star_files / "graph.txt",
                            "--percentile", "0", "--variant", "repnodes"],
                           capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("baseline ")
        assert lines[1].startswith("rewired ")
        assert float(lines[1].split()[1]) <= float(lines[0].split()[1]) + 1e-9


class TestSrlVerbs:
    def test_srl_report_file(self, tmp_path, star_files):
        out = tmp_path / "s"
        assert run(["srl", "--graph", star_files / "graph.txt",
                    "--labels", star_files / "labels.csv",
                    "--percentile", "0", "--variant", "repnodes",
                    "--out", out]) == 0
        lines = (out / "srl.csv").read_text().splitlines()
        assert lines[0] == "role,mu_obs,mu_rawr,tau,nu,lambda_plus,delta,omega"
        assert any(line.startswith("# srl=") for line in lines)
        assert any(line.startswith("# commutator_norm=") for line in lines)

    def test_select_eps_grid(self, tmp_path, capsys, star_files):
        out = tmp_path / "e"
        code, stdout, _ = run(["select-eps", "--graph", star_files / "graph.txt",
                               "--labels", star_files / "labels.csv",
                               "--out", out], capsys)
        assert code == 0
        assert stdout.startswith("selected percentile=")
        lines = (out / "candidates.csv").read_text().splitlines()
        assert len(lines) == 6
        percentiles = [int(line.split(",")[0]) for line in lines[1:]]
        assert percentiles == [0, 25, 50, 75, 100]
        assert sum(line.endswith(",1") for line in lines[1:]) == 1


class TestTsSimAndCorrelate:
    def test_ts_sim_writes_table(self, tmp_path, capsys):
        out = tmp_path / "ts"
        code, stdout, _ = run(
            ["ts-sim", "--families", "star,path", "--n", "8",
             "--percentiles", "0,100", "--epochs", "40", "--out", out],
            capsys)
        assert code == 0
        lines = (out / "ts.csv").read_text().splitlines()
        assert lines[0] == "dataset,variant,percentile,eps,srl,mse,seed"
        assert len([l for l in lines if not l.startswith("#")]) == 5
        assert lines[-1].startswith("# pearson=")
        assert stdout.startswith("pearson ")

    def test_huge_mse_correlates_without_warning(self, tmp_path, capsys):
        # lr 1e70 trains to mse values near 1e280 without diverging
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(["ts-sim", "--n", "6", "--epochs", "5",
                                     "--lr", "1e70", "--out", out], capsys)
        assert code == 0 and err == ""
        assert stdout.startswith("pearson ") and stdout != "pearson -0.000000\n"

    def test_srl_correlate(self, tmp_path, capsys, star_files):
        out = tmp_path / "e"
        run(["select-eps", "--graph", star_files / "graph.txt",
             "--labels", star_files / "labels.csv", "--out", out])
        capsys.readouterr()   # drop the select-eps stdout
        acc = tmp_path / "acc.csv"
        acc.write_text("percentile,accuracy\n0,0.9\n25,0.8\n50,0.7\n"
                       "75,0.6\n100,0.5\n")
        code, stdout, _ = run(["srl-correlate", "--table", out / "candidates.csv",
                               "--accuracy", acc, "--out", tmp_path / "c"],
                              capsys)
        assert code == 0
        assert stdout.startswith("pearson ")
        body = (tmp_path / "c" / "correlation.csv").read_text()
        assert body.startswith("percentile,srl_star,accuracy\n")


class TestReproducibility:
    @pytest.mark.parametrize("argv_template", [
        ["gen", "--family", "caterpillar", "--n", "14", "--classes", "3",
         "--seed", "5", "--out", "{out}"],
        ["gen", "--family", "er", "--n", "12", "--p", "0.3", "--seed", "2",
         "--out", "{out}"],
    ])
    def test_gen_byte_identical(self, tmp_path, argv_template):
        digests = []
        for run_dir in ("a", "b"):
            argv = [a.format(out=tmp_path / run_dir) for a in argv_template]
            assert main(argv) == 0
            digests.append(tree_digest(tmp_path / run_dir))
        assert digests[0] == digests[1]

    def test_pipeline_byte_identical(self, tmp_path, star_files):
        digests = []
        for run_dir in ("a", "b"):
            base = tmp_path / run_dir
            for argv in (
                ["partition", "--graph", star_files / "graph.txt",
                 "--percentile", "25", "--out", base / "p"],
                ["rewire", "--graph", star_files / "graph.txt", "--eps", "0",
                 "--variant", "full", "--out", base / "r"],
                ["srl", "--graph", star_files / "graph.txt",
                 "--labels", star_files / "labels.csv", "--eps", "0",
                 "--variant", "repedges", "--out", base / "s"],
                ["select-eps", "--graph", star_files / "graph.txt",
                 "--labels", star_files / "labels.csv", "--out", base / "e"],
            ):
                assert run(argv) == 0
            digests.append(tree_digest(base))
        assert digests[0] == digests[1]

    def test_no_verb_loads_scipy(self, tmp_path):
        """Every verb computes on the library's CSR arrays: all eight run in
        a fresh interpreter where importing scipy fails, effres on a lobster
        whose factor has fill that underflows. (pytest's warning filters
        have already imported scipy into this one.)"""
        d, lobster = tmp_path / "d", tmp_path / "lobster"
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from rolewire.cli import main\n"
            "for argv in sys.argv[1:]:\n"
            "    assert main(argv.split()) == 0, argv\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(rolewire.__file__).resolve().parents[1]))
        features = tmp_path / "x.csv"
        features.write_text("node,f0,f1\n" + "".join(f"{u},{u % 3}.5,-{u}\n" for u in range(63)))
        accuracy = tmp_path / "acc.csv"
        accuracy.write_text("percentile,accuracy\n0,0.9\n25,0.8\n50,0.7\n75,0.6\n100,0.5\n")
        io = f"--graph {d / 'graph.txt'} --labels {d / 'labels.csv'}"
        done = subprocess.run([
            sys.executable, "-c", script,
            f"gen --family tree --n 63 --classes 3 --out {d}",
            f"partition --graph {d / 'graph.txt'} --percentile 25 --out {tmp_path / 'p'}",
            f"rewire --graph {d / 'graph.txt'} --percentile 25 --variant full "
            f"--features {features} --out {tmp_path / 'r'}",
            f"srl {io} --percentile 0 --variant repedges --out {tmp_path / 's'}",
            f"select-eps {io} --out {tmp_path / 'e'}",
            f"srl-correlate --table {tmp_path / 'e' / 'candidates.csv'} "
            f"--accuracy {accuracy} --out {tmp_path / 'c'}",
            f"ts-sim --epochs 20 --out {tmp_path / 't'}",
            f"gen --family lobster --n 2710 --seed 1 --out {lobster}",
            f"effres --graph {lobster / 'graph.txt'} --percentile 50 --variant repnodes "
            f"--out {tmp_path / 'f'}",
        ], env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "f" / "effres.csv").read_text().count("\n") == 3

    def test_golden_cases_never_densify_a_graph(self, tmp_path, monkeypatch):
        """No library path builds a graph's dense adjacency: every verb of
        the golden corpus gives its recorded bytes with it disabled."""
        from test_golden import GOLDEN, run_cases

        def refuse(graph):
            raise AssertionError("Graph.dense_adjacency called")

        monkeypatch.setattr(Graph, "dense_adjacency", refuse)
        assert run_cases(tmp_path) == GOLDEN
