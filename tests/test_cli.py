"""Command parsing, verb behavior, exit codes, and reproducibility."""

import hashlib
from pathlib import Path

import pytest

from rolewire.cli import main, parse_args
from rolewire.errors import UsageError


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
        cmd = parse_args(["rewire", "--graph", "g.txt", "--eps", "0",
                          "--variant", "repnodes", "--out", "o"])
        assert cmd.verb == "rewire"
        assert cmd.options.variant == "repnodes"
        assert cmd.seed == 0

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
        cmd = parse_args(["select-eps", "--graph", "g.txt", "--labels", "y.csv"])
        assert cmd.verb == "select-eps"
        assert cmd.options.out is None

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["--help"])
        assert err.value.code == 0

    def test_negative_eps_rejected(self):
        with pytest.raises(UsageError):
            parse_args(["partition", "--graph", "g", "--eps", "-1",
                        "--out", "o"])


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
