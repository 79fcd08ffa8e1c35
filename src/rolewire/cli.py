"""Command-line front end: file-to-file runs of the full pipeline.

Verbs
-----
gen            emit a synthetic graph (plus labels/splits when --classes set)
partition      tolerance partition + quotient of an edge-list graph
rewire         augmented graph, features, and metadata for one variant
srl            spectral-role-lift report for one rewiring
select-eps     score the percentile grid and pick a tolerance
effres         mean effective resistance before/after rewiring
ts-sim         teacher-student simulation over synthetic datasets
srl-correlate  Pearson between a score table and an accuracy table

Every verb takes --seed, one u64 (0 <= seed < 2**64, default 0); sub-tasks
derive their own streams through a (seed, task-index) hash, so all outputs
are byte-reproducible.

Each flag's rule (a range, the percentile grid, the generator families, a
required or exclusive tolerance) is declared on its argparse argument, so a
bad value is a usage error naming the flag; `--n` is checked against its
family's sizes in `generators.FAMILIES`. The parser is built once per
process; each verb's subparser carries its runner.

Every output file goes through `_written`, which creates --out on first use
and turns a --out that cannot be written into an input error naming it. A
verb's files land together: each is written under a temporary name and
renamed into place only once the whole verb has succeeded, so a verb that
fails adds no file to --out and leaves the files already there as they were.

Exit codes: 0 ok, 2 usage, 3 input error, 4 numeric failure. A failure prints
"ERR:<USAGE|INPUT|NUMERIC>: <detail>" on stderr, after any "WARN:" lines.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import warnings
from contextlib import contextmanager
from itertools import product
from pathlib import Path
from typing import IO, Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .errors import (
    EmptyGraphError,
    InputError,
    NumericError,
    ParseError,
    RolewireError,
    UsageError,
)
from .generators import FAMILIES, make_dataset, make_graph
from .graph import (
    PERCENTILE_GRID,
    Graph,
    NodeData,
    compact_ids,
    degree_percentile,
    dump_edge_list,
    dump_labels_csv,
    fixed,
    load_edge_list,
    load_features_csv,
    load_labels_csv,
    one_hot_labels,
    parse_column,
    table_rows,
    write_meta,
    write_table,
)
from .metrics import (
    dump_candidates_csv,
    evaluate_candidates,
    mean_effective_resistance,
    pearson,
    select_epsilon,
)
from .partition import (
    dump_partition_csv,
    dump_quotient_csv,
    quotient,
    refine_eps_be,
)
from .rewire import (RewiredGraph, Variant, build_rewired, dump_augmented_features_csv,
                     dump_rewired)
from .spectral import dump_srl_csv, srl_report
from .teacher_student import TrainConfig, run_ts_experiment

class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so errors map to exit codes."""

    def error(self, message):
        raise UsageError(message)


def _checked(convert, ok, rule: str):
    """argparse type: convert(text), kept when ok(value) holds; otherwise a
    usage error stating `rule`, which argparse prefixes with the flag."""
    def checked(text: str):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
    return checked


def _at_least(low: int):
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


def _comma_list(item):
    """argparse type: a comma-separated list of item(value), at least one."""
    def comma_list(text: str) -> list:
        values = [item(t.strip()) for t in text.split(",") if t.strip()]
        if not values:
            raise argparse.ArgumentTypeError("needs at least one value")
        return values
    return comma_list


_grid_percentile = _checked(int, lambda p: p in PERCENTILE_GRID,
                            f"a percentile of the grid {PERCENTILE_GRID}")
_family = _checked(str, lambda f: f in FAMILIES,
                   f"a family ({', '.join(sorted(FAMILIES))})")


def _build_parser() -> _Parser:
    parser = _Parser(prog="rolewire", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", metavar="VERB", required=True)

    def add(verb, run, **kwargs):
        p = sub.add_parser(verb, **kwargs)
        p.add_argument("--seed", default=0, type=_checked(
            int, lambda s: 0 <= s < 2**64, "an integer in [0, 2**64)"))
        p.set_defaults(run=run)
        return p

    def add_eps_flags(p, required=True):
        group = p.add_mutually_exclusive_group(required=required)
        group.add_argument("--eps", type=_checked(
            float, lambda e: e >= 0, "a nonnegative number or inf"))   # rejects nan
        group.add_argument("--percentile", type=_grid_percentile)

    p = add("gen", _run_gen, help="emit a synthetic graph")
    p.add_argument("--family", required=True, type=_family)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--classes", type=_at_least(0), default=0)
    p.add_argument("--p", type=_checked(float, lambda x: 0 <= x <= 1,
                                        "a probability in [0, 1]"), default=0.1)
    p.add_argument("--out", required=True)

    p = add("partition", _run_partition, help="tolerance partition and quotient")
    p.add_argument("--graph", required=True)
    add_eps_flags(p)
    p.add_argument("--out", required=True)

    p = add("rewire", _run_rewire, help="build an augmented graph")
    p.add_argument("--graph", required=True)
    add_eps_flags(p)
    p.add_argument("--variant", required=True,
                   choices=[v.value for v in Variant])
    p.add_argument("--features", default=None)
    p.add_argument("--out", required=True)

    p = add("srl", _run_srl, help="spectral-role-lift report")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    add_eps_flags(p)
    p.add_argument("--variant", default="repnodes",
                   choices=[v.value for v in Variant])
    p.add_argument("--layers", type=_at_least(1), default=2)
    p.add_argument("--out", required=True)

    p = add("select-eps", _run_select_eps,
            help="score the percentile grid, pick a tolerance")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--variant", default="repnodes",
                   choices=[v.value for v in Variant if v != Variant.MASTER_NODE])
    p.add_argument("--out", default=None)   # no --out: table goes to stdout

    p = add("effres", _run_effres, help="mean effective resistance before/after rewiring")
    p.add_argument("--graph", required=True)
    add_eps_flags(p, required=False)   # baseline-only runs need no tolerance
    p.add_argument("--variant", default=None,
                   choices=[v.value for v in Variant])
    p.add_argument("--out", default=None)

    p = add("ts-sim", _run_ts_sim, help="teacher-student simulation")
    p.add_argument("--families", type=_comma_list(_family),
                   default="star,path,cycle,grid,ladder,tree")
    p.add_argument("--n", type=int, default=24)
    p.add_argument("--classes", type=_at_least(1), default=3)
    p.add_argument("--percentiles", type=_comma_list(_grid_percentile),
                   default="0,50,100")
    p.add_argument("--variant", default="full",
                   choices=[v.value for v in Variant if v != Variant.MASTER_NODE])
    p.add_argument("--epochs", type=_at_least(1), default=5000)
    p.add_argument("--lr", type=_checked(float, lambda r: 0 < r < math.inf,
                                         "a positive finite number"), default=0.005)
    p.add_argument("--out", required=True)

    p = add("srl-correlate", _run_srl_correlate,
            help="correlate a score table with accuracies")
    p.add_argument("--table", required=True)
    p.add_argument("--accuracy", required=True)
    p.add_argument("--out", default=None)

    return parser


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The parsed command line. Each flag checks its own value; only the
    rules that span flags are checked here."""
    ns = _PARSER.parse_args(list(argv))
    if ns.verb in ("gen", "ts-sim"):
        for family in [ns.family] if ns.verb == "gen" else ns.families:
            if problem := FAMILIES[family].size_error(ns.n):
                raise UsageError(f"argument --n: {problem}, got {ns.n}")
    if ns.verb == "effres":
        tolerance = ns.eps is not None or ns.percentile is not None
        if ns.variant is None and tolerance:
            raise UsageError("effres with a tolerance needs --variant")
        if ns.variant is not None and not tolerance:
            raise UsageError("effres with --variant needs --eps or --percentile")
    if ns.verb == "ts-sim" and len(ns.families) * len(ns.percentiles) < 2:
        raise UsageError("--families x --percentiles gives one point; "
                         "the correlation needs at least 2")
    return ns


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

@contextmanager
def _opened(what: str, path: str) -> Iterator[IO[str]]:
    """The input file at `path`, open for reading; an OSError becomes an
    InputError naming what the file is and its path."""
    try:
        with open(path) as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from None


@contextmanager
def _written(ns: argparse.Namespace, name: str) -> Iterator[IO[str]]:
    """The file `name` in the --out directory, open for writing under a
    temporary name beside it, which `_all_or_nothing` renames into place;
    --out is created on first use. An OSError becomes an InputError naming
    the path."""
    path = Path(ns.out, name)
    partial = path.with_name(f".{name}.partial")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.is_dir():       # caught now, not at the rename after every file
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        with open(partial, "w") as fh:
            ns.pending.append((partial, path))
            yield fh
    except OSError as exc:
        raise InputError(f"cannot write {str(path)!r}: {exc}") from None


@contextmanager
def _all_or_nothing(ns: argparse.Namespace) -> Iterator[None]:
    """Run one verb's writes as a unit: the `_written` files, listed in
    ns.pending as (temporary, final) paths, are renamed into place when the
    verb returns, and removed if it raises."""
    ns.pending = []
    try:
        yield
        for partial, path in ns.pending:
            try:
                os.replace(partial, path)
            except OSError as exc:
                raise InputError(f"cannot write {str(path)!r}: {exc}") from None
    except BaseException:
        for partial, _ in ns.pending:
            partial.unlink(missing_ok=True)
        raise


def _load_graph(path: str) -> tuple[Graph, np.ndarray]:
    with _opened("graph", path) as fh:
        return compact_ids(load_edge_list(fh))


def _load_labels(path: str, num_nodes: int) -> NodeData:
    """The labels file at `path`, which must put some node in `train`: SRL
    and the selection score read only the training labels."""
    with _opened("labels", path) as fh:
        data = load_labels_csv(fh, num_nodes)
    if not data.train_mask.any():
        raise InputError(f"labels {path!r} put no node in the 'train' split")
    return data


def _resolve_eps(graph: Graph, ns: argparse.Namespace) -> tuple[float, Optional[int]]:
    if ns.eps is not None:
        return float(ns.eps), None
    return degree_percentile(graph, ns.percentile), ns.percentile


def _remap_repr(kept: np.ndarray) -> str:
    if np.array_equal(kept, np.arange(len(kept))):
        return "identity"
    return ";".join(f"{old}:{new}" for new, old in enumerate(kept.tolist()))


def _rewiring(graph: Graph, ns: argparse.Namespace) -> tuple[RewiredGraph, Optional[int]]:
    """The rewiring the --variant and --eps/--percentile flags ask for, and
    the percentile (None under --eps). The master node is the single
    block, which is what refinement returns at eps = infinity (no count
    spread exceeds it)."""
    eps, percentile = _resolve_eps(graph, ns)
    variant = Variant(ns.variant)
    part = refine_eps_be(graph, math.inf if variant is Variant.MASTER_NODE else eps)
    return build_rewired(graph, part, variant, eps=eps), percentile


# ---------------------------------------------------------------------------
# Verb implementations
# ---------------------------------------------------------------------------

def _run_gen(ns) -> int:
    """Write the generated graph as the loader will see it: isolated nodes
    are dropped (an edge list cannot carry them) and ids compacted, with
    labels and splits restricted to the nodes kept. A graph with no edges
    has no edge-list form, so it is rejected before anything is written."""
    if ns.classes > 0:
        graph, data = make_dataset(ns.family, ns.n, num_classes=ns.classes,
                                   seed=ns.seed, p=ns.p)
    else:
        graph, data = make_graph(ns.family, ns.n, seed=ns.seed, p=ns.p), None
    if graph.num_edges == 0:
        raise EmptyGraphError(
            f"{ns.family} graph with n={ns.n} has no edges; an edge list cannot hold it")
    graph, kept = compact_ids(graph)
    with _written(ns, "graph.txt") as fh:
        dump_edge_list(graph, fh)
    meta = {"family": ns.family, "n": graph.num_nodes, "seed": ns.seed,
            "classes": ns.classes}
    if ns.family == "er":
        meta["p"] = ns.p
    if data is not None:
        data = NodeData(num_nodes=len(kept), labels=data.labels[kept],
                        train_mask=data.train_mask[kept], val_mask=data.val_mask[kept],
                        test_mask=data.test_mask[kept])
        with _written(ns, "labels.csv") as fh:
            dump_labels_csv(data, fh)
    with _written(ns, "meta.txt") as fh:
        write_meta(fh, meta)
    return 0


def _run_partition(ns) -> int:
    graph, kept = _load_graph(ns.graph)
    eps, perc = _resolve_eps(graph, ns)
    part = refine_eps_be(graph, eps)
    qp = quotient(graph, part)
    with _written(ns, "partition.csv") as fh:
        dump_partition_csv(part, fh)
    with _written(ns, "quotient.csv") as fh:
        dump_quotient_csv(qp, eps, fh)
    with _written(ns, "meta.txt") as fh:
        write_meta(fh, {"n": graph.num_nodes, "k": part.k, "eps": eps, "percentile": perc,
                        "residual": qp.residual, "remap": _remap_repr(kept)})
    return 0


def _run_rewire(ns) -> int:
    graph, kept = _load_graph(ns.graph)
    x = None
    if ns.features is not None:
        with _opened("features", ns.features) as fh:
            x = load_features_csv(fh, graph.num_nodes)
    rewired, perc = _rewiring(graph, ns)
    with _written(ns, "rewired.txt") as efh, _written(ns, "rewired.meta") as mfh:
        dump_rewired(rewired, efh, mfh)
    with _written(ns, "features.csv") as fh:
        dump_augmented_features_csv(x, graph.num_nodes, rewired.partition.k, fh)
    with _written(ns, "partition.csv") as fh:
        dump_partition_csv(rewired.partition, fh)
    with _written(ns, "meta.txt") as fh:
        write_meta(fh, {"n": graph.num_nodes, "k": rewired.partition.k,
                        "variant": ns.variant, "eps": rewired.eps, "percentile": perc,
                        "residual": rewired.residual, "remap": _remap_repr(kept)})
    return 0


def _run_srl(ns) -> int:
    graph, _ = _load_graph(ns.graph)
    data = _load_labels(ns.labels, graph.num_nodes)
    rewired, _ = _rewiring(graph, ns)
    y = one_hot_labels(data.labels, data.train_mask)
    report = srl_report(rewired, y, h_degree=ns.layers)
    with _written(ns, "srl.csv") as fh:
        dump_srl_csv(report, fh)
    return 0


def _run_select_eps(ns) -> int:
    graph, _ = _load_graph(ns.graph)
    data = _load_labels(ns.labels, graph.num_nodes)
    candidates = evaluate_candidates(graph, data, Variant(ns.variant))
    chosen = select_epsilon(candidates)
    if ns.out is not None:
        with _written(ns, "candidates.csv") as fh:
            dump_candidates_csv(candidates, chosen, fh)
    else:
        dump_candidates_csv(candidates, chosen, sys.stdout)
    print(f"selected percentile={chosen.percentile} eps={fixed(chosen.eps)} "
          f"k={chosen.k} srl_star={fixed(chosen.srl_star)}")
    return 0


def _run_effres(ns) -> int:
    graph, _ = _load_graph(ns.graph)
    rows = [("baseline", fixed(mean_effective_resistance(graph.csr)))]
    if ns.variant is not None:
        rewired, _ = _rewiring(graph, ns)
        rows.append(("rewired", fixed(mean_effective_resistance(
            rewired.csr, origin_count=graph.num_nodes))))
    if ns.out is not None:
        with _written(ns, "effres.csv") as fh:
            write_table(fh, "which,value", rows)
    write_table(sys.stdout, None, rows, sep=" ")
    return 0


def _run_ts_sim(ns) -> int:
    graphs = [(fam, make_graph(fam, ns.n, seed=ns.seed)) for fam in ns.families]
    variant = Variant(ns.variant)
    config = TrainConfig(learning_rate=ns.lr, epochs=ns.epochs, seed=ns.seed)
    results, corr = run_ts_experiment(
        graphs, variant, ns.percentiles, config, d_out=ns.classes)
    with _written(ns, "ts.csv") as fh:
        write_table(fh, "dataset,variant,percentile,eps,srl,mse,seed", (
            [fam, variant.value, str(perc), fixed(res.eps), fixed(res.srl),
             fixed(res.mse_final), str(res.seed)]
            for (fam, perc), res in zip(product(ns.families, ns.percentiles), results)),
            footer=[("pearson", corr)])
    print("pearson", fixed(corr))
    return 0


def _read_percentile_table(path: str, column: str) -> dict[int, float]:
    """The `percentile` and `column` fields of a CSV table, by percentile.
    Rows follow `graph.table_rows`; every error names the file."""
    with _opened("table", path) as fh:
        try:
            rows = table_rows(fh)
            _, header = next(rows, (0, None))
            if header is None:
                raise ParseError("is empty")
            for col in ("percentile", column):
                if col not in header:
                    raise ParseError(f"lacks a {col!r} column")
            body = list(rows)
            percentiles = parse_column(body, header.index("percentile"), int,
                                       "an integer percentile")
            values = parse_column(body, header.index(column), float, "a number")
            finite = np.isfinite(values)
            if not finite.all():
                raise ParseError(f"line {body[int(np.argmin(finite))][0]}: "
                                 f"non-finite {column} value")
            table = dict(zip(percentiles, values))
            if len(table) < len(percentiles):
                i = next(i for i, p in enumerate(percentiles) if p in percentiles[:i])
                raise ParseError(f"line {body[i][0]}: percentile {percentiles[i]} listed twice")
        except ParseError as exc:
            raise ParseError(f"{path!r} {exc}") from None
    return table


def _run_srl_correlate(ns) -> int:
    scores = _read_percentile_table(ns.table, "srl_star")
    accuracies = _read_percentile_table(ns.accuracy, "accuracy")
    shared = sorted(set(scores) & set(accuracies))
    if len(shared) < 2:
        raise InputError("need at least two shared percentiles to correlate")
    corr = pearson([scores[p] for p in shared], [accuracies[p] for p in shared])
    if ns.out is not None:
        with _written(ns, "correlation.csv") as fh:
            write_table(fh, "percentile,srl_star,accuracy",
                        ([str(p), fixed(scores[p]), fixed(accuracies[p])] for p in shared),
                        footer=[("pearson", corr)])
    print("pearson", fixed(corr))
    return 0


_PARSER = _build_parser()   # after the runners it dispatches to


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one verb; each library warning (a UserWarning, such as collapsed
    duplicate edges) prints at once as a `WARN: <message>` line on stderr."""
    argv = sys.argv[1:] if argv is None else list(argv)
    with warnings.catch_warnings():          # restores the filters and showwarning
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = lambda message, *_: print(f"WARN: {message}", file=sys.stderr)
        try:
            ns = parse_args(argv)
            with _all_or_nothing(ns):
                return ns.run(ns)
        except UsageError as exc:
            print(f"ERR:USAGE: {exc}", file=sys.stderr)
            return 2
        except NumericError as exc:
            print(f"ERR:NUMERIC: {exc}", file=sys.stderr)
            return 4
        except (RolewireError, ValueError) as exc:    # InputError and the rest
            print(f"ERR:INPUT: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
