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

Every verb takes --seed (default 0); sub-tasks derive their own streams
through a (seed, task-index) hash, so all outputs are byte-reproducible.

Exit codes: 0 ok, 2 usage, 3 input error, 4 numeric failure. Failures
print one line to stderr of the form "ERR:<USAGE|INPUT|NUMERIC>: <detail>".
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import product
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .errors import (
    EmptyGraphError,
    InputError,
    NumericError,
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
    dump_features_csv,
    dump_labels_csv,
    load_edge_list,
    load_features_csv,
    load_labels_csv,
    one_hot_labels,
)
from .metrics import (
    dump_candidates_csv,
    evaluate_candidates,
    mean_effective_resistance,
    pearson,
    select_epsilon,
)
from .partition import (
    Partition,
    dump_partition_csv,
    dump_quotient_csv,
    quotient,
    refine_eps_be,
)
from .rewire import Variant, augment_features, build_rewired, dump_rewired
from .spectral import dump_srl_csv, srl_report
from .teacher_student import TrainConfig, run_ts_experiment

VERBS = ("gen", "partition", "rewire", "srl", "select-eps", "effres",
         "ts-sim", "srl-correlate")


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so errors map to exit codes."""

    def error(self, message):
        raise UsageError(message)


def _comma_list(item):
    """argparse type: a comma-separated list of item(value), at least one."""
    def comma_list(text: str) -> list:
        values = [item(t.strip()) for t in text.split(",") if t.strip()]
        if not values:
            raise argparse.ArgumentTypeError("needs at least one value")
        return values
    return comma_list


def _grid_percentile(text: str) -> int:
    try:
        p = int(text)
    except ValueError:
        p = None
    if p not in PERCENTILE_GRID:
        raise argparse.ArgumentTypeError(f"percentile {text} not in grid {PERCENTILE_GRID}")
    return p


def _build_parser() -> _Parser:
    parser = _Parser(prog="rolewire", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", metavar="VERB")

    def add(verb, **kwargs):
        p = sub.add_parser(verb, **kwargs)
        p.add_argument("--seed", type=int, default=0)
        return p

    def add_eps_flags(p):
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--percentile", type=int, default=None,
                       choices=list(PERCENTILE_GRID))

    p = add("gen", help="emit a synthetic graph")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--classes", type=int, default=0)
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--out", required=True)

    p = add("partition", help="tolerance partition and quotient")
    p.add_argument("--graph", required=True)
    add_eps_flags(p)
    p.add_argument("--out", required=True)

    p = add("rewire", help="build an augmented graph")
    p.add_argument("--graph", required=True)
    add_eps_flags(p)
    p.add_argument("--variant", required=True,
                   choices=[v.value for v in Variant])
    p.add_argument("--features", default=None)
    p.add_argument("--out", required=True)

    p = add("srl", help="spectral-role-lift report")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    add_eps_flags(p)
    p.add_argument("--variant", default="repnodes",
                   choices=[v.value for v in Variant])
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--out", required=True)

    p = add("select-eps", help="score the percentile grid, pick a tolerance")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--variant", default="repnodes",
                   choices=[v.value for v in Variant if v != Variant.MASTER_NODE])
    p.add_argument("--out", default=None)   # no --out: table goes to stdout

    p = add("effres", help="mean effective resistance before/after rewiring")
    p.add_argument("--graph", required=True)
    add_eps_flags(p)   # optional here: baseline-only runs need no tolerance
    p.add_argument("--variant", default=None,
                   choices=[v.value for v in Variant])
    p.add_argument("--out", default=None)

    p = add("ts-sim", help="teacher-student simulation")
    p.add_argument("--families", type=_comma_list(str),
                   default="star,path,cycle,grid,ladder,tree")
    p.add_argument("--n", type=int, default=24)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--percentiles", type=_comma_list(_grid_percentile),
                   default="0,50,100")
    p.add_argument("--variant", default="full",
                   choices=[v.value for v in Variant if v != Variant.MASTER_NODE])
    p.add_argument("--epochs", type=int, default=5000)
    p.add_argument("--lr", type=float, default=0.005)
    p.add_argument("--out", required=True)

    p = add("srl-correlate", help="correlate a score table with accuracies")
    p.add_argument("--table", required=True)
    p.add_argument("--accuracy", required=True)
    p.add_argument("--out", default=None)

    return parser


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = _build_parser()
    ns = parser.parse_args(list(argv))
    if ns.verb is None:
        raise UsageError("a verb is required; see --help")
    if hasattr(ns, "eps") and hasattr(ns, "percentile"):
        if ns.eps is not None and ns.percentile is not None:
            raise UsageError("--eps and --percentile are mutually exclusive")
        needs = ns.verb in ("partition", "rewire", "srl")
        if needs and ns.eps is None and ns.percentile is None:
            raise UsageError("one of --eps or --percentile is required")
        if ns.eps is not None and not ns.eps >= 0:    # also rejects nan
            raise UsageError("--eps must be a nonnegative number or inf")
    if ns.verb == "effres":
        tolerance = ns.eps is not None or ns.percentile is not None
        if ns.variant is None and tolerance:
            raise UsageError("effres with a tolerance needs --variant")
        if ns.variant is not None and not tolerance:
            raise UsageError("effres with --variant needs --eps or --percentile")
    for verb, flag, low in (("srl", "layers", 1), ("gen", "classes", 0),
                            ("ts-sim", "classes", 1), ("ts-sim", "epochs", 1)):
        if ns.verb == verb and getattr(ns, flag) < low:
            raise UsageError(f"--{flag} must be at least {low}")
    if ns.verb == "gen" and not 0 <= ns.p <= 1:        # also rejects nan
        raise UsageError("--p must be a probability in [0, 1]")
    if ns.verb == "ts-sim":
        if not (math.isfinite(ns.lr) and ns.lr > 0):
            raise UsageError("--lr must be a positive finite number")
        if len(ns.families) * len(ns.percentiles) < 2:
            raise UsageError("--families x --percentiles gives one point; "
                             "the correlation needs at least 2")
    return ns


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _load_graph(path: str) -> tuple[Graph, dict[int, int]]:
    try:
        with open(path) as fh:
            raw = load_edge_list(fh)
    except OSError as exc:
        raise InputError(f"cannot read graph {path!r}: {exc}") from None
    graph, remap = compact_ids(raw)
    return graph, remap


def _load_labels(graph: Graph, path: str) -> NodeData:
    try:
        with open(path) as fh:
            return load_labels_csv(fh, graph.num_nodes)
    except OSError as exc:
        raise InputError(f"cannot read labels {path!r}: {exc}") from None


def _load_features(graph: Graph, path: Optional[str]) -> Optional[np.ndarray]:
    if path is None:
        return None
    try:
        with open(path) as fh:
            return load_features_csv(fh, graph.num_nodes)
    except OSError as exc:
        raise InputError(f"cannot read features {path!r}: {exc}") from None


def _resolve_eps(graph: Graph, ns: argparse.Namespace) -> tuple[float, Optional[int]]:
    if ns.eps is not None:
        return float(ns.eps), None
    return degree_percentile(graph, ns.percentile), ns.percentile


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_meta(path: Path, entries: dict) -> None:
    with open(path, "w") as fh:
        for key, val in entries.items():
            fh.write(f"{key}={val}\n")


def _remap_repr(remap: dict[int, int]) -> str:
    if all(old == new for old, new in remap.items()):
        return "identity"
    return ";".join(f"{old}:{new}" for old, new in sorted(remap.items()))


def _partition_for(graph: Graph, eps: float, variant: Variant) -> Partition:
    """The master node is the single block, which is what refinement
    returns at eps = infinity (no count spread exceeds it)."""
    if variant is Variant.MASTER_NODE:
        eps = math.inf
    return refine_eps_be(graph, eps)


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
    graph, remap = compact_ids(graph)
    out = _outdir(ns.out)
    with open(out / "graph.txt", "w") as fh:
        dump_edge_list(graph, fh)
    meta = {"family": ns.family, "n": graph.num_nodes, "seed": ns.seed,
            "classes": ns.classes}
    if ns.family == "er":
        meta["p"] = repr(ns.p)
    if data is not None:
        kept = np.fromiter(remap, dtype=np.int64)
        data = NodeData(num_nodes=len(kept), labels=data.labels[kept],
                        train_mask=data.train_mask[kept], val_mask=data.val_mask[kept],
                        test_mask=data.test_mask[kept])
        with open(out / "labels.csv", "w") as fh:
            dump_labels_csv(data, fh)
    _write_meta(out / "meta.txt", meta)
    return 0


def _run_partition(ns) -> int:
    graph, remap = _load_graph(ns.graph)
    eps, perc = _resolve_eps(graph, ns)
    part = refine_eps_be(graph, eps)
    qp = quotient(graph, part)
    out = _outdir(ns.out)
    with open(out / "partition.csv", "w") as fh:
        dump_partition_csv(part, fh)
    with open(out / "quotient.csv", "w") as fh:
        dump_quotient_csv(qp, eps, fh)
    _write_meta(out / "meta.txt", {
        "n": graph.num_nodes, "k": part.k, "eps": repr(eps),
        "percentile": perc if perc is not None else "",
        "residual": repr(qp.residual), "remap": _remap_repr(remap),
    })
    return 0


def _run_rewire(ns) -> int:
    graph, remap = _load_graph(ns.graph)
    eps, perc = _resolve_eps(graph, ns)
    variant = Variant(ns.variant)
    part = _partition_for(graph, eps, variant)
    features = augment_features(_load_features(graph, ns.features),
                                graph.num_nodes, part.k)
    rewired = build_rewired(graph, part, variant, eps=eps)
    out = _outdir(ns.out)
    with open(out / "rewired.txt", "w") as efh, open(out / "rewired.meta", "w") as mfh:
        dump_rewired(rewired, efh, mfh)
    with open(out / "features.csv", "w") as fh:
        dump_features_csv(features, fh)
    with open(out / "partition.csv", "w") as fh:
        dump_partition_csv(part, fh)
    _write_meta(out / "meta.txt", {
        "n": graph.num_nodes, "k": part.k, "variant": variant.value,
        "eps": repr(eps), "percentile": perc if perc is not None else "",
        "residual": repr(rewired.residual), "remap": _remap_repr(remap),
    })
    return 0


def _run_srl(ns) -> int:
    graph, _ = _load_graph(ns.graph)
    data = _load_labels(graph, ns.labels)
    eps, _ = _resolve_eps(graph, ns)
    variant = Variant(ns.variant)
    part = _partition_for(graph, eps, variant)
    rewired = build_rewired(graph, part, variant, eps=eps)
    y = one_hot_labels(data.labels, data.train_mask)
    report = srl_report(rewired, y, h_degree=ns.layers)
    out = _outdir(ns.out)
    with open(out / "srl.csv", "w") as fh:
        dump_srl_csv(report, fh)
    return 0


def _run_select_eps(ns) -> int:
    graph, _ = _load_graph(ns.graph)
    data = _load_labels(graph, ns.labels)
    candidates = evaluate_candidates(graph, data, Variant(ns.variant))
    chosen = select_epsilon(candidates)
    if ns.out is not None:
        out = _outdir(ns.out)
        with open(out / "candidates.csv", "w") as fh:
            dump_candidates_csv(candidates, chosen, fh)
    else:
        dump_candidates_csv(candidates, chosen, sys.stdout)
    print(f"selected percentile={chosen.percentile} eps={chosen.eps:.6f} "
          f"k={chosen.k} srl_star={chosen.srl_star:.6f}")
    return 0


def _run_effres(ns) -> int:
    graph, _ = _load_graph(ns.graph)
    baseline = mean_effective_resistance(graph.adjacency)
    lines = [("baseline", baseline)]
    if ns.variant is not None:
        eps, _ = _resolve_eps(graph, ns)
        variant = Variant(ns.variant)
        part = _partition_for(graph, eps, variant)
        rewired = build_rewired(graph, part, variant, eps=eps)
        lines.append(("rewired", mean_effective_resistance(
            rewired.adjacency, origin_count=graph.num_nodes)))
    for name, value in lines:
        print(f"{name} {value:.6f}")
    if ns.out is not None:
        out = _outdir(ns.out)
        with open(out / "effres.csv", "w") as fh:
            fh.write("which,value\n")
            for name, value in lines:
                fh.write(f"{name},{value:.6f}\n")
    return 0


def _run_ts_sim(ns) -> int:
    graphs = [(fam, make_graph(fam, ns.n, seed=ns.seed)) for fam in ns.families]
    variant = Variant(ns.variant)
    config = TrainConfig(learning_rate=ns.lr, epochs=ns.epochs, seed=ns.seed)
    results, corr = run_ts_experiment(
        graphs, variant, ns.percentiles, config, d_out=ns.classes)
    out = _outdir(ns.out)
    with open(out / "ts.csv", "w") as fh:
        fh.write("dataset,variant,percentile,eps,srl,mse,seed\n")
        cells = product(ns.families, ns.percentiles)
        for (fam, perc), res in zip(cells, results):
            fh.write(f"{fam},{variant.value},{perc},{res.eps:.6f},"
                     f"{res.srl:.6f},{res.mse_final:.6f},{res.seed}\n")
        fh.write(f"# pearson={corr:.6f}\n")
    print(f"pearson {corr:.6f}")
    return 0


def _read_percentile_table(path: str, column: str) -> dict[int, float]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from None
    lines = [(lineno, l) for lineno, l in enumerate(text.splitlines(), start=1)
             if l and not l.startswith("#")]
    if not lines:
        raise InputError(f"{path!r} is empty")
    header = lines[0][1].split(",")
    for col in ("percentile", column):
        if col not in header:
            raise InputError(f"{path!r} lacks a {col!r} column")
    at_p, at_value = header.index("percentile"), header.index(column)
    rows: dict[int, float] = {}
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(header):
            raise InputError(f"{path!r} line {lineno}: expected {len(header)} "
                             f"fields, got {len(parts)}")
        try:
            p, value = int(parts[at_p]), float(parts[at_value])
        except ValueError:
            raise InputError(f"{path!r} line {lineno}: bad percentile or "
                             f"{column} value") from None
        if not math.isfinite(value):
            raise InputError(f"{path!r} line {lineno}: non-finite {column} value")
        if p in rows:
            raise InputError(f"{path!r} line {lineno}: percentile {p} listed twice")
        rows[p] = value
    return rows


def _run_srl_correlate(ns) -> int:
    scores = _read_percentile_table(ns.table, "srl_star")
    accuracies = _read_percentile_table(ns.accuracy, "accuracy")
    shared = sorted(set(scores) & set(accuracies))
    if len(shared) < 2:
        raise InputError("need at least two shared percentiles to correlate")
    corr = pearson([scores[p] for p in shared], [accuracies[p] for p in shared])
    print(f"pearson {corr:.6f}")
    if ns.out is not None:
        out = _outdir(ns.out)
        with open(out / "correlation.csv", "w") as fh:
            fh.write("percentile,srl_star,accuracy\n")
            for p in shared:
                fh.write(f"{p},{scores[p]:.6f},{accuracies[p]:.6f}\n")
            fh.write(f"# pearson={corr:.6f}\n")
    return 0


_RUNNERS = {
    "gen": _run_gen,
    "partition": _run_partition,
    "rewire": _run_rewire,
    "srl": _run_srl,
    "select-eps": _run_select_eps,
    "effres": _run_effres,
    "ts-sim": _run_ts_sim,
    "srl-correlate": _run_srl_correlate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = parse_args(argv)
        return _RUNNERS[ns.verb](ns)
    except UsageError as exc:
        print(f"ERR:USAGE: {exc}", file=sys.stderr)
        return 2
    except (InputError, ValueError) as exc:
        print(f"ERR:INPUT: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"ERR:NUMERIC: {exc}", file=sys.stderr)
        return 4
    except RolewireError as exc:
        print(f"ERR:INPUT: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
