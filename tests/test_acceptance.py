"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts. The corpus fixture provides the
>= 50 seeded graphs shared by the structural criteria.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from rolewire.cli import main
from rolewire.generators import assign_splits, eccentricity_labels
from rolewire.graph import (
    bfs_distances,
    degree_percentile,
    graph_from_edges,
    one_hot_labels,
)
from rolewire.metrics import (
    EpsCandidate,
    mean_effective_resistance,
    select_epsilon,
    srl_star,
)
from rolewire.partition import (
    color_refinement_oracle,
    quotient,
    refine_eps_be,
    validate_aep,
)
from rolewire.rewire import Variant, build_rewired
from rolewire.spectral import (
    normalized_shift,
    per_role_lift,
    role_basis,
    rotate_basis,
    srl_report,
)
from rolewire.teacher_student import (
    LinearGnnWeights,
    TrainConfig,
    forward,
    gaussian_init,
    run_ts_experiment,
    teacher_labels,
)

from conftest import (as_block_set, block_tuples, complete_graph, crop_to_observed,
                      cycle_graph, gradients, is_connected, master_node_adjacency,
                      membership_matrix, mse_loss, path_graph, random_partition)
from test_spectral import oracle_srl

PERCENTILES = (0, 25, 50, 75, 100)


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE criterion {criterion:2d}: PASS - {text}")


def train_label_matrix(graph, seed=0, num_classes=3):
    labels = eccentricity_labels(graph, num_classes)
    train, _, _ = assign_splits(graph.num_nodes, seed)
    if not train.any():
        train = np.ones(graph.num_nodes, dtype=bool)
    return one_hot_labels(labels, train)


def rewired_at(graph, eps, variant):
    part = refine_eps_be(graph, eps)
    return part, build_rewired(graph, part, variant, eps=eps)


def test_criterion_1_exact_ep_against_oracle(corpus):
    start = time.monotonic()
    for name, g in corpus:
        part = refine_eps_be(g, 0)
        oracle = color_refinement_oracle(g)
        assert as_block_set(part) == as_block_set(oracle), name
        qp = quotient(g, part)
        assert qp.residual <= 1e-12, name
        a = g.dense_adjacency()
        r = membership_matrix(part).toarray()
        assert np.abs(a @ r - r @ qp.Q).max() <= 1e-12, name
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"{len(corpus)} graphs, exact refinement == 1-WL oracle, "
              f"residual 0 ({elapsed:.2f}s)")


def test_criterion_2_aep_tolerance(corpus):
    checked = 0
    for name, g in corpus:
        for p in PERCENTILES:
            eps = degree_percentile(g, p)
            part = refine_eps_be(g, eps)
            assert validate_aep(g, part, eps), (name, p)
            assert quotient(g, part).residual <= eps + 1e-9, (name, p)
            checked += 1
    report(2, f"{checked} (graph, percentile) pairs satisfy the tolerance")


def test_criterion_3_master_node_limit(corpus):
    for name, g in corpus:
        eps = degree_percentile(g, 100)
        part, rg = rewired_at(g, eps, Variant.REP_NODES)
        assert part.k == 1, name
        explicit = master_node_adjacency(g)
        assert np.array_equal(rg.adjacency.indptr, explicit.indptr), name
        assert np.array_equal(rg.adjacency.indices, explicit.indices), name
        assert np.array_equal(rg.adjacency.data, explicit.data), name
    report(3, "100th-percentile rewiring is bit-identical to the master node")


def test_criterion_4_two_hop_communication(corpus):
    for name, g in corpus:
        for p in (0, 50):
            eps = degree_percentile(g, p)
            part, rg = rewired_at(g, eps, Variant.REP_NODES)
            indptr = rg.adjacency.indptr.astype(np.int64)
            indices = rg.adjacency.indices.astype(np.int64)
            for block in block_tuples(part):
                dist = bfs_distances(indptr, indices, block[0])
                assert all(0 <= dist[u] <= 2 for u in block), (name, p)
    report(4, "same-block pairs communicate within two hops in every "
              "representative-node graph")


def test_criterion_5_effective_resistance_reduction(corpus):
    p3 = path_graph(3)
    assert mean_effective_resistance(p3.adjacency) == \
        pytest.approx(4.0 / 3.0, abs=1e-9)
    c4 = cycle_graph(4)
    assert mean_effective_resistance(c4.adjacency) == \
        pytest.approx(5.0 / 6.0, abs=1e-9)
    checked = 0
    for name, g in corpus:
        if not is_connected(g):
            continue
        base = mean_effective_resistance(g.adjacency)
        part = refine_eps_be(g, 0)
        for variant in (Variant.REP_NODES, Variant.REP_EDGES):
            rg = build_rewired(g, part, variant)
            after = mean_effective_resistance(rg.adjacency,
                                              origin_count=g.num_nodes)
            assert after <= base + 1e-9, (name, variant)
            if max(len(b) for b in block_tuples(part)) >= 2:
                assert base - after > 1e-6, (name, variant)
            checked += 1
    report(5, f"mean effective resistance never rises over {checked} "
              "rewirings; strict drop with nontrivial blocks")


def test_criterion_6_srl_structural_sanity(corpus):
    oracle_checked = 0
    for name, g in corpus:
        y = train_label_matrix(g)
        for p in (0, 50, 100):
            eps = degree_percentile(g, p)
            part, rg = rewired_at(g, eps, Variant.REP_NODES)
            rep = srl_report(rg, y)
            assert -1e-12 <= rep.rho <= 1.0 + 1e-12, (name, p)
            role_energy = rep.rho * rep.e_tot
            if role_energy > 1e-12:
                assert abs(rep.omega.sum() - 1.0) <= 1e-12, (name, p)
            assert (rep.lambda_plus >=
                    np.maximum(rep.mu_rewired, rep.nu) - 1e-10).all(), (name, p)
            if g.num_nodes <= 32 and p == 0:
                expected = oracle_srl(g, rg, part, y)
                assert rep.srl == pytest.approx(expected, rel=1e-8,
                                                abs=1e-12), name
                oracle_checked += 1
    report(6, f"energy/lift invariants hold; {oracle_checked} graphs match "
              "the dense brute-force oracle to 1e-8")


def test_criterion_7_commutator_zero_at_single_block(corpus):
    for name, g in corpus:
        eps = degree_percentile(g, 100)
        part, rg = rewired_at(g, eps, Variant.REP_NODES)
        assert part.k == 1
        rep = srl_report(rg, train_label_matrix(g))
        assert rep.commutator_norm == 0.0, name
    report(7, "commutator norm is exactly zero for every single-block case")


def _aligned_teacher(graph, rg, part, d_out=3, scales=(1.0, -2.0, 0.5)):
    """Two-layer teacher whose effective signal rides the lifted role
    direction; at a single exact-equitable block this makes the response
    model of the bound exact."""
    n = graph.num_nodes
    s_obs = normalized_shift(graph.adjacency)
    s_rew = normalized_shift(rg.adjacency)
    c = rotate_basis(role_basis(part), s_obs)[:, 0]
    mu_obs, mu_rew, tau, nu, lam, _ = per_role_lift(
        c, c @ s_obs @ c, s_rew[:n, :n], s_rew[n:, :n], s_rew[n:, n:])
    m = np.array([[mu_rew, tau], [tau, nu]])
    _, vecs = np.linalg.eigh(m)
    v_plus = vecs[:, -1]
    w1 = np.array([[v_plus[0] / np.sqrt(n), 0.0], [v_plus[1], 0.0]])
    w2 = np.array([list(scales), [0.0] * d_out])
    return LinearGnnWeights((w1, w2))


def test_criterion_8_error_bound_on_commuting_instances():
    # Regular graphs: the single block is an exact equitable partition, so
    # the restricted shifts are scalars (commutator exactly 0) and the
    # role subspace is invariant under both shifts. Teachers aligned with
    # the lifted role direction instantiate the response model the bound
    # assumes. Every instance here is a k=1 case and all are kept by the
    # commutator filter.
    regulars = [
        cycle_graph(4), cycle_graph(6), cycle_graph(8),
        complete_graph(4), complete_graph(5),
        graph_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                             (0, 3), (1, 4), (2, 5)]),   # triangular prism
    ]
    checked = 0
    for g in regulars:
        eps = degree_percentile(g, 100)
        for variant in (Variant.REP_NODES, Variant.REP_EDGES, Variant.FULL):
            part, rg = rewired_at(g, eps, variant)
            assert part.k == 1
            teacher = _aligned_teacher(g, rg, part)
            y_true = teacher_labels(rg, teacher)
            s_obs = normalized_shift(g.adjacency)
            x = np.ones((g.num_nodes, 1))
            y_obs = forward(s_obs, x, crop_to_observed(teacher, 1))
            rep = srl_report(rg, y_true, h_degree=2)
            if rep.commutator_norm >= 1e-8:
                continue
            measured = float(((y_true - y_obs) ** 2).sum())
            assert measured <= rep.bound_rhs + 1e-6, (variant, measured,
                                                      rep.bound_rhs)
            checked += 1
    assert checked == len(regulars) * 3
    report(8, f"measured teacher-student error within the bound on "
              f"{checked} commuting single-block instances")


def test_criterion_9_teacher_student_correlation():
    start = time.monotonic()
    # pinned desk-scale configuration
    from rolewire.generators import make_graph
    families = ["star", "path", "cycle", "grid", "ladder", "tree"]
    graphs = [make_graph(fam, 24, seed=0) for fam in families]
    config = TrainConfig(seed=0)
    results, corr = run_ts_experiment(graphs, Variant.FULL, [0, 50, 100], config)
    elapsed = time.monotonic() - start
    assert len(results) == 18
    assert corr >= 0.5
    assert elapsed < 300.0

    # gradient check: analytic vs central differences on 4-node instances
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    shift = normalized_shift(g.adjacency)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 2))
    y = rng.standard_normal((4, 2))
    weights = gaussian_init([2, 2, 2], [1.0, 1.0], seed=1)
    propagated = shift @ shift @ x
    grads = gradients(propagated, weights, y)
    h = 1e-5
    for li, layer in enumerate(weights.layers):
        for r in range(layer.shape[0]):
            for cc in range(layer.shape[1]):
                plus = [w.copy() for w in weights.layers]
                minus = [w.copy() for w in weights.layers]
                plus[li][r, cc] += h
                minus[li][r, cc] -= h
                fd = (mse_loss(propagated, plus, y)
                      - mse_loss(propagated, minus, y)
                      ) / (2 * h)
                assert grads[li][r, cc] == pytest.approx(fd, rel=1e-5,
                                                         abs=1e-10)
    report(9, f"Pearson(lift, error) = {corr:.3f} >= 0.5 over 18 runs "
              f"({elapsed:.1f}s); gradients match finite differences")


def _tree_digest(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_10_controls_and_determinism(tmp_path):
    # random partitions reproduce block-size multisets, seed-deterministic
    for sizes in ([4], [1, 1, 1, 1], [2, 2], [3, 5, 8]):
        n = sum(sizes)
        a = random_partition(n, sizes, seed=7)
        b = random_partition(n, sizes, seed=7)
        assert block_tuples(a) == block_tuples(b)
        assert sorted(len(blk) for blk in block_tuples(a)) == sorted(sizes)

    # every verb is byte-reproducible under a fixed seed
    gen_dir = tmp_path / "gen0"
    assert main(["gen", "--family", "lobster", "--n", "16", "--classes", "3",
                 "--seed", "3", "--out", str(gen_dir)]) == 0
    graph = str(gen_dir / "graph.txt")
    labels = str(gen_dir / "labels.csv")
    acc = tmp_path / "acc.csv"
    acc.write_text("percentile,accuracy\n0,0.9\n25,0.7\n50,0.6\n75,0.5\n100,0.4\n")

    def one_round(base: Path) -> dict[str, str]:
        cmds = [
            ["gen", "--family", "lobster", "--n", "16", "--classes", "3",
             "--seed", "3", "--out", str(base / "gen")],
            ["partition", "--graph", graph, "--percentile", "25",
             "--out", str(base / "part")],
            ["rewire", "--graph", graph, "--percentile", "0", "--variant",
             "repedges", "--out", str(base / "rew")],
            ["srl", "--graph", graph, "--labels", labels, "--percentile", "0",
             "--variant", "repnodes", "--out", str(base / "srl")],
            ["select-eps", "--graph", graph, "--labels", labels,
             "--out", str(base / "sel")],
            ["effres", "--graph", graph, "--percentile", "100", "--variant",
             "repnodes", "--out", str(base / "eff")],
            ["ts-sim", "--families", "star,path", "--n", "8", "--percentiles",
             "0,100", "--epochs", "40", "--seed", "5",
             "--out", str(base / "ts")],
            ["srl-correlate", "--table", str(base / "sel" / "candidates.csv"),
             "--accuracy", str(acc), "--out", str(base / "corr")],
        ]
        for argv in cmds:
            assert main(argv) == 0, argv
        return _tree_digest(base)

    first = one_round(tmp_path / "run_a")
    second = one_round(tmp_path / "run_b")
    assert first == second
    report(10, "random partitions and all eight verbs are byte-reproducible")


def test_criterion_11_starred_score_mechanics():
    # rho = 1: score equals the z-score of sqrt(lift), exactly
    lifts = [0.0, 0.01, 0.04, 0.09, 0.16]
    cands = [EpsCandidate(p, float(p), 1, srl=s, rho=1.0, ncs2=0.5)
             for p, s in zip(PERCENTILES, lifts)]
    scored = srl_star(cands)
    roots = np.sqrt(lifts)
    z = (roots - roots.mean()) / roots.std()
    for cand, expected in zip(scored, z):
        assert cand.srl_star == pytest.approx(expected, abs=1e-12)

    # zero-variance candidate sets contribute a zero term
    flat = [EpsCandidate(p, float(p), 1, srl=0.04, rho=1.0, ncs2=0.1 * (i + 1))
            for i, p in enumerate(PERCENTILES)]
    for cand in srl_star(flat):
        assert cand.srl_star == 0.0

    # argmax selection with the smaller-percentile tie rule
    scores = [-1.0, 0.0, 2.0, 0.5, 0.0]
    picked = select_epsilon([EpsCandidate(p, 0.0, 1, 0.0, 1.0, 0.0, srl_star=s)
                             for p, s in zip(PERCENTILES, scores)])
    assert picked.percentile == 50
    tied = select_epsilon([EpsCandidate(p, 0.0, 1, 0.0, 1.0, 0.0, srl_star=s)
                           for p, s in zip(PERCENTILES, [0, 1, 1, 0, 1])])
    assert tied.percentile == 25
    report(11, "starred-score reduction, zero-variance convention, and "
               "tie-breaking all hold")
