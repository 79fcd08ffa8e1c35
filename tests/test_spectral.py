"""Shifts, the Jacobi eigensolver, role lifts, energies, and the full
pipeline against a dense brute-force oracle.

The oracle rebuilds every quantity from scratch with numpy.linalg.eigh and
explicit dense formulas (no shared code with the pipeline beyond numpy),
then evaluates the lift formula symbol by symbol.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, reject, settings, strategies as st

from rolewire import spectral
from rolewire.cli import main
from rolewire.errors import EmptyLabelsError, InputError, NonSymmetricError
from rolewire.generators import (FAMILIES, assign_splits, eccentricity_labels, make_dataset,
                                 make_graph)
from rolewire.graph import (PERCENTILE_GRID, NodeData, degree_percentile, graph_from_edges,
                            load_edge_list, one_hot_labels)
from rolewire.metrics import evaluate_candidates
from rolewire.partition import Partition, refine_eps_be
from rolewire.rewire import Variant, build_rewired
from rolewire.spectral import (
    bound_error,
    commutator_norm,
    normalized_shift,
    observed_side,
    per_role_lift,
    role_basis,
    role_energies,
    rotate_basis,
    srl_report,
    symmetric_eig,
)
from rolewire.teacher_student import TrainConfig, run_ts_experiment

from conftest import (assert_same_report, cycle_graph, from_blocks, jacobi_eig_oracle,
                      normalized_shift_oracle, path_graph, srl_report_oracle, star_graph)


# ---------------------------------------------------------------------------
# Independent dense oracle
# ---------------------------------------------------------------------------

def oracle_shift(a):
    b = a + np.eye(a.shape[0])
    d = b.sum(axis=1)
    return b / np.sqrt(np.outer(d, d))


def canonical_eigh(m):
    w, v = np.linalg.eigh(m)
    for j in range(v.shape[1]):
        nz = np.flatnonzero(np.abs(v[:, j]) > 1e-12)
        if len(nz) and v[nz[0], j] < 0:
            v[:, j] = -v[:, j]
    return w, v


def oracle_srl(graph, rewired, partition, y):
    n = graph.num_nodes
    s_obs = oracle_shift(graph.dense_adjacency())
    s_rew = oracle_shift(rewired.adjacency.toarray())

    r = np.zeros((n, partition.k))
    for u in range(n):
        r[u, partition.block_of[u]] = 1.0
    gram = r.T @ r
    wg, ug = np.linalg.eigh(gram)
    c0 = r @ ug @ np.diag(wg ** -0.5) @ ug.T
    _, v = canonical_eigh((c0.T @ s_obs @ c0 + (c0.T @ s_obs @ c0).T) / 2.0)
    c = c0 @ v

    deltas = np.zeros(partition.k)
    for j in range(partition.k):
        cj = c[:, j]
        mu_obs = cj @ s_obs @ cj
        mu_rew = cj @ s_rew[:n, :n] @ cj
        coupling = s_rew[n:, :n] @ cj
        tau = np.linalg.norm(coupling)
        if tau < 1e-12:
            lam = mu_rew
        else:
            vhat = coupling / tau
            nu = vhat @ s_rew[n:, n:] @ vhat
            lam = np.linalg.eigvalsh(np.array([[mu_rew, tau], [tau, nu]]))[-1]
        deltas[j] = lam - mu_obs

    p_u = c @ c.T
    e_tot = (y ** 2).sum()
    e_roles = sum(float(np.linalg.norm(p_u @ y[:, cls]) ** 2)
                  for cls in range(y.shape[1]))
    rho = e_roles / e_tot
    beta_sq = np.array([sum(float(c[:, j] @ y[:, cls]) ** 2
                            for cls in range(y.shape[1]))
                        for j in range(partition.k)])
    omega = beta_sq / beta_sq.sum() if beta_sq.sum() > 0 else np.zeros_like(beta_sq)
    return rho * float((omega * deltas ** 2).sum())


def labeled_case(graph, eps, variant, seed=0, num_classes=3):
    part = refine_eps_be(graph, eps)
    rg = build_rewired(graph, part, variant, eps=eps)
    labels = eccentricity_labels(graph, num_classes)
    train, _, _ = assign_splits(graph.num_nodes, seed)
    if not train.any():
        train = np.ones(graph.num_nodes, dtype=bool)
    y = one_hot_labels(labels, train)
    return part, rg, y


# ---------------------------------------------------------------------------
# Shift and basis
# ---------------------------------------------------------------------------

class TestNormalizedShift:
    def test_single_edge(self):
        s = normalized_shift(sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(s, 0.5)

    def test_isolated_node(self):
        assert np.array_equal(normalized_shift(sp.csr_matrix((1, 1))), [[1.0]])

    def test_path3_entry(self, p3):
        s = normalized_shift(p3.adjacency)
        assert s[0, 1] == pytest.approx(1.0 / np.sqrt(6.0))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            normalized_shift(sp.csr_matrix([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetricError):
            normalized_shift(sp.csr_matrix([[0.0, 1.0], [0.0, 0.0]]))


WEIGHTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5, 2.0, 1.0 / 3.0, 1e-300]),
                    st.floats(0.0, 1e3, allow_nan=False))


@st.composite
def weighted_adjacencies(draw, max_nodes=12):
    """Symmetric nonnegative sparse matrices: isolated nodes, self-loops,
    explicitly stored 0.0 and -0.0 weights, float or integer entries, and
    1e-300 weights stored on one side only (asymmetric within tolerance)."""
    n = draw(st.integers(1, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    rows, cols, data = [], [], []
    for (u, v), keep in zip(pairs, present):
        if keep:
            w = draw(WEIGHTS)
            one_sided = u == v or (w == 1e-300 and draw(st.booleans()))
            rows += [u] if one_sided else [u, v]
            cols += [v] if one_sided else [v, u]
            data += [w] if one_sided else [w, w]
    data = np.array(data, dtype=np.float64)
    if draw(st.booleans()):
        data = np.floor(data).astype(np.int64)
    fmt = draw(st.sampled_from(["csr", "csc", "coo"]))
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).asformat(fmt)


class TestNormalizedShiftMatchesOracle:
    """The one-buffer shift gives the bytes of the dense formula."""

    @settings(max_examples=300, deadline=None)
    @given(adjacency=weighted_adjacencies())
    def test_bytes_equal_the_dense_formula(self, adjacency):
        got = normalized_shift(adjacency)
        want = normalized_shift_oracle(adjacency)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_explicit_negative_zero_lands_positive(self):
        adjacency = sp.csr_matrix((np.array([-0.0, -0.0, 1.0, 1.0]),
                                   (np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1]))),
                                  shape=(3, 3))
        s = normalized_shift(adjacency)
        assert np.signbit(s).sum() == 0
        assert s.tobytes() == normalized_shift_oracle(adjacency).tobytes()

    @pytest.mark.parametrize("variant", [Variant.FULL, Variant.REP_NODES])
    def test_several_blocks_on_a_large_rewiring(self, variant):
        g = make_graph("tree", 600)
        rg = build_rewired(g, refine_eps_be(g, degree_percentile(g, 25)), variant)
        for adjacency in (g.adjacency, rg.adjacency):
            assert normalized_shift(adjacency).tobytes() == \
                normalized_shift_oracle(adjacency).tobytes()

    @pytest.mark.parametrize("matrix,error", [
        ([[0.0, 1.0], [0.0, 0.0]], NonSymmetricError),
        ([[0.0, 1.0], [1.0 + 1e-9, 0.0]], NonSymmetricError),
        ([[0.0, -1.0], [-1.0, 0.0]], ValueError),
        ([[-1.0, 0.0], [0.0, 0.0]], ValueError),
    ])
    def test_rejects_what_the_dense_formula_rejects(self, matrix, error):
        for shift in (normalized_shift, normalized_shift_oracle):
            with pytest.raises(error):
                shift(sp.csr_matrix(matrix))

    def test_accepts_asymmetry_within_tolerance(self):
        adjacency = sp.csr_matrix([[0.0, 1.0], [1.0 + 1e-13, 0.0]])
        assert normalized_shift(adjacency).tobytes() == \
            normalized_shift_oracle(adjacency).tobytes()


class TestRoleBasis:
    def test_closed_form(self):
        c = role_basis(from_blocks(4, [[0], [1, 2, 3]]))
        assert np.allclose(c[:, 0], [1, 0, 0, 0])
        assert np.allclose(c[1:, 1], 1.0 / np.sqrt(3.0))

    def test_singletons_identity(self):
        assert np.array_equal(role_basis(Partition.from_assignment(range(5))), np.eye(5))

    def test_orthonormal(self, corpus):
        for _, g in corpus[:10]:
            part = refine_eps_be(g, 0)
            c = role_basis(part)
            assert np.abs(c.T @ c - np.eye(part.k)).max() <= 1e-10


class TestSymmetricEig:
    def test_swap_matrix(self):
        w, _ = symmetric_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_identity(self):
        w, v = symmetric_eig(np.eye(3))
        assert np.allclose(w, 1.0)
        assert np.array_equal(v, np.eye(3))

    def test_diagonal_sorted(self):
        w, _ = symmetric_eig(np.diag([3.0, -1.0]))
        assert np.allclose(w, [-1.0, 3.0])

    @pytest.mark.parametrize("n,seed", [(2, 0), (5, 1), (9, 2), (16, 3)])
    def test_against_lapack(self, n, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n))
        m = (m + m.T) / 2.0
        w, v = symmetric_eig(m)
        assert np.allclose(np.sort(w), np.linalg.eigvalsh(m), atol=1e-9)
        assert np.abs(m @ v - v @ np.diag(w)).max() <= 1e-9 * np.abs(m).max()
        assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((7, 7))
        m = (m + m.T) / 2.0
        w1, v1 = symmetric_eig(m)
        w2, v2 = symmetric_eig(m)
        assert np.array_equal(w1, w2) and np.array_equal(v1, v2)

    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetricError):
            symmetric_eig(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_zero_matrix(self):
        w, v = symmetric_eig(np.zeros((3, 3)))
        assert np.array_equal(w, np.zeros(3))
        assert np.array_equal(v, np.eye(3))


def assert_same_bits(got, expected):
    (w, v), (w_ref, v_ref) = got, expected
    assert w.tobytes() == w_ref.tobytes()
    assert v.tobytes() == v_ref.tobytes()
    assert v.flags.c_contiguous        # so c @ v multiplies as before


@st.composite
def exactly_symmetric_matrices(draw):
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["gaussian", "integer", "sparse", "repeated", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        m = rng.standard_normal((n, n))
    elif kind == "integer":
        m = rng.integers(-3, 4, (n, n)).astype(float)
    elif kind == "sparse":
        m = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
    elif kind == "repeated":
        size = draw(st.integers(1, n))
        m = rng.standard_normal() * np.kron(np.eye(n // size), np.ones((size, size)))
    else:
        m = np.zeros((n, n))
    return (m + m.T) / 2.0


class TestSymmetricEigMatchesOracle:
    """The row-only rotation gives the two-sided rotation's bits."""

    @settings(max_examples=300, deadline=None)
    @given(exactly_symmetric_matrices())
    def test_exactly_symmetric_input(self, m):
        assert_same_bits(symmetric_eig(m), jacobi_eig_oracle(m))

    @pytest.mark.parametrize("family", [f for f in sorted(FAMILIES) if f != "line"])
    def test_pipeline_restrictions(self, family):
        # "line" is an alias of "path". The matrices are rotate_basis's
        # inputs C^T S C at the partitions the pipeline builds.
        for seed in (0, 1, 2):
            graph, _ = make_dataset(family, 40, seed=seed)
            for percentile in (0, 25, 50, 100):
                c = role_basis(refine_eps_be(graph, degree_percentile(graph, percentile)))
                t = c.T @ graph.shift @ c
                t = (t + t.T) / 2.0
                assert_same_bits(symmetric_eig(t), jacobi_eig_oracle(t))

    def test_near_symmetric_input_is_its_mirrored_upper_triangle(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 6))
        m = (m + m.T) / 2.0
        mirrored = m.copy()
        m[np.tril_indices(6, -1)] += 1e-13
        assert_same_bits(symmetric_eig(m), jacobi_eig_oracle(mirrored))

    def test_lower_entries_under_a_zero_upper_row_are_dropped(self):
        # Row 0's pivots are skipped in the first sweep, so without the
        # mirror its column's lower entries would be rotated into the
        # other rows, and enough of them to keep the sweeps going.
        t = 0.3 * np.random.default_rng(4).standard_normal((5, 5))
        mirrored = np.zeros((6, 6))
        mirrored[0, 0] = 1.0
        mirrored[1:, 1:] = (t + t.T) / 2.0
        m = mirrored.copy()
        m[1:, 0] = 0.9e-12
        w, v = symmetric_eig(m)
        assert_same_bits((w, v), jacobi_eig_oracle(mirrored))
        assert v[0].tolist() == [0.0 if w_j != 1.0 else 1.0 for w_j in w]


class TestRotateBasis:
    def test_k1_unchanged_up_to_sign(self, c4):
        s = normalized_shift(c4.adjacency)
        c = role_basis(refine_eps_be(c4, 0))
        rotated = rotate_basis(c, s)
        assert np.allclose(np.abs(rotated), np.abs(c))

    def test_diagonalizes_restriction(self, corpus):
        for _, g in corpus[:10]:
            part = refine_eps_be(g, 0)
            s = normalized_shift(g.adjacency)
            c = rotate_basis(role_basis(part), s)
            t = c.T @ s @ c
            assert np.abs(t - np.diag(np.diag(t))).max() <= 1e-8
            assert np.abs(c.T @ c - np.eye(part.k)).max() <= 1e-10


# ---------------------------------------------------------------------------
# Per-role pieces
# ---------------------------------------------------------------------------

class TestPerRoleLift:
    def test_zero_coupling_same_restriction(self):
        s = np.array([[0.3, 0.1], [0.1, 0.4]])
        c = np.array([1.0, 0.0])
        out = per_role_lift(c, c @ s @ c, s, np.zeros((1, 2)), np.zeros((1, 1)))
        mu_obs, mu_rew, tau, nu, lam, delta = out
        assert tau == 0.0 and nu == 0.0
        assert lam == mu_rew == mu_obs
        assert delta == 0.0

    def test_swap_lift(self):
        # engineered so the 2x2 is [[0, 1], [1, 0]]: lambda_plus = 1
        c = np.array([1.0])
        mu_obs = 0.0
        s_oo = np.array([[0.0]])
        s_vo = np.array([[1.0]])
        s_vv = np.array([[0.0]])
        mu_obs, mu_rew, tau, nu, lam, delta = per_role_lift(
            c, mu_obs, s_oo, s_vo, s_vv)
        assert tau == 1.0 and lam == pytest.approx(1.0)
        assert delta == pytest.approx(1.0)

    def test_diagonal_case_takes_max(self):
        c = np.array([1.0])
        out = per_role_lift(c, 0.0, np.array([[0.2]]),
                            np.array([[1e-15]]), np.array([[0.9]]))
        assert out[4] == pytest.approx(0.2)   # tau below cutoff: mu_rew wins

    def test_dominates_diagonal(self, corpus):
        for _, g in corpus[:10]:
            part, rg, y = labeled_case(g, 1.0, Variant.REP_NODES)
            rep = srl_report(observed_side(rg, rg.graph.shift), y)
            assert (rep.lambda_plus >= np.maximum(rep.mu_rewired, rep.nu) - 1e-10).all()


class TestRoleEnergies:
    def test_orthogonal_labels_zero_rho(self):
        c = np.array([[1.0], [0.0]])
        y = np.array([[0.0], [2.0]])
        rho, omega, e_tot = role_energies(c, y)
        assert rho == 0.0 and e_tot == 4.0
        assert np.array_equal(omega, [0.0])

    def test_block_constant_labels_full_rho(self, star4):
        part = refine_eps_be(star4, 0)
        c = role_basis(part)
        y = one_hot_labels(np.array([0, 1, 1, 1]), np.ones(4, dtype=bool))
        rho, omega, _ = role_energies(c, y)
        assert rho == pytest.approx(1.0)
        assert omega.sum() == pytest.approx(1.0)

    def test_singleton_identity(self):
        y = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        rho, omega, e_tot = role_energies(np.eye(3), y)
        assert rho == pytest.approx(1.0)
        assert np.allclose(omega, [1.0 / 5.0, 4.0 / 5.0, 0.0])

    def test_empty_labels(self):
        with pytest.raises(EmptyLabelsError):
            role_energies(np.eye(2), np.zeros((2, 1)))


class TestCommutator:
    def test_k1_exactly_zero(self, corpus):
        for _, g in corpus[:15]:
            eps = float(g.degrees().max())
            part, rg, y = labeled_case(g, eps, Variant.REP_NODES)
            assert part.k == 1
            rep = srl_report(observed_side(rg, rg.graph.shift), y)
            assert rep.commutator_norm == 0.0

    def test_diagonal_restrictions_commute(self):
        assert commutator_norm(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 0.0

    def test_hand_case(self):
        m1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        m2 = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert commutator_norm(m1, m2) == pytest.approx(np.sqrt(2.0))


class TestBoundError:
    def test_linear_filter_inverse_square(self):
        kappa_max, rhs = bound_error(np.array([0.5]), np.array([0.8]),
                                     e_tot=2.0, srl=0.09, h_degree=1)
        assert kappa_max == pytest.approx(1.0 / 0.64)
        assert rhs == pytest.approx(kappa_max * 2.0 * 0.09)

    def test_quadratic_filter_uses_worst_endpoint(self):
        kappa_max, _ = bound_error(np.array([0.9]), np.array([0.6]),
                                   e_tot=1.0, srl=0.01, h_degree=2)
        # h' = 2s peaks at the larger endpoint 0.9; h(0.6)^2 = 0.1296
        assert kappa_max == pytest.approx((2 * 0.9) ** 2 / 0.6 ** 4)

    def test_no_lift_no_bound(self):
        _, rhs = bound_error(np.array([0.5]), np.array([0.5]),
                             e_tot=3.0, srl=0.0, h_degree=2)
        assert rhs == 0.0


# ---------------------------------------------------------------------------
# Pipeline vs oracle and structural invariants
# ---------------------------------------------------------------------------

class TestSrlPipeline:
    def test_zero_when_labels_off_roles(self, c4):
        part, rg, _ = labeled_case(c4, 0, Variant.REP_NODES)
        y = np.array([[1.0], [-1.0], [1.0], [-1.0]])   # orthogonal to constants
        rep = srl_report(observed_side(rg, rg.graph.shift), y)
        assert rep.rho == pytest.approx(0.0)
        assert rep.srl == pytest.approx(0.0)

    def test_formula_consistency(self, corpus):
        for _, g in corpus[:10]:
            part, rg, y = labeled_case(g, 1.0, Variant.FULL)
            rep = srl_report(observed_side(rg, rg.graph.shift), y)
            assert rep.srl == pytest.approx(
                rep.rho * float((rep.omega * rep.delta ** 2).sum()), rel=1e-12)
            assert rep.negative_delta_count == int((rep.delta < 0).sum())

    @pytest.mark.parametrize("variant", [Variant.REP_NODES, Variant.REP_EDGES,
                                         Variant.FULL])
    def test_matches_oracle_small(self, variant, star4, p3, c4):
        for g in (star4, p3, c4, star_graph(5), path_graph(6), cycle_graph(6)):
            for eps in (0.0, 1.0):
                part, rg, y = labeled_case(g, eps, variant)
                rep = srl_report(observed_side(rg, rg.graph.shift), y)
                expected = oracle_srl(g, rg, part, y)
                assert rep.srl == pytest.approx(expected, rel=1e-8, abs=1e-12)

    def test_matches_oracle_corpus(self, corpus):
        for name, g in corpus:
            if g.num_nodes > 32:
                continue
            part, rg, y = labeled_case(g, 1.0, Variant.REP_NODES)
            rep = srl_report(observed_side(rg, rg.graph.shift), y)
            expected = oracle_srl(g, rg, part, y)
            assert rep.srl == pytest.approx(expected, rel=1e-8, abs=1e-12), name

    def test_structural_invariants(self, corpus):
        for _, g in corpus[:15]:
            part, rg, y = labeled_case(g, 0, Variant.REP_NODES)
            rep = srl_report(observed_side(rg, rg.graph.shift), y)
            assert -1e-12 <= rep.rho <= 1.0 + 1e-12
            assert rep.omega.sum() == pytest.approx(1.0, abs=1e-12)
            assert rep.e_tot == pytest.approx((y ** 2).sum())

    def test_labels_need_one_row_per_node(self, star4):
        _, rg, y = labeled_case(star4, 0, Variant.REP_NODES)
        with pytest.raises(ValueError, match="rows"):
            srl_report(observed_side(rg, rg.graph.shift), y[:-1])

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(sorted(FAMILIES)), n=st.sampled_from([12, 20, 31]),
           seed=st.integers(0, 2),
           variant=st.sampled_from([Variant.FULL, Variant.REP_NODES, Variant.REP_EDGES]),
           data=st.data())
    def test_relabelling_leaves_the_report_unchanged(self, family, n, seed, variant, data):
        """At ε = 0 the partition is a graph invariant, so renaming the nodes
        (node u becomes perm[u], its label row moving with it) leaves k, srl
        and rho unchanged. The per-role rows may permute or rotate inside a
        repeated eigenvalue, so they are not compared."""
        try:
            graph, labels = make_dataset(family, n, seed=seed)
        except InputError:                  # a ladder needs an even n
            reject()
        y = one_hot_labels(labels.labels, labels.train_mask)
        perm = np.array(data.draw(st.permutations(range(graph.num_nodes))))
        renamed = graph_from_edges(graph.num_nodes, [(perm[u], perm[v]) for u, v in graph.edges()])
        y_renamed = np.empty_like(y)
        y_renamed[perm] = y
        reports = [srl_report(observed_side(build_rewired(g, refine_eps_be(g, 0.0), variant),
                                            g.shift), labels_y)
                   for g, labels_y in ((graph, y), (renamed, y_renamed))]
        assert reports[0].k == reports[1].k
        for field in ("srl", "rho"):
            want, got = (getattr(r, field) for r in reports)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), field


@st.composite
def lift_graphs(draw):
    """A random edge set on up to 24 nodes, or a generator family draw."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 24))
        ends = st.integers(0, n - 1)
        edges = draw(st.lists(st.tuples(ends, ends), max_size=3 * n))
        return graph_from_edges(n, [(u, v) for u, v in edges if u != v])
    try:
        return make_graph(draw(st.sampled_from(sorted(FAMILIES))),
                          draw(st.sampled_from([12, 20, 31, 40])), seed=draw(st.integers(0, 9)))
    except InputError:                      # a ladder needs an even n
        reject()


class TestObservedSide:
    """The lift read through its observed side carries the bits of the
    one-shot lift that held both dense shifts at once."""

    @settings(max_examples=120, deadline=None)
    @given(graph=lift_graphs(), eps=st.one_of(st.integers(0, 4).map(float), st.floats(0, 8)),
           variant=st.sampled_from(list(Variant)), h_degree=st.integers(1, 3),
           columns=st.integers(1, 3), seed=st.integers(0, 2**16))
    @example(graph=make_graph("tree", 511), eps=0.0, variant=Variant.FULL, h_degree=2,
             columns=3, seed=0)
    def test_report_has_the_one_shot_oracles_bits(self, graph, eps, variant, h_degree,
                                                   columns, seed):
        if variant is Variant.MASTER_NODE:   # the master node is the single block
            eps = math.inf
        part = refine_eps_be(graph, eps)
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((graph.num_nodes, columns))
        y[rng.random(graph.num_nodes) < 0.4] = 0.0
        assume(y.any())
        want = srl_report_oracle(build_rewired(graph, part, variant, eps=eps), y, h_degree)
        rewired = build_rewired(graph, part, variant, eps=eps)
        assert_same_report(srl_report(observed_side(rewired, graph.shift), y, h_degree), want)


class TestShiftOwners:
    """Each normalized shift is built once, by the graph that owns it."""

    @pytest.fixture
    def shift_orders(self, monkeypatch):
        orders = []
        original = spectral.normalized_shift

        def counting(adjacency):
            orders.append(adjacency.shape[0])
            return original(adjacency)

        monkeypatch.setattr("rolewire.graph.normalized_shift", counting)   # the owners' binding
        return orders

    def test_cached_read_only_and_exact(self):
        g = path_graph(7)
        rg = build_rewired(g, refine_eps_be(g, 1.0), Variant.REP_NODES)
        for owner, want in ((g, normalized_shift(g.adjacency)),
                            (rg, normalized_shift(rg.adjacency))):
            if owner is rg:
                assert owner.shift is owner.shift
            else:                               # a graph builds its shift on each access
                again = owner.shift
                assert owner.shift.tobytes() == again.tobytes()
                assert not again.flags.writeable
            assert owner.shift.tobytes() == want.tobytes()
            assert not owner.shift.flags.writeable
            with pytest.raises(ValueError):
                owner.shift[0, 0] = 0.0

    def test_grid_builds_the_original_shift_once(self, shift_orders):
        g = path_graph(8)
        train, val, test = assign_splits(8, seed=0)
        data = NodeData(num_nodes=8, labels=eccentricity_labels(g, 2),
                        train_mask=train, val_mask=val, test_mask=test)
        evaluate_candidates(g, data)
        distinct = {refine_eps_be(g, degree_percentile(g, p)).block_of.tobytes()
                    for p in PERCENTILE_GRID}
        assert len(shift_orders) == 1 + len(distinct)   # one original + one per partition
        assert shift_orders.count(8) == 1       # rewired shifts have order n + k > n

    def test_srl_verb_builds_one_shift_of_each_order(self, shift_orders, tmp_path):
        assert main(["gen", "--family", "tree", "--n", "15", "--classes", "2",
                     "--out", str(tmp_path)]) == 0
        with open(tmp_path / "graph.txt") as fh:
            g = load_edge_list(fh)
        k = refine_eps_be(g, degree_percentile(g, 0)).k
        assert main(["srl", "--graph", str(tmp_path / "graph.txt"),
                     "--labels", str(tmp_path / "labels.csv"), "--percentile", "0",
                     "--variant", "full", "--out", str(tmp_path / "srl")]) == 0
        assert shift_orders == [g.num_nodes, g.num_nodes + k]

    def test_ts_experiment_builds_one_shift_per_graph(self, shift_orders):
        graphs = [path_graph(6), star_graph(5)]
        run_ts_experiment(graphs, Variant.FULL, [0, 100], TrainConfig(epochs=3))
        assert len(shift_orders) == 2 + 2 * 2   # graphs + rewired graphs
        assert shift_orders.count(6) == 2
