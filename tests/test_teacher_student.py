"""Linear GNN forward/gradients/training and the simulation runner."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rolewire.errors import DimensionMismatchError, DivergenceError
from rolewire.generators import make_graph
from rolewire.graph import graph_from_edges
from rolewire.partition import refine_eps_be
from rolewire.rewire import Variant, augment_features, build_rewired
from rolewire.spectral import normalized_shift
import rolewire.teacher_student as teacher_student
from rolewire.teacher_student import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    LinearGnnWeights,
    TrainConfig,
    forward,
    gaussian_init,
    layer_product,
    run_ts_experiment,
    teacher_labels,
    train_student,
    train_students,
)

from conftest import (
    crop_to_observed, cycle_graph, gradients, largest_component, mse_loss, path_graph,
    star_graph,
)


def naive_forward(shift, x, weights):
    """Triple-loop dense reference, no numpy matmul."""
    def matmul(a, b):
        out = np.zeros((a.shape[0], b.shape[1]))
        for i in range(a.shape[0]):
            for j in range(b.shape[1]):
                acc = 0.0
                for l in range(a.shape[1]):
                    acc += a[i, l] * b[l, j]
                out[i, j] = acc
        return out

    out = x
    for _ in range(len(weights.layers)):
        out = matmul(shift, out)
    for w in weights.layers:
        out = matmul(out, w)
    return out


class TestGaussianInit:
    def test_zero_sigmas_zero_weights(self):
        w = gaussian_init([3, 4, 2], [0.0, 0.0], seed=1)
        assert all(not layer.any() for layer in w.layers)

    def test_seed_determinism(self):
        a = gaussian_init([3, 4, 2], [1.0, 2.0], seed=9)
        b = gaussian_init([3, 4, 2], [1.0, 2.0], seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a.layers, b.layers))

    def test_variance_scaling(self):
        sigma, d_prev = 3.0, 4
        w = gaussian_init([d_prev, 25000], [sigma], seed=0)
        empirical = w.layers[0].var()
        assert empirical == pytest.approx(sigma ** 2 / d_prev, rel=0.05)

    def test_sigma_count_checked(self):
        with pytest.raises(DimensionMismatchError):
            gaussian_init([3, 3, 2], [1.0], seed=0)


class TestForward:
    def test_identity_weights_single_layer(self, c4):
        s = normalized_shift(c4.adjacency)
        w = LinearGnnWeights((np.eye(4),))
        assert np.allclose(forward(s, np.eye(4), w), s)

    def test_zero_weights(self, c4):
        s = normalized_shift(c4.adjacency)
        w = LinearGnnWeights((np.zeros((4, 2)),))
        assert not forward(s, np.eye(4), w).any()

    def test_matches_naive(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
        s = normalized_shift(g.adjacency)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 3))
        w = gaussian_init([3, 3, 2], [1.0, 1.0], seed=4)
        assert np.allclose(forward(s, x, w), naive_forward(s, x, w), atol=1e-12)

    def test_linear_in_features_and_weights(self, c4):
        s = normalized_shift(c4.adjacency)
        rng = np.random.default_rng(0)
        x1, x2 = rng.standard_normal((2, 4, 3))
        w = gaussian_init([3, 3, 2], [1.0, 1.0], seed=1)
        assert np.allclose(forward(s, x1 + x2, w),
                           forward(s, x1, w) + forward(s, x2, w))
        w2 = LinearGnnWeights((2.5 * w.layers[0], w.layers[1]))
        assert np.allclose(forward(s, x1, w2), 2.5 * forward(s, x1, w))

    def test_dimension_mismatch(self, c4):
        s = normalized_shift(c4.adjacency)
        w = gaussian_init([3, 2], [1.0], seed=0)
        with pytest.raises(DimensionMismatchError):
            forward(s, np.eye(4), w)


class TestTeacherLabels:
    def test_zero_teacher(self, star4):
        part = refine_eps_be(star4, 0)
        rg = build_rewired(star4, part, Variant.REP_NODES)
        w = LinearGnnWeights((np.zeros((3, 3)), np.zeros((3, 2))))
        assert not teacher_labels(rg, w).any()

    def test_master_node_dense_oracle(self, star4):
        eps = 3.0
        part = refine_eps_be(star4, eps)
        rg = build_rewired(star4, part, Variant.REP_NODES)
        w = gaussian_init([2, 2, 3], [1.0, 1.0], seed=8)
        got = teacher_labels(rg, w)
        # explicit (n+1) x (n+1) construction
        a = np.zeros((5, 5))
        a[:4, :4] = star4.dense_adjacency()
        a[:4, 4] = 1.0
        a[4, :4] = 1.0
        b = a + np.eye(5)
        d = b.sum(axis=1)
        s = b / np.sqrt(np.outer(d, d))
        x = np.zeros((5, 2))
        x[:4, 0] = 1.0
        x[4, 1] = 1.0
        expected = (s @ s @ x @ w.layers[0] @ w.layers[1])[:4]
        assert np.allclose(got, expected, atol=1e-12)

    def test_crop_matches_observed_signal(self, p3):
        # student with cropped teacher weights == shift applied to the
        # original-node slice of the teacher's effective signal
        part = refine_eps_be(p3, 0)
        rg = build_rewired(p3, part, Variant.FULL)
        d, k = 1, part.k
        w = gaussian_init([d + k, d + k, 2], [1.0, 1.0], seed=3)
        x = np.ones((3, 1))
        s_obs = normalized_shift(p3.adjacency)
        via_crop = forward(s_obs, x, crop_to_observed(w, d))
        signal = (augment_features(None, 3, k) @ layer_product(w.layers))[:3]
        assert np.allclose(via_crop, s_obs @ s_obs @ signal, atol=1e-12)


class TestGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_central_differences(self, seed):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        s = normalized_shift(g.adjacency)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 2))
        y = rng.standard_normal((4, 2))
        w = gaussian_init([2, 2, 2], [1.0, 1.0], seed=seed + 10)
        propagated = s @ s @ x
        grads = gradients(propagated, w, y)
        h = 1e-5
        for li, layer in enumerate(w.layers):
            for r in range(layer.shape[0]):
                for cidx in range(layer.shape[1]):
                    plus = [l.copy() for l in w.layers]
                    minus = [l.copy() for l in w.layers]
                    plus[li][r, cidx] += h
                    minus[li][r, cidx] -= h
                    fd = (mse_loss(propagated, plus, y)
                          - mse_loss(propagated, minus, y)
                          ) / (2 * h)
                    got = grads[li][r, cidx]
                    assert got == pytest.approx(fd, rel=1e-5, abs=1e-10)


class TestTrainConfig:
    @pytest.mark.parametrize("lr", [0.0, -0.1, float("nan"), float("inf"), float("-inf")])
    def test_learning_rate_must_be_positive_and_finite(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    def test_epochs_must_be_positive(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)


class TestTrainStudent:
    def test_realizable_reaches_global_optimum(self):
        g = path_graph(6)
        x = np.ones((6, 1))
        teacher = gaussian_init([1, 1, 2], [1.0, 1.0], seed=5)
        y = forward(normalized_shift(g.adjacency), x, teacher)
        _, res = train_student(g, x, y, TrainConfig(seed=9))
        assert res.mse_final < 1e-6

    def test_deterministic_traces(self, c4):
        x = np.ones((4, 1))
        y = np.arange(8.0).reshape(4, 2)
        r1 = train_student(c4, x, y, TrainConfig(seed=3, epochs=50))[1]
        r2 = train_student(c4, x, y, TrainConfig(seed=3, epochs=50))[1]
        assert np.array_equal(r1.loss_trace, r2.loss_trace)

    def test_final_not_worse_than_initial(self):
        for seed in range(3):
            g = star_graph(4)
            x = np.ones((5, 1))
            rng = np.random.default_rng(seed)
            y = rng.standard_normal((5, 3))
            cfg = TrainConfig(seed=seed, epochs=300)
            weights, res = train_student(g, x, y, cfg)
            init = gaussian_init([1, 1, 3], (1.0, 1.0), seed)
            s = normalized_shift(g.adjacency)
            initial = float(((forward(s, x, init) - y) ** 2).sum()) / 15.0
            assert res.mse_final <= initial
            assert res.mse_final == res.loss_trace[-1]
            assert len(res.loss_trace) <= cfg.epochs

    def test_divergence_reported_with_epoch(self, c4):
        x = np.full((4, 1), 1e200)
        y = np.full((4, 1), -1e200)
        with pytest.raises(DivergenceError) as err:
            train_student(c4, x, y, TrainConfig(seed=0, epochs=10))
        assert err.value.epoch >= 1


class TestRunExperiment:
    def test_point_count_and_determinism(self):
        graphs = [("path", path_graph(8)), ("star", star_graph(5))]
        cfg = TrainConfig(seed=4, epochs=60)
        for variant in (Variant.FULL, Variant.REP_NODES):
            res1, corr1 = run_ts_experiment(graphs, variant, [0, 100], cfg, d_out=2)
            assert len(res1) == 2 * 2
            res2, corr2 = run_ts_experiment(graphs, variant, [0, 100], cfg, d_out=2)
            assert corr1 == corr2
            assert [r.mse_final for r in res1] == [r.mse_final for r in res2]
            assert all(np.isfinite(r.srl) for r in res1)

    def test_tags_and_eps_recorded(self):
        cfg = TrainConfig(seed=1, epochs=30)
        res, _ = run_ts_experiment([("cycle", cycle_graph(6))], Variant.FULL,
                                   [0, 100], cfg, d_out=2)
        assert res[0].dataset_tag == "cycle:full"
        assert res[0].eps == 0.0
        assert res[1].eps == 2.0


# ---------------------------------------------------------------------------
# Flat-buffer Adam against the per-layer loop it replaced
# ---------------------------------------------------------------------------

def reference_gradients(propagated, layers, y_true):
    """Per-layer prefix/suffix gradients, one fresh array per product."""
    n, d_out = y_true.shape
    prefixes = [propagated]
    for w in layers[:-1]:
        prefixes.append(prefixes[-1] @ w)
    suffixes = [np.eye(layers[-1].shape[1])]
    for w in reversed(layers[1:]):
        suffixes.append(w @ suffixes[-1])
    suffixes.reverse()
    err = 2.0 * (prefixes[-1] @ layers[-1] - y_true) / (n * d_out)
    return [prefixes[l].T @ err @ suffixes[l].T for l in range(len(layers))]


def reference_train_student(graph, x, y_true, config, num_layers):
    """Adam as a list of per-layer arrays, one update per layer per epoch.

    Returns (layers, loss trace), or raises DivergenceError like
    train_student.
    """
    d_in, d_out = x.shape[1], y_true.shape[1]
    dims = [d_in] + [d_in] * (num_layers - 1) + [d_out]
    layers = [w.copy() for w in gaussian_init(dims, (1.0,) * num_layers, config.seed).layers]
    shift = normalized_shift(graph.adjacency)
    propagated = x
    for _ in range(num_layers):
        propagated = shift @ propagated
    m = [np.zeros_like(w) for w in layers]
    v = [np.zeros_like(w) for w in layers]

    def raw_loss(ws):
        chain = ws[0]
        for w in ws[1:]:
            chain = chain @ w
        resid = propagated @ chain - y_true
        return float((resid * resid).sum()) / (y_true.shape[0] * y_true.shape[1])

    trace = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, config.epochs + 1):
            if not all(np.isfinite(w).all() for w in layers):
                raise DivergenceError(t)
            grads = reference_gradients(propagated, layers, y_true)
            for i, g in enumerate(grads):
                m[i] = ADAM_BETA1 * m[i] + (1.0 - ADAM_BETA1) * g
                v[i] = ADAM_BETA2 * v[i] + (1.0 - ADAM_BETA2) * g * g
                m_hat = m[i] / (1.0 - ADAM_BETA1 ** t)
                v_hat = v[i] / (1.0 - ADAM_BETA2 ** t)
                layers[i] = layers[i] - config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            loss = raw_loss(layers)
            if not np.isfinite(loss):
                raise DivergenceError(t)
            trace.append(loss)
    return layers, trace


@st.composite
def student_cases(draw):
    family = draw(st.sampled_from(["star", "path", "cycle", "grid", "tree", "er"]))
    n = draw(st.integers(3, 16))
    seed = draw(st.integers(0, 2**16))
    graph = make_graph(family, n, seed=seed, p=0.3)
    if family == "er":
        graph = largest_component(graph)
    num_layers = draw(st.integers(1, 3))
    d_in, d_out = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    x = draw(st.floats(0.0, 50.0)) * rng.standard_normal((graph.num_nodes, d_in))
    y = rng.standard_normal((graph.num_nodes, d_out))
    config = TrainConfig(
        learning_rate=draw(st.sampled_from([0.005, 0.05, 0.5])),
        epochs=draw(st.integers(1, 200)),
        seed=seed,
    )
    return graph, x, y, config, num_layers


def assert_same_run(graph, x, y, config, num_layers):
    try:
        want_layers, want_trace = reference_train_student(graph, x, y, config, num_layers)
    except DivergenceError as want:
        with pytest.raises(DivergenceError) as got:
            train_student(graph, x, y, config, num_layers)
        assert got.value.epoch == want.epoch
        return
    weights, res = train_student(graph, x, y, config, num_layers)
    assert [v.hex() for v in res.loss_trace] == [v.hex() for v in want_trace]
    assert len(weights.layers) == len(want_layers)
    for got_w, want_w in zip(weights.layers, want_layers):
        assert got_w.shape == want_w.shape
        assert np.array_equal(got_w, want_w)
        assert got_w.tobytes() == want_w.tobytes()


@settings(max_examples=120, deadline=None)
@given(case=student_cases())
def test_flat_adam_matches_per_layer_loop(case):
    assert_same_run(*case)


@settings(max_examples=60, deadline=None)
@given(case=student_cases(), sigmas=st.lists(st.floats(0.0, 50.0), min_size=3, max_size=3))
def test_gradients_match_per_layer_products(case, sigmas):
    graph, x, y, config, num_layers = case
    d_in = x.shape[1]
    dims = [d_in] * num_layers + [y.shape[1]]
    weights = gaussian_init(dims, sigmas[:num_layers], config.seed)
    shift = normalized_shift(graph.adjacency)
    propagated = x
    for _ in range(num_layers):
        propagated = shift @ propagated
    got = gradients(propagated, weights, y)
    want = reference_gradients(propagated, list(weights.layers), y)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("num_layers,x_scale,lr,epoch", [
    (3, 1e10, 1e52, 2),
    (2, 1.0, 1e110, 1),
])
def test_divergence_epoch_matches_per_layer_loop(num_layers, x_scale, lr, epoch):
    g = make_graph("grid", 9)
    rng = np.random.default_rng(1)
    x = x_scale * rng.standard_normal((9, 2))
    y = rng.standard_normal((9, 3))
    config = TrainConfig(learning_rate=lr, epochs=200, seed=2)
    with pytest.raises(DivergenceError) as want:
        reference_train_student(g, x, y, config, num_layers)
    assert want.value.epoch == epoch
    with pytest.raises(DivergenceError) as got:
        train_student(g, x, y, config, num_layers)
    assert got.value.epoch == epoch


# ---------------------------------------------------------------------------
# Lockstep training of a group against one student at a time
# ---------------------------------------------------------------------------

def propagate(graph, x, num_layers):
    out = x
    for _ in range(num_layers):
        out = graph.shift @ out
    return out


def sequential_students(graphs, xs, ys, seeds, config, num_layers):
    """train_student on each student in order; stops at the first divergence.

    Returns the list of (weights, result) pairs, or the DivergenceError
    the loop raised.
    """
    out = []
    for graph, x, y, seed in zip(graphs, xs, ys, seeds):
        try:
            out.append(train_student(graph, x, y, replace(config, seed=seed),
                                     num_layers))
        except DivergenceError as err:
            return err
    return out


def assert_same_results(got, want):
    assert len(got) == len(want)
    for (got_w, got_r), (want_w, want_r) in zip(got, want):
        assert [v.hex() for v in got_r.loss_trace] == [v.hex() for v in want_r.loss_trace]
        assert got_r.mse_final.hex() == want_r.mse_final.hex()
        assert got_r.seed == want_r.seed
        assert len(got_w.layers) == len(want_w.layers)
        for a, b in zip(got_w.layers, want_w.layers):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def student_groups(draw):
    """Students on two graphs with drawn widths, so one call mixes shapes."""
    graph, _, _, config, num_layers = draw(student_cases())
    other = make_graph(draw(st.sampled_from(["star", "path", "cycle"])),
                       draw(st.integers(3, 8)))
    count = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    graphs, xs, ys = [], [], []
    for _ in range(count):
        g = draw(st.sampled_from([graph, other]))
        d_in, d_out = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        graphs.append(g)
        xs.append(rng.standard_normal((g.num_nodes, d_in)))
        ys.append(draw(st.sampled_from([1.0, 10.0, 1e3]))
                  * rng.standard_normal((g.num_nodes, d_out)))
    seeds = [draw(st.integers(0, 2**16)) for _ in range(count)]
    return graphs, xs, ys, seeds, config, num_layers


@settings(max_examples=80, deadline=None)
@given(case=student_groups())
def test_lockstep_group_matches_one_at_a_time(case):
    graphs, xs, ys, seeds, config, num_layers = case
    want = sequential_students(graphs, xs, ys, seeds, config, num_layers)
    propagated = [propagate(g, x, num_layers) for g, x in zip(graphs, xs)]
    if isinstance(want, DivergenceError):
        with pytest.raises(DivergenceError) as got:
            train_students(propagated, ys, seeds, config, num_layers)
        assert got.value.epoch == want.epoch
        return
    got = train_students(propagated, ys, seeds, config, num_layers)
    assert_same_results(got, want)


# On the 9-node grid with the seed-1 draws below, three layers at this rate
# diverge at epoch 1 for unit-scale inputs, at epoch 2 for inputs scaled by
# 1e10, and not at all for inputs scaled by 1e-10.
DIVERGING = TrainConfig(learning_rate=1e52, epochs=50)


@pytest.mark.parametrize("scales, epoch", [
    ((1e-10, 1e10, 1.0), 2),     # student 1 diverges at 2, student 2 earlier at 1
    ((1e10, 1.0), 2),
    ((1.0, 1e10), 1),
    ((1e-10, 1.0, 1e-10), 1),
])
def test_lockstep_raises_first_students_divergence(scales, epoch):
    g = make_graph("grid", 9)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((9, 2))
    y = rng.standard_normal((9, 3))
    xs = [s * x for s in scales]
    seeds = [2] * len(scales)
    want = sequential_students([g] * len(xs), xs, [y] * len(xs), seeds, DIVERGING, 3)
    assert isinstance(want, DivergenceError) and want.epoch == epoch
    with pytest.raises(DivergenceError) as got:
        train_students([propagate(g, x_, 3) for x_ in xs], [y] * len(xs), seeds,
                       DIVERGING, 3)
    assert got.value.epoch == epoch


@pytest.mark.parametrize("order, epoch", [("ab", 2), ("ba", 1)])
def test_lockstep_raises_first_students_divergence_across_groups(order, epoch):
    # alone, student a diverges at epoch 2 and student b at epoch 1; their
    # targets differ in width, so together they train in separate groups
    g = make_graph("grid", 9)
    rng = np.random.default_rng(1)
    x = propagate(g, rng.standard_normal((9, 2)), 3)
    students = {"a": (1e10 * x, rng.standard_normal((9, 3))),
                "b": (x, rng.standard_normal((9, 2)))}
    for kind, want in (("a", 2), ("b", 1)):
        with pytest.raises(DivergenceError) as alone:
            train_students([students[kind][0]], [students[kind][1]], [2], DIVERGING, 3)
        assert alone.value.epoch == want
    with pytest.raises(DivergenceError) as got:
        train_students([students[kind][0] for kind in order],
                       [students[kind][1] for kind in order], [2, 2], DIVERGING, 3)
    assert got.value.epoch == epoch


def test_lockstep_rejects_unstackable_inputs():
    with pytest.raises(DimensionMismatchError):
        train_students([np.zeros((4, 1))] * 2, [np.zeros((5, 1))] * 2, [0, 1],
                       TrainConfig())
    with pytest.raises(DimensionMismatchError):
        train_students([np.zeros((4, 1))] * 2, [np.zeros((4, 1))] * 2, [0],
                       TrainConfig())
    with pytest.raises(DimensionMismatchError):
        train_students([np.zeros((2, 4, 1))], [np.zeros((2, 4, 1))], [0], TrainConfig())


def record_labels(monkeypatch):
    """Collect every teacher label matrix run_ts_experiment draws, in order."""
    labels = []

    def recording(rewired, weights):
        labels.append(teacher_labels(rewired, weights))
        return labels[-1]

    monkeypatch.setattr(teacher_student, "teacher_labels", recording)
    return labels


def test_experiment_traces_are_read_only_views_of_the_group_array():
    graphs = [("path", path_graph(6)), ("cycle", cycle_graph(6))]
    results, _ = run_ts_experiment(graphs, Variant.FULL, [0, 100], TrainConfig(epochs=7))
    group = results[0].loss_trace.base
    assert group is not None and group.shape == (7, 4)
    for res in results:
        assert res.loss_trace.base is group and res.loss_trace.dtype == np.float64
        assert not res.loss_trace.flags.writeable
        assert type(res.mse_final) is float and res.mse_final == res.loss_trace[-1]


def count_lockstep_groups(monkeypatch):
    """Collect the size of every lockstep group, in the order they train."""
    sizes = []
    lockstep = teacher_student._adam_lockstep

    def counting(propagated, *args):
        sizes.append(len(propagated))
        return lockstep(propagated, *args)

    monkeypatch.setattr(teacher_student, "_adam_lockstep", counting)
    return sizes


def test_experiment_groups_by_shape_and_matches_one_at_a_time(monkeypatch):
    graphs = [
        ("path", path_graph(8)),
        ("star", star_graph(5)),      # 6 nodes
        ("cycle", cycle_graph(6)),
        ("ring", cycle_graph(8)),     # 8 nodes again
        ("long", path_graph(10)),
    ]
    percentiles = [0, 100]
    config = TrainConfig(seed=7, epochs=80, learning_rate=0.05)
    labels = record_labels(monkeypatch)
    group_sizes = count_lockstep_groups(monkeypatch)
    results, _ = run_ts_experiment(graphs, Variant.REP_NODES, percentiles, config,
                                   d_out=2)
    assert group_sizes == [4, 4, 2]
    assert len(results) == len(labels) == len(graphs) * len(percentiles)
    for i, (res, y) in enumerate(zip(results, labels)):
        _, graph = graphs[i // len(percentiles)]
        x = np.ones((graph.num_nodes, 1))
        _, want = train_student(graph, x, y, replace(config, seed=res.seed))
        assert [v.hex() for v in res.loss_trace] == [v.hex() for v in want.loss_trace]
        assert res.mse_final == want.mse_final


@pytest.mark.parametrize("variant, percentiles, error", [
    (Variant.FULL, [0, 30], ValueError),                        # 30 is off the grid
    (Variant.MASTER_NODE, [100, 0], DimensionMismatchError),    # eps = 0 gives k > 1
], ids=["off-grid", "mn-several-blocks"])
def test_no_student_trains_when_a_teacher_point_fails(monkeypatch, variant,
                                                       percentiles, error):
    # the earlier points would diverge if they trained
    group_sizes = count_lockstep_groups(monkeypatch)
    graphs = [("path", path_graph(6)), ("star", star_graph(5))]
    with pytest.raises(error):
        run_ts_experiment(graphs, variant, percentiles,
                          TrainConfig(learning_rate=1e300, epochs=5))
    assert group_sizes == []


def test_default_points_reach_least_squares_optimum(monkeypatch):
    # default ts-sim: six families at n = 24, percentiles 0/50/100, full
    # variant, two layers of width 1, so the chain spans every 1 x d_out map
    families = ["star", "path", "cycle", "grid", "ladder", "tree"]
    graphs = [make_graph(fam, 24, seed=0) for fam in families]
    labels = record_labels(monkeypatch)
    results, _ = run_ts_experiment(list(zip(families, graphs)), Variant.FULL,
                                   [0, 50, 100], TrainConfig(seed=0))
    assert len(results) == len(labels) == 18
    for i, (res, y) in enumerate(zip(results, labels)):
        graph = graphs[i // 3]
        a = propagate(graph, np.ones((graph.num_nodes, 1)), 2)
        coef = np.linalg.lstsq(a, y, rcond=None)[0]
        optimum = float(((a @ coef - y) ** 2).sum()) / y.size
        assert res.mse_final >= optimum - 1e-12 * float((y * y).sum()) / y.size
        assert abs(res.mse_final - optimum) <= 1e-9
