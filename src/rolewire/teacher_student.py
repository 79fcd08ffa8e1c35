"""Linear polynomial-filter GNN: forward pass, analytic gradients, Adam
training, and the lift-vs-error simulation.

The model is y = S^L X W(1) ... W(L): each of the L layers applies the
normalized shift once and a weight matrix, with no nonlinearity, so the
whole network implements the filter s -> s^L. Teacher labels come from
running this model on an augmented graph and keeping only the original
nodes' outputs; the student trains the same architecture on the original
graph against those labels with full-batch Adam.

`train_students` is the one trainer. It groups its students by input and
target shape and runs one stacked Adam loop per group, which updates the
whole group with one set of numpy calls per epoch. Every per-student
operation keeps its operands and order, so each student's loss trace and
final weights are bit-identical to training it alone; `train_student` is
its one-student call, and the experiment trains all its points with one
call once every teacher is built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import math

import numpy as np

from .errors import DimensionMismatchError, DivergenceError
from .graph import Graph, degree_percentile, require_symmetric
from .metrics import pearson
from .partition import refine_eps_be
from .rewire import RewiredGraph, Variant, augment_features, build_rewired
from .seeding import derive_seed
from .spectral import observed_side, srl_report

__all__ = [
    "LinearGnnWeights",
    "TrainConfig",
    "TsResult",
    "gaussian_init",
    "forward",
    "teacher_labels",
    "layer_product",
    "train_student",
    "train_students",
    "run_ts_experiment",
]


@dataclass(frozen=True)
class LinearGnnWeights:
    """Ordered weight chain W(1)..W(L) with matching inner dimensions."""

    layers: tuple[np.ndarray, ...]

    def __post_init__(self):
        for a, b in zip(self.layers, self.layers[1:]):
            if a.shape[1] != b.shape[0]:
                raise DimensionMismatchError(
                    f"layer dims {a.shape} -> {b.shape} do not chain")
        for w in self.layers:
            if not np.isfinite(w).all():
                raise ValueError("weights must be finite")

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def dim_in(self) -> int:
        return self.layers[0].shape[0]


def layer_product(layers: Sequence[np.ndarray]) -> np.ndarray:
    """W(1) @ W(2) @ ... @ W(L), multiplied left to right."""
    out = layers[0]
    for w in layers[1:]:
        out = out @ w
    return out


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.005
    epochs: int = 5000
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive and finite")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class TsResult:
    """One simulation point: a lift value against a final training error."""

    srl: float
    mse_final: float
    loss_trace: np.ndarray            # read-only float64 view, one entry per epoch
    seed: int
    eps: float = float("nan")


# ---------------------------------------------------------------------------
# Initialization and forward pass
# ---------------------------------------------------------------------------

def gaussian_init(
    dims: Sequence[int],
    sigmas: Sequence[float],
    seed: int,
) -> LinearGnnWeights:
    """Draw W(l)_ij ~ N(0, sigmas[l]^2 / dims[l]), deterministically.

    The variance shrinks with the layer's input dimension so the output
    scale stays controlled across widths.
    """
    if len(sigmas) != len(dims) - 1:
        raise DimensionMismatchError(
            f"{len(dims) - 1} layers need {len(dims) - 1} sigmas, got {len(sigmas)}")
    rng = np.random.default_rng(seed)
    layers = []
    for l in range(len(dims) - 1):
        std = sigmas[l] / np.sqrt(dims[l])
        layers.append(std * rng.standard_normal((dims[l], dims[l + 1])))
    return LinearGnnWeights(layers=tuple(layers))


def forward(shift: np.ndarray, x: np.ndarray, weights: LinearGnnWeights) -> np.ndarray:
    """S^L X W(1)...W(L) with L = number of weight layers."""
    require_symmetric(shift, "shift")
    if x.shape[1] != weights.dim_in:
        raise DimensionMismatchError(
            f"features have {x.shape[1]} columns, weights expect {weights.dim_in}")
    if shift.shape[0] != x.shape[0]:
        raise DimensionMismatchError(
            f"shift order {shift.shape[0]} != feature rows {x.shape[0]}")
    return _propagate(shift, x, weights.num_layers) @ layer_product(weights.layers)


def teacher_labels(rewired: RewiredGraph, weights: LinearGnnWeights) -> np.ndarray:
    """Teacher outputs on the augmented graph from its featureless inputs,
    restricted to original nodes."""
    x = augment_features(rewired.origin_count, rewired.virtual_count)
    full = forward(rewired.shift, x, weights)
    return full[:rewired.origin_count, :]


# ---------------------------------------------------------------------------
# Loss and analytic gradients
# ---------------------------------------------------------------------------

def _stacked_mse(propagated: np.ndarray, layers: Sequence[np.ndarray],
                 y_true: np.ndarray) -> np.ndarray:
    """Per-student mean squared error of P stacked chains.

    propagated is (P, n, d_in), each layer (P, a, b) and y_true
    (P, n, d_out); the result has one entry per student.
    """
    resid = propagated @ layer_product(layers) - y_true
    return (resid * resid).reshape(len(resid), -1).sum(axis=1) / (
        y_true.shape[1] * y_true.shape[2])


class _ChainGradient:
    """d(mse)/dW(l) of P chains of one shape, written into preallocated arrays.

    Every array carries a leading student axis. Each layer's gradient is
    prefixes[l]^T @ err @ suffixes[l]^T, with prefixes[l] = S^L X W(1..l),
    suffixes[l] = W(l+2..L) @ I and err = 2 (S^L X W(1..L) - y) / (n d_out):
    the same products in the same order on every call, and for every
    student the same as for a chain trained alone, so repeated calls
    allocate nothing.
    """

    def __init__(self, propagated: np.ndarray, y_true: np.ndarray,
                 dims: Sequence[int]):
        p, n = propagated.shape[:2]
        d_out = dims[-1]
        self.y_true = y_true
        self.scale = n * d_out
        self.prefixes = [propagated] + [np.empty((p, n, d)) for d in dims[1:-1]]
        self.suffixes = ([np.empty((p, d, d_out)) for d in dims[1:-1]]
                         + [np.broadcast_to(np.eye(d_out), (p, d_out, d_out))])
        self.err = np.empty((p, n, d_out))
        # per layer: (prefixes[l]^T, scratch for prefixes[l]^T @ err, suffixes[l]^T)
        self.outer = [(pre.swapaxes(1, 2), np.empty((p, pre.shape[2], d_out)),
                       suf.swapaxes(1, 2))
                      for pre, suf in zip(self.prefixes, self.suffixes)]

    def __call__(self, layers: Sequence[np.ndarray], out: Sequence[np.ndarray]) -> None:
        pre, suf, err = self.prefixes, self.suffixes, self.err
        for l in range(len(layers) - 1):
            np.matmul(pre[l], layers[l], out=pre[l + 1])
        for l in range(len(layers) - 2, -1, -1):
            np.matmul(layers[l + 1], suf[l + 1], out=suf[l])
        np.matmul(pre[-1], layers[-1], out=err)
        np.subtract(err, self.y_true, out=err)
        np.multiply(2.0, err, out=err)
        np.divide(err, self.scale, out=err)
        for (pre_t, half, suf_t), grad in zip(self.outer, out):
            np.matmul(pre_t, err, out=half)
            np.matmul(half, suf_t, out=grad)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _propagate(shift: np.ndarray, x: np.ndarray, num_layers: int) -> np.ndarray:
    """S^L X: `forward`'s propagation, and the input every student epoch reuses."""
    propagated = x
    for _ in range(num_layers):
        propagated = shift @ propagated
    return propagated


def _adam_lockstep(
    propagated: np.ndarray,
    ys: np.ndarray,
    seeds: Sequence[int],
    config: TrainConfig,
    num_layers: int,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Full-batch Adam on P same-shape students at once.

    Returns the final layers as (P, a, b) arrays, the loss traces as an
    (epochs, P) array, and per student the epoch at which training it
    alone would have raised DivergenceError (0 if it would not). Rows of
    a student that diverged hold non-finite values and are not to be used.

    All parameters live in one (P, D) float64 buffer `theta`: each layer,
    and each layer's gradient, is a (P, a, b) view into a (P, D) buffer,
    and Adam updates the whole buffer in place once per epoch. Every
    floating-point operation keeps the operands and order of the
    per-layer form (m = b1 m + (1-b1) g; v = b2 v + (1-b2) g g;
    W -= lr m_hat / (sqrt(v_hat) + eps) with m_hat, v_hat divided by their
    bias corrections) and acts on each student's row alone, so students
    do not interact and each one's trace and weights are bit-identical to
    training it by itself. A diverged student keeps computing non-finite
    values; the loop stops early only once the first student diverges,
    because no other divergence can come before it.
    """
    p, d_in, d_out = len(seeds), propagated.shape[2], ys.shape[2]
    dims = [d_in] * num_layers + [d_out]
    theta = np.stack([
        np.concatenate([w.ravel()
                        for w in gaussian_init(dims, (1.0,) * num_layers, seed).layers])
        for seed in seeds])
    offsets = np.cumsum([a * b for a, b in zip(dims, dims[1:])])[:-1]

    def layer_views(flat):
        return [part.reshape(p, a, b) for part, a, b
                in zip(np.split(flat, offsets, axis=1), dims, dims[1:])]

    grad = np.empty_like(theta)
    layers, grads = layer_views(theta), layer_views(grad)
    chain_gradient = _ChainGradient(propagated, ys, dims)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    step, denom = np.empty_like(theta), np.empty_like(theta)

    traces = np.empty((config.epochs, p))
    diverged = np.zeros(p, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            chain_gradient(layers, grads)
            # One ufunc per term of the per-layer Adam expressions, in
            # their evaluation order, so every rounding step is the same.
            np.multiply(ADAM_BETA1, m, out=m)
            np.multiply(1.0 - ADAM_BETA1, grad, out=step)
            np.add(m, step, out=m)
            np.multiply(ADAM_BETA2, v, out=v)
            np.multiply(1.0 - ADAM_BETA2, grad, out=step)
            np.multiply(step, grad, out=step)
            np.add(v, step, out=v)
            np.divide(v, 1.0 - ADAM_BETA2 ** epoch, out=denom)
            np.sqrt(denom, out=denom)
            np.add(denom, ADAM_EPS, out=denom)
            np.divide(m, 1.0 - ADAM_BETA1 ** epoch, out=step)
            np.multiply(config.learning_rate, step, out=step)
            np.divide(step, denom, out=step)
            np.subtract(theta, step, out=theta)
            loss = traces[epoch - 1] = _stacked_mse(propagated, layers, ys)
            if not np.isfinite(loss).all():
                diverged[(diverged == 0) & ~np.isfinite(loss)] = epoch
                if diverged[0]:
                    break
    return layers, traces, diverged


def train_students(
    propagated: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    seeds: Sequence[int],
    config: TrainConfig,
    num_layers: int = 2,
) -> list[tuple[LinearGnnWeights, TsResult]]:
    """Train students in lockstep, one stacked Adam loop per shape.

    Student i has S^L X `propagated[i]` (n, d_in), targets `ys[i]`
    (n, d_out) and initializes from seeds[i] at unit scale; `config.seed`
    is not used. Students whose inputs and targets share their shapes
    train as one group. Each returned (weights, result) pair is
    bit-identical to `train_student` on that student alone. If any
    student diverges, raises the DivergenceError that training them one
    after another in order would have raised first: the one of the
    lowest-index diverging student.
    """
    if not len(propagated) == len(ys) == len(seeds) or not seeds:
        raise DimensionMismatchError(
            f"{len(propagated)} inputs, {len(ys)} targets and {len(seeds)} seeds: "
            "need one of each per student, at least one student")
    groups: dict[tuple, list[int]] = {}
    for i, (x, y) in enumerate(zip(propagated, ys)):
        if x.ndim != 2 or y.ndim != 2 or len(x) != len(y):
            raise DimensionMismatchError(
                f"student {i}: inputs {x.shape} and targets {y.shape} must be "
                "(n, d_in) and (n, d_out)")
        groups.setdefault((x.shape, y.shape), []).append(i)
    trained: list = [None] * len(seeds)
    divergences = []    # (student index, epoch)
    for members in groups.values():
        layers, traces, diverged = _adam_lockstep(
            np.stack([propagated[i] for i in members]),
            np.stack([ys[i] for i in members]),
            [seeds[i] for i in members], config, num_layers)
        for j, i in enumerate(members):
            if diverged[j]:
                divergences.append((i, int(diverged[j])))
                continue
            trace = traces[:, j]
            trace.setflags(write=False)
            trained[i] = (LinearGnnWeights(layers=tuple(w[j] for w in layers)),
                          TsResult(srl=float("nan"), mse_final=float(trace[-1]),
                                   loss_trace=trace, seed=seeds[i]))
    if divergences:
        raise DivergenceError(min(divergences)[1])
    return trained


def train_student(
    graph: Graph,
    x: np.ndarray,
    y_true: np.ndarray,
    config: TrainConfig,
    num_layers: int = 2,
) -> tuple[LinearGnnWeights, TsResult]:
    """Full-batch Adam on the analytic gradients of the linear chain.

    Hidden widths default to the input feature width; the output width
    follows y_true. The loss trace records the objective after each
    update, so its last entry is the final training error. Deterministic
    for a fixed config. This is the one-student call of `train_students`,
    so training a student alone or in a group gives the same bits.
    """
    if y_true.shape[0] != graph.num_nodes:
        raise DimensionMismatchError("y_true must have one row per node")
    [(weights, result)] = train_students([_propagate(graph.shift, x, num_layers)],
                                         [y_true], [config.seed], config, num_layers)
    return weights, result


# ---------------------------------------------------------------------------
# Lift-vs-error experiment
# ---------------------------------------------------------------------------

TEACHER_SIGMAS = (1.0, 40.0)


def run_ts_experiment(
    graphs: Sequence[Graph],
    variant: Variant,
    percentiles: Sequence[int],
    config: TrainConfig,
    d_out: int = 3,
) -> tuple[list[TsResult], float]:
    """One point per (graph, percentile): rewire, draw a teacher, train a
    student on the original graph, record the lift and the final error.
    Returns all points, graph by graph and percentile by percentile, plus
    their Pearson correlation.

    Every graph carries the constant feature column. Teacher draws and
    student initializations take their own sub-seeds per task index.
    Teacher, student and lift all use one layer per entry of
    TEACHER_SIGMAS.

    Each graph's shift is built once: it propagates the students' input
    and gives the observed side of the lift at every percentile, and is
    released before any rewiring's shift is built. Every point's
    teacher, labels and lift are built in task order before any student
    trains, so an input error there is raised first; then one
    `train_students` call trains all the students.
    """
    num_layers = len(TEACHER_SIGMAS)
    points, inputs, targets, seeds = [], [], [], []
    task = 0
    for graph in graphs:
        s_obs = graph.shift
        propagated = _propagate(s_obs, np.ones((graph.num_nodes, 1)), num_layers)
        pending = []
        for p in percentiles:
            eps = degree_percentile(graph, p)
            part = refine_eps_be(graph, eps)
            pending.append(observed_side(build_rewired(graph, part, variant, eps=eps), s_obs))
        del s_obs
        while pending:
            side = pending.pop(0)       # released, with its rewiring, before the next shift
            teacher_dims = [1 + side.rewired.partition.k] * num_layers + [d_out]
            teacher = gaussian_init(teacher_dims, TEACHER_SIGMAS,
                                    derive_seed(config.seed, task))
            y_true = teacher_labels(side.rewired, teacher)
            report = srl_report(side, y_true, h_degree=num_layers)
            points.append((side.rewired.eps, report.srl))
            inputs.append(propagated)
            targets.append(y_true)
            seeds.append(derive_seed(config.seed, task + 1))
            task += 2
    trained = train_students(inputs, targets, seeds, config, num_layers)
    results = [replace(result, srl=srl, eps=eps)
               for (eps, srl), (_, result) in zip(points, trained)]
    corr = pearson([r.srl for r in results], [r.mse_final for r in results])
    return results, corr
