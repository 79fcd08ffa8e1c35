"""Linear polynomial-filter GNN: forward pass, analytic gradients, Adam
training, and the lift-vs-error simulation.

The model is y = S^L X W(1) ... W(L): each of the L layers applies the
normalized shift once and a weight matrix, with no nonlinearity, so the
whole network implements the filter s -> s^L. Teacher labels come from
running this model on an augmented graph and keeping only the original
nodes' outputs; the student trains the same architecture on the original
graph against those labels with full-batch Adam.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, DivergenceError
from .graph import Graph, degree_percentile
from .metrics import pearson
from .partition import quotient, refine_eps_be
from .rewire import RewiredGraph, Variant, build_rewired
from .seeding import derive_seed
from .spectral import normalized_shift, srl_report

__all__ = [
    "LinearGnnWeights",
    "TrainConfig",
    "TsResult",
    "gaussian_init",
    "forward",
    "teacher_labels",
    "crop_to_observed",
    "layer_product",
    "mse_loss",
    "gradients",
    "train_student",
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

    @property
    def dim_out(self) -> int:
        return self.layers[-1].shape[1]

    def product(self) -> np.ndarray:
        return layer_product(self.layers)


def layer_product(layers: Sequence[np.ndarray]) -> np.ndarray:
    """W(1) @ W(2) @ ... @ W(L), multiplied left to right."""
    out = layers[0]
    for w in layers[1:]:
        out = out @ w
    return out


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.005
    epochs: int = 5000
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    sigmas: Optional[tuple[float, ...]] = None   # None: unit scale per layer

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class TsResult:
    """One simulation point: a lift value against a final training error."""

    srl: float
    mse_final: float
    loss_trace: tuple[float, ...]
    seed: int
    dataset_tag: str = ""
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
    if x.shape[1] != weights.dim_in:
        raise DimensionMismatchError(
            f"features have {x.shape[1]} columns, weights expect {weights.dim_in}")
    if shift.shape[0] != x.shape[0]:
        raise DimensionMismatchError(
            f"shift order {shift.shape[0]} != feature rows {x.shape[0]}")
    out = x
    for _ in range(weights.num_layers):
        out = shift @ out
    return out @ weights.product()


def teacher_labels(rewired: RewiredGraph, weights: LinearGnnWeights) -> np.ndarray:
    """Teacher outputs on the augmented graph, restricted to original nodes."""
    s_rew = normalized_shift(rewired.adjacency)
    full = forward(s_rew, rewired.features, weights)
    return full[:rewired.origin_count, :]


def crop_to_observed(weights: LinearGnnWeights, d: int) -> LinearGnnWeights:
    """Drop the virtual-feature rows of the first layer.

    Because augmented features are block diagonal, the teacher restricted
    to original-node inputs is exactly the same chain with the first
    layer's trailing rows removed.
    """
    first = weights.layers[0][:d, :]
    return LinearGnnWeights(layers=(first,) + weights.layers[1:])


# ---------------------------------------------------------------------------
# Loss and analytic gradients
# ---------------------------------------------------------------------------

def mse_loss(propagated: np.ndarray, layers: Sequence[np.ndarray],
             y_true: np.ndarray) -> float:
    """Mean squared error of propagated @ W(1)...W(L) against y_true.

    `layers` is the weight chain as arrays, e.g. `LinearGnnWeights.layers`.
    """
    resid = propagated @ layer_product(layers) - y_true
    return float((resid * resid).sum()) / (y_true.shape[0] * y_true.shape[1])


class _ChainGradient:
    """d(mse)/dW(l) of one chain shape, written into preallocated arrays.

    Each layer's gradient is prefixes[l].T @ err @ suffixes[l].T, with
    prefixes[l] = S^L X W(1..l), suffixes[l] = W(l+2..L) @ I and
    err = 2 (S^L X W(1..L) - y) / (n d_out): the same products in the same
    order on every call, so repeated calls allocate nothing.
    """

    def __init__(self, propagated: np.ndarray, y_true: np.ndarray,
                 dims: Sequence[int]):
        n, d_out = propagated.shape[0], dims[-1]
        self.y_true = y_true
        self.scale = y_true.size
        self.prefixes = [propagated] + [np.empty((n, d)) for d in dims[1:-1]]
        self.suffixes = [np.empty((d, d_out)) for d in dims[1:-1]] + [np.eye(d_out)]
        self.err = np.empty((n, d_out))
        # per layer: (prefixes[l].T, scratch for prefixes[l].T @ err, suffixes[l].T)
        self.outer = [(p.T, np.empty((p.shape[1], d_out)), s.T)
                      for p, s in zip(self.prefixes, self.suffixes)]

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


def gradients(propagated: np.ndarray, weights: LinearGnnWeights,
              y_true: np.ndarray) -> list[np.ndarray]:
    """d(mse)/dW(l) for every layer of the linear chain.

    `propagated` is the precomputed S^L X, shared by all epochs.
    """
    dims = [weights.dim_in] + [w.shape[1] for w in weights.layers]
    grads = [np.empty(w.shape) for w in weights.layers]
    _ChainGradient(propagated, y_true, dims)(weights.layers, grads)
    return grads


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
    for a fixed config.

    All parameters live in one flat float64 vector: each layer, and each
    layer's gradient, is a reshaped view into a flat buffer, and Adam
    updates the whole vector in place once per epoch. Every floating-point
    operation keeps the operands and order of the per-layer form
    (m = b1 m + (1-b1) g; v = b2 v + (1-b2) g g; W -= lr m_hat /
    (sqrt(v_hat) + eps) with m_hat, v_hat divided by their bias
    corrections), so loss traces and weights are bit-identical to it.
    """
    if y_true.shape[0] != graph.num_nodes:
        raise DimensionMismatchError("y_true must have one row per node")
    d_in, d_out = x.shape[1], y_true.shape[1]
    dims = [d_in] + [d_in] * (num_layers - 1) + [d_out]
    sigmas = config.sigmas if config.sigmas is not None else (1.0,) * num_layers
    weights = gaussian_init(dims, sigmas, config.seed)

    shift = normalized_shift(graph.dense_adjacency())
    propagated = x
    for _ in range(num_layers):
        propagated = shift @ propagated

    shapes = [w.shape for w in weights.layers]
    offsets = np.cumsum([w.size for w in weights.layers])[:-1]

    def layer_views(flat):
        return [part.reshape(shape) for part, shape in zip(np.split(flat, offsets), shapes)]

    theta = np.concatenate([w.ravel() for w in weights.layers])
    grad = np.empty_like(theta)
    layers, grads = layer_views(theta), layer_views(grad)
    chain_gradient = _ChainGradient(propagated, y_true, dims)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    step, denom = np.empty_like(theta), np.empty_like(theta)
    beta1, beta2 = config.beta1, config.beta2
    lr, adam_eps = config.learning_rate, config.adam_eps

    trace = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            if not np.isfinite(theta).all():
                raise DivergenceError(epoch)
            chain_gradient(layers, grads)
            # One ufunc per term of the per-layer Adam expressions, in
            # their evaluation order, so every rounding step is the same.
            np.multiply(beta1, m, out=m)
            np.multiply(1.0 - beta1, grad, out=step)
            np.add(m, step, out=m)
            np.multiply(beta2, v, out=v)
            np.multiply(1.0 - beta2, grad, out=step)
            np.multiply(step, grad, out=step)
            np.add(v, step, out=v)
            np.divide(v, 1.0 - beta2 ** epoch, out=denom)
            np.sqrt(denom, out=denom)
            np.add(denom, adam_eps, out=denom)
            np.divide(m, 1.0 - beta1 ** epoch, out=step)
            np.multiply(lr, step, out=step)
            np.divide(step, denom, out=step)
            np.subtract(theta, step, out=theta)
            loss = mse_loss(propagated, layers, y_true)
            if not np.isfinite(loss):
                raise DivergenceError(epoch)
            trace.append(loss)

    final_weights = LinearGnnWeights(layers=tuple(layers))
    result = TsResult(
        srl=float("nan"),
        mse_final=trace[-1],
        loss_trace=tuple(trace),
        seed=config.seed,
    )
    return final_weights, result


# ---------------------------------------------------------------------------
# Lift-vs-error experiment
# ---------------------------------------------------------------------------

TEACHER_SIGMAS = (1.0, 40.0)


def run_ts_experiment(
    datasets: Sequence[tuple[str, Graph, Optional[np.ndarray]]],
    variants: Sequence[Variant],
    percentiles: Sequence[int],
    config: TrainConfig,
    d_out: int = 3,
    teacher_sigmas: Sequence[float] = TEACHER_SIGMAS,
) -> tuple[list[TsResult], float]:
    """One point per (dataset, variant, percentile): rewire, draw a
    teacher, train a student on the original graph, record the lift and
    the final error. Returns all points plus their Pearson correlation.

    Dataset entries are (tag, graph, features-or-None); missing features
    fall back to the constant column. Teacher draws and student
    initializations take their own sub-seeds per task index. Teacher,
    student and lift all use one layer per teacher sigma.
    """
    num_layers = len(teacher_sigmas)
    results = []
    task = 0
    for tag, graph, features in datasets:
        x = features if features is not None else np.ones((graph.num_nodes, 1))
        d = x.shape[1]
        for variant in variants:
            for p in percentiles:
                eps = degree_percentile(graph, p)
                part = refine_eps_be(graph, eps)
                qp = quotient(graph, part)
                rewired = build_rewired(graph, part, qp, variant,
                                        features=features, eps=eps)
                k = part.k
                teacher_dims = [d + k] + [d + k] * (num_layers - 1) + [d_out]
                teacher_seed = derive_seed(config.seed, task)
                teacher = gaussian_init(teacher_dims, teacher_sigmas, teacher_seed)
                y_true = teacher_labels(rewired, teacher)

                report = srl_report(graph, rewired, part, y_true,
                                    h_degree=num_layers)
                student_cfg = replace(config, seed=derive_seed(config.seed, task + 1))
                _, res = train_student(graph, x, y_true, student_cfg, num_layers)
                results.append(replace(
                    res, srl=report.srl, dataset_tag=f"{tag}:{variant.value}",
                    eps=eps,
                ))
                task += 2
    corr = pearson([r.srl for r in results], [r.mse_final for r in results])
    return results, corr
