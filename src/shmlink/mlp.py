"""Strain regressor: a 3-layer feed-forward network trained from scratch.

Three weight layers (two rectified hidden layers, identity output) map
feature vectors of resistance readings to a scalar strain estimate.  Features
are standardized by a normalizer fitted on training data; the target is used
as ingested.  Training is plain mini-batch gradient descent with a fixed rate
and a plateau stop, deterministic under a fixed seed.  It standardizes the
training rows once, takes each batch as a slice of one per-epoch gather, and
keeps the weights and their gradients in two flat vectors, so a step is one
vector update; the result is bit-identical to standardizing each batch,
calling ``backward`` on it and updating each array in place.  Models persist
as a versioned JSON document that reproduces forward outputs bit-identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

MODEL_FORMAT_VERSION = 1
# what _layers computes, as model documents name it; no other value loads
ACTIVATIONS = {"hidden_activation": "relu", "output_activation": "identity"}


class MlError(Exception):
    pass


class DegenerateFeature(MlError):
    def __init__(self, column: int):
        super().__init__(f"feature column {column} has zero variance")
        self.column = column


class DimensionMismatch(MlError):
    pass


class NonFiniteLoss(MlError):
    """Training diverged; the learning rate is too high for this data."""


class EmptyTestSet(MlError):
    pass


class UnsupportedVersion(MlError):
    pass


class CorruptModelFile(MlError):
    pass


class ShapeMismatch(MlError):
    pass


def fit_normalizer(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and population standard deviations of a feature matrix.

    Raises DegenerateFeature for any zero-variance column; the transform is
    x -> (x - mu) / sigma.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] < 2:
        raise DimensionMismatch("need a 2-D feature matrix with >= 2 rows")
    mu = features.mean(axis=0)
    sigma = features.std(axis=0)  # divide by N
    for j, s in enumerate(sigma):
        if s == 0.0:
            raise DegenerateFeature(j)
    return mu, sigma


@dataclass
class MlpModel:
    """Weights, biases, and feature-normalization statistics of the regressor."""

    layer_sizes: list[int]                   # [d_in, h1, h2, 1]
    weights: list[np.ndarray]                # W1 (h1 x d_in), W2 (h2 x h1), W3 (1 x h2)
    biases: list[np.ndarray]
    feature_mean: np.ndarray
    feature_std: np.ndarray

    def __post_init__(self):
        if len(self.layer_sizes) != 4 or self.layer_sizes[-1] != 1:
            raise ShapeMismatch(f"layer_sizes {self.layer_sizes} is not [d_in, h1, h2, 1]")
        if len(self.weights) != 3 or len(self.biases) != 3:
            raise ShapeMismatch("exactly three weight layers expected")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            expect = (self.layer_sizes[i + 1], self.layer_sizes[i])
            if w.shape != expect or b.shape != (expect[0],):
                raise ShapeMismatch(f"layer {i + 1}: weights {w.shape}, expected {expect}")
        if np.any(self.feature_std <= 0.0):
            raise ShapeMismatch("feature_std components must be > 0")

    @property
    def d_in(self) -> int:
        return self.layer_sizes[0]


def init_model(d_in: int, hidden_width: int, mu: np.ndarray, sigma: np.ndarray,
               rng: np.random.Generator) -> MlpModel:
    """Seeded uniform init in +-sqrt(6 / (fan_in + fan_out)) per layer."""
    sizes = [d_in, hidden_width, hidden_width, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(layer_sizes=sizes, weights=weights, biases=biases,
                    feature_mean=np.asarray(mu, dtype=float),
                    feature_std=np.asarray(sigma, dtype=float))


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def forward(model: MlpModel, features) -> float:
    """Strain prediction for a single feature vector."""
    x = np.asarray(features, dtype=float)
    if x.shape != (model.d_in,):
        raise DimensionMismatch(f"expected {model.d_in} features, got shape {x.shape}")
    return float(forward_rows(model, x[None, :])[0])


def forward_rows(model: MlpModel, rows) -> np.ndarray:
    """Predictions for a (n, d_in) feature matrix, batch-invariant per row.

    Each layer multiplies a stack of 1-row matrices, ``x[:, None, :] @ W.T``:
    numpy runs the same 1-row product for every slice of the stack, so a
    row's result is bit-identical to ``predict`` on that row alone, whatever
    the number of rows beside it.  ``predict``'s single (n, d_in) product may
    round differently per batch shape.
    """
    return _layers(model, _standardized(model, rows)[:, None, :])[-1].reshape(-1)


def predict(model: MlpModel, rows: np.ndarray) -> np.ndarray:
    """Predictions for a (n, d_in) feature matrix."""
    return _layers(model, _standardized(model, rows))[-1].ravel()


def _standardized(model: MlpModel, rows) -> np.ndarray:
    """A (n, d_in) feature matrix mapped through the model's normalizer."""
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.d_in:
        raise DimensionMismatch(f"expected (n, {model.d_in}) rows, got shape {x.shape}")
    return (x - model.feature_mean) / model.feature_std


def _layers(model: MlpModel, xn: np.ndarray):
    """(z1, a1, z2, a2, out) for standardized (n, d_in) rows or an (n, 1, d_in) stack."""
    w1, w2, w3 = model.weights
    b1, b2, b3 = model.biases
    z1 = xn @ w1.T + b1
    a1 = _relu(z1)
    z2 = a1 @ w2.T + b2
    a2 = _relu(z2)
    return z1, a1, z2, a2, a2 @ w3.T + b3


def backward(model: MlpModel, batch_x: np.ndarray, batch_y: np.ndarray):
    """Exact gradients of batch-mean squared error w.r.t. all weights and biases.

    Returns (weight_grads, bias_grads) lists ordered like model.weights.
    """
    xn = _standardized(model, batch_x)
    y = np.asarray(batch_y, dtype=float).ravel()
    n = xn.shape[0]
    if n == 0 or y.shape[0] != n:
        raise DimensionMismatch("batch features and targets disagree")
    size = sum(w.size + b.size for w, b in zip(model.weights, model.biases))
    grads = _parameter_views(np.empty(size), model.layer_sizes)
    _gradients(model, xn, y, grads)
    return grads


def _gradients(model: MlpModel, xn: np.ndarray, y: np.ndarray, out) -> None:
    """Gradients for standardized rows ``xn``, written into ``out`` = (weight views, bias views).

    ``np.add.reduce`` is the reduction ``ndarray.sum`` runs, so each gradient
    has the bits of the plain ``dz.T @ a`` and ``dz.sum(axis=0)``.
    """
    (gw1, gw2, gw3), (gb1, gb2, gb3) = out
    z1, a1, z2, a2, pred = _layers(model, xn)
    _, w2, w3 = model.weights

    # loss = mean((pred - y)^2); d loss / d pred = 2 (pred - y) / n
    dpred = (2.0 / xn.shape[0]) * (pred.ravel() - y)[:, None]
    np.matmul(dpred.T, a2, out=gw3)
    np.add.reduce(dpred, axis=0, out=gb3)
    dz2 = (dpred @ w3) * (z2 > 0)
    np.matmul(dz2.T, a1, out=gw2)
    np.add.reduce(dz2, axis=0, out=gb2)
    dz1 = (dz2 @ w2) * (z1 > 0)
    np.matmul(dz1.T, xn, out=gw1)
    np.add.reduce(dz1, axis=0, out=gb1)


def _parameter_views(flat: np.ndarray, sizes: list[int]):
    """(weights, biases) as views into one flat vector laid out W1, b1, W2, b2, W3, b3."""
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[at:at + fan_out * fan_in].reshape(fan_out, fan_in))
        at += fan_out * fan_in
        biases.append(flat[at:at + fan_out])
        at += fan_out
    return weights, biases


def mse_loss(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    return _mse(model, _standardized(model, x), y)


def _mse(model: MlpModel, xn: np.ndarray, y: np.ndarray) -> float:
    residual = _layers(model, xn)[-1].ravel() - np.asarray(y, dtype=float).ravel()
    return float(np.mean(residual * residual))


def evaluate(model: MlpModel, test_x: np.ndarray, test_y: np.ndarray) -> tuple[float, float]:
    """(MSE, MAE) over the test rows, target in ingested units."""
    test_x = np.asarray(test_x, dtype=float)
    if test_x.size == 0 or test_x.shape[0] == 0:
        raise EmptyTestSet("no test rows")
    residual = predict(model, test_x) - np.asarray(test_y, dtype=float).ravel()
    return float(np.mean(residual * residual)), float(np.mean(np.abs(residual)))


# -- training ----------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """One hyperparameter combination plus stopping rules.

    ``batch_size=None`` means full-batch.  ``plateau_tolerance=None`` disables
    the plateau stop (the run always reaches max_epochs).
    """

    hidden_width: int = 16
    learning_rate: float = 1e-2
    batch_size: int | None = 32
    max_epochs: int = 500
    plateau_patience: int = 50
    plateau_tolerance: float | None = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.hidden_width < 1 or self.max_epochs < 1:
            raise ValueError("hidden_width and max_epochs must be positive")
        if not 0 < self.learning_rate < math.inf:  # NaN fails both comparisons
            raise ValueError(f"learning_rate {self.learning_rate!r} is not positive and finite")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be None (full) or >= 1")


@dataclass
class HyperGrid:
    """Hyperparameter ranges swept exhaustively by grid_search."""

    hidden_widths: tuple[int, ...] = (8, 16, 32)
    learning_rates: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    batch_sizes: tuple[int | None, ...] = (32, None)
    max_epochs: int = 500
    plateau_patience: int = 50
    plateau_tolerance: float | None = 1e-4

    def __post_init__(self):
        if not (self.hidden_widths and self.learning_rates and self.batch_sizes):
            raise ValueError("all hyperparameter sets must be non-empty")
        batch_sizes = [b for b in self.batch_sizes if b is not None]
        if not all(isinstance(n, int) for n in (*self.hidden_widths, *batch_sizes,
                                                 self.max_epochs, self.plateau_patience)):
            raise ValueError("hidden_widths, batch_sizes, max_epochs and plateau_patience "
                             "must be integers")
        if self.max_epochs < self.plateau_patience:
            raise ValueError("max_epochs must be >= plateau_patience")
        # TrainConfig checks each combination here, before grid_search trains the first
        list(self.combinations())

    def combinations(self, seed: int = 0):
        for width in self.hidden_widths:
            for rate in self.learning_rates:
                for batch in self.batch_sizes:
                    yield TrainConfig(hidden_width=width, learning_rate=rate,
                                      batch_size=batch, max_epochs=self.max_epochs,
                                      plateau_patience=self.plateau_patience,
                                      plateau_tolerance=self.plateau_tolerance, seed=seed)


@dataclass
class TrainReport:
    """Training trajectory and final test metrics for one run.

    ``epoch_losses[0]`` is the pre-training loss; entry e is the full-train
    MSE after epoch e.
    """

    epoch_losses: list[float] = field(default_factory=list)
    hyperparameters: dict = field(default_factory=dict)
    test_mse: float = math.nan
    test_mae: float = math.nan
    epochs_run: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TrainData:
    """Chronological train/test split of (features, target) arrays."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    @classmethod
    def from_records(cls, records, train_fraction: float = 0.8) -> "TrainData":
        from .dataset import split_chronological
        train, test = split_chronological(records, train_fraction)
        return cls(train_x=np.array([r.resistances for r in train]),
                   train_y=np.array([r.strain for r in train]),
                   test_x=np.array([r.resistances for r in test]),
                   test_y=np.array([r.strain for r in test]))


def train(data: TrainData, config: TrainConfig) -> tuple[MlpModel, TrainReport]:
    """Mini-batch gradient descent until max_epochs or plateau.

    The features are standardized once.  Each epoch gathers the rows in its
    seeded order once, and its batches are contiguous slices of that gather.
    Weights and biases are views into one flat vector, their gradients views
    into a second, so a step's update is one vector operation.  Standardizing
    is elementwise and every product and sum is the one the per-batch loop
    runs, so the model and report are bit-identical to standardizing each
    batch, calling ``backward`` on it and updating each array in place
    (``tests/test_mlp.py`` keeps that loop as the reference).

    The plateau stop fires when the relative full-train loss improvement over
    the last ``plateau_patience`` epochs drops below ``plateau_tolerance``.
    Raises NonFiniteLoss on divergence.
    """
    rng = np.random.default_rng(config.seed)
    mu, sigma = fit_normalizer(data.train_x)
    model = init_model(data.train_x.shape[1], config.hidden_width, mu, sigma, rng)
    sizes = model.layer_sizes
    params = np.concatenate([a.ravel() for pair in zip(model.weights, model.biases) for a in pair])
    model.weights, model.biases = _parameter_views(params, sizes)
    grads = np.empty_like(params)
    grad_views = _parameter_views(grads, sizes)
    xn = _standardized(model, data.train_x)
    y = np.asarray(data.train_y, dtype=float).ravel()
    n = xn.shape[0]
    batch = n if config.batch_size is None else min(config.batch_size, n)

    losses = [_mse(model, xn, y)]
    epochs_run = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        xs, ys = xn[order], y[order]
        # overflow while diverging is expected; the loss check below handles it
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, batch):
                _gradients(model, xs[start:start + batch], ys[start:start + batch], grad_views)
                params -= config.learning_rate * grads
            loss = _mse(model, xn, y)
        if not math.isfinite(loss):
            raise NonFiniteLoss(f"epoch {epoch}: loss {loss}")
        losses.append(loss)
        epochs_run = epoch
        if config.plateau_tolerance is not None and epoch >= config.plateau_patience:
            ref = losses[epoch - config.plateau_patience]
            improvement = (ref - loss) / ref if ref > 0 else 0.0
            if improvement < config.plateau_tolerance:
                break

    mse, mae = evaluate(model, data.test_x, data.test_y) if data.test_x.shape[0] else (math.nan, math.nan)
    report = TrainReport(epoch_losses=losses,
                         hyperparameters=asdict(config),
                         test_mse=mse, test_mae=mae, epochs_run=epochs_run)
    return model, report


def grid_search(data: TrainData, grid: HyperGrid,
                seed: int = 0) -> tuple[TrainConfig, MlpModel, TrainReport]:
    """Train every combination; select minimum test MSE.

    Ties break toward the smaller hidden width, then the lower learning rate.
    Divergent combinations are skipped; if all diverge, NonFiniteLoss is
    raised.
    """
    best = None
    for config in grid.combinations(seed=seed):
        try:
            model, report = train(data, config)
        except NonFiniteLoss:
            continue
        key = (report.test_mse, config.hidden_width, config.learning_rate)
        if best is None or key < best[0]:
            best = (key, config, model, report)
    if best is None:
        raise NonFiniteLoss("every grid combination diverged")
    return best[1], best[2], best[3]


# -- persistence --------------------------------------------------------------


def save_model(model: MlpModel, path) -> None:
    """Write the versioned JSON model document."""
    doc = model_to_doc(model)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> MlpModel:
    """Read a model document; forward outputs match the saved model bit-exactly."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptModelFile(str(exc)) from None
    return model_from_doc(doc)


def model_to_doc(model: MlpModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_sizes": list(model.layer_sizes),
        "weights": [w.tolist() for w in model.weights],  # row-major nested lists
        "biases": [b.tolist() for b in model.biases],
        "feature_mean": model.feature_mean.tolist(),
        "feature_std": model.feature_std.tolist(),
        **ACTIVATIONS,
    }


def model_from_doc(doc: dict) -> MlpModel:
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise CorruptModelFile("not a model document")
    if doc["format_version"] != MODEL_FORMAT_VERSION:
        raise UnsupportedVersion(f"format_version {doc['format_version']}")
    try:
        sizes = [int(s) for s in doc["layer_sizes"]]
        weights = [np.array(w, dtype=float) for w in doc["weights"]]
        biases = [np.array(b, dtype=float) for b in doc["biases"]]
        mean = np.array(doc["feature_mean"], dtype=float)
        std = np.array(doc["feature_std"], dtype=float)
        activations = {key: doc[key] for key in ACTIVATIONS}
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptModelFile(str(exc)) from None
    if activations != ACTIVATIONS:
        raise CorruptModelFile(f"activations {activations}: the forward pass is {ACTIVATIONS}")
    for w in weights:
        if w.ndim != 2:
            raise ShapeMismatch(f"weight array with shape {w.shape} is not a matrix")
    if mean.shape != std.shape or (sizes and mean.shape != (sizes[0],)):
        raise ShapeMismatch("normalization statistics do not match d_in")
    return MlpModel(layer_sizes=sizes, weights=weights, biases=biases,
                    feature_mean=mean, feature_std=std)
