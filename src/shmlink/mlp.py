"""Strain regressor: a 3-layer feed-forward network trained from scratch.

Three weight layers (two rectified hidden layers, identity output) map
feature vectors of resistance readings to a scalar strain estimate.  Features
are standardized by a normalizer fitted on training data; the target is used
as ingested.  Training is plain mini-batch gradient descent with a fixed rate
and a plateau stop, deterministic under a fixed seed.  It standardizes the
training rows once, takes each batch as a slice of one per-epoch gather, and
keeps the weights and their gradients in two flat vectors, so a step is one
vector update, and writes every step into arrays allocated once per call;
the result is bit-identical to standardizing each batch, calling
``backward`` on it and updating each array in place.  Models persist as a
versioned JSON document that reproduces forward outputs bit-identically.

Every number the model reports or serves, ``evaluate``'s scores and the
server's answers alike, comes from ``forward_rows``; only training's loss and
gradients use the single (n, d_in) matrix product.
"""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import dataclass, field, asdict

import numpy as np

from .dataset import split_chronological, write_atomic

MODEL_FORMAT_VERSION = 1
# the largest model file load_model reads, protocol.MAX_MESSAGE_SIZE: a path load
# takes no document that a load by value could not carry
MAX_MODEL_BYTES = 64 * 1024 * 1024
# what forward_rows computes, as model documents name it; no other value loads
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
            raise DimensionMismatch(f"layer_sizes {self.layer_sizes} is not [d_in, h1, h2, 1]")
        if len(self.weights) != 3 or len(self.biases) != 3:
            raise DimensionMismatch("exactly three weight layers expected")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            expect = (self.layer_sizes[i + 1], self.layer_sizes[i])
            if w.shape != expect or b.shape != (expect[0],):
                raise DimensionMismatch(f"layer {i + 1}: weights {w.shape}, expected {expect}")
        if not self.feature_mean.shape == self.feature_std.shape == (self.d_in,):
            raise DimensionMismatch(f"feature_mean {self.feature_mean.shape} and feature_std "
                                    f"{self.feature_std.shape} are not ({self.d_in},)")
        if not np.all(self.feature_std > 0.0):  # also refuses nan
            raise DimensionMismatch("feature_std components must be > 0")

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
    row's result is bit-identical to that row's alone, whatever the number of
    rows beside it.  A single (n, d_in) product may round differently per
    batch shape, so every score and every served answer comes from here, and
    only training's loss and gradients use that product.
    """
    w1, w2, w3 = model.weights
    b1, b2, b3 = model.biases
    x = _standardized(model, rows)[:, None, :]
    a1 = np.maximum(x @ w1.T + b1, 0.0)
    a2 = np.maximum(a1 @ w2.T + b2, 0.0)
    return (a2 @ w3.T + b3).reshape(-1)


def _standardized(model: MlpModel, rows) -> np.ndarray:
    """A (n, d_in) feature matrix mapped through the model's normalizer."""
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.d_in:
        raise DimensionMismatch(f"expected (n, {model.d_in}) rows, got shape {x.shape}")
    return (x - model.feature_mean) / model.feature_std


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
    _gradients(xn, y, _network(model), _work_arrays(n, model.layer_sizes), grads)
    return grads


def _network(model: MlpModel):
    """(weights, their transposed views, biases): what the work-array passes read."""
    return model.weights, [w.T for w in model.weights], model.biases


def _work_arrays(rows: int, sizes: list[int]):
    """One row count's arrays for a forward and its gradients: a1, a2, output, two masks."""
    _, h1, h2, _ = sizes
    return (np.empty((rows, h1)), np.empty((rows, h2)), np.empty((rows, 1)),
            np.empty((rows, h1), dtype=bool), np.empty((rows, h2), dtype=bool))


def _forward_into(xn: np.ndarray, network, work) -> np.ndarray:
    """Training's three layers for (n, d_in) rows ``xn``, in ``work``; returns the output column."""
    _, (w1t, w2t, w3t), (b1, b2, b3) = network
    a1, a2, out = work[:3]
    np.maximum(np.add(np.dot(xn, w1t, out=a1), b1, out=a1), 0.0, out=a1)
    np.maximum(np.add(np.dot(a1, w2t, out=a2), b2, out=a2), 0.0, out=a2)
    return np.add(np.dot(a2, w3t, out=out), b3, out=out)


def _loss(xn: np.ndarray, y: np.ndarray, network, work) -> float:
    """Mean squared error of the rows ``xn`` against ``y``, computed in ``work``."""
    residual = _forward_into(xn, network, work)[:, 0]
    residual -= y
    residual *= residual
    return float(np.mean(residual))


def _gradients(xn: np.ndarray, y: np.ndarray, network, work, out) -> None:
    """Gradients for standardized rows ``xn``, written into ``out`` = (weight views, bias views).

    ``np.add.reduce`` is ``ndarray.sum``'s reduction and the mask ``a > 0`` equals
    ``z > 0``, so each gradient has the bits of the plain ``dz.T @ a`` and
    ``dz.sum(axis=0)``; each delta overwrites the activation it no longer needs.
    """
    (gw1, gw2, gw3), (gb1, gb2, gb3) = out
    (_, w2, w3), _, _ = network
    a1, a2, dpred, m1, m2 = work
    _forward_into(xn, network, work)

    # loss = mean((pred - y)^2); d loss / d pred = 2 (pred - y) / n
    dpred[:, 0] -= y
    dpred *= 2.0 / xn.shape[0]
    np.dot(dpred.T, a2, out=gw3)
    np.add.reduce(dpred, axis=0, out=gb3)
    np.greater(a2, 0.0, out=m2)
    dz2 = np.multiply(np.dot(dpred, w3, out=a2), m2, out=a2)
    np.dot(dz2.T, a1, out=gw2)
    np.add.reduce(dz2, axis=0, out=gb2)
    np.greater(a1, 0.0, out=m1)
    dz1 = np.multiply(np.dot(dz2, w2, out=a1), m1, out=a1)
    np.dot(dz1.T, xn, out=gw1)
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


def evaluate(model: MlpModel, test_x: np.ndarray, test_y: np.ndarray) -> tuple[float, float]:
    """(MSE, MAE) of the ``forward_rows`` predictions on the test rows, in ingested units."""
    test_x = np.asarray(test_x, dtype=float)
    if test_x.size == 0:
        raise EmptyTestSet("no test rows")
    residual = forward_rows(model, test_x) - np.asarray(test_y, dtype=float).ravel()
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
        counts = (self.hidden_width, self.batch_size, self.max_epochs, self.plateau_patience)
        if not all(type(n) is int for n in counts if n is not None):  # bool is not a count
            raise ValueError("hidden_width, batch_size, max_epochs and plateau_patience "
                             "must be integers")
        if self.hidden_width < 1 or self.max_epochs < 1 or self.plateau_patience < 1:
            raise ValueError("hidden_width, max_epochs and plateau_patience must be positive")
        # NaN fails both comparisons; True would pass them as 1
        if isinstance(self.learning_rate, bool) or not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate {self.learning_rate!r} is not positive and finite")
        tolerance = self.plateau_tolerance
        if tolerance is not None and (isinstance(tolerance, bool) or math.isnan(tolerance)):
            # no improvement is below NaN: the stop would never fire
            raise ValueError(f"plateau_tolerance {tolerance!r} is not a number (None turns "
                             "the stop off)")
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


@dataclass(frozen=True)
class TrainData:
    """Chronological train/test split of (features, target) arrays, all finite.

    Before any training, an empty test slice, on which no model could be
    selected, raises EmptyTestSet, and a value that is not finite (a gateway
    log's unknown Strain) raises MlError naming its column, Strain or R1..Rn.
    """

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    def __post_init__(self):
        if len(self.test_y) == 0:
            raise EmptyTestSet("no test rows: the split leaves every row for training")
        for y in (self.train_y, self.test_y):
            if not np.isfinite(y).all():
                raise MlError("column Strain holds a value that is not finite")
        for x in (self.train_x, self.test_x):
            bad = np.nonzero(~np.isfinite(x))[-1]  # the columns of the bad cells
            if bad.size:
                raise MlError(f"column R{bad[0] + 1} holds a value that is not finite")

    @classmethod
    def from_records(cls, records, train_fraction: float = 0.8) -> "TrainData":
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
    into a second, so a step's update is one vector operation.  Every array a
    step writes is allocated once per call, one set per row count (all rows,
    the batch, a shorter last batch).  Standardizing is elementwise and every
    product and sum is the one the per-batch loop runs, so the model and
    report are bit-identical to standardizing each batch, calling ``backward``
    on it and updating each array in place (``tests/test_mlp.py`` keeps that
    loop as the reference).

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
    network = _network(model)
    xn = _standardized(model, data.train_x)
    y = np.asarray(data.train_y, dtype=float).ravel()
    n = xn.shape[0]
    batch = n if config.batch_size is None else min(config.batch_size, n)
    work = {rows: _work_arrays(rows, sizes) for rows in (n, batch, n % batch) if rows}
    xs, ys = np.empty_like(xn), np.empty_like(y)

    losses = [_loss(xn, y, network, work[n])]
    epochs_run = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        # mode="clip" writes straight into out; "raise" gathers into a copy first
        np.take(xn, order, axis=0, out=xs, mode="clip")
        np.take(y, order, out=ys, mode="clip")
        # overflow while diverging is expected; the loss check below handles it
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, batch):
                end = min(start + batch, n)
                _gradients(xs[start:end], ys[start:end], network, work[end - start], grad_views)
                grads *= config.learning_rate
                params -= grads
            loss = _loss(xn, y, network, work[n])
        if not math.isfinite(loss):
            raise NonFiniteLoss(f"epoch {epoch}: loss {loss}")
        losses.append(loss)
        epochs_run = epoch
        if config.plateau_tolerance is not None and epoch >= config.plateau_patience:
            ref = losses[epoch - config.plateau_patience]
            improvement = (ref - loss) / ref if ref > 0 else 0.0
            if improvement < config.plateau_tolerance:
                break

    mse, mae = evaluate(model, data.test_x, data.test_y)
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
    """Write the versioned JSON model document; a failed save keeps the old file."""
    write_atomic(path, json.dumps(model_to_doc(model), indent=1) + "\n")


def load_model(path) -> MlpModel:
    """Read a model document; forward outputs match the saved model bit-exactly.

    Only a regular file of at most MAX_MODEL_BYTES loads.  The open never
    blocks, so a FIFO or a device is refused at once rather than waited on or
    read without end; every refusal is a CorruptModelFile.
    """
    try:
        # the file object owns the descriptor from the start, so a refusal closes it
        with open(path, "rb", opener=lambda p, flags: os.open(p, flags | os.O_NONBLOCK)) as fh:
            if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                raise CorruptModelFile(f"{path} is not a regular file")
            data = fh.read(MAX_MODEL_BYTES + 1)
        if len(data) > MAX_MODEL_BYTES:
            raise CorruptModelFile(f"{path} is larger than {MAX_MODEL_BYTES} bytes")
        doc = json.loads(data.decode("utf-8"))
    # ValueError covers JSONDecodeError, UnicodeDecodeError and a path holding a NUL
    except (OSError, ValueError, RecursionError) as exc:
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
    if type(doc["format_version"]) is not int:  # json's true is True, and True == 1
        raise CorruptModelFile(f"format_version {doc['format_version']!r} is not an integer")
    if doc["format_version"] != MODEL_FORMAT_VERSION:
        raise UnsupportedVersion(f"format_version {doc['format_version']}")
    try:
        sizes = list(doc["layer_sizes"])
        weights = [np.array(w, dtype=float) for w in doc["weights"]]
        biases = [np.array(b, dtype=float) for b in doc["biases"]]
        mean = np.array(doc["feature_mean"], dtype=float)
        std = np.array(doc["feature_std"], dtype=float)
        activations = {key: doc[key] for key in ACTIVATIONS}
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptModelFile(str(exc)) from None
    if not all(type(s) is int for s in sizes):  # int() would take 2.9, "4" and true
        raise CorruptModelFile(f"layer_sizes {sizes!r} are not all integers")
    # json reads NaN and Infinity; a model holding one answers no prediction
    if not all(np.isfinite(a).all() for a in (*weights, *biases, mean, std)):
        raise CorruptModelFile("a weight, bias or normalization statistic is not finite")
    if activations != ACTIVATIONS:
        raise CorruptModelFile(f"activations {activations}: the forward pass is {ACTIVATIONS}")
    return MlpModel(layer_sizes=sizes, weights=weights, biases=biases,
                    feature_mean=mean, feature_std=std)
