"""Regressor: normalizer, forward/backward oracles, training, persistence."""

import dataclasses
import json
import math
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shmlink import mlp
from shmlink.mlp import (
    CorruptModelFile,
    DegenerateFeature,
    DimensionMismatch,
    EmptyTestSet,
    HyperGrid,
    MlpModel,
    NonFiniteLoss,
    TrainConfig,
    TrainData,
    UnsupportedVersion,
    backward,
    evaluate,
    fit_normalizer,
    forward,
    forward_rows,
    grid_search,
    init_model,
    load_model,
    save_model,
    train,
)
from shmlink.protocol import MAX_MESSAGE_SIZE
from shmlink.synthetic import strain_records

R1_COLUMN = [50.988, 51.002, 50.994, 50.990, 50.992]  # pinned recording values


def seeded_model(d_in=2, width=8, seed=0) -> MlpModel:
    rng = np.random.default_rng(seed)
    return init_model(d_in, width, mu=np.zeros(d_in), sigma=np.ones(d_in), rng=rng)


def identity_chain_model() -> MlpModel:
    ones = [np.ones((1, 1))] * 3
    zeros = [np.zeros(1)] * 3
    return MlpModel(layer_sizes=[1, 1, 1, 1], weights=ones, biases=zeros,
                    feature_mean=np.zeros(1), feature_std=np.ones(1))


def linear_data(n=400, noise_rel=0.01, seed=0) -> TrainData:
    """strain = a*R1 + b*R2 + noise, standardized target."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([51.0 + rng.normal(0, 0.5, n), 43.0 + rng.normal(0, 0.4, n)])
    y = 2.0 * x[:, 0] - 1.5 * x[:, 1]
    y = (y - y.mean()) / y.std()
    y = y + rng.normal(0, noise_rel, n)
    cut = int(n * 0.8)
    return TrainData(train_x=x[:cut], train_y=y[:cut], test_x=x[cut:], test_y=y[cut:])


# -- normalizer --------------------------------------------------------------------


def test_fit_normalizer_pinned_values():
    # independent arithmetic on the pinned column
    expected_mu = sum(R1_COLUMN) / 5
    expected_sigma = math.sqrt(sum((v - expected_mu) ** 2 for v in R1_COLUMN) / 5)
    mu, sigma = fit_normalizer(np.array(R1_COLUMN)[:, None])
    assert mu[0] == pytest.approx(50.9932, abs=1e-12)
    assert mu[0] == expected_mu
    assert sigma[0] == pytest.approx(expected_sigma, rel=1e-12)
    assert sigma[0] == pytest.approx(4.833e-3, rel=1e-3)


def test_fit_normalizer_rejects_constant_column():
    features = np.column_stack([np.arange(5.0), np.full(5, 7.0)])
    with pytest.raises(DegenerateFeature) as excinfo:
        fit_normalizer(features)
    assert excinfo.value.column == 1


@pytest.mark.parametrize("features", [[[47.0, 120.0]], [47.0, 120.0]], ids=["one_row", "1d"])
def test_fit_normalizer_needs_a_matrix_of_two_rows(features):
    with pytest.raises(DimensionMismatch, match=">= 2 rows"):
        fit_normalizer(np.array(features))


def test_fit_normalizer_standardized_column():
    rng = np.random.default_rng(0)
    col = rng.normal(0, 1, 5000)
    col = (col - col.mean()) / col.std()
    mu, sigma = fit_normalizer(col[:, None])
    assert abs(mu[0]) < 1e-12
    assert abs(sigma[0] - 1.0) < 1e-12


# -- forward -----------------------------------------------------------------------


def test_identity_chain():
    model = identity_chain_model()
    assert forward(model, [1.0]) == 1.0


def test_rectifier_clamps_negative():
    model = identity_chain_model()
    assert forward(model, [-1.0]) == 0.0


def test_forward_matches_straight_line_reimplementation():
    model = seeded_model(d_in=3, width=5, seed=42)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.normal(0, 2, 3)
        # independent elementwise evaluation of the three matrix products
        xn = [(x[j] - model.feature_mean[j]) / model.feature_std[j] for j in range(3)]
        a1 = [max(0.0, sum(model.weights[0][i][j] * xn[j] for j in range(3))
                  + model.biases[0][i]) for i in range(5)]
        a2 = [max(0.0, sum(model.weights[1][i][j] * a1[j] for j in range(5))
                  + model.biases[1][i]) for i in range(5)]
        y = sum(model.weights[2][0][j] * a2[j] for j in range(5)) + model.biases[2][0]
        assert forward(model, x) == pytest.approx(y, rel=1e-12, abs=1e-15)


def test_forward_dimension_mismatch():
    model = seeded_model(d_in=2)
    with pytest.raises(DimensionMismatch):
        forward(model, [1.0, 2.0, 3.0])


@settings(max_examples=60, deadline=None)
@given(d_in=st.integers(1, 16), width=st.integers(1, 64), n=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_forward_rows_bit_equal_to_single_row_predict(d_in, width, n, seed, data):
    rng = np.random.default_rng(seed)
    model = init_model(d_in, width, mu=rng.normal(0, 50, d_in),
                       sigma=rng.uniform(0.5, 2.0, d_in), rng=rng)
    model.biases = [rng.normal(0, 0.5, b.shape) for b in model.biases]
    x = rng.normal(0, 50, (n, d_in))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=6))) if n > 1 else []
    batched = np.concatenate([forward_rows(model, chunk) for chunk in np.split(x, cuts)])
    alone = [float(forward_rows(model, row[None])[0]) for row in x]
    assert [v.hex() for v in batched.tolist()] == [v.hex() for v in alone]
    assert [forward(model, row).hex() for row in x] == [v.hex() for v in alone]


def test_forward_rows_bit_equal_to_stacked_product_reference():
    # the served forward written out: every layer a stack of 1-row products
    rng = np.random.default_rng(2024)
    far = clipped1 = clipped2 = 0
    for trial in range(300):
        d_in, width = int(rng.integers(1, 9)), int(rng.integers(1, 33))
        n = 1 if trial % 10 == 0 else int(rng.integers(1, 201))  # 1: what a push sends
        mu, sigma = rng.normal(0, 50, d_in), rng.uniform(0.01, 2.0, d_in)
        model = init_model(d_in, width, mu=mu, sigma=sigma, rng=rng)
        model.biases = [rng.normal(0, 0.5, b.shape) for b in model.biases]
        x = mu + sigma * rng.normal(0, 10.0 ** rng.integers(0, 5), (n, d_in))
        (w1, w2, w3), (b1, b2, b3) = model.weights, model.biases
        stack = ((x - mu) / sigma)[:, None, :]
        h1 = np.maximum(np.matmul(stack, w1.T) + b1, 0.0)
        h2 = np.maximum(np.matmul(h1, w2.T) + b2, 0.0)
        want = (np.matmul(h2, w3.T) + b3)[:, 0, 0]
        got = forward_rows(model, x)
        assert got.shape == (n,)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
        far += int(np.abs(stack).max() > 1000)
        clipped1 += int((h1 == 0).any())
        clipped2 += int((h2 == 0).any())
    assert far and clipped1 and clipped2  # rows past |z| = 1000, and both rectifiers clipped


def test_forward_rows_dimension_mismatch():
    model = seeded_model(d_in=2)
    with pytest.raises(DimensionMismatch):
        forward_rows(model, np.ones((4, 3)))
    with pytest.raises(DimensionMismatch):
        forward_rows(model, np.ones(2))


# -- backward ----------------------------------------------------------------------


def finite_difference_grads(model, x, y, h=1e-5):
    """Central differences on every parameter; the independent gradient oracle."""
    wg, bg = [], []
    for arrays, grads in ((model.weights, wg), (model.biases, bg)):
        for arr in arrays:
            g = np.zeros_like(arr)
            flat = arr.ravel()
            gflat = g.ravel()
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + h
                up = evaluate(model, x, y)[0]
                flat[k] = keep - h
                down = evaluate(model, x, y)[0]
                flat[k] = keep
                gflat[k] = (up - down) / (2 * h)
            grads.append(g)
    return wg, bg


def kink_margin(model, x):
    """Distance of every rectifier pre-activation from its kink."""
    xn = (x - model.feature_mean) / model.feature_std
    z1 = xn @ model.weights[0].T + model.biases[0]
    z2 = np.maximum(z1, 0) @ model.weights[1].T + model.biases[1]
    return min(float(np.abs(z1).min()), float(np.abs(z2).min()))


def gradcheck_probe(seed):
    """Seeded 2-8-8-1 probe network and batch at a differentiable point.

    Zero-initialized biases can park a rectifier exactly on its kink (an
    all-negative first layer makes z2 = b2 = 0), where central differences
    are meaningless; the probe draws small random biases until every
    pre-activation clears the kink by far more than the step size.
    """
    rng = np.random.default_rng(seed)
    model = seeded_model(d_in=2, width=8, seed=seed)
    x = rng.normal(0, 1, (16, 2))
    y = rng.normal(0, 1, 16)
    while kink_margin(model, x) < 1e-3:
        for b in model.biases[:2]:
            b[:] = rng.uniform(0.05, 0.5, b.shape) * rng.choice([-1.0, 1.0], b.shape)
    return model, x, y


def max_relative_gradient_error(seed):
    model, x, y = gradcheck_probe(seed)
    wg, bg = backward(model, x, y)
    wg_fd, bg_fd = finite_difference_grads(model, x, y)
    worst = 0.0
    for analytic, numeric in zip(wg + bg, wg_fd + bg_fd):
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    return worst


def test_gradients_match_finite_differences():
    assert max_relative_gradient_error(seed=0) < 1e-4


def test_zero_residual_batch_has_zero_gradients():
    model = seeded_model(d_in=2, width=4, seed=1)
    rng = np.random.default_rng(2)
    x = rng.normal(0, 1, (8, 2))
    y = forward_rows(model, x)  # targets equal predictions
    wg, bg = backward(model, x, y)
    for g in wg + bg:
        assert np.max(np.abs(g)) <= 1e-12


def test_duplicated_batch_rows_leave_gradients_unchanged():
    model = seeded_model(d_in=2, width=4, seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(0, 1, (8, 2))
    y = rng.normal(0, 1, 8)
    wg1, bg1 = backward(model, x, y)
    wg2, bg2 = backward(model, np.vstack([x, x]), np.concatenate([y, y]))
    for a, b in zip(wg1 + bg1, wg2 + bg2):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


def test_backward_dimension_mismatch():
    model = seeded_model(d_in=2)
    with pytest.raises(DimensionMismatch):
        backward(model, np.zeros((4, 3)), np.zeros(4))
    with pytest.raises(DimensionMismatch):
        backward(model, np.zeros((0, 2)), np.zeros(0))


# -- train -------------------------------------------------------------------------


def test_train_beats_least_squares_bound():
    data = linear_data()
    # closed-form least squares on the training split is the achievable-error oracle
    a = np.column_stack([data.train_x, np.ones(len(data.train_y))])
    coef, *_ = np.linalg.lstsq(a, data.train_y, rcond=None)
    ls_pred = np.column_stack([data.test_x, np.ones(len(data.test_y))]) @ coef
    ls_mae = float(np.mean(np.abs(ls_pred - data.test_y)))
    assert ls_mae <= 0.02  # the target is reachable

    model, report = train(data, TrainConfig(hidden_width=16, learning_rate=1e-2,
                                            batch_size=32, max_epochs=300, seed=0))
    _, mae = evaluate(model, data.test_x, data.test_y)
    assert mae <= 0.05


def test_train_diverges_with_huge_rate():
    data = linear_data()
    with pytest.raises(NonFiniteLoss):
        train(data, TrainConfig(learning_rate=1e3, max_epochs=50, seed=0))


def test_train_constant_target_reaches_zero_loss_by_plateau_stop():
    rng = np.random.default_rng(5)
    x = rng.normal(0, 1, (100, 1))
    y = np.full(100, 0.5)
    data = TrainData(train_x=x, train_y=y, test_x=x[:10], test_y=y[:10])
    model, report = train(data, TrainConfig(hidden_width=4, learning_rate=0.8,
                                            batch_size=None, max_epochs=500, seed=0))
    assert report.epoch_losses[-1] <= 1e-6
    assert report.epochs_run < 500  # the plateau stop fired, not the epoch cap


def test_train_is_deterministic():
    data = linear_data()
    config = TrainConfig(hidden_width=8, learning_rate=1e-2, max_epochs=40, seed=9)
    _, r1 = train(data, config)
    _, r2 = train(data, config)
    assert r1.epoch_losses == r2.epoch_losses
    assert r1.test_mse == r2.test_mse and r1.test_mae == r2.test_mae


def test_report_invariants():
    data = linear_data()
    _, report = train(data, TrainConfig(max_epochs=30, seed=0))
    assert report.epochs_run <= 30
    assert all(math.isfinite(l) for l in report.epoch_losses)
    assert len(report.epoch_losses) == report.epochs_run + 1  # entry 0 = pre-training


def test_eight_sensor_configuration_trains():
    from shmlink.synthetic import strain_records

    records = strain_records(n=400, channels=8, noise=0.01, seed=2)
    data = TrainData.from_records(records, train_fraction=0.8)
    model, report = train(data, TrainConfig(hidden_width=8, learning_rate=1e-2,
                                            batch_size=32, max_epochs=120, seed=0))
    assert model.d_in == 8
    assert report.test_mae <= 0.15


def test_normalization_invariance():
    data = linear_data(n=200)
    scaled = TrainData(train_x=data.train_x * np.array([4.0, 0.25]) + np.array([100.0, -7.0]),
                       train_y=data.train_y,
                       test_x=data.test_x * np.array([4.0, 0.25]) + np.array([100.0, -7.0]),
                       test_y=data.test_y)
    mu_a, sigma_a = fit_normalizer(data.train_x)
    mu_b, sigma_b = fit_normalizer(scaled.train_x)
    za = (data.train_x - mu_a) / sigma_a
    zb = (scaled.train_x - mu_b) / sigma_b
    assert np.max(np.abs(za - zb)) < 1e-9

    config = TrainConfig(hidden_width=8, learning_rate=1e-2, max_epochs=50, seed=4)
    _, ra = train(data, config)
    _, rb = train(scaled, config)
    assert np.allclose(ra.epoch_losses, rb.epoch_losses, rtol=1e-6, atol=1e-12)


def reference_backward(model, batch_x, batch_y):
    """Gradients as separate arrays from plain products and sums, per batch."""
    xn = (np.asarray(batch_x, dtype=float) - model.feature_mean) / model.feature_std
    y = np.asarray(batch_y, dtype=float).ravel()
    w1, w2, w3 = model.weights
    b1, b2, b3 = model.biases
    z1 = xn @ w1.T + b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ w2.T + b2
    a2 = np.maximum(z2, 0.0)
    dpred = (2.0 / xn.shape[0]) * ((a2 @ w3.T + b3).ravel() - y)[:, None]
    dz2 = (dpred @ w3) * (z2 > 0)
    dz1 = (dz2 @ w2) * (z1 > 0)
    return [dz1.T @ xn, dz2.T @ a1, dpred.T @ a2], [dz1.sum(axis=0), dz2.sum(axis=0),
                                                     dpred.sum(axis=0)]


def reference_train(data, config):
    """The per-batch loop ``train`` must equal bit for bit: gather and standardize
    each batch, compute its gradients, update the six arrays in place."""
    rng = np.random.default_rng(config.seed)
    mu, sigma = fit_normalizer(data.train_x)
    model = init_model(data.train_x.shape[1], config.hidden_width, mu, sigma, rng)
    x, y = np.asarray(data.train_x, dtype=float), np.asarray(data.train_y, dtype=float).ravel()
    n = x.shape[0]
    batch = n if config.batch_size is None else min(config.batch_size, n)

    def loss():
        xn = (x - model.feature_mean) / model.feature_std
        w1, w2, w3 = model.weights
        b1, b2, b3 = model.biases
        a2 = np.maximum(np.maximum(xn @ w1.T + b1, 0.0) @ w2.T + b2, 0.0)
        residual = (a2 @ w3.T + b3).ravel() - y
        return float(np.mean(residual * residual))

    losses = [loss()]
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, batch):
                idx = order[start:start + batch]
                wg, bg = reference_backward(model, x[idx], y[idx])
                for w, g in zip(model.weights, wg):
                    w -= config.learning_rate * g
                for b, g in zip(model.biases, bg):
                    b -= config.learning_rate * g
            losses.append(loss())
        if not math.isfinite(losses[-1]):
            raise NonFiniteLoss(f"epoch {epoch}: loss {losses[-1]}")
        if config.plateau_tolerance is not None and epoch >= config.plateau_patience:
            ref = losses[epoch - config.plateau_patience]
            if ((ref - losses[-1]) / ref if ref > 0 else 0.0) < config.plateau_tolerance:
                break
    mse, mae = evaluate(model, data.test_x, data.test_y)
    return model, mlp.TrainReport(epoch_losses=losses, test_mse=mse, test_mae=mae,
                                  epochs_run=len(losses) - 1)


def training_outcome(run, data, config):
    try:
        model, report = run(data, config)
    except NonFiniteLoss as exc:
        return str(exc)  # names the epoch and the loss
    return ([a.tobytes() for a in (*model.weights, *model.biases)],
            [v.hex() for v in report.epoch_losses], report.test_mse.hex(),
            report.test_mae.hex(), report.epochs_run)


# a run that ends with huge finite weights overflows on the test rows; both sides report inf
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(d_in=st.integers(1, 6), width=st.integers(1, 32), n=st.integers(8, 70),
       seed=st.integers(0, 2**32 - 1), rate=st.sampled_from([1e-2, 0.2, 50.0]),
       plateau=st.sampled_from([None, 1e-3]), data=st.data())
def test_train_bit_equal_to_per_batch_reference(d_in, width, n, seed, rate, plateau, data):
    batch = data.draw(st.one_of(st.just(1), st.none(),
                                st.integers(2, n + 3).filter(lambda b: n % b)), label="batch")
    rng = np.random.default_rng(seed)
    x = rng.normal(50.0, 2.0, (n + 5, d_in))
    y = x @ rng.normal(0, 1, d_in) + rng.normal(0, 0.1, n + 5)
    split = TrainData(train_x=x[:n], train_y=y[:n], test_x=x[n:], test_y=y[n:])
    config = TrainConfig(hidden_width=width, learning_rate=rate, batch_size=batch,
                         max_epochs=12, plateau_patience=3, plateau_tolerance=plateau,
                         seed=seed)
    assert training_outcome(train, split, config) == training_outcome(reference_train, split,
                                                                      config)


@pytest.mark.parametrize("batch", [32, 50, None])  # 50 leaves a tail batch of 20
@pytest.mark.parametrize("width", [8, 16])
def test_train_bit_equal_to_per_batch_reference_at_calibrate_scale(width, batch):
    # 1920 training rows: the full-train arrays are larger than the allocator's
    # mmap threshold, and every product sees a calibration's row counts
    split = TrainData.from_records(strain_records(n=2400, channels=2, noise=0.01, seed=0),
                                   train_fraction=0.8)
    assert len(split.train_y) == 1920
    config = TrainConfig(hidden_width=width, learning_rate=1e-2, batch_size=batch,
                         max_epochs=3, seed=0)
    assert training_outcome(train, split, config) == training_outcome(reference_train, split,
                                                                      config)


# -- grid search --------------------------------------------------------------------


def test_grid_search_matches_exhaustive_loop():
    data = linear_data(n=250)
    grid = HyperGrid(hidden_widths=(4, 8), learning_rates=(1e-2, 1e-3),
                     batch_sizes=(32,), max_epochs=40, plateau_patience=20)
    config, model, report = grid_search(data, grid, seed=1)

    # brute force: rerun the same four combinations externally
    best = None
    for c in grid.combinations(seed=1):
        _, r = train(data, c)
        key = (r.test_mse, c.hidden_width, c.learning_rate)
        if best is None or key < best[0]:
            best = (key, c, r)
    assert config == best[1]
    assert report.test_mse == best[2].test_mse


def test_grid_search_singleton():
    data = linear_data(n=250)
    grid = HyperGrid(hidden_widths=(8,), learning_rates=(1e-2,), batch_sizes=(32,),
                     max_epochs=30, plateau_patience=20)
    config, _, _ = grid_search(data, grid, seed=0)
    assert (config.hidden_width, config.learning_rate, config.batch_size) == (8, 1e-2, 32)


def test_grid_search_all_divergent():
    data = linear_data(n=250)
    grid = HyperGrid(hidden_widths=(8,), learning_rates=(1e3, 1e4), batch_sizes=(32,),
                     max_epochs=30, plateau_patience=20)
    with pytest.raises(NonFiniteLoss):
        grid_search(data, grid, seed=0)


def test_grid_validation():
    with pytest.raises(ValueError):
        HyperGrid(hidden_widths=())
    with pytest.raises(ValueError):
        HyperGrid(max_epochs=10, plateau_patience=50)


@pytest.mark.parametrize("fields", [{"learning_rates": (1e-2, -1.0)}, {"learning_rates": (0.0,)},
                                    {"learning_rates": (math.nan,)},
                                    {"learning_rates": (math.inf,)},
                                    {"batch_sizes": (32, 0)}, {"batch_sizes": (None, 7.5)}])
def test_grid_rejects_every_bad_combination_at_construction(fields):
    with pytest.raises(ValueError):
        HyperGrid(**fields)


@pytest.mark.parametrize("rate", [-1.0, 0.0, math.nan, math.inf, True])
def test_train_config_rejects_rate_that_is_not_positive_and_finite(rate):
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=rate)


@pytest.mark.parametrize("tolerance", [math.nan, True, False])
def test_train_config_rejects_plateau_tolerance_that_is_not_a_number(tolerance):
    with pytest.raises(ValueError, match="plateau_tolerance"):
        TrainConfig(plateau_tolerance=tolerance)


@pytest.mark.parametrize("fields", [{"hidden_width": 8.0}, {"batch_size": 7.5},
                                    {"max_epochs": 5.0}, {"plateau_patience": 2.0},
                                    {"hidden_width": "8"}, {"hidden_width": True},
                                    {"plateau_patience": True}, {"batch_size": False}])
def test_train_config_rejects_counts_that_are_not_integers(fields):
    with pytest.raises(ValueError, match="integers"):
        TrainConfig(**fields)


@pytest.mark.parametrize("patience", [0, -5])
def test_train_config_rejects_plateau_patience_below_one(patience):
    with pytest.raises(ValueError, match="plateau_patience"):
        TrainConfig(plateau_patience=patience)


@pytest.mark.parametrize("split,column", [("train_y", "Strain"), ("test_y", "Strain"),
                                          ("train_x", "R2"), ("test_x", "R1")])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_train_data_refuses_values_that_are_not_finite(split, column, bad):
    arrays = vars(linear_data(n=20))
    damaged = arrays[split].copy()
    if damaged.ndim == 2:
        damaged[3, int(column[1:]) - 1] = bad
    else:
        damaged[3] = bad
    with pytest.raises(mlp.MlError, match=f"column {column} "):
        TrainData(**{**arrays, split: damaged})


def test_train_data_refuses_an_empty_test_slice():
    # ceil(40 * 0.99) = 40 rows train; selecting on no test rows would pick by tie-break
    records = strain_records(n=40, channels=2, noise=0.01, seed=0)
    with pytest.raises(EmptyTestSet):
        TrainData.from_records(records, train_fraction=0.99)
    arrays = vars(linear_data(n=20))
    with pytest.raises(EmptyTestSet):
        TrainData(**{**arrays, "test_x": np.zeros((0, 2)), "test_y": np.zeros(0)})


# -- evaluate -----------------------------------------------------------------------


def test_evaluate_perfect_predictions():
    model = identity_chain_model()
    x = np.array([[1.0], [2.0], [3.0]])
    assert evaluate(model, x, forward_rows(model, x)) == (0.0, 0.0)


def test_evaluate_constant_prediction_hand_values():
    # constant prediction c on targets {c-1, c+1} -> MSE 1, MAE 1
    model = identity_chain_model()
    model.weights[0][:] = 0.0
    model.biases[2][:] = 5.0
    x = np.array([[0.0], [0.0]])
    mse, mae = evaluate(model, x, np.array([4.0, 6.0]))
    assert mse == 1.0 and mae == 1.0


def test_evaluate_pinned_residuals():
    # residuals {0.1, -0.3} -> MSE 0.05, MAE 0.2
    model = identity_chain_model()
    model.weights[0][:] = 0.0
    model.biases[2][:] = 1.0
    x = np.array([[0.0], [0.0]])
    mse, mae = evaluate(model, x, np.array([0.9, 1.3]))
    assert mse == pytest.approx(0.05, rel=1e-12)
    assert mae == pytest.approx(0.2, rel=1e-12)


def test_evaluate_empty_test_set():
    for shape in ((0, 1), (1, 0), (0,)):
        with pytest.raises(EmptyTestSet):
            evaluate(identity_chain_model(), np.zeros(shape), np.zeros(0))


def test_evaluate_scalar_test_set_is_not_a_matrix():
    with pytest.raises(DimensionMismatch):
        evaluate(identity_chain_model(), np.float64(1.0), np.zeros(1))


# -- persistence --------------------------------------------------------------------


def test_save_load_forward_bit_exact(tmp_path):
    model = seeded_model(d_in=2, width=16, seed=6)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = rng.normal(0, 3, 2)
        assert forward(model, x) == forward(loaded, x)


def test_failed_save_keeps_the_previous_model(tmp_path, monkeypatch):
    model = seeded_model(d_in=2, width=8, seed=6)
    path = tmp_path / "model.json"
    save_model(model, path)
    monkeypatch.setattr(mlp, "model_to_doc", lambda m: {"format_version": 1, "weights": object()})
    with pytest.raises(TypeError):
        save_model(seeded_model(d_in=2, width=8, seed=7), path)
    x = np.array([0.3, -1.2])
    assert forward(load_model(path), x) == forward(model, x)
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def test_save_creates_the_parent_directory(tmp_path):
    path = tmp_path / "models" / "model.json"
    save_model(seeded_model(), path)
    assert load_model(path).layer_sizes == seeded_model().layer_sizes


def test_truncated_file_corrupt(tmp_path):
    model = seeded_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    path.write_text(path.read_text()[: path.stat().st_size // 2])
    with pytest.raises(CorruptModelFile):
        load_model(path)


def test_reshaped_weights_shape_mismatch(tmp_path):
    model = seeded_model(d_in=2, width=8)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    w1 = doc["weights"][0]
    doc["weights"][0] = [sum(w1, [])]  # 8x2 flattened into 1x16
    path.write_text(json.dumps(doc))
    with pytest.raises(DimensionMismatch):
        load_model(path)


@pytest.mark.parametrize("mu,sigma", [
    ([50.0], [1.0, 1.0]),
    ([50.0, 50.0], [1.0]),
    ([[50.0, 50.0]], [[1.0, 1.0]]),
], ids=["short_mean", "short_std", "row_matrices"])
def test_model_refuses_normalizer_of_another_shape(mu, sigma):
    # one mean would broadcast over both columns, and the saved model would not load back
    with pytest.raises(DimensionMismatch, match="feature_mean"):
        mlp.init_model(2, 4, mu=np.array(mu), sigma=np.array(sigma),
                       rng=np.random.default_rng(0))


@pytest.mark.parametrize("field,spoil,match", [
    ("layer_sizes", lambda m: [2, 8, 1], "is not"),
    ("weights", lambda m: m.weights[:2], "three weight layers"),
    ("feature_std", lambda m: np.array([1.0, 0.0]), "must be > 0"),
], ids=["three_sizes", "two_weight_layers", "zero_std"])
def test_model_refuses_a_structure_it_cannot_run(field, spoil, match):
    model = seeded_model(d_in=2, width=8)
    with pytest.raises(DimensionMismatch, match=match):
        dataclasses.replace(model, **{field: spoil(model)})


def test_model_file_with_a_short_mean_is_refused():
    doc = mlp.model_to_doc(seeded_model(d_in=2, width=8))
    doc["feature_mean"] = doc["feature_mean"][:1]
    with pytest.raises(DimensionMismatch):
        mlp.model_from_doc(doc)


def test_unsupported_version(tmp_path):
    model = seeded_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(UnsupportedVersion):
        load_model(path)


def test_missing_file_corrupt(tmp_path):
    with pytest.raises(CorruptModelFile):
        load_model(tmp_path / "nope.json")


needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")


def oversized_model_file(tmp_path):
    """A valid model document padded with spaces to one byte more than a message can carry."""
    path = tmp_path / "padded.json"
    save_model(seeded_model(), path)
    pad = MAX_MESSAGE_SIZE + 1 - path.stat().st_size
    with open(path, "ab") as fh:
        for start in range(0, pad, 1 << 20):
            fh.write(b" " * min(1 << 20, pad - start))
    return path


def fifo_model_file(tmp_path):
    fifo = tmp_path / "model.fifo"
    os.mkfifo(fifo)
    return fifo


def release_fifo(fifo):
    """Open ``fifo`` for writing and close it, which wakes a reader blocked in open()."""
    try:
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    except OSError:  # ENXIO: no reader is waiting on it
        pass


@needs_fifo
def test_fifo_is_refused_without_blocking(tmp_path):
    fifo = fifo_model_file(tmp_path)
    raised = []

    def load():
        try:
            load_model(fifo)
        except CorruptModelFile as exc:
            raised.append(exc)

    loader = threading.Thread(target=load, daemon=True)
    loader.start()
    loader.join(timeout=1.0)
    if loader.is_alive():
        release_fifo(fifo)
        loader.join()
        pytest.fail("load_model blocked opening a FIFO")
    assert "not a regular file" in str(raised[0])


def test_model_file_over_the_cap_is_refused(tmp_path):
    with pytest.raises(CorruptModelFile, match="larger than"):
        load_model(oversized_model_file(tmp_path))
    assert mlp.MAX_MODEL_BYTES == MAX_MESSAGE_SIZE


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no per-process descriptor list")
def test_directory_is_refused_without_leaking_a_descriptor(tmp_path):
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(50):
        with pytest.raises(CorruptModelFile, match=re.escape(str(tmp_path))):
            load_model(tmp_path)
    assert len(os.listdir("/proc/self/fd")) <= before


@pytest.mark.parametrize("spoil", [
    lambda doc: doc["weights"][0][0].__setitem__(0, math.nan),
    lambda doc: doc["weights"][2][0].__setitem__(1, math.inf),
    lambda doc: doc["biases"][1].__setitem__(0, -math.inf),
    lambda doc: doc["feature_mean"].__setitem__(0, math.nan),
    lambda doc: doc["feature_std"].__setitem__(1, math.nan),
    lambda doc: doc["feature_std"].__setitem__(0, math.inf),
    lambda doc: doc.__setitem__("format_version", True),
    lambda doc: doc["layer_sizes"].__setitem__(0, 2.9),
    lambda doc: doc["layer_sizes"].__setitem__(0, 2.0),
    lambda doc: doc["layer_sizes"].__setitem__(1, "8"),
    lambda doc: doc["layer_sizes"].__setitem__(3, True),
    lambda doc: doc.pop("weights"),
], ids=["nan_weight", "inf_weight", "inf_bias", "nan_mean", "nan_std", "inf_std",
        "version_true", "size_2.9", "size_float", "size_str", "size_true", "no_weights"])
def test_model_that_cannot_predict_is_corrupt(tmp_path, spoil):
    doc = mlp.model_to_doc(seeded_model())
    spoil(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity, as json writes and reads them
    with pytest.raises(CorruptModelFile):
        load_model(path)


@pytest.mark.parametrize("key,value", [("hidden_activation", "tanh"),
                                       ("output_activation", "sigmoid")])
def test_activation_other_than_forward_pass_rejected(key, value):
    doc = mlp.model_to_doc(seeded_model())
    assert (doc["hidden_activation"], doc["output_activation"]) == ("relu", "identity")
    doc[key] = value  # would load and then predict as relu/identity
    with pytest.raises(CorruptModelFile):
        mlp.model_from_doc(doc)
