"""Bilevel training loop: learn loss hyperparameters while training.

Each iteration draws a noisy train batch and a clean meta batch, updates
the unconstrained hyperparameter coordinates theta by descending the meta
cross entropy through a one-step-lookahead (virtual) parameter update,
then takes the actual SGD step under the freshly updated loss.  The
virtual step, the hypergradient and the actual step all run on one
cached forward pass of the train batch.

The hypergradient never needs double backprop: with
w~(theta) = w - alpha * grad_w L_train(w; theta), the chain rule gives
d L_meta / d theta_k = -alpha * g . J_k, where g is the meta gradient at
w~ and J_k the mixed partial of the train gradient.  The train gradient
is backward(w, X, G(theta) / n) for the loss's logit gradient G, and
backward is linear in G, so g . J_k = <J_w g, dG/dtheta_k> / n.  One
forward-mode JVP gives the logit tangent J_w g; dG/dtheta_k is a central
difference of G over theta_k, with all 2k probes evaluated on the fixed
logits of the batch, so they cost no forward and no backward pass.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import losses, model
from .errors import ConfigError, DomainError, NumericError


@dataclass
class TrainConfig:
    """Step sizes, batch sizes, iteration budget, and seeds for one run."""

    variant: str
    alpha: float = 0.1
    beta: float = 0.1
    batch_n: int = 100
    batch_m: int = 30
    max_iters: int = 1000
    seed: int = 0
    fd_eps: float = 1e-3
    init_hyper: losses.HyperParams | None = None
    rce_a: float = -4.0
    momentum: float = 0.0
    decay_steps: tuple = ()
    decay_factor: float = 0.1
    metrics_every: int = 50
    hidden: tuple = (16,)
    activation: str = "tanh"
    model_seed: int | None = None

    def __post_init__(self):
        if self.variant not in losses.VARIANTS:
            raise ConfigError(f"unknown loss variant {self.variant!r}")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("step sizes must be nonnegative")
        if self.batch_n < 1 or self.batch_m < 1:
            raise ConfigError("batch sizes must be >= 1")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.fd_eps <= 0:
            raise ConfigError("fd_eps must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.metrics_every < 1:
            raise ConfigError("metrics_every must be >= 1")

    def resolve_hyper(self, num_classes):
        if self.init_hyper is not None:
            if self.init_hyper.variant != self.variant:
                raise ConfigError("init_hyper variant does not match config")
            return self.init_hyper
        return replace(losses.default_hyper(self.variant, num_classes), rce_a=self.rce_a)


@dataclass
class TrainState:
    """Loop state: network parameters, hyperparameters, iteration, rngs."""

    params: model.MlpParams
    hyper: losses.HyperParams
    theta: np.ndarray
    iteration: int
    rng_train: np.random.Generator
    rng_meta: np.random.Generator


@dataclass
class MetricsRow:
    iteration: int
    train_loss: float
    meta_loss: float
    test_acc: float
    hyper_values: tuple


def train_grad(params, hyper, X, y, cache=None):
    """Mean robust-loss value and its parameter gradients on a batch.

    ``cache`` is ``model._forward_cached(params, X)`` when the caller
    already has it; otherwise the forward pass runs here, once.
    """
    if cache is None:
        cache = model._forward_cached(params, X)
    values, G = losses.batch_loss(hyper, cache[0][-1], y)
    if not np.all(np.isfinite(values)):
        raise NumericError(f"non-finite training loss under {hyper}")
    grads = model.backward(params, X, G / len(y), cache)
    return float(values.mean()), grads


def meta_ce_grad(params, X, y):
    """Mean clean-data cross entropy and gradients (the meta objective)."""
    return train_grad(params, losses.HyperParams("ce"), X, y)


def virtual_step(params, hyper, X, y, alpha, cache=None):
    """One-step lookahead w - alpha * grad_w L_train; ``params`` untouched."""
    _, grads = train_grad(params, hyper, X, y, cache)
    return model.sgd_step(params, grads, alpha)


def hypergradient(params, hyper, theta, Xn, yn, Xm, ym, alpha, fd_eps=1e-3, cache=None):
    """Gradient of the meta cross entropy with respect to theta.

    Returns -alpha * g . J_k per coordinate, with g the meta gradient at
    the virtual point and J_k the mixed partial of the train gradient in
    unconstrained coordinates, computed as
    -alpha / n * <J_w g, (G(theta + eps e_k) - G(theta - eps e_k)) / 2 eps>
    from the logit gradients G of the 2k probes on the fixed logits.
    ``cache`` is ``model._forward_cached(params, Xn)`` when the caller
    already has it.  Exactly zero when alpha = 0 (the virtual point no
    longer depends on theta).
    """
    names = hyper.learnable_names
    if not names:
        return np.zeros(0)
    if alpha == 0.0:
        return np.zeros(len(names))
    theta = np.asarray(theta, dtype=float)
    if np.any(fd_eps < 1e-12 * np.abs(theta)):
        warnings.warn("fd_eps underflows the theta scale; mixed partials unreliable")
    if cache is None:
        cache = model._forward_cached(params, Xn)

    w_tilde = virtual_step(params, hyper, Xn, yn, alpha, cache)
    _, g_meta = meta_ce_grad(w_tilde, Xm, ym)
    tangent = model.jvp(params, cache, g_meta)

    probes = []
    for k in range(len(names)):
        step = np.zeros_like(theta)
        step[k] = fd_eps
        probes += [losses.from_unconstrained(theta + step, hyper),
                   losses.from_unconstrained(theta - step, hyper)]
    values, G = losses.batch_loss(probes, cache[0][-1], yn)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise NumericError(f"non-finite training loss under {probes[finite.argmin()]}")
    # same order of operations as differencing full train gradients: G
    # carries train_grad's 1/n, and each coordinate is one dot product
    G = G / len(yn)
    tangent = tangent.ravel()
    out = np.empty(len(names))
    for k in range(len(names)):
        mixed = (G[2 * k] - G[2 * k + 1]) / (2.0 * fd_eps)
        out[k] = -alpha * float(tangent @ mixed.ravel())
    return out


def meta_update(theta, hypergrad, beta):
    """Plain SGD on the unconstrained coordinates."""
    hypergrad = np.asarray(hypergrad, dtype=float)
    if not np.all(np.isfinite(hypergrad)):
        raise NumericError("non-finite hypergradient")
    return np.asarray(theta, dtype=float) - beta * hypergrad


def _labels_of(dataset):
    return dataset.y_noisy if hasattr(dataset, "y_noisy") else dataset.y


def _step_scale(t, decay_steps, decay_factor):
    return decay_factor ** sum(1 for s in decay_steps if t >= s)


def _metrics_row(t, params, hyper, train_set, meta_set, test_set):
    Z = model.forward_logits(params, train_set.X)
    train_vals, _ = losses.batch_loss(hyper, Z, _labels_of(train_set))
    if meta_set is not None:
        Zm = model.forward_logits(params, meta_set.X)
        meta_vals, _ = losses.batch_loss(losses.HyperParams("ce"), Zm, meta_set.y)
        meta_loss = float(meta_vals.mean())
    else:
        meta_loss = float("nan")
    acc = model.accuracy(params, test_set.X, test_set.y)
    return MetricsRow(t, float(train_vals.mean()), meta_loss, acc, tuple(hyper.learnable_values()))


def _run_loop(train_set, meta_set, test_set, config, hyper, params, adapt,
              snapshot_hook=None, start_iter=0, num_iters=None):
    n_train = len(train_set)
    if n_train == 0 or len(test_set) == 0 or (meta_set is not None and len(meta_set) == 0):
        raise ConfigError("datasets must be non-empty")
    if config.batch_n > n_train:
        raise ConfigError(f"batch_n={config.batch_n} exceeds training set size {n_train}")
    if adapt and config.batch_m > len(meta_set):
        raise ConfigError(f"batch_m={config.batch_m} exceeds meta set size {len(meta_set)}")

    # separate streams so meta-batch draws never perturb train batching;
    # a run that skips meta updates is then bitwise identical to plain SGD
    rng_train = np.random.default_rng([config.seed, 17, start_iter])
    rng_meta = np.random.default_rng([config.seed, 23, start_iter])

    theta = losses.to_unconstrained(hyper) if hyper.learnable_names else np.zeros(0)
    velocity = model.zeros_like(params) if config.momentum > 0 else None
    labels = _labels_of(train_set)
    total = config.max_iters if num_iters is None else num_iters
    rows = []

    if snapshot_hook is not None:
        snapshot_hook(start_iter, params.copy(), hyper)

    for step in range(1, total + 1):
        t = start_iter + step
        idx_n = rng_train.choice(n_train, size=config.batch_n, replace=False)
        Xn, yn = train_set.X[idx_n], labels[idx_n]
        if meta_set is not None:
            idx_m = rng_meta.choice(len(meta_set), size=min(config.batch_m, len(meta_set)), replace=False)

        scale = _step_scale(t, config.decay_steps, config.decay_factor)
        alpha_t = config.alpha * scale
        beta_t = config.beta * scale
        cache = model._forward_cached(params, Xn)

        if adapt and theta.size and beta_t > 0.0:
            hg = hypergradient(
                params, hyper, theta, Xn, yn,
                meta_set.X[idx_m], meta_set.y[idx_m],
                alpha_t, config.fd_eps, cache,
            )
            theta = meta_update(theta, hg, beta_t)
            hyper = losses.from_unconstrained(theta, hyper)

        try:
            loss_value, grads = train_grad(params, hyper, Xn, yn, cache)
        except NumericError as exc:
            raise NumericError(f"diverged at iteration {t}: {exc}") from exc
        if velocity is not None:
            velocity = model.axpy(grads, config.momentum, velocity)
            params = model.sgd_step(params, velocity, alpha_t)
        else:
            params = model.sgd_step(params, grads, alpha_t)

        if t % config.metrics_every == 0 or step == total:
            rows.append(_metrics_row(t, params, hyper, train_set, meta_set, test_set))
            if snapshot_hook is not None:
                snapshot_hook(t, params.copy(), hyper)

    state = TrainState(params, hyper, theta, start_iter + total, rng_train, rng_meta)
    return state, rows


def arl_train(dataset, meta_set, test_set, config, snapshot_hook=None):
    """Adaptive robust-loss training: alternating theta and w updates.

    ``dataset`` carries (possibly noisy) training labels; ``meta_set`` and
    ``test_set`` are clean.  Returns the final state plus metrics recorded
    at the configured cadence and at the last iteration.
    """
    if meta_set is None:
        raise ConfigError("arl_train needs a clean meta set")
    c = dataset.c
    hyper = config.resolve_hyper(c)
    model_seed = config.seed if config.model_seed is None else config.model_seed
    params = model.init_mlp(
        [dataset.X.shape[1], *config.hidden, c], config.activation, model_seed
    )
    return _run_loop(
        dataset, meta_set, test_set, config, hyper, params,
        adapt=True, snapshot_hook=snapshot_hook,
    )


def conventional_train(dataset, test_set, config, hyper, meta_set=None,
                       init_params=None, start_iter=0, num_iters=None):
    """Fixed-hyperparameter SGD under the same batching scheme.

    With the same config and seed this consumes the identical train-batch
    stream as ``arl_train``, so comparisons isolate the hyperparameter
    adaptation.  ``init_params``/``start_iter`` support continuing from a
    snapshot of another run.
    """
    hyper.validate()
    if init_params is None:
        model_seed = config.seed if config.model_seed is None else config.model_seed
        init_params = model.init_mlp(
            [dataset.X.shape[1], *config.hidden, dataset.c], config.activation, model_seed
        )
    return _run_loop(
        dataset, meta_set, test_set, config, hyper, init_params.copy(),
        adapt=False, start_iter=start_iter, num_iters=num_iters,
    )


def compute_sample_weights(params, hyper, dataset):
    """Implicit per-sample weights of the soft-weighting loss.

    Each sample's weight is the derivative of the learned loss at its
    current cross-entropy value: 1 near-perfectly fit samples, 0 past the
    plateau threshold.
    """
    if hyper.variant != "polysoft":
        raise DomainError("sample weights are defined for the polysoft variant")
    Z = model.forward_logits(params, dataset.X)
    ce_vals = losses.loss_values(losses.HyperParams("ce"), losses.softmax(Z), _labels_of(dataset))
    return losses.polysoft_weight(ce_vals, hyper.lam, hyper.d)


def flattening_point(ce_grid, loss_values, threshold=0.05):
    """Smallest CE value where the loss slope drops below ``threshold``.

    Slopes are forward differences on the grid; returns +inf if the curve
    never flattens.
    """
    x = np.asarray(ce_grid, dtype=float)
    y = np.asarray(loss_values, dtype=float)
    slopes = np.diff(y) / np.diff(x)
    below = np.flatnonzero(slopes < threshold)
    return float(x[below[0]]) if below.size else float("inf")


def write_metrics_csv(rows, path):
    """Stable CSV: iter,train_loss,meta_loss,test_acc,hyper_1,..."""
    k = len(rows[0].hyper_values) if rows else 0
    header = ["iter", "train_loss", "meta_loss", "test_acc"] + [
        f"hyper_{i + 1}" for i in range(k)
    ]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            cells = [str(r.iteration)] + [
                f"{v:.9g}" for v in (r.train_loss, r.meta_loss, r.test_acc, *r.hyper_values)
            ]
            fh.write(",".join(cells) + "\n")


def write_weights_csv(weights, flip_mask, path):
    """Stable CSV: sample_id,is_clean,weight."""
    with open(path, "w") as fh:
        fh.write("sample_id,is_clean,weight\n")
        for i, (w, flipped) in enumerate(zip(weights, flip_mask)):
            fh.write(f"{i},{0 if flipped else 1},{w:.9g}\n")
