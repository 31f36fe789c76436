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
is backward(w, X, G(h) / n) for the loss's logit gradient G, and backward
is linear in G, so g . J_k = <J_w g, dG/dh_k> / n * dh_k/dtheta_k.  One
forward-mode JVP gives the logit tangent J_w g, and the loss kernels give
dG/dh_k in closed form from the same normalization of the train batch's
logits as the virtual step, so they cost no forward and no backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses, model
from .errors import ConfigError, DomainError, NumericError

_CE = losses.HyperParams("ce")  # the meta objective; frozen, so built once


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
    init_hyper: losses.HyperParams | None = None
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
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.metrics_every < 1:
            raise ConfigError("metrics_every must be >= 1")

    def resolve_hyper(self, num_classes):
        if self.init_hyper is not None:
            if self.init_hyper.variant != self.variant:
                raise ConfigError("init_hyper variant does not match config")
            return self.init_hyper
        return losses.default_hyper(self.variant, num_classes)


@dataclass
class TrainState:
    """Loop state: network parameters, hyperparameters, iteration."""

    params: model.MlpParams
    hyper: losses.HyperParams
    theta: np.ndarray
    iteration: int


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
    return _backward_mean(params, hyper, X, *losses.batch_loss(hyper, cache[0][-1], y), cache)


def _backward_mean(params, hyper, X, values, G, cache):
    """Mean of the per-sample ``values`` and the gradients of the mean loss."""
    if not np.all(np.isfinite(values)):
        raise NumericError(f"non-finite training loss under {hyper}")
    return float(values.mean()), model.backward(params, X, G / len(values), cache)


def meta_ce_grad(params, X, y):
    """Mean clean-data cross entropy and gradients (the meta objective)."""
    return train_grad(params, _CE, X, y)


def virtual_step(params, hyper, X, y, alpha, cache=None):
    """One-step lookahead w - alpha * grad_w L_train; ``params`` untouched."""
    _, grads = train_grad(params, hyper, X, y, cache)
    return model.sgd_step(params, grads.vec, alpha)


def hypergradient(params, hyper, theta, Xn, yn, Xm, ym, alpha, cache=None):
    """Gradient of the meta cross entropy with respect to theta.

    Returns -alpha / n * reparam_scale_k * <J_w g, dG/dh_k> per
    coordinate, with g the meta gradient at the virtual point, J_w g its
    logit tangent and dG/dh_k the closed-form derivative of the logit
    gradients in the k-th learnable field.  The virtual step and dG/dh
    share one normalization of the batch.  ``cache`` is
    ``model._forward_cached(params, Xn)`` when the caller already has it.
    Exactly zero when alpha = 0 (the virtual point no longer depends on
    theta).
    """
    names = hyper.learnable_names
    if not names or alpha == 0.0:
        return np.zeros(len(names))
    if cache is None:
        cache = model._forward_cached(params, Xn)

    values, G, _, dG = losses.batch_hgrad(hyper, cache[0][-1], yn)
    _, grads = _backward_mean(params, hyper, Xn, values, G, cache)
    dG = dG.reshape(len(names), -1)
    finite = np.isfinite(dG).all(axis=1)
    if not finite.all():
        raise NumericError(f"non-finite logit-gradient derivative in {names[finite.argmin()]} under {hyper}")
    _, g_meta = meta_ce_grad(model.sgd_step(params, grads.vec, alpha), Xm, ym)
    tangent = model.jvp(params, cache, g_meta).ravel()
    return -alpha * losses.reparam_scale(hyper.variant, theta) * (dG @ tangent) / len(yn)


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
        meta_vals, _ = losses.batch_loss(_CE, Zm, meta_set.y)
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
    velocity = np.zeros_like(params.vec) if config.momentum > 0 else None
    labels = _labels_of(train_set)
    total = config.max_iters if num_iters is None else num_iters
    rows = []

    if snapshot_hook is not None:
        snapshot_hook(start_iter, params, hyper)

    for step in range(1, total + 1):
        t = start_iter + step
        idx_n = rng_train.choice(n_train, size=config.batch_n, replace=False)
        Xn, yn = train_set.X[idx_n], labels[idx_n]
        if meta_set is not None:
            idx_m = rng_meta.choice(len(meta_set), size=min(config.batch_m, len(meta_set)), replace=False)

        scale = _step_scale(t, config.decay_steps, config.decay_factor)
        alpha_t = config.alpha * scale
        beta_t = config.beta * scale
        try:
            cache = model._forward_cached(params, Xn)
            if adapt and theta.size and beta_t > 0.0:
                hg = hypergradient(
                    params, hyper, theta, Xn, yn,
                    meta_set.X[idx_m], meta_set.y[idx_m], alpha_t, cache,
                )
                theta = meta_update(theta, hg, beta_t)
                hyper = losses.from_unconstrained(theta, hyper)

            _, grads = train_grad(params, hyper, Xn, yn, cache)
            if velocity is not None:
                velocity = grads.vec + config.momentum * velocity
                params = model.sgd_step(params, velocity, alpha_t)
            else:
                params = model.sgd_step(params, grads.vec, alpha_t)
        except (NumericError, DomainError) as exc:
            # a meta step can carry theta so far that a hyperparameter
            # rounds onto its domain boundary (d = 1 + softplus -> 1.0)
            raise NumericError(f"diverged at iteration {t} (theta={theta.tolist()}, {hyper}): {exc}") from exc

        if t % config.metrics_every == 0 or step == total:
            rows.append(_metrics_row(t, params, hyper, train_set, meta_set, test_set))
            if snapshot_hook is not None:
                snapshot_hook(t, params, hyper)

    return TrainState(params, hyper, theta, start_iter + total), rows


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
    if init_params is None:
        model_seed = config.seed if config.model_seed is None else config.model_seed
        init_params = model.init_mlp(
            [dataset.X.shape[1], *config.hidden, dataset.c], config.activation, model_seed
        )
    return _run_loop(
        dataset, meta_set, test_set, config, hyper, init_params,
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
    ce_vals = losses.loss_values(_CE, losses.softmax(Z), _labels_of(dataset))
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
