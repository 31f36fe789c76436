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
is backward(w, cache, G(h) / n) for the loss's logit gradient G, and backward
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


class _RangeError(ConfigError):
    """A ``TrainConfig`` field out of its range; ``field`` names it."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


# the range of each ranged TrainConfig field: (check, requirement)
_RANGES = {
    "alpha": (lambda v: v >= 0, "be nonnegative"),
    "beta": (lambda v: v >= 0, "be nonnegative"),
    "batch_n": (lambda v: v >= 1, "be >= 1"),
    "batch_m": (lambda v: v >= 1, "be >= 1"),
    "max_iters": (lambda v: v >= 1, "be >= 1"),
    "momentum": (lambda v: 0.0 <= v < 1.0, "lie in [0, 1)"),
    "metrics_every": (lambda v: v >= 1, "be >= 1"),
    "decay_factor": (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
}


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
        for name, (ok, what) in _RANGES.items():
            value = getattr(self, name)
            if not ok(value):
                raise _RangeError(name, f"{name} must {what}, got {value!r}")

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
    iteration: int


@dataclass
class MetricsRow:
    iteration: int
    train_loss: float
    meta_loss: float
    test_acc: float
    hyper_values: tuple


def train_grad(params, hyper, X, y, cache=None):
    """Mean robust-loss value and its parameter gradient vector on a batch.

    ``cache`` is ``model._forward_cached(params, X)`` when the caller
    already has it; otherwise the forward pass runs here, once.
    """
    if cache is None:
        cache = model._forward_cached(params, X)
    return _backward_mean(params, hyper, *losses.batch_loss(hyper, cache[0][-1], y), cache)


def _backward_mean(params, hyper, values, G, cache):
    """Mean of the per-sample ``values`` and the gradient vector of the mean loss."""
    if not np.all(np.isfinite(values)):
        raise NumericError(f"non-finite training loss under {hyper}")
    return float(values.mean()), model.backward(params, cache, G / len(values))


def meta_ce_grad(params, X, y):
    """Mean clean-data cross entropy and its gradient vector (the meta objective)."""
    return train_grad(params, _CE, X, y)


def virtual_step(params, hyper, X, y, alpha, cache=None):
    """One-step lookahead w - alpha * grad_w L_train; ``params`` untouched."""
    _, grads = train_grad(params, hyper, X, y, cache)
    return model.sgd_step(params, grads, alpha)


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
    _, grads = _backward_mean(params, hyper, values, G, cache)
    dG = dG.reshape(len(names), -1)
    finite = np.isfinite(dG).all(axis=1)
    if not finite.all():
        raise NumericError(f"non-finite logit-gradient derivative in {names[finite.argmin()]} under {hyper}")
    _, g_meta = meta_ce_grad(model.sgd_step(params, grads, alpha), Xm, ym)
    tangent = model.jvp(params, cache, g_meta).ravel()
    return -alpha * losses.reparam_scale(hyper.variant, theta) * (dG @ tangent) / len(yn)


def meta_update(theta, hypergrad, beta):
    """Plain SGD on the unconstrained coordinates."""
    hypergrad = np.asarray(hypergrad, dtype=float)
    if not np.all(np.isfinite(hypergrad)):
        raise NumericError("non-finite hypergradient")
    return np.asarray(theta, dtype=float) - beta * hypergrad


def _step_scale(t, decay_steps, decay_factor):
    return decay_factor ** sum(1 for s in decay_steps if t >= s)


def _metrics_row(t, params, hyper, train_set, meta_set, test_set):
    Z = model.forward_logits(params, train_set.X)
    train_vals, _ = losses.batch_loss(hyper, Z, train_set.y)
    if meta_set is not None:
        Zm = model.forward_logits(params, meta_set.X)
        meta_vals, _ = losses.batch_loss(_CE, Zm, meta_set.y)
        meta_loss = float(meta_vals.mean())
    else:
        meta_loss = float("nan")
    acc = model.accuracy(params, test_set.X, test_set.y)
    return MetricsRow(t, float(train_vals.mean()), meta_loss, acc, tuple(hyper.learnable_values()))


def _check_sizes(train_set, meta_set, test_set, config, adapt):
    """Non-empty datasets, and batches no larger than the sets they come from."""
    n_train = len(train_set)
    if n_train == 0 or len(test_set) == 0 or (meta_set is not None and len(meta_set) == 0):
        raise ConfigError("datasets must be non-empty")
    if config.batch_n > n_train:
        raise ConfigError(f"batch_n={config.batch_n} exceeds training set size {n_train}")
    if adapt and config.batch_m > len(meta_set):
        raise ConfigError(f"batch_m={config.batch_m} exceeds meta set size {len(meta_set)}")


def _run_loop(train_set, meta_set, test_set, config, hyper, params, adapt,
              snapshot_hook=None, start_iter=0, num_iters=None):
    _check_sizes(train_set, meta_set, test_set, config, adapt)
    n_train = len(train_set)

    # separate streams so meta-batch draws never perturb train batching;
    # a run that skips meta updates is then bitwise identical to plain SGD
    rng_train = np.random.default_rng([config.seed, 17, start_iter])
    rng_meta = np.random.default_rng([config.seed, 23, start_iter])

    # only an adapting loop reparameterizes: a fixed run may sit on a domain boundary
    theta = losses.to_unconstrained(hyper) if adapt and hyper.learnable_names else np.zeros(0)
    velocity = np.zeros_like(params.vec) if config.momentum > 0 else None
    total = config.max_iters if num_iters is None else num_iters
    rows = []

    if snapshot_hook is not None:
        snapshot_hook(start_iter, params, hyper)

    for step in range(1, total + 1):
        t = start_iter + step
        idx_n = rng_train.choice(n_train, size=config.batch_n, replace=False)
        Xn, yn = train_set.X[idx_n], train_set.y[idx_n]

        scale = _step_scale(t, config.decay_steps, config.decay_factor)
        alpha_t = config.alpha * scale
        beta_t = config.beta * scale
        try:
            cache = model._forward_cached(params, Xn)
            # the decay scale never grows, so drawing the meta batch only
            # for a meta step leaves every draw that is used where it was
            if theta.size and beta_t > 0.0:
                idx_m = rng_meta.choice(len(meta_set), size=config.batch_m, replace=False)
                hg = hypergradient(
                    params, hyper, theta, Xn, yn,
                    meta_set.X[idx_m], meta_set.y[idx_m], alpha_t, cache,
                )
                theta = meta_update(theta, hg, beta_t)
                hyper = losses.from_unconstrained(theta, hyper)

            _, grads = train_grad(params, hyper, Xn, yn, cache)
            if velocity is not None:
                velocity = grads + config.momentum * velocity
                params = model.sgd_step(params, velocity, alpha_t)
            else:
                params = model.sgd_step(params, grads, alpha_t)
        except (NumericError, DomainError) as exc:
            # a meta step can carry theta so far that a hyperparameter
            # rounds onto its domain boundary (d = 1 + softplus -> 1.0)
            raise NumericError(f"diverged at iteration {t} (theta={theta.tolist()}, {hyper}): {exc}") from exc

        if t % config.metrics_every == 0 or step == total:
            rows.append(_metrics_row(t, params, hyper, train_set, meta_set, test_set))
            if snapshot_hook is not None:
                snapshot_hook(t, params, hyper)

    return TrainState(params, hyper, start_iter + total), rows


def _init_params(dataset, config):
    """The initial network: seeded by ``config.model_seed``, else by ``config.seed``."""
    model_seed = config.seed if config.model_seed is None else config.model_seed
    return model.init_mlp([dataset.X.shape[1], *config.hidden, dataset.c], config.activation, model_seed)


def arl_train(dataset, meta_set, test_set, config, snapshot_hook=None):
    """Adaptive robust-loss training: alternating theta and w updates.

    ``dataset`` carries (possibly noisy) training labels; ``meta_set`` and
    ``test_set`` are clean.  Returns the final state plus metrics recorded
    at the configured cadence and at the last iteration.
    """
    if meta_set is None:
        raise ConfigError("arl_train needs a clean meta set")
    hyper = config.resolve_hyper(dataset.c)
    return _run_loop(
        dataset, meta_set, test_set, config, hyper, _init_params(dataset, config),
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
        init_params = _init_params(dataset, config)
    return _run_loop(
        dataset, meta_set, test_set, config, hyper, init_params,
        adapt=False, start_iter=start_iter, num_iters=num_iters,
    )


def conventional_runs(train_set, test_set, config, runs):
    """R fixed-hyperparameter runs in lockstep, each as its ``conventional_train``.

    ``runs`` holds ``(hyper, init_params, start_iter)`` triples; a run
    with ``init_params`` None starts from the config's initial network.
    Every run ends at ``config.max_iters``, and a run joins the loop at
    its own start.  The started runs' parameters are one (R, P) stack, so
    a step is one stacked forward, one loss call per run, one stacked
    backward and one SGD step.  Runs with one start share one train-batch
    stream, drawn once per step; each run sees the batches and gives the
    bits of its serial ``conventional_train``.  Returns one
    ``(params, curve)`` per run, in order, with ``curve`` the
    ``(iteration, test_acc)`` pairs at the config's metrics cadence and
    at the last iteration.
    """
    _check_sizes(train_set, None, test_set, config, adapt=False)
    if not runs:
        return []
    order = sorted(range(len(runs)), key=lambda r: runs[r][2])
    hypers = [runs[r][0] for r in order]
    starts = [runs[r][2] for r in order]
    first = _init_params(train_set, config)
    inits = [first if runs[r][1] is None else runs[r][1] for r in order]
    sizes, activation = first.sizes, first.activation
    for p in inits:
        if (p.sizes, p.activation) != (sizes, activation):
            raise ConfigError(f"lockstep runs need one network shape, got {list(p.sizes)} {p.activation}")

    n = config.batch_n
    streams = {s: np.random.default_rng([config.seed, 17, s]) for s in starts}
    stack = model.MlpParams(np.empty((0, first.vec.size)), sizes, activation)
    velocity = np.zeros_like(stack.vec) if config.momentum > 0 else None
    curves = [[] for _ in order]
    k = 0  # runs started so far: the first k in start order
    for t in range(starts[0] + 1, config.max_iters + 1):
        joined = k
        while k < len(order) and starts[k] < t:
            k += 1
        if k > joined:
            stack = model.MlpParams(
                np.concatenate([stack.vec, [p.vec for p in inits[joined:k]]]), sizes, activation)
            if velocity is not None:
                velocity = np.concatenate([velocity, np.zeros((k - joined, stack.vec.shape[1]))])
        draws = {s: streams[s].choice(len(train_set), size=n, replace=False)
                 for s in dict.fromkeys(starts[:k])}
        idx = np.stack([draws[s] for s in starts[:k]])

        alpha_t = config.alpha * _step_scale(t, config.decay_steps, config.decay_factor)
        cache = model._forward_cached(stack, train_set.X[idx])
        Z, y = cache[0][-1], train_set.y[idx]
        G = np.empty_like(Z)
        try:
            for r in range(k):
                values, G[r] = losses.batch_loss(hypers[r], Z[r], y[r])
                if not np.all(np.isfinite(values)):
                    raise NumericError("non-finite training loss")
        except (NumericError, DomainError) as exc:
            raise NumericError(
                f"diverged at iteration {t} (run from {starts[r]}, {hypers[r]}): {exc}") from exc
        step = model.backward(stack, cache, G / n)
        if velocity is not None:
            velocity = step = step + config.momentum * velocity
        try:
            stack = model.sgd_step(stack, step, alpha_t)
        except NumericError as exc:
            r = int(np.isfinite(step).all(axis=1).argmin())
            raise NumericError(
                f"diverged at iteration {t} (run from {starts[r]}, {hypers[r]}): {exc}") from exc

        if t % config.metrics_every == 0 or t == config.max_iters:
            for r in range(k):
                run = model.MlpParams(stack.vec[r], sizes, activation)
                curves[r].append((t, model.accuracy(run, test_set.X, test_set.y)))

    results = [None] * len(runs)
    for pos, r in enumerate(order):
        params = model.MlpParams(stack.vec[pos], sizes, activation) if pos < k else inits[pos]
        results[r] = (params, curves[pos])
    return results


def compute_sample_weights(params, hyper, dataset):
    """Implicit per-sample weights of the soft-weighting loss.

    Each sample's weight is the derivative of the learned loss at its
    current cross-entropy value: 1 near-perfectly fit samples, 0 past the
    plateau threshold.
    """
    if hyper.variant != "polysoft":
        raise DomainError("sample weights are defined for the polysoft variant")
    Z = model.forward_logits(params, dataset.X)
    ce_vals = losses.loss_values(_CE, losses.softmax(Z), dataset.y)
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
