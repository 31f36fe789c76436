"""Bilevel training loop: learn loss hyperparameters while training.

Each iteration draws a noisy train batch and a clean meta batch, updates
the unconstrained hyperparameter coordinates theta by descending the meta
cross entropy through a one-step-lookahead (virtual) parameter update,
then takes the actual SGD step under the freshly updated loss.  The
virtual step, the hypergradient and the actual step all run on one
cached forward pass of the train batch and, for the softmax families, on
one normalization of its logits.

The hypergradient never needs double backprop: with
w~(theta) = w - alpha * grad_w L_train(w; theta), the chain rule gives
d L_meta / d theta_k = -alpha * g . J_k, where g is the meta gradient at
w~ and J_k the mixed partial of the train gradient.  The train gradient
is backward(w, cache, G(h) / n) for the loss's logit gradient G, and backward
is linear in G, so g . J_k = <J_w g, dG/dh_k> / n * dh_k/dtheta_k.  One
forward-mode JVP gives the logit tangent J_w g, and the loss kernels give
dG/dh_k in closed form from the same normalization of the train batch's
logits as the virtual step, so they cost no forward and no backward pass.

Two loops train: ``adaptive_run``, the one serial loop, and
``conventional_runs``, the one fixed-hyperparameter loop, which trains R
runs in lockstep.  Both draw a run's train batches from the stream of its
seed and start, so a run that skips meta updates is conventional SGD.
Training evaluates nothing: the loops return read-only parameter snapshots
at the metrics cadence, and each caller evaluates only what it keeps.
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
    """Final state of an adaptive run: network parameters and hyperparameters."""

    params: model.MlpParams
    hyper: losses.HyperParams


@dataclass
class MetricsRow:
    iteration: int
    train_loss: float
    meta_loss: float
    test_acc: float
    hyper_values: tuple


def train_grad(params, hyper, cache, batch):
    """Gradient vector of the mean robust loss of a batch: its forward ``cache`` and record."""
    return _backward_mean(params, hyper, *losses.batch_loss(hyper, batch), cache)


def _backward_mean(params, hyper, values, G, cache):
    """Gradient vector of the mean of the per-sample ``values``, which must be finite."""
    if not np.all(np.isfinite(values)):
        raise NumericError(f"non-finite training loss under {hyper}")
    return model.backward(params, cache, G / len(values))


def meta_ce_grad(params, X, y):
    """Gradient vector of the mean clean cross entropy (the meta objective), from P - Y alone."""
    cache = model._forward_cached(params, X)
    D = losses.normalize(_CE, cache[0][-1], y).D
    if not np.isfinite(D).all():
        raise NumericError("non-finite meta cross-entropy gradient")
    return model.backward(params, cache, D / len(D))


# A logit-gradient derivative past this in one row fails the step: the desk
# runs stay below 5, and polysoft's dw/dlam grows like u^(1/(d-1) - 1) as a
# cross entropy nears lam from below, to 2e7 at d = 3 one ulp below the kink.
_DG_BOUND = 1e4


def hypergradient(params, hyper, theta, cache, batch, Xm, ym, alpha):
    """Gradient of the meta cross entropy with respect to theta.

    Returns -alpha / n * reparam_scale_k * <J_w g, dG/dh_k> per
    coordinate, with g the meta gradient at the virtual point, J_w g its
    logit tangent and dG/dh_k the closed-form derivative of the logit
    gradients in the k-th learnable field.  ``cache`` is the train batch's
    ``model._forward_cached`` pass and ``batch`` its ``losses.normalize``
    record, which the virtual step and dG/dh share.  Exactly zero when
    alpha = 0 (the virtual point no longer depends on theta).  A row's
    dG/dh_k past ``_DG_BOUND``, or not finite, raises ``NumericError``.
    """
    names = hyper.learnable_names
    if not names or alpha == 0.0:
        return np.zeros(len(names))

    values, G, _, dG = losses.batch_hgrad(hyper, batch)
    grads = _backward_mean(params, hyper, values, G, cache)
    dG = dG.reshape(len(names), -1)
    peak = np.abs(dG).max(axis=1)
    if not (peak <= _DG_BOUND).all():  # NaN fails too
        k = int(np.argmin(peak <= _DG_BOUND))
        row = int(np.abs(dG[k]).argmax()) // batch.P.shape[1]
        what = f"bound {_DG_BOUND:g} passed by a {peak[k]:.3g}" if np.isfinite(peak[k]) else "non-finite"
        raise NumericError(f"{what} logit-gradient derivative in {names[k]} under {hyper} "
                           f"at train row {row} (ce={float(batch.ce[row])!r})")
    g_meta = meta_ce_grad(model.sgd_step(params, grads, alpha), Xm, ym)
    tangent = model.jvp(params, cache, g_meta).ravel()
    return -alpha * losses.reparam_scale(hyper.variant, theta) * (dG @ tangent) / len(values)


def meta_update(theta, hypergrad, beta):
    """Plain SGD on the unconstrained coordinates."""
    hypergrad = np.asarray(hypergrad, dtype=float)
    if not np.all(np.isfinite(hypergrad)):
        raise NumericError("non-finite hypergradient")
    return np.asarray(theta, dtype=float) - beta * hypergrad


def _step_scale(t, decay_steps, decay_factor):
    return decay_factor ** sum(1 for s in decay_steps if t >= s)


def _metrics_row(t, params, hyper, train_set, meta_set, test_set):
    """Mean train and meta loss values, test accuracy and fields: no gradient."""
    def mean_loss(h, dataset):
        P = losses.normalize(h, model.forward_logits(params, dataset.X), dataset.y).P
        return float(losses.loss_values(h, P, dataset.y).mean())

    train_loss = mean_loss(hyper, train_set)
    meta_loss = float("nan") if meta_set is None else mean_loss(_CE, meta_set)
    acc = model.accuracy(params, test_set.X, test_set.y)
    return MetricsRow(t, train_loss, meta_loss, acc, tuple(hyper.learnable_values()))


def _check_sizes(train_set, meta_set, test_set, config):
    """Non-empty datasets (a None meta or test set goes unchecked), and batches within their sets."""
    n_train = len(train_set)
    if n_train == 0 or any(s is not None and len(s) == 0 for s in (meta_set, test_set)):
        raise ConfigError("datasets must be non-empty")
    if config.batch_n > n_train:
        raise ConfigError(f"batch_n={config.batch_n} exceeds training set size {n_train}")
    if meta_set is not None and config.batch_m > len(meta_set):
        raise ConfigError(f"batch_m={config.batch_m} exceeds meta set size {len(meta_set)}")


def _init_params(dataset, config):
    """The initial network: seeded by ``config.model_seed``, else by ``config.seed``."""
    model_seed = config.seed if config.model_seed is None else config.model_seed
    return model.init_mlp([dataset.X.shape[1], *config.hidden, dataset.c], config.activation, model_seed)


def adaptive_run(dataset, meta_set, config):
    """Adaptive robust-loss training: alternating theta and w updates.

    ``dataset`` carries (possibly noisy) training labels and ``meta_set``
    is clean.  The run starts from the config's network and trains
    ``config.max_iters`` iterations.  Returns the final state and the
    ``(t, params, hyper)`` snapshots at the start, every
    ``config.metrics_every`` iterations and at the end, each holding the
    step's own read-only vector; none of them is evaluated.
    """
    if meta_set is None:
        raise ConfigError("adaptive training needs a clean meta set")
    _check_sizes(dataset, meta_set, None, config)
    hyper = config.resolve_hyper(dataset.c)
    params = _init_params(dataset, config)
    n_train = len(dataset)

    # separate streams so meta-batch draws never perturb train batching;
    # a run that skips meta updates is then bitwise identical to plain SGD
    rng_train = np.random.default_rng([config.seed, 17, 0])
    rng_meta = np.random.default_rng([config.seed, 23, 0])

    theta = losses.to_unconstrained(hyper) if hyper.learnable_names else np.zeros(0)
    velocity = np.zeros_like(params.vec) if config.momentum > 0 else None
    snapshots = [(0, params, hyper)]

    for t in range(1, config.max_iters + 1):
        idx_n = rng_train.choice(n_train, size=config.batch_n, replace=False)
        Xn, yn = dataset.X[idx_n], dataset.y[idx_n]

        scale = _step_scale(t, config.decay_steps, config.decay_factor)
        alpha_t = config.alpha * scale
        beta_t = config.beta * scale
        try:
            cache = model._forward_cached(params, Xn)
            batch = losses.normalize(hyper, cache[0][-1], yn)
            # the decay scale never grows, so drawing the meta batch only
            # for a meta step leaves every draw that is used where it was
            if theta.size and beta_t > 0.0:
                idx_m = rng_meta.choice(len(meta_set), size=config.batch_m, replace=False)
                hg = hypergradient(
                    params, hyper, theta, cache, batch,
                    meta_set.X[idx_m], meta_set.y[idx_m], alpha_t,
                )
                theta = meta_update(theta, hg, beta_t)
                hyper = losses.from_unconstrained(theta, hyper)
                if hyper.variant == "bi_tempered":  # its normalization moved with t2
                    batch = losses.normalize(hyper, cache[0][-1], yn)

            grads = train_grad(params, hyper, cache, batch)
            if velocity is not None:
                velocity = grads + config.momentum * velocity
                params = model.sgd_step(params, velocity, alpha_t)
            else:
                params = model.sgd_step(params, grads, alpha_t)
        except (NumericError, DomainError) as exc:
            # a meta step can carry theta so far that a hyperparameter
            # rounds onto its domain boundary (d = 1 + softplus -> 1.0)
            raise NumericError(f"diverged at iteration {t} (theta={theta.tolist()}, {hyper}): {exc}") from exc

        if t % config.metrics_every == 0 or t == config.max_iters:
            snapshots.append((t, params, hyper))

    return TrainState(params, hyper), snapshots


def arl_train(dataset, meta_set, test_set, config):
    """``adaptive_run``'s final state and a metrics row per snapshot after the start."""
    _check_sizes(dataset, meta_set, test_set, config)
    state, snapshots = adaptive_run(dataset, meta_set, config)
    return state, [_metrics_row(t, p, h, dataset, meta_set, test_set) for t, p, h in snapshots[1:]]


def conventional_runs(train_set, config, runs):
    """R fixed-hyperparameter runs of conventional SGD in lockstep.

    ``runs`` holds ``(hyper, init_params, start_iter)`` triples; a run
    with ``init_params`` None starts from the config's initial network.
    Every run ends at ``config.max_iters``, and a run joins the loop at
    its own start.  The runs share one loss variant.  The started runs'
    parameters are one (R, P) stack and their fields one per-row record,
    rebuilt when runs join, so a step is one stacked forward, one loss call
    over all the stacked rows, one stacked backward and one SGD step.  Runs
    with one start share one train-batch stream, ``default_rng([seed, 17,
    start])``, drawn once per step.  Each run gives the bits of plain SGD
    on its own: a run from 0 those of ``adaptive_run`` at ``beta`` 0, a
    continuation those of a serial loop over its stream (bi_tempered at
    ``batch_n`` 1 excepted: see ``losses._RowFields``).  Returns one
    ``(params, snapshots)`` per run, in order, with ``snapshots`` the
    ``(t, params)`` pairs at the config's metrics cadence and at the last
    iteration, each a row view of that step's read-only stack.  Nothing is
    evaluated.
    """
    _check_sizes(train_set, None, None, config)
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
    if len({h.variant for h in hypers}) > 1:
        raise ConfigError(f"lockstep runs need one loss variant, got {sorted({h.variant for h in hypers})}")

    def diverged(r, what):
        return NumericError(f"diverged at iteration {t} (run from {starts[r]}, {hypers[r]}): {what}")

    n = config.batch_n
    streams = {s: np.random.default_rng([config.seed, 17, s]) for s in starts}
    stack = model.MlpParams(np.empty((0, first.vec.size)), sizes, activation)
    velocity = np.zeros_like(stack.vec) if config.momentum > 0 else None
    snapshots = [[] for _ in order]
    k = 0  # runs started so far: the first k in start order
    for t in range(starts[0] + 1, config.max_iters + 1):
        joined = k
        while k < len(order) and starts[k] < t:
            k += 1
        if k > joined:
            stack = model.MlpParams(
                np.concatenate([stack.vec, [p.vec for p in inits[joined:k]]]), sizes, activation)
            fields = losses._RowFields(hypers[:k], n)
            if velocity is not None:
                velocity = np.concatenate([velocity, np.zeros((k - joined, stack.vec.shape[1]))])
        draws = {s: streams[s].choice(len(train_set), size=n, replace=False)
                 for s in dict.fromkeys(starts[:k])}
        idx = np.stack([draws[s] for s in starts[:k]])

        alpha_t = config.alpha * _step_scale(t, config.decay_steps, config.decay_factor)
        cache = model._forward_cached(stack, train_set.X[idx])
        Z, y = cache[0][-1], train_set.y[idx]
        try:
            values, G = losses.batch_loss(fields, losses.normalize(fields, Z.reshape(k * n, -1), y.ravel()))
        except (NumericError, DomainError) as exc:
            raise diverged(_run_at_fault(hypers[:k], Z, y), exc) from exc
        finite = np.isfinite(values).reshape(k, n).all(axis=1)
        if not finite.all():
            raise diverged(int(finite.argmin()), "non-finite training loss")
        step = model.backward(stack, cache, G.reshape(Z.shape) / n)
        if velocity is not None:
            velocity = step = step + config.momentum * velocity
        try:
            stack = model.sgd_step(stack, step, alpha_t)
        except NumericError as exc:
            raise diverged(int(np.isfinite(step).all(axis=1).argmin()), exc) from exc

        if t % config.metrics_every == 0 or t == config.max_iters:
            for r in range(k):
                snapshots[r].append((t, model.MlpParams(stack.vec[r], sizes, activation)))

    results = [None] * len(runs)
    for pos, r in enumerate(order):  # a run that trained has its end as its last snapshot
        results[r] = (snapshots[pos][-1][1] if snapshots[pos] else inits[pos], snapshots[pos])
    return results


def _run_at_fault(hypers, Z, y):
    """The first run whose own loss call fails, as the stacked call failed.

    Each row is normalized and checked on its own, so a failure of the
    stacked call is a failure of one of its runs.
    """
    for r, hyper in enumerate(hypers):
        try:
            losses.batch_loss(hyper, losses.normalize(hyper, Z[r], y[r]))
        except (NumericError, DomainError):
            return r
    raise AssertionError("a stacked loss call failed where no run fails alone")


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
    header = ["iter", "train_loss", "meta_loss", "test_acc"] + [f"hyper_{i + 1}" for i in range(k)]
    row = ",".join(["%d"] + ["%.9g"] * (3 + k)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(row % (r.iteration, r.train_loss, r.meta_loss, r.test_acc, *r.hyper_values))


def write_weights_csv(weights, flip_mask, path):
    """Stable CSV: sample_id,is_clean,weight."""
    with open(path, "w") as fh:
        fh.write("sample_id,is_clean,weight\n")
        clean = np.logical_not(flip_mask).tolist()
        for row in zip(range(len(clean)), clean, np.asarray(weights).tolist()):
            fh.write("%d,%d,%.9g\n" % row)
