"""Bilevel training loop: learn loss hyperparameters while training.

Each iteration draws a noisy train batch and a clean meta batch, updates
the unconstrained hyperparameter coordinates theta by descending the meta
cross entropy through a one-step-lookahead (virtual) parameter update,
then takes the actual SGD step under the freshly updated loss.  The
virtual step, the hypergradient and the actual step all run on one
cached forward pass of the train batch and, for the softmax families, on
one normalization of its logits; ``bi_tempered`` solves again at its moved
t2, starting from the first solve's roots moved to first order in t2.

The hypergradient never needs double backprop: with
w~(theta) = w - alpha * grad_w L_train(w; theta), the chain rule gives
d L_meta / d theta_k = -alpha * g . J_k, where g is the meta gradient at
w~ and J_k the mixed partial of the train gradient.  The train gradient
is backward(w, cache, G(h) / n) for the loss's logit gradient G, and backward
is linear in G, so g . J_k = <J_w g, dG/dh_k> / n * dh_k/dtheta_k.  One
forward-mode JVP gives the logit tangent J_w g, and the loss kernels give
dG/dh_k in closed form from the same normalization of the train batch's
logits as the virtual step, so they cost no forward and no backward pass.

One loop, ``train_runs``, trains R runs of one variant and network shape
in lockstep, each with the bits it gets alone; a run without meta steps is
conventional SGD.  Every call trains a stack, a lone run as R = 1: the
runs' parameters are one (R, P) stack and their hyperparameters one (R, K)
array, so a meta step is one update, one map and one contraction.  A
``HyperParams`` is formed only for a snapshot or a message, and a snapshot
holds one run's parameter vector.  Training evaluates nothing: the loop
returns read-only parameter snapshots at the metrics cadence, and each
caller evaluates only what it keeps.  A check that fails raises its error
with the run as ``row``.
"""

from __future__ import annotations

import bisect
import itertools
from collections import namedtuple
from dataclasses import dataclass, fields, replace

import numpy as np

from . import data, losses, model
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
    alpha: float = 0.3
    beta: float = 0.3
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

    @property
    def adaptive(self):
        """Whether a run takes meta steps: ``beta > 0`` and a variant with learnable fields."""
        return self.beta > 0 and bool(losses.LEARNABLE[self.variant])

    def resolve_hyper(self, num_classes):
        if self.init_hyper is not None:
            if self.init_hyper.variant != self.variant:
                raise ConfigError("init_hyper variant does not match config")
            return self.init_hyper
        return losses.default_hyper(self.variant, num_classes)


@dataclass
class TrainState:
    """Final state of a run: network parameters and hyperparameters."""

    params: model.MlpParams
    hyper: losses.HyperParams


@dataclass
class MetricsRow:
    iteration: int
    train_loss: float
    meta_loss: float
    test_acc: float
    hyper_values: tuple


def _backward_mean(params, values, G, cache):
    """Gradient vector of each run's mean of its per-sample ``values``, which must be finite."""
    ok = np.isfinite(values)
    if not ok.all():
        raise NumericError("non-finite training loss", model._first_bad(ok, params))
    Z = cache[0][-1]
    return model.backward(params, cache, G.reshape(Z.shape) / Z.shape[-2])


def meta_ce_grad(params, X, y):
    """Gradient vector of the mean clean cross entropy (the meta objective), from P - Y alone;
    a stack of R networks takes (R, m, d) features and (R, m) labels."""
    cache = model._forward_cached(params, X)
    Z = cache[0][-1]
    D = losses.normalize(_CE, Z.reshape(-1, Z.shape[-1]), y.reshape(-1)).D
    if not np.isfinite(D).all():
        raise NumericError("non-finite meta cross-entropy gradient", model._first_bad(np.isfinite(D), params))
    return model.backward(params, cache, D.reshape(Z.shape) / Z.shape[-2])


# A logit-gradient derivative past this in one row fails the step: the desk
# runs stay below 5, and polysoft's dw/dlam grows like u^(1/(d-1) - 1) as a
# cross entropy nears lam from below, to 2e7 at d = 3 one ulp below the kink.
_DG_BOUND = 1e4


def hypergradient(params, fields, theta, cache, batch, Xm, ym, alpha):
    """Gradient of the meta cross entropy with respect to the runs' (R, K) coordinates ``theta``.

    ``fields`` is the runs' ``losses._RowFields`` record, of the fields that
    theta maps to; ``params`` their (R, P) stack and ``Xm``, ``ym`` their
    (R, m, .) meta batches.  Returns (R, K): -alpha / n * reparam_scale_k *
    <J_w g, dG/dh_k> per run and coordinate, with g the meta gradient at the
    virtual point, J_w g its logit tangent and dG/dh_k the closed-form
    derivative of the logit gradients in the k-th learnable field.
    ``cache`` is the train batch's ``model._forward_cached`` pass and
    ``batch`` its ``losses.normalize`` record, which the virtual step and
    dG/dh share.  Exactly zero when alpha = 0 (the virtual point no longer
    depends on theta).  A row's dG/dh_k past ``_DG_BOUND``, or not finite,
    raises ``NumericError``.  The virtual step is the plain step
    w - alpha g also when the actual step takes momentum, as in Ren et al.
    (ICML 2018) and Shu et al. (NeurIPS 2019): the look-ahead leaves the
    velocity out.
    """
    names = losses.LEARNABLE[fields.variant]
    if not names or alpha == 0.0:
        return np.zeros(theta.shape)

    R, n = len(theta), len(batch.P) // len(theta)
    values, G, _, dG = losses.batch_hgrad(fields, batch)
    grads = _backward_mean(params, values, G, cache)
    dG = dG.reshape(len(names), R, -1)
    if not np.maximum.reduce(np.abs(dG), axis=None) <= _DG_BOUND:  # NaN fails too
        peak = np.maximum.reduce(np.abs(dG), axis=2).T
        r, k = map(int, np.unravel_index((peak <= _DG_BOUND).argmin(), peak.shape))
        row = int(np.abs(dG[k, r]).argmax()) // batch.P.shape[1]
        what = f"bound {_DG_BOUND:g} passed by a {peak[r, k]:.3g}" if np.isfinite(peak[r, k]) else "non-finite"
        under = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields.values[r].tolist()))
        raise NumericError(f"{what} logit-gradient derivative in {names[k]} under {under} "
                           f"at train row {row} (ce={float(batch.ce[r * n + row])!r})", r)
    g_meta = meta_ce_grad(model.sgd_step(params, grads, alpha), Xm, ym)
    tangent = model.jvp(params, cache, g_meta).reshape(R, -1, 1)
    dots = np.matmul(dG.transpose(1, 0, 2), tangent)[..., 0]  # each row the bits of dG[:, r] @ tangent[r]
    return -alpha * losses.reparam_scale(fields.variant, theta) * dots / n


def meta_update(theta, hypergrad, beta, names):
    """Plain SGD on the runs' (R, K) unconstrained coordinates, K the fields ``names``;
    a non-finite hypergradient names the first run and field that has one."""
    ok = np.isfinite(hypergrad)
    if not ok.all():
        r, k = map(int, np.unravel_index(ok.argmin(), ok.shape))
        raise NumericError(f"non-finite hypergradient in {names[k]}", r)
    return theta - beta * hypergrad


def _step_scale(t, decay_steps, decay_factor):
    return decay_factor ** sum(1 for s in decay_steps if t >= s)


def _metrics_row(t, params, hyper, train_set, meta_set, test_set):
    """Mean train and meta loss values, test accuracy and fields: no gradient."""
    def mean_loss(h, dataset):
        P = losses.normalize(h, model.forward_logits(params, dataset.X), dataset.y).P
        return float(losses.loss_values(h, P, dataset.y).mean())

    return MetricsRow(t, mean_loss(hyper, train_set), mean_loss(_CE, meta_set),
                      model.accuracy(params, test_set.X, test_set.y), tuple(hyper.learnable_values()))


def _init_params(dataset, config):
    """The initial network: seeded by ``config.model_seed``, else by ``config.seed``."""
    model_seed = config.seed if config.model_seed is None else config.model_seed
    return model.init_mlp([dataset.X.shape[1], *config.hidden, dataset.c], config.activation, model_seed)


Run = namedtuple("Run", "dataset meta_set config params start", defaults=(None, 0))
Run.__doc__ = "A run of ``train_runs``: its sets, config, start network (None: the config's) and iteration."


def _check_batch(name, size, set_size, what):
    """A batch of ``size`` drawn without replacement from a set of ``set_size`` (an empty set fails too)."""
    if size > set_size:
        raise ConfigError(f"{name}={size} exceeds {what} set size {set_size}")


def _check_run(run, config):
    """A run's config against the call's ``config``, and its batches within its sets."""
    for name in (f.name for f in fields(TrainConfig) if f.name not in ("seed", "model_seed", "init_hyper")):
        if getattr(run.config, name) != getattr(config, name):
            raise ConfigError(f"lockstep runs need one {name}, got {getattr(config, name)!r} "
                              f"and {getattr(run.config, name)!r}")
    if config.adaptive and run.meta_set is None:
        raise ConfigError("adaptive training needs a clean meta set")
    _check_batch("batch_n", config.batch_n, len(run.dataset), "training")
    if config.adaptive:  # a run without meta steps draws no meta batch
        _check_batch("batch_m", config.batch_m, len(run.meta_set), "meta")


class _Batches:
    """Seeded batches of lockstep runs, each from its run's stream over its run's set.

    The distinct sets are one array, which a step gathers from with one
    fancy index: each stream's draw fills its runs' rows of ``idx``, and
    each run's set offset is added to them, unless the call has one set.
    Runs with one seed and set size share one step-aligned stream,
    ``default_rng([seed, salt, 0])``: its draw t is the batch of step t, so
    a run from ``start`` reads draws ``start + 1``, ... and a step draws
    once per stream.  A stream whose first run starts later than 0 burns
    the draws before that start when it is built.
    """

    def __init__(self, runs, sets, salt, size):
        distinct = list({id(s): s for s in sets}.values())
        at = dict(zip(map(id, distinct), itertools.accumulate([len(s) for s in distinct[:-1]], initial=0)))
        self.X, self.y = (np.concatenate([getattr(s, name) for s in distinct]) for name in "Xy")
        self.offsets = np.array([[at[id(s)]] for s in sets]) if len(distinct) > 1 else None
        members = {}  # stream -> its runs' rows (a slice if contiguous), in order of first use
        for r, (run, s) in enumerate(zip(runs, sets)):
            members.setdefault((run.config.seed, len(s)), []).append(r)
        self.streams = []
        for (seed, count), rows in members.items():
            rng = np.random.default_rng([seed, salt, 0])
            for _ in range(runs[rows[0]].start):  # the runs come in start order
                rng.choice(count, size=size, replace=False)
            self.streams.append((rng, count, rows[0],
                                 slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] < len(rows) else rows))
        self.idx, self.size = np.empty((len(runs), size), dtype=np.intp), size

    def take(self, k):
        """The next (k, size, .) batches of the first k runs."""
        for rng, count, first, rows in self.streams:
            if first >= k:  # the streams of the first k runs come first
                break
            self.idx[rows] = rng.choice(count, size=self.size, replace=False)
        idx = self.idx[:k] if self.offsets is None else self.idx[:k] + self.offsets[:k]
        return self.X[idx], self.y[idx]


def _normalize(fields, Z, y, start=None):
    """``losses.normalize`` of the runs' stacked rows, from the solve's ``start`` when given; a
    failure raises ``NumericError`` whose ``row`` is the run of the first failing row: a row
    solves to the same bits in any batch, so that run is the first that fails alone."""
    try:
        return losses.normalize(fields, Z.reshape(-1, Z.shape[-1]), y.reshape(-1), start)
    except (NumericError, DomainError) as exc:
        raise NumericError(str(exc), exc.row // (y.size // len(fields.values))) from exc


def train_runs(runs):
    """Train ``Run`` records of one variant and network shape in lockstep.

    The runs' configs may differ only in ``seed``, ``model_seed`` and
    ``init_hyper``.  A call takes meta steps when ``beta > 0`` and the
    variant has learnable fields, for all of its runs alike.  A run joins
    at its start and ends at ``max_iters``.  The train and meta batches of
    step t are draw t of the streams ``default_rng([seed, 17, 0])`` and
    ``[seed, 23, 0]``, one per seed and set size, so a run from ``s``
    trains on the batches that a run of its seed from 0 draws after ``s``.
    The started runs are one (R, P) stack and (R, K) hyperparameters, a lone
    run an R = 1 stack: a step is one forward, one loss call, one backward
    and one SGD step, and a meta step adds one stacked ``hypergradient``,
    ``meta_update`` and map.  A joining run starts at zero velocity.  A run
    gets the bits it gets alone, and a failure names it.  Returns per run
    its ``TrainState`` and its read-only ``(t, params, hyper)`` snapshots,
    each holding its row of the stack, at its start, every
    ``metrics_every`` iterations and at the end.
    """
    if not runs:
        return []
    order = sorted(range(len(runs)), key=lambda i: runs[i].start)
    runs = [runs[i] for i in order]
    config = runs[0].config
    adaptive, variant, names = config.adaptive, config.variant, losses.LEARNABLE[config.variant]
    for run in runs:
        _check_run(run, config)
    inits = [_init_params(run.dataset, run.config) if run.params is None else run.params for run in runs]
    sizes, activation, P = inits[0].sizes, inits[0].activation, inits[0].vec.size
    if len({(p.sizes, p.activation) for p in inits}) > 1:
        raise ConfigError(f"lockstep runs need one network shape, got {[list(p.sizes) for p in inits]}")
    hypers = [run.config.resolve_hyper(run.dataset.c) for run in runs]
    init_values, presets = np.array([h.learnable_values() for h in hypers]), np.array([h.rce_a for h in hypers])
    init_theta = np.array([losses.to_unconstrained(h) for h in hypers]) if adaptive else init_values[:, :0]
    starts, n = [run.start for run in runs], config.batch_n
    trains = _Batches(runs, [run.dataset for run in runs], 17, n)
    metas = _Batches(runs, [run.meta_set for run in runs], 23, config.batch_m) if adaptive else None

    def hyper(r):  # run r's HyperParams now, for a snapshot or a message
        return replace(hypers[r], **dict(zip(names, values[r].tolist()))) if adaptive else hypers[r]

    # the started runs' parameters, velocities, fields and coordinates (none without meta steps), one row each
    stack = model.MlpParams(np.empty((0, P)), sizes, activation)
    velocity = np.zeros((0, P)) if config.momentum > 0 else None
    values, theta = init_values[:0], init_theta[:0]
    snapshots = [[(start, p, h)] for start, p, h in zip(starts, inits, hypers)]
    k = 0  # runs started so far: the first k in start order
    for t in range(starts[0] + 1, config.max_iters + 1):
        joined, k = k, bisect.bisect_left(starts, t)  # the runs with start < t have started
        if k > joined:  # a joining run starts from its network, at zero velocity
            stack = model.MlpParams(np.concatenate([stack.vec, [p.vec for p in inits[joined:k]]]), sizes, activation)
            if velocity is not None:
                velocity = np.concatenate([velocity, np.zeros((k - joined, P))])
            values = np.concatenate([values, init_values[joined:k]])
            theta = np.concatenate([theta, init_theta[joined:k]])
            fields = losses._RowFields(variant, values, presets[:k], n)
        Xn, yn = trains.take(k)
        scale = _step_scale(t, config.decay_steps, config.decay_factor)
        alpha_t, beta_t = config.alpha * scale, config.beta * scale
        try:
            cache = model._forward_cached(stack, Xn)
            batch = _normalize(fields, cache[0][-1], yn)
            if adaptive and beta_t > 0.0:  # a meta batch is drawn for a meta step only
                hg = hypergradient(stack, fields, theta, cache, batch, *metas.take(k), alpha_t)
                theta = meta_update(theta, hg, beta_t, names)
                values = losses.from_unconstrained(variant, theta)  # can round d = 1 + softplus onto 1.0
                before, fields = fields, losses._RowFields(variant, values, presets[:k], n)
                if variant == "bi_tempered":  # t2 moved: solve again from the roots moved to first order
                    batch = _normalize(fields, cache[0][-1], yn, batch.start_at(fields.t2 - before.t2))
            step = _backward_mean(stack, *losses.batch_loss(fields, batch), cache)
            if velocity is not None:
                velocity = step = step + config.momentum * velocity
            stack = model.sgd_step(stack, step, alpha_t)
        except (NumericError, DomainError) as exc:  # its row is the failing run
            r = exc.row
            at = f"theta={theta[r].tolist()}, " if adaptive else ""
            raise NumericError(f"diverged at iteration {t} ({at}run from {starts[r]}, runs[{order[r]}], "
                               f"seed {runs[r].config.seed}, {hyper(r)}): {exc}") from exc
        if t % config.metrics_every == 0 or t == config.max_iters:
            for r in range(k):
                snapshots[r].append((t, model.MlpParams(stack.vec[r], sizes, activation), hyper(r)))

    # back in the callers' order; a run's last snapshot is its end
    return [(TrainState(*snapshots[i][-1][1:]), snapshots[i]) for i in np.argsort(order, kind="stable")]


def arl_train(dataset, meta_set, test_set, config):
    """One run of ``train_runs``: its final state and a metrics row per snapshot after the start."""
    if meta_set is None or len(test_set) == 0:
        raise ConfigError("arl_train needs a clean meta set and a non-empty test set")
    [(state, snapshots)] = train_runs([Run(dataset, meta_set, config)])
    return state, [_metrics_row(t, p, h, dataset, meta_set, test_set) for t, p, h in snapshots[1:]]


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


def write_metrics_csv(rows, path):
    """Stable CSV: iter,train_loss,meta_loss,test_acc,hyper_1,..."""
    k = len(rows[0].hyper_values) if rows else 0
    header = ["iter", "train_loss", "meta_loss", "test_acc"] + [f"hyper_{i + 1}" for i in range(k)]
    data.write_rows(path, header, ",".join(["%d"] + ["%.9g"] * (3 + k)),
                    ((r.iteration, r.train_loss, r.meta_loss, r.test_acc, *r.hyper_values) for r in rows))


def write_weights_csv(weights, flip_mask, path):
    """Stable CSV: sample_id,is_clean,weight."""
    clean = np.logical_not(flip_mask).tolist()
    data.write_rows(path, ["sample_id", "is_clean", "weight"], "%d,%d,%.9g",
                    zip(range(len(clean)), clean, np.asarray(weights).tolist()))
