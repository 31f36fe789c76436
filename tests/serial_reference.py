"""Serial references for the lockstep runs of ``meta.train_runs``.

``adaptive_run`` is the bilevel loop for one run on its own: the meta step
on the run's meta-batch stream, then the actual SGD step, one iteration
at a time; a ``bi_tempered`` step solves its normalization again at the
moved t2, from the first solve's roots moved to first order in t2.  At
``beta`` 0 it never moves its hyperparameters, so a conventional run from
iteration 0 is the adaptive loop at ``beta`` 0.  A conventional
continuation from a snapshot at ``start`` is plain SGD, written out in
``conventional_run``, over its seed's train-batch stream
``default_rng([seed, 17, 0])`` after ``start`` burned draws: it trains on
the batches that the run of its seed from 0 draws after ``start``.  A
run's hyperparameters move by the scalar map of ``kernel_reference``, one
coordinate at a time, along a hypergradient contracted by one
matrix-vector product; ``row_fields`` gives the record of fields that the
kernels and ``meta.hypergradient`` read.
"""

from dataclasses import replace

import kernel_reference as ref
import numpy as np

from arl import losses, meta, model
from arl.errors import DomainError, NumericError


def row_fields(hypers, rows=None):
    """The ``losses._RowFields`` record of runs at ``hypers``: ``rows`` stacked rows each, or a lone run's."""
    return losses._RowFields(hypers[0].variant, np.array([h.learnable_values() for h in hypers]),
                             np.array([h.rce_a for h in hypers]), rows)


def hypergradient(params, hyper, theta, cache, batch, Xm, ym, alpha):
    """One run's hypergradient (K,): -alpha / n * reparam_scale * (dG @ J_w g), with the scalar
    map's derivative and one matrix-vector product."""
    if alpha == 0.0:
        return np.zeros(theta.size)
    values, G, _, dG = losses.batch_hgrad(hyper, batch)
    virtual = model.sgd_step(params, meta._backward_mean(params, values, G, cache), alpha)
    tangent = model.jvp(params, cache, meta.meta_ce_grad(virtual, Xm, ym)).reshape(-1)
    return -alpha * ref.reparam_scale(hyper, theta) * (dG.reshape(theta.size, -1) @ tangent) / len(batch.P)


def adaptive_run(dataset, meta_set, config):
    """One bilevel run: its final ``TrainState`` and ``(t, params, hyper)`` snapshots.

    The run starts from the config's network at iteration 0 and trains
    ``config.max_iters`` iterations; it snapshots at the start, every
    ``config.metrics_every`` iterations and at the end.
    """
    hyper = config.resolve_hyper(dataset.c)
    params = meta._init_params(dataset, config)
    rng_train = np.random.default_rng([config.seed, 17, 0])
    rng_meta = np.random.default_rng([config.seed, 23, 0])
    theta = losses.to_unconstrained(hyper) if hyper.learnable_names and config.beta > 0 else np.zeros(0)
    velocity = np.zeros_like(params.vec) if config.momentum > 0 else None
    snapshots = [(0, params, hyper)]

    for t in range(1, config.max_iters + 1):
        idx_n = rng_train.choice(len(dataset), size=config.batch_n, replace=False)
        Xn, yn = dataset.X[idx_n], dataset.y[idx_n]
        scale = meta._step_scale(t, config.decay_steps, config.decay_factor)
        alpha_t, beta_t = config.alpha * scale, config.beta * scale
        try:
            cache = model._forward_cached(params, Xn)
            batch = losses.normalize(hyper, cache[0][-1], yn)
            if theta.size and beta_t > 0.0:
                idx_m = rng_meta.choice(len(meta_set), size=config.batch_m, replace=False)
                hg = hypergradient(params, hyper, theta, cache, batch, meta_set.X[idx_m], meta_set.y[idx_m], alpha_t)
                theta, before = theta - beta_t * hg, hyper
                hyper = ref.from_unconstrained(theta, hyper)
                if hyper.variant == "bi_tempered":  # t2 moved: solve again from the roots moved to first order
                    batch = losses.normalize(hyper, cache[0][-1], yn, batch.start_at(hyper.t2 - before.t2))
            grads = meta._backward_mean(params, *losses.batch_loss(hyper, batch), cache)
            if velocity is not None:
                velocity = grads = grads + config.momentum * velocity
            params = model.sgd_step(params, grads, alpha_t)
        except (NumericError, DomainError) as exc:
            raise NumericError(f"diverged at iteration {t} (theta={theta.tolist()}, {hyper}): {exc}") from exc
        if t % config.metrics_every == 0 or t == config.max_iters:
            snapshots.append((t, params, hyper))
    return meta.TrainState(params, hyper), snapshots


def conventional_run(train, meta_set, config, hyper, init_params=None, start=0):
    """A fixed-hyperparameter run's final parameters and its ``(t, params)`` snapshots.

    The run starts at ``start`` from ``init_params`` (the config's network
    when None, which needs ``start`` 0) and ends at ``config.max_iters``;
    it snapshots every ``config.metrics_every`` iterations and at the end.
    """
    if init_params is None:
        assert start == 0, "a run from the config's network starts at 0"
        state, snapshots = adaptive_run(train, meta_set, replace(config, beta=0.0, init_hyper=hyper))
        return state.params, [(t, p) for t, p, _ in snapshots[1:]]

    rng = np.random.default_rng([config.seed, 17, 0])
    for _ in range(start):  # the draws of the steps before the start
        rng.choice(len(train), size=config.batch_n, replace=False)
    params, velocity, snapshots = init_params, np.zeros_like(init_params.vec), []
    for t in range(start + 1, config.max_iters + 1):
        idx = rng.choice(len(train), size=config.batch_n, replace=False)
        cache = model._forward_cached(params, train.X[idx])
        batch = losses.normalize(hyper, cache[0][-1], train.y[idx])
        step = meta._backward_mean(params, *losses.batch_loss(hyper, batch), cache)
        if config.momentum > 0:
            velocity = step = step + config.momentum * velocity
        alpha = config.alpha * config.decay_factor ** sum(t >= s for s in config.decay_steps)
        params = model.sgd_step(params, step, alpha)
        if t % config.metrics_every == 0 or t == config.max_iters:
            snapshots.append((t, params))
    return params, snapshots
