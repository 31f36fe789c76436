"""Serial reference for the lockstep runs of ``meta.conventional_runs``.

A run from iteration 0 is the adaptive loop at ``beta`` 0, which never
moves its hyperparameters.  A continuation from a snapshot is plain SGD,
written out here, over the train-batch stream of its seed and start.
"""

from dataclasses import replace

import numpy as np

from arl import losses, meta, model


def conventional_run(train, meta_set, config, hyper, init_params=None, start=0):
    """A fixed-hyperparameter run's final parameters and its ``(t, params)`` snapshots.

    The run starts at ``start`` from ``init_params`` (the config's network
    when None, which needs ``start`` 0) and ends at ``config.max_iters``;
    it snapshots every ``config.metrics_every`` iterations and at the end.
    """
    if init_params is None:
        assert start == 0, "a run from the config's network starts at 0"
        state, snapshots = meta.adaptive_run(train, meta_set, replace(config, beta=0.0, init_hyper=hyper))
        return state.params, [(t, p) for t, p, _ in snapshots[1:]]

    rng = np.random.default_rng([config.seed, 17, start])
    params, velocity, snapshots = init_params, np.zeros_like(init_params.vec), []
    for t in range(start + 1, config.max_iters + 1):
        idx = rng.choice(len(train), size=config.batch_n, replace=False)
        cache = model._forward_cached(params, train.X[idx])
        step = meta.train_grad(params, hyper, cache, losses.normalize(hyper, cache[0][-1], train.y[idx]))
        if config.momentum > 0:
            velocity = step = step + config.momentum * velocity
        alpha = config.alpha * config.decay_factor ** sum(t >= s for s in config.decay_steps)
        params = model.sgd_step(params, step, alpha)
        if t % config.metrics_every == 0 or t == config.max_iters:
            snapshots.append((t, params))
    return params, snapshots
