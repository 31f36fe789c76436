"""Tests for the bilevel loop: virtual step, hypergradient, training."""

import collections
import re
import warnings
from dataclasses import replace

import kernel_reference as ref
import numpy as np
import pytest
from serial_reference import adaptive_run, conventional_run, row_fields
from test_acceptance import desk_config, desk_split, flattening_point

from arl import cli, data, losses, meta, model
from arl.errors import ConfigError, DomainError, NumericError


def rel_err(a, b):
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def make_batches(rng, c=3, n=40, m=12):
    Xn = rng.normal(size=(n, 2)) * 1.5
    yn = rng.integers(c, size=n)
    Xm = rng.normal(size=(m, 2)) * 1.5
    ym = rng.integers(c, size=m)
    return Xn, yn, Xm, ym


def train_batch(p, hyper, Xn, yn):
    """The train batch's forward cache and the normalization record of its logits."""
    cache = model._forward_cached(p, Xn)
    return cache, losses.normalize(hyper, cache[0][-1], yn)


def train_grad(p, hyper, Xn, yn):
    """Gradient vector of the train batch's mean robust loss, as the loop's steps take it."""
    cache, batch = train_batch(p, hyper, Xn, yn)
    return meta._backward_mean(p, *losses.batch_loss(hyper, batch), cache)


def virtual_step(p, hyper, Xn, yn, alpha):
    """The one-step lookahead w - alpha * grad_w L_train, as the hypergradient takes it."""
    return model.sgd_step(p, train_grad(p, hyper, Xn, yn), alpha)


def hypergradient(p, hyper, theta, Xn, yn, Xm, ym, alpha):
    """``meta.hypergradient`` of a lone run at ``hyper`` and ``theta`` (K,), on the train batch's
    forward cache and record."""
    return meta.hypergradient(p, row_fields([hyper]), theta[None], *train_batch(p, hyper, Xn, yn), Xm, ym, alpha)[0]


def meta_loss(p, Xm, ym):
    """The meta objective: the mean clean cross entropy."""
    ce = losses.HyperParams("ce")
    return losses.loss_values(ce, losses.softmax(model.forward_logits(p, Xm)), ym).mean()


def random_hyper(rng, variant):
    if variant == "ce":
        return losses.HyperParams("ce")
    if variant == "gce":
        return losses.HyperParams("gce", q=float(rng.uniform(0.15, 0.9)))
    if variant == "sl":
        return losses.HyperParams(
            "sl", gamma1=float(rng.uniform(0.3, 2.0)), gamma2=float(rng.uniform(0.3, 2.0))
        )
    if variant == "bi_tempered":
        return losses.HyperParams(
            "bi_tempered", t1=float(rng.uniform(0.15, 0.8)), t2=float(rng.uniform(1.2, 2.2))
        )
    return losses.HyperParams(
        "polysoft", lam=float(rng.uniform(0.9, 2.2)), d=float(rng.uniform(1.8, 4.0))
    )


def momentum_state(variant, steps=10, momentum=0.9, alpha=0.3):
    """A mid-run state of heavy-ball training: its hyperparameters, network, nonzero velocity and next batches."""
    rng = np.random.default_rng(61)
    hyper = random_hyper(rng, variant)
    p = model.init_mlp([2, 6, 3], seed=160)
    velocity = np.zeros_like(p.vec)
    for _ in range(steps):
        Xn, yn, _, _ = make_batches(rng)
        velocity = train_grad(p, hyper, Xn, yn) + momentum * velocity
        p = model.sgd_step(p, velocity, alpha)
    return (hyper, p, velocity, *make_batches(rng))


class TestVirtualStep:
    def test_alpha_zero_identity(self):
        rng = np.random.default_rng(0)
        p = model.init_mlp([2, 6, 3], seed=1)
        Xn, yn, _, _ = make_batches(rng)
        q = virtual_step(p, losses.HyperParams("gce", q=0.5), Xn, yn, 0.0)
        for a, b in zip(q.vec, p.vec):
            assert a == b

    def test_ce_variant_is_sgd_step(self):
        rng = np.random.default_rng(1)
        p = model.init_mlp([2, 6, 3], seed=2)
        Xn, yn, _, _ = make_batches(rng)
        ce = losses.HyperParams("ce")
        got = virtual_step(p, ce, Xn, yn, 0.2)
        grads = train_grad(p, ce, Xn, yn)
        want = model.sgd_step(p, grads, 0.2)
        np.testing.assert_array_equal(got.vec, want.vec)

    def test_step_norm_identity(self):
        rng = np.random.default_rng(2)
        p = model.init_mlp([2, 6, 3], seed=3)
        Xn, yn, _, _ = make_batches(rng)
        hyper = losses.HyperParams("gce", q=0.5)
        grads = train_grad(p, hyper, Xn, yn)
        moved = virtual_step(p, hyper, Xn, yn, 0.3)
        assert np.linalg.norm(moved.vec - p.vec) == pytest.approx(0.3 * np.linalg.norm(grads))

    def test_original_untouched(self):
        rng = np.random.default_rng(3)
        p = model.init_mlp([2, 6, 3], seed=4)
        before = p.vec.copy()
        Xn, yn, _, _ = make_batches(rng)
        virtual_step(p, losses.HyperParams("ce"), Xn, yn, 0.5)
        np.testing.assert_array_equal(p.vec, before)


class TestHypergradient:
    def test_alpha_zero_exactly_zero(self):
        rng = np.random.default_rng(4)
        for variant in ("gce", "sl", "bi_tempered", "polysoft"):
            hyper = random_hyper(rng, variant)
            theta = losses.to_unconstrained(hyper)
            p = model.init_mlp([2, 6, 3], seed=5)
            Xn, yn, Xm, ym = make_batches(rng)
            hg = hypergradient(p, hyper, theta, Xn, yn, Xm, ym, alpha=0.0)
            assert np.all(hg == 0.0)

    def test_sl_matches_analytic_mixed_partial(self):
        # the train gradient is linear in (gamma1, gamma2), so the mixed
        # partial in unconstrained coordinates is exactly
        # sigmoid(theta_k) * grad_w of the corresponding component loss
        rng = np.random.default_rng(5)
        for trial in range(10):
            hyper = random_hyper(rng, "sl")
            theta = losses.to_unconstrained(hyper)
            p = model.init_mlp([2, 6, 3], seed=10 + trial)
            Xn, yn, Xm, ym = make_batches(rng)
            alpha = 0.25
            got = hypergradient(p, hyper, theta, Xn, yn, Xm, ym, alpha)

            w_tilde = virtual_step(p, hyper, Xn, yn, alpha)
            g = meta.meta_ce_grad(w_tilde, Xm, ym)
            h_ce = losses.HyperParams("sl", gamma1=1.0, gamma2=0.0)
            g_ce = train_grad(p, h_ce, Xn, yn)
            h_rce = losses.HyperParams("sl", gamma1=0.0, gamma2=1.0)
            g_rce = train_grad(p, h_rce, Xn, yn)
            scale = ref.reparam_scale(hyper, theta)
            want = np.array(
                [
                    -alpha * scale[0] * float(g @ g_ce),
                    -alpha * scale[1] * float(g @ g_rce),
                ]
            )
            assert rel_err(got, want) <= 1e-12

    def test_matches_pipeline_fd_all_families(self):
        # independent oracle: differentiate meta-loss(virtual(theta)) end
        # to end by central differences at a step the hypergradient never
        # uses internally.  For gce and polysoft a mid-run state of momentum
        # training is one more input: the look-ahead is the plain step
        # w - alpha g, not the heavy-ball step that adds the velocity
        rng = np.random.default_rng(6)
        for variant in ("gce", "sl", "bi_tempered", "polysoft"):
            inputs = []
            for trial in range(20):
                hyper = random_hyper(rng, variant)
                p = model.init_mlp([2, 6, 3], seed=100 + trial)
                inputs.append((trial, hyper, p, None, *make_batches(rng)))
            if variant in ("gce", "polysoft"):
                inputs.append(("momentum", *momentum_state(variant)))
            for trial, hyper, p, velocity, Xn, yn, Xm, ym in inputs:
                if variant == "polysoft":
                    # the mixed partial has a kink where a sample's CE hits
                    # lam; keep the state away from it so both difference
                    # quotients estimate the same (existing) derivative
                    Z = model.forward_logits(p, Xn)
                    ce_vals = losses.normalize(losses.HyperParams("ce"), Z, yn).ce
                    while np.min(np.abs(ce_vals - hyper.lam)) < 0.02:
                        hyper = losses.HyperParams(
                            "polysoft", lam=hyper.lam * 1.07, d=hyper.d
                        )
                theta = losses.to_unconstrained(hyper)
                alpha = 0.3
                got = hypergradient(p, hyper, theta, Xn, yn, Xm, ym, alpha)

                def pipeline_fd(step):
                    # central differences of the meta loss at the point step(h)
                    fd = np.zeros_like(theta)
                    h_step = 1e-4
                    for k in range(theta.size):
                        e = np.zeros_like(theta)
                        e[k] = h_step
                        hi, lo = (ref.from_unconstrained(theta + sign * e, hyper) for sign in (1, -1))
                        fd[k] = (meta_loss(step(hi), Xm, ym) - meta_loss(step(lo), Xm, ym)) / (2 * h_step)
                    return fd

                plain = pipeline_fd(lambda h: virtual_step(p, h, Xn, yn, alpha))
                assert rel_err(got, plain) <= 1e-3, (variant, trial)
                if velocity is not None:
                    heavy = pipeline_fd(lambda h: model.sgd_step(p, train_grad(p, h, Xn, yn) + 0.9 * velocity,
                                                                 alpha))
                    assert rel_err(got, heavy) > 1e-2, variant

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("variant", ["gce", "sl", "bi_tempered", "polysoft"])
    def test_matches_full_gradient_probes(self, variant, activation):
        # reference: the mixed partial of each field is the full train
        # gradient backward(dG/dh_k / n), dotted with the flattened meta
        # gradient; the JVP route must agree to rounding
        def reference(p, hyper, theta, Xn, yn, Xm, ym, alpha):
            w_tilde = virtual_step(p, hyper, Xn, yn, alpha)
            g = meta.meta_ce_grad(w_tilde, Xm, ym)
            _, _, _, dG = losses.batch_hgrad(hyper, train_batch(p, hyper, Xn, yn)[1])
            scale = ref.reparam_scale(hyper, theta)
            out = np.empty(theta.size)
            for k in range(theta.size):
                mixed = model.backward(p, model._forward_cached(p, Xn), dG[k] / len(yn))
                out[k] = -alpha * scale[k] * float(g @ mixed)
            return out

        rng = np.random.default_rng(8)
        for trial in range(5):
            hyper = random_hyper(rng, variant)
            theta = losses.to_unconstrained(hyper)
            p = model.init_mlp([2, 16, 3], activation=activation, seed=200 + trial)
            Xn, yn, Xm, ym = make_batches(rng)
            got = hypergradient(p, hyper, theta, Xn, yn, Xm, ym, 0.7)
            want = reference(p, hyper, theta, Xn, yn, Xm, ym, 0.7)
            assert rel_err(got, want) <= 1e-9, (variant, activation, trial)

    def test_nonfinite_derivative_names_field(self, monkeypatch):
        rng = np.random.default_rng(9)
        hyper = losses.HyperParams("sl", gamma1=0.8, gamma2=1.2)
        p = model.init_mlp([2, 6, 3], seed=7)
        Xn, yn, Xm, ym = make_batches(rng)
        real = losses.batch_hgrad

        def poisoned(h, batch):
            values, grads, dvalues, dgrads = real(h, batch)
            dgrads[1, 0, 0] = np.nan
            return values, grads, dvalues, dgrads

        monkeypatch.setattr(losses, "batch_hgrad", poisoned)
        with pytest.raises(NumericError, match=r"in gamma2 under .*gamma1=.*gamma2="):
            hypergradient(p, hyper, losses.to_unconstrained(hyper), Xn, yn, Xm, ym, 0.3)


class TestPolysoftKink:
    def test_one_ulp_below_the_kink_fails_loudly(self):
        # dw/dlam grows like u^(1/(d-1) - 1) as u = 1 - ce/lam -> 0+
        rng = np.random.default_rng(56)
        p = model.init_mlp([2, 6, 3], seed=57)
        Xn, yn, Xm, ym = make_batches(rng)
        cache = model._forward_cached(p, Xn)
        ce0 = float(losses.normalize(losses.HyperParams("ce"), cache[0][-1], yn).ce[0])
        lam = float(np.nextafter(ce0, np.inf))  # ce0 = lam (1 - ulp)
        assert 0.0 < 1.0 - ce0 / lam <= 2.0 * np.finfo(float).eps
        hyper = losses.HyperParams("polysoft", lam=lam, d=3.0)
        batch = losses.normalize(hyper, cache[0][-1], yn)
        with pytest.raises(NumericError, match=rf"bound .* passed by a .* derivative in lam under .*"
                                               rf"lam={re.escape(repr(lam))}, d=3\.0.* at train row 0 "
                                               rf"\(ce={re.escape(repr(ce0))}\)"):
            meta.hypergradient(p, row_fields([hyper]), losses.to_unconstrained(hyper)[None], cache, batch,
                               Xm, ym, 0.3)


class TestMetaUpdate:
    NAMES = ("lam", "d")

    def test_zero_hypergrad(self):
        theta = np.array([[0.3, -0.7], [1.0, 2.0]])
        np.testing.assert_array_equal(meta.meta_update(theta, np.zeros((2, 2)), 0.5, self.NAMES), theta)

    def test_zero_beta(self):
        theta = np.array([[0.3, -0.7]])
        np.testing.assert_array_equal(meta.meta_update(theta, np.ones((1, 2)), 0.0, self.NAMES), theta)

    def test_result_always_feasible(self):
        rng = np.random.default_rng(7)
        hyper = losses.HyperParams("polysoft", lam=1.1, d=3.0)
        theta = np.tile(losses.to_unconstrained(hyper), (3, 1))
        for _ in range(100):
            theta = meta.meta_update(theta, rng.normal(size=(3, 2)) * 5.0, 0.5, self.NAMES)
            for values in losses.from_unconstrained("polysoft", theta):
                losses.HyperParams("polysoft", **dict(zip(self.NAMES, values.tolist())))

    def test_nonfinite_rejected(self):  # and named by its first run and field
        hg = np.zeros((3, 2))
        hg[2, 0], hg[1, 1] = np.inf, np.nan  # the first run with one is run 1, in d
        with pytest.raises(NumericError, match="non-finite hypergradient in d") as info:
            meta.meta_update(np.zeros((3, 2)), hg, 0.1, self.NAMES)
        assert info.value.run == 1


def conventional(train, config, specs):
    """``train_runs`` records of fixed-hyperparameter runs, one per ``(hyper, init_params, start)``."""
    return [meta.Run(train, None, replace(config, beta=0.0, init_hyper=h), p, s) for h, p, s in specs]


def small_problem(seed=0, eta=0.3, n=240):
    clean = data.gen_blobs(n + 130, 3, spread=0.4, seed=seed)
    split = data.split_meta(clean, 30, 100, seed=seed + 1)
    train = data.inject_symmetric(split.train, eta, seed=seed + 2)
    return train, split.meta, split.test


class TestArlTrain:
    def test_single_step_beta_zero_reduction(self):
        train, meta_set, test = small_problem()
        config = meta.TrainConfig("gce", alpha=0.2, beta=0.0, batch_n=32,
                                  batch_m=10, max_iters=1, seed=3)
        state, rows = meta.arl_train(train, meta_set, test, config)
        hyper = config.resolve_hyper(3)
        params, [(t, snap)] = conventional_run(train, meta_set, config, hyper)
        np.testing.assert_array_equal(state.params.vec, params.vec)
        assert rows == [meta._metrics_row(t, snap, hyper, train, meta_set, test)]

    def test_ce_variant_matches_plain_training(self):
        train, meta_set, test = small_problem(seed=4)
        config = meta.TrainConfig("ce", alpha=0.3, beta=0.5, batch_n=32,
                                  batch_m=10, max_iters=60, seed=5)
        state, rows = meta.arl_train(train, meta_set, test, config)
        ce = losses.HyperParams("ce")
        params, snapshots = conventional_run(train, meta_set, config, ce)
        np.testing.assert_array_equal(state.params.vec, params.vec)
        assert rows == [meta._metrics_row(t, p, ce, train, meta_set, test) for t, p in snapshots]

    def test_deterministic_metrics(self, tmp_path):
        train, meta_set, test = small_problem(seed=6)
        config = meta.TrainConfig("gce", alpha=0.2, beta=0.5, batch_n=32,
                                  batch_m=10, max_iters=60, seed=7)
        _, rows_a = meta.arl_train(train, meta_set, test, config)
        _, rows_b = meta.arl_train(train, meta_set, test, config)
        assert rows_a == rows_b
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        meta.write_metrics_csv(rows_a, pa)
        meta.write_metrics_csv(rows_b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_hyper_snapshots_feasible(self):
        train, meta_set, test = small_problem(seed=8)
        for variant in ("gce", "sl", "bi_tempered", "polysoft"):
            config = meta.TrainConfig(variant, alpha=0.2, beta=1.0, batch_n=32,
                                      batch_m=10, max_iters=60, seed=9)
            _, rows = meta.arl_train(train, meta_set, test, config)
            names = losses.LEARNABLE[variant]
            for row in rows:
                snap = losses.HyperParams(variant, **dict(zip(names, row.hyper_values)))
                snap.validate()
            assert rows[-1].iteration == 60

    def test_metrics_cadence(self):
        train, meta_set, test = small_problem(seed=10)
        config = meta.TrainConfig("gce", alpha=0.2, beta=0.5, batch_n=32,
                                  batch_m=10, max_iters=120, seed=11, metrics_every=50)
        _, rows = meta.arl_train(train, meta_set, test, config)
        assert [r.iteration for r in rows] == [50, 100, 120]

    def test_fixed_run_at_boundary_never_reparameterizes(self):
        # q = 1.0 is a valid gce value but the boundary of its logit coordinate
        train, meta_set, test = small_problem(seed=34)
        config = meta.TrainConfig("gce", alpha=0.2, beta=0.0, batch_n=32, batch_m=10, max_iters=5, seed=35,
                                  init_hyper=losses.HyperParams("gce", q=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [(state, snapshots)] = meta.train_runs([meta.Run(train, None, config)])
        assert [t for t, _, _ in snapshots] == [0, 5] and np.isfinite(state.params.vec).all()

    def test_empty_meta_rejected(self):
        train, meta_set, test = small_problem(seed=12)
        config = meta.TrainConfig("gce", batch_n=32, batch_m=10, max_iters=5)
        with pytest.raises(ConfigError):
            meta.arl_train(train, None, test, config)

    def test_oversized_batch_rejected(self):
        train, meta_set, test = small_problem(seed=13)
        config = meta.TrainConfig("gce", batch_n=10_000, batch_m=10, max_iters=5)
        with pytest.raises(ConfigError):
            meta.arl_train(train, meta_set, test, config)

    @pytest.mark.parametrize("variant, beta", [("ce", 0.5), ("gce", 0.0), ("gce", 0.5)])
    def test_oversized_meta_batch_rejected_for_meta_steps_only(self, variant, beta):
        # a run that takes no meta step draws no meta batch
        train, meta_set, test = small_problem(seed=13)
        config = meta.TrainConfig(variant, beta=beta, batch_n=16, batch_m=31, max_iters=5)
        if variant == "gce" and beta > 0:
            with pytest.raises(ConfigError, match="batch_m=31 exceeds meta set size 30"):
                meta.arl_train(train, meta_set, test, config)
        else:
            _, rows = meta.arl_train(train, meta_set, test, config)
            assert rows[-1].iteration == 5

    def test_bi_tempered_at_alpha_zero_solves_again_from_its_roots(self):
        # alpha 0 forms no hypergradient and so no slope dgamma/dt2: the second
        # solve of a step starts at the first solve's roots, and the network stays
        train, meta_set, test = small_problem(seed=60)
        config = meta.TrainConfig("bi_tempered", alpha=0.0, beta=0.5, batch_n=16, batch_m=10, max_iters=3)
        state, _ = meta.arl_train(train, meta_set, test, config)
        assert np.array_equal(state.params.vec, meta._init_params(train, config).vec)

    def test_snapshots_at_cadence(self):
        train, meta_set, test = small_problem(seed=14)
        config = meta.TrainConfig("gce", alpha=0.2, beta=0.5, batch_n=32,
                                  batch_m=10, max_iters=100, seed=15, metrics_every=50)
        [(_, snapshots)] = meta.train_runs([meta.Run(train, meta_set, config)])
        assert [t for t, _, _ in snapshots] == [0, 50, 100]

    def test_rows_are_metrics_of_snapshots(self, monkeypatch):
        # arl_train is one run of train_runs plus one metrics row per snapshot after the start
        train, meta_set, test = small_problem(seed=14)
        config = meta.TrainConfig("sl", alpha=0.2, beta=0.5, batch_n=32,
                                  batch_m=10, max_iters=23, seed=15, metrics_every=5)
        [(state, snapshots)] = meta.train_runs([meta.Run(train, meta_set, config)])
        rows = [meta._metrics_row(t, p, h, train, meta_set, test) for t, p, h in snapshots[1:]]
        calls = []
        monkeypatch.setattr(meta, "train_runs", lambda *a: calls.append(a) or [(state, snapshots)])
        assert meta.arl_train(train, meta_set, test, config) == (state, rows)
        assert len(calls) == 1
        assert [r.iteration for r in rows] == [5, 10, 15, 20, 23]

    def test_snapshots_shared_read_only(self):
        # snapshots share the loop's buffers, uncopied; neither the run
        # going on nor a continuation from a snapshot may change them
        train, meta_set, test = small_problem(seed=14)
        config = meta.TrainConfig("gce", alpha=0.2, beta=0.5, batch_n=32,
                                  batch_m=10, max_iters=100, seed=15, metrics_every=50)
        [(state, snapshots)] = meta.train_runs([meta.Run(train, meta_set, config)])
        assert snapshots[-1][1] is state.params
        at_return = [p.vec.copy() for _, p, _ in snapshots]
        t, p, h = snapshots[1]
        meta.train_runs([meta.Run(train, None, replace(config, beta=0.0, max_iters=t + 20, init_hyper=h), p, t)])
        for (_, p, _), vec in zip(snapshots, at_return):
            np.testing.assert_array_equal(p.vec, vec)
            with pytest.raises(ValueError):
                p.weights[0][0, 0] = 1.0


class TestForwardCount:
    """One forward of the train batch per step; a second one at w~ when adapting."""

    @staticmethod
    def count_forwards(monkeypatch):
        counts = {"steps": 0, "metrics": 0}
        in_metrics = [False]
        forward, metrics_row = model._forward_cached, meta._metrics_row

        def counted_forward(params, X):
            counts["metrics" if in_metrics[0] else "steps"] += 1
            return forward(params, X)

        def flagged_metrics_row(*args):
            in_metrics[0] = True
            try:
                return metrics_row(*args)
            finally:
                in_metrics[0] = False

        monkeypatch.setattr(model, "_forward_cached", counted_forward)
        monkeypatch.setattr(meta, "_metrics_row", flagged_metrics_row)
        return counts

    def test_arl_train_two_per_iteration(self, monkeypatch):
        train, meta_set, test = small_problem(seed=26)
        counts = self.count_forwards(monkeypatch)
        config = meta.TrainConfig("polysoft", alpha=0.2, beta=0.5, batch_n=32,
                                  batch_m=10, max_iters=12, seed=27, metrics_every=5)
        _, rows = meta.arl_train(train, meta_set, test, config)
        assert counts["steps"] == 2 * 12
        assert counts["metrics"] == 3 * len(rows)

    def test_lone_bilevel_step_pass_budget(self, monkeypatch):
        # per step: the train and the meta forward; the virtual, meta and actual
        # backward; one jvp; the virtual and the actual SGD step; a train and a meta
        # batch; and one activation derivative per hidden layer of each cached forward
        train, meta_set, test = small_problem(seed=30)
        counts = {"steps": collections.Counter(), "metrics": collections.Counter()}
        in_metrics = [False]

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args):
                counts["metrics" if in_metrics[0] else "steps"][name] += 1
                return real(*args)
            monkeypatch.setattr(owner, name, wrapper)

        for name in ("_forward_cached", "backward", "jvp", "sgd_step", "_act_grad"):
            counted(model, name)
        counted(meta._Batches, "take")
        metrics_row = meta._metrics_row

        def flagged_metrics_row(*args):
            in_metrics[0] = True
            try:
                return metrics_row(*args)
            finally:
                in_metrics[0] = False

        monkeypatch.setattr(meta, "_metrics_row", flagged_metrics_row)
        T = 12
        config = meta.TrainConfig("gce", alpha=0.2, beta=0.5, batch_n=16, batch_m=10, max_iters=T,
                                  seed=31, metrics_every=5, hidden=(8, 5))
        _, rows = meta.arl_train(train, meta_set, test, config)
        assert counts["steps"] == {"_forward_cached": 2 * T, "backward": 3 * T, "jvp": T, "sgd_step": 2 * T,
                                   "take": 2 * T, "_act_grad": 2 * 2 * T}
        assert counts["metrics"] == {"_forward_cached": 3 * len(rows)}  # no gradient, no derivative

    @pytest.mark.parametrize("R", [1, 3])
    def test_one_map_per_meta_step_whatever_the_runs(self, monkeypatch, R):
        # the runs' hyperparameters are one (R, K) array: a meta step makes one map, one
        # reparam_scale and one _RowFields build, and only a snapshot forms a HyperParams
        train, meta_set, _ = small_problem(seed=26)
        config = meta.TrainConfig("polysoft", alpha=0.2, beta=0.5, batch_n=16, batch_m=10, max_iters=12,
                                  metrics_every=5)
        rng = np.random.default_rng(27)
        runs = [meta.Run(train, meta_set, replace(config, seed=seed, init_hyper=random_hyper(rng, "polysoft")))
                for seed in range(R)]
        calls = collections.Counter()

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(owner, name, wrapper)

        for name in ("from_unconstrained", "reparam_scale", "_RowFields"):
            counted(losses, name)
        counted(losses.HyperParams, "__post_init__")
        out = meta.train_runs(runs)
        T, snapshots = config.max_iters, sum(len(snaps) - 1 for _, snaps in out)
        assert snapshots == 3 * R  # at 5, 10 and 12
        assert calls == {"from_unconstrained": T, "reparam_scale": T, "_RowFields": T + 1,
                         "__post_init__": snapshots}

    @staticmethod
    def desk_solves(monkeypatch, passes, T=200):
        """The solves of T desk bi_tempered steps, ``(logits, t2, cold, passes)`` each, and a
        function that counts the passes of a solve outside the run, from the ``solve_passes`` counter."""
        solves, solve = [], losses._tempered_softmax_batch

        def recorded(Z, t2, start=None):
            before = passes[0]
            out = solve(Z, t2, start)
            solves.append((Z.copy(), t2, start is None, passes[0] - before))
            return out

        def passes_of(*args):
            before = passes[0]
            solve(*args)
            return passes[0] - before

        monkeypatch.setattr(losses, "_tempered_softmax_batch", recorded)
        train, meta_set, _ = desk_split(0, 0.4)
        meta.train_runs([meta.Run(train, meta_set, replace(desk_config("bi_tempered", 0), max_iters=T))])
        return solves, passes_of

    def test_bi_tempered_solve_pass_budget(self, monkeypatch, solve_passes):
        # a step's first solve starts cold from max z; its second, at t2 moved by one
        # meta step, starts from the first's roots moved to first order in t2.  Measured
        # means: 4.99 cold and 2.71 warm passes (Newton on sum p - 1 took 8.02 and 4.83)
        T = 200
        solves, passes_of = self.desk_solves(monkeypatch, solve_passes, T)
        assert [cold for _, _, cold, _ in solves] == [True, False] * T
        for Z, t2, _, used in solves[::2]:
            assert used == passes_of(Z, t2)
        assert np.mean([used for *_, used in solves[::2]]) <= 5.0
        assert np.mean([used for *_, used in solves[1::2]]) <= 2.75

    @pytest.mark.parametrize("t2, budget", [(4.0, 5.8), (10.0, 4.0)])
    def test_cold_solve_pass_budget_at_large_t2(self, monkeypatch, solve_passes, t2, budget):
        # the desk logits solved cold far from t2 = 1: measured means 5.80 at t2 = 4
        # and 4.00 at t2 = 10 (Newton on sum p - 1 took 9.95 and 13.0)
        solves, passes_of = self.desk_solves(monkeypatch, solve_passes)
        assert np.mean([passes_of(Z, t2) for Z, *_ in solves[::2]]) <= budget

    def test_conventional_runs_one_per_step(self, monkeypatch):
        # one stacked forward per lockstep step, however many runs it holds
        train, meta_set, test = small_problem(seed=28)
        counts = self.count_forwards(monkeypatch)
        config = meta.TrainConfig("sl", alpha=0.2, beta=0.5, batch_n=32,
                                  batch_m=10, max_iters=12, seed=29, metrics_every=5)
        runs = [(losses.HyperParams("sl", gamma1=g1, gamma2=1.0), None, 0) for g1 in (0.5, 1.0, 2.0)]
        meta.train_runs(conventional(train, config, runs))
        assert counts == {"steps": 12, "metrics": 0}


class TestNormalizationCount:
    """A bilevel step normalizes each batch once; a metrics row forms no gradient."""

    @staticmethod
    def count_in_steps(monkeypatch, name):
        """Calls of ``losses.<name>`` outside the metrics rows."""
        real, metrics_row = getattr(losses, name), meta._metrics_row
        counts, in_metrics = [0], [False]

        def counted(*args):
            counts[0] += not in_metrics[0]
            return real(*args)

        def flagged_metrics_row(*args):
            in_metrics[0] = True
            try:
                return metrics_row(*args)
            finally:
                in_metrics[0] = False

        monkeypatch.setattr(losses, name, counted)
        monkeypatch.setattr(meta, "_metrics_row", flagged_metrics_row)
        return counts

    @pytest.mark.parametrize("variant, name", [
        ("gce", "softmax"), ("sl", "softmax"), ("polysoft", "softmax"),
        ("bi_tempered", "_tempered_softmax_batch"),
    ])
    def test_two_per_iteration(self, monkeypatch, variant, name):
        # softmax: the train batch and the meta batch; bi_tempered solves
        # the train batch again at its moved t2
        train, meta_set, test = small_problem(seed=52)
        counts = self.count_in_steps(monkeypatch, name)
        config = meta.TrainConfig(variant, alpha=0.2, beta=0.5, batch_n=16,
                                  batch_m=10, max_iters=7, seed=53, metrics_every=3)
        meta.arl_train(train, meta_set, test, config)
        assert counts[0] == 2 * 7

    def test_metrics_row_forms_no_gradient(self, monkeypatch):
        train, meta_set, test = small_problem(seed=54)
        calls = []

        def recorded(f):
            def wrapper(*args):
                calls.append(f.__name__)
                return f(*args)
            return wrapper

        for variant, (value, grad, hgrad) in list(losses._FAMILIES.items()):
            monkeypatch.setitem(losses._FAMILIES, variant, (value, recorded(grad), recorded(hgrad)))
        monkeypatch.setattr(model, "backward", recorded(model.backward))
        params = model.init_mlp([2, 16, 3], seed=55)
        for variant in losses.VARIANTS:
            row = meta._metrics_row(10, params, losses.HyperParams(variant), train, meta_set, test)
            assert np.isfinite(row.train_loss) and np.isfinite(row.meta_loss)
        assert calls == []


class TestOptionalKnobs:
    def test_momentum_changes_trajectory(self):
        train, meta_set, test = small_problem(seed=20)
        base = meta.TrainConfig("ce", alpha=0.2, beta=0.0, batch_n=32,
                                batch_m=10, max_iters=40, seed=21)
        with_mom = meta.TrainConfig("ce", alpha=0.2, beta=0.0, batch_n=32,
                                    batch_m=10, max_iters=40, seed=21, momentum=0.9)
        s0, _ = meta.arl_train(train, meta_set, test, base)
        s1, _ = meta.arl_train(train, meta_set, test, with_mom)
        assert not np.allclose(s0.params.vec, s1.params.vec)

    def test_momentum_matches_per_layer_heavy_ball(self):
        # reference: v_l = g_l + m v_l and w_l -= alpha v_l on separate
        # per-layer arrays, over the loop's own train-batch stream
        train, meta_set, test = small_problem(seed=20)
        config = meta.TrainConfig("ce", alpha=0.2, beta=0.0, batch_n=32,
                                  batch_m=10, max_iters=40, seed=21, momentum=0.9)
        state, _ = meta.arl_train(train, meta_set, test, config)

        p = model.init_mlp([train.X.shape[1], 16, 3], seed=21)
        layers = [a.copy() for w, b in zip(p.weights, p.biases) for a in (w, b)]
        velocity = [np.zeros_like(a) for a in layers]
        hyper = config.resolve_hyper(3)
        rng = np.random.default_rng([21, 17, 0])
        for _ in range(40):
            idx = rng.choice(len(train), size=32, replace=False)
            q = model.MlpParams(np.concatenate([a.ravel() for a in layers]), p.sizes, p.activation)
            grads = train_grad(q, hyper, train.X[idx], train.y[idx])
            grads = model.MlpParams(grads, q.sizes, q.activation)
            g = [a for w, b in zip(grads.weights, grads.biases) for a in (w, b)]
            for l in range(len(layers)):
                velocity[l] = g[l] + 0.9 * velocity[l]
                layers[l] = layers[l] - 0.2 * velocity[l]
        np.testing.assert_array_equal(state.params.vec, np.concatenate([a.ravel() for a in layers]))

    def test_step_decay_shrinks_updates(self):
        train, meta_set, test = small_problem(seed=22)
        config = meta.TrainConfig("ce", alpha=0.5, beta=0.0, batch_n=32,
                                  batch_m=10, max_iters=60, seed=23,
                                  decay_steps=(30,), decay_factor=0.1,
                                  metrics_every=10)
        [(_, snapshots)] = meta.train_runs([meta.Run(train, meta_set, config)])
        moved = [(t, np.linalg.norm(p.vec - prev.vec))
                 for (_, prev, _), (t, p, _) in zip(snapshots, snapshots[1:])]
        before = np.mean([d for t, d in moved if t <= 30])
        after = np.mean([d for t, d in moved if t > 30])
        assert after < 0.3 * before

    def test_nonfinite_derivative_names_iteration_and_theta(self, monkeypatch):
        train, meta_set, test = small_problem(seed=30)
        config = meta.TrainConfig("gce", alpha=0.2, beta=0.5, batch_n=32,
                                  batch_m=10, max_iters=10, seed=31)
        real, calls = losses.batch_hgrad, [0]

        def poisoned(h, batch):
            out = real(h, batch)
            calls[0] += 1
            if calls[0] == 3:  # one call per iteration
                out[3][0, 0, 0] = np.inf
            return out

        monkeypatch.setattr(losses, "batch_hgrad", poisoned)
        with pytest.raises(NumericError, match=r"iteration 3 \(theta=\[.*\], .*q=.*derivative in q"):
            meta.arl_train(train, meta_set, test, config)

    def test_domain_exit_names_iteration(self, monkeypatch):
        # a meta step large enough that d = 1 + softplus(theta_d) rounds to 1
        train, meta_set, test = small_problem(seed=32)
        config = meta.TrainConfig("polysoft", alpha=0.2, beta=0.5, batch_n=32,
                                  batch_m=10, max_iters=10, seed=33)
        real, calls = meta.hypergradient, [0]

        def huge_at_third(*args):
            calls[0] += 1
            return np.array([[0.0, 1e3]]) if calls[0] == 3 else real(*args)

        monkeypatch.setattr(meta, "hypergradient", huge_at_third)
        with pytest.raises(NumericError, match=r"iteration 3 \(theta=\[.*\], .*\): d=1\.0 outside"):
            meta.arl_train(train, meta_set, test, config)

    @pytest.mark.parametrize("poison, says", [
        (1e3, "d=1\\.0 outside its domain"),
        (np.nan, "non-finite hypergradient in d"),
    ], ids=["domain", "nonfinite"])
    def test_stack_failure_names_its_run(self, monkeypatch, poison, says):
        # only the middle run of three: its meta step at iteration 3 rounds d onto 1.0,
        # or its hypergradient in d is not finite
        train, meta_set, _ = small_problem(seed=32)
        config = meta.TrainConfig("polysoft", alpha=0.2, beta=0.5, batch_n=32, batch_m=10, max_iters=10)
        real, calls = meta.hypergradient, [0]

        def poisoned(*args):
            hg = real(*args)
            calls[0] += 1
            if calls[0] == 3:
                hg[1, 1] = poison
            return hg

        monkeypatch.setattr(meta, "hypergradient", poisoned)
        runs = [meta.Run(train, meta_set, replace(config, seed=seed)) for seed in (3, 5, 7)]
        with pytest.raises(NumericError, match=rf"iteration 3 \(theta=\[.*\], run from 0, runs\[1\], seed 5, "
                                               rf"HyperParams\(variant='polysoft'.*\): {says}"):
            meta.train_runs(runs)

    def test_divergence_aborts_with_iteration(self):
        train, meta_set, test = small_problem(seed=24)
        config = meta.TrainConfig("ce", alpha=1e200, beta=0.0, batch_n=32,
                                  batch_m=10, max_iters=60, seed=25, activation="relu")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="iteration"):
                meta.arl_train(train, meta_set, test, config)


class TestConventionalRuns:
    """The lockstep runs give the bits of their serial runs (``serial_reference``)."""

    GRIDS = {
        "gce": [{"q": q} for q in (0.2, 0.5, 0.9)],
        "sl": [{"gamma1": g1, "gamma2": g2} for g1 in (0.1, 10.0) for g2 in (0.1, 1.0)],
        "polysoft": [{"lam": lam, "d": d} for lam in (1.0, 2.0) for d in (2.0, 3.0)],
        "bi_tempered": [{"t1": 0.2, "t2": 1.2}, {"t1": 0.8, "t2": 2.0}],
        "ce": [],
    }

    @pytest.mark.parametrize("knobs", [
        {},
        {"momentum": 0.9, "decay_steps": (12,), "hidden": (8, 8), "activation": "relu"},
    ], ids=["plain", "momentum-decay-relu"])
    @pytest.mark.parametrize("variant", ["ce", "gce", "sl", "polysoft", "bi_tempered"])
    def test_matches_serial_runs(self, variant, knobs):
        train, meta_set, test = small_problem(seed=40)
        config = meta.TrainConfig(variant, alpha=0.5, beta=0.5, batch_n=16, batch_m=10,
                                  max_iters=30, seed=41, metrics_every=7, **knobs)
        [(state, snapshots)] = meta.train_runs([meta.Run(train, meta_set, config)])
        # a grid and an opt1 run from 0, and a staircase of continuations
        # with two runs at one start and one that starts at the end
        specs = [(losses.HyperParams(variant, **fields), None, 0) for fields in self.GRIDS[variant]]
        specs.append((state.hyper, None, 0))
        specs += [(h, p, t) for t, p, h in snapshots] + [(snapshots[1][2], snapshots[1][1], 7)]
        got = meta.train_runs(conventional(train, config, specs))
        assert len(got) == len(specs)
        for (hyper, init, start), (end, snaps) in zip(specs, got):
            want_params, want_snaps = conventional_run(train, meta_set, config, hyper, init, start)
            np.testing.assert_array_equal(end.params.vec, want_params.vec)
            assert end.hyper is hyper and snaps[0][0] == start
            assert [(t, p.vec.tobytes()) for t, p, _ in snaps[1:]] == [(t, p.vec.tobytes()) for t, p in want_snaps]
            assert snaps[-1][1] is end.params

    def test_one_row_bi_tempered_matches_serial_runs(self):
        # one-row batches at t2 = 2, where a scalar exponent takes numpy's square
        train, meta_set, test = small_problem(seed=52)
        config = meta.TrainConfig("bi_tempered", alpha=0.5, beta=0.0, batch_n=1, max_iters=20, metrics_every=6)
        hypers = [losses.HyperParams("bi_tempered", t1=t1, t2=2.0) for t1 in (0.5, 0.0, 0.8)]
        runs = [meta.Run(train, meta_set, replace(config, seed=seed, init_hyper=h))
                for seed, h in zip((53, 54, 53), hypers)]
        for run, (state, snapshots) in zip(runs, meta.train_runs(runs)):
            want_state, want_snapshots = adaptive_run(*run[:3])
            assert [(t, p.vec.tobytes()) for t, p, _ in snapshots] == \
                   [(t, p.vec.tobytes()) for t, p, _ in want_snapshots], run.config.init_hyper
            assert state.hyper == want_state.hyper

    def test_snapshots_are_row_views_and_nothing_is_evaluated(self, monkeypatch):
        train, _, test = small_problem(seed=40)
        config = meta.TrainConfig("gce", alpha=0.5, batch_n=16, max_iters=12, seed=41, metrics_every=5)
        monkeypatch.setattr(model, "accuracy", None)  # the loop must not evaluate
        specs = [(losses.HyperParams("gce", q=q), None, start) for q, start in ((0.3, 0), (0.6, 0), (0.7, 6))]
        got = meta.train_runs(conventional(train, config, specs))
        assert [[t for t, _, _ in snaps] for _, snaps in got] == [[0, 5, 10, 12], [0, 5, 10, 12], [6, 10, 12]]
        for t in (10, 12):  # the rows of one step's stack share its buffer
            rows = [p for _, snaps in got for s, p, _ in snaps if s == t]
            stack = rows[0].vec.base
            assert stack is not None and stack.shape == (3, rows[0].vec.size)
            for r, p in enumerate(rows):
                assert p.vec.base is stack and not p.vec.flags.writeable
                np.testing.assert_array_equal(p.vec, stack[r])

    def test_nonfinite_loss_names_run_and_iteration(self, monkeypatch):
        train, _, test = small_problem(seed=42)
        config = meta.TrainConfig("sl", alpha=0.2, batch_n=16, max_iters=10, seed=43)
        bad = losses.HyperParams("sl", gamma1=10.0, gamma2=0.1)
        real, calls = losses.batch_loss, [0]

        def poisoned(h, batch):
            values, G = real(h, batch)
            calls[0] += 1
            if calls[0] == 4:  # one call per iteration over the stacked rows
                rows = slice(config.batch_n, 2 * config.batch_n)  # run 1's rows
                assert (h.gamma1[rows] == bad.gamma1).all()
                values = values.copy()
                values[rows.start + 2] = np.nan
            return values, G

        monkeypatch.setattr(losses, "batch_loss", poisoned)
        specs = [(losses.HyperParams("sl"), None, 0), (bad, None, 0), (losses.HyperParams("sl"), None, 2)]
        with pytest.raises(NumericError, match=r"iteration 4 \(run from 0, .*gamma1=10\.0, "
                                               r"gamma2=0\.1.*\): non-finite training loss"):
            meta.train_runs(conventional(train, config, specs))

    def test_one_loss_call_per_step(self, monkeypatch):
        train, _, test = small_problem(seed=47)
        config = meta.TrainConfig("polysoft", alpha=0.2, batch_n=16, max_iters=12, seed=48,
                                  metrics_every=5)
        real, calls = losses.batch_loss, []

        def counted(h, batch):
            calls.append(len(batch.P))
            return real(h, batch)

        monkeypatch.setattr(losses, "batch_loss", counted)
        specs = [(losses.HyperParams("polysoft", d=d), None, start)
                 for d, start in ((2.0, 3), (3.0, 3), (1.5, 7), (2.5, 12))]
        meta.train_runs(conventional(train, config, specs))
        # steps 4..12, each one call over the rows of the runs started so far
        assert calls == [2 * 16] * 4 + [3 * 16] * 5

    def test_raising_loss_names_its_run(self, monkeypatch):
        train, _, test = small_problem(seed=49)
        config = meta.TrainConfig("bi_tempered", alpha=0.2, batch_n=16, max_iters=10, seed=50)
        real, calls = model._forward_cached, [0]

        def poisoned(params, X):
            cache = real(params, X)
            calls[0] += 1
            if calls[0] == 3:
                cache[0][-1][1, 4, 0] = np.inf  # a logit of run 1 at iteration 3
            return cache

        monkeypatch.setattr(model, "_forward_cached", poisoned)
        specs = [(losses.HyperParams("bi_tempered", t1=t1), None, 0) for t1 in (0.2, 0.7, 0.4)]
        with pytest.raises(NumericError, match=r"iteration 3 \(run from 0, .*t1=0\.7.*\): logits must be finite"):
            meta.train_runs(conventional(train, config, specs))

    def test_one_variant(self):
        train, _, test = small_problem(seed=51)
        config = meta.TrainConfig("gce", beta=0.0, batch_n=16, max_iters=5)
        runs = [meta.Run(train, None, config), meta.Run(train, None, replace(config, variant="sl"))]
        with pytest.raises(ConfigError, match="one variant, got 'gce' and 'sl'"):
            meta.train_runs(runs)

    def test_nonfinite_gradient_names_run(self, monkeypatch):
        train, _, test = small_problem(seed=44)
        config = meta.TrainConfig("gce", alpha=0.2, batch_n=16, max_iters=10, seed=45)
        real = model.backward

        def poisoned(params, cache, G):
            grads = real(params, cache, G)
            if grads.shape[0] == 3:  # once the run from 5 has joined
                grads[2, 0] = np.inf
            return grads

        monkeypatch.setattr(model, "backward", poisoned)
        specs = [(losses.HyperParams("gce", q=q), None, start) for q, start in ((0.3, 0), (0.5, 0), (0.7, 5))]
        with pytest.raises(NumericError, match=r"iteration 6 \(run from 5, .*q=0\.7.*non-finite gradient"):
            meta.train_runs(conventional(train, config, specs))

    def test_checks_shared_with_serial_loop(self):
        train, _, test = small_problem(seed=46)
        config = meta.TrainConfig("gce", batch_n=10_000, max_iters=5)
        with pytest.raises(ConfigError, match="batch_n=10000 exceeds"):
            meta.train_runs(conventional(train, config, [(losses.HyperParams("gce"), None, 0)]))


class TestBatchStreams:
    """One step-aligned stream per seed and set size: draw t is the batch of step t."""

    def test_one_draw_per_step(self, monkeypatch):
        real, draws = np.random.default_rng, []

        class Counted:  # a generator that records the seed of each batch draw
            def __init__(self, seed):
                self.rng, self.seed = real(seed), seed

            def choice(self, *args, **kwargs):
                draws.append(self.seed)
                return self.rng.choice(*args, **kwargs)

            def __getattr__(self, name):  # the network init's draws
                return getattr(self.rng, name)

        train, _, _ = small_problem(seed=80)
        config = meta.TrainConfig("gce", alpha=0.2, beta=0.0, batch_n=16, max_iters=40, seed=81)
        specs = [(losses.HyperParams("gce", q=q), None, start)
                 for q, start in ((0.3, 0), (0.5, 10), (0.7, 20), (0.4, 30))]
        runs = conventional(train, config, specs)
        monkeypatch.setattr(meta.np.random, "default_rng", Counted)
        meta.train_runs(runs)
        assert draws == [[81, 17, 0]] * config.max_iters

    def test_continuation_reads_the_batches_of_the_run_from_zero(self, monkeypatch):
        real, rows = meta._Batches.take, []

        def recorded(self, k):
            batch = real(self, k)
            rows.append(np.array(batch[0]))  # each run's feature rows
            return batch

        train, _, _ = small_problem(seed=82)
        config = meta.TrainConfig("sl", alpha=0.2, beta=0.0, batch_n=16, max_iters=30, seed=83,
                                  metrics_every=10)
        [(_, snapshots)] = meta.train_runs(conventional(train, config, [(losses.HyperParams("sl"), None, 0)]))
        start, p, h = snapshots[1]
        monkeypatch.setattr(meta._Batches, "take", recorded)
        meta.train_runs(conventional(train, config, [(losses.HyperParams("sl"), None, 0), (h, p, start)]))
        assert len(rows) == config.max_iters
        for t, X in enumerate(rows, start=1):
            assert len(X) == (2 if t > start else 1)
            if t > start:
                np.testing.assert_array_equal(X[1], X[0])

    @pytest.mark.parametrize("variant", ["sl", "bi_tempered"])
    def test_shared_batch_matches_gathered_copies(self, variant, monkeypatch):
        # runs that all read one stream over one set (the ablation's conventional
        # call) share one gathered batch, as a broadcast view over the stack
        train, _, _ = small_problem(seed=86)
        config = meta.TrainConfig(variant, alpha=0.5, beta=0.0, batch_n=16, max_iters=30, seed=87,
                                  metrics_every=7, momentum=0.9)
        [(_, snapshots)] = meta.train_runs(conventional(train, config, [(losses.HyperParams(variant), None, 0)]))
        other = {"sl": {"gamma1": 0.5, "gamma2": 2.0}, "bi_tempered": {"t1": 0.3, "t2": 1.8}}[variant]
        specs = [(losses.HyperParams(variant, **other), None, 0)] + [(h, p, t) for t, p, h in snapshots[:-1]]
        real_init, real_take, strides = meta._Batches.__init__, meta._Batches.take, set()

        def recorded(self, k):
            X, y = real_take(self, k)
            strides.add((self.shared, X.strides[0], y.strides[0]))
            return X, y

        monkeypatch.setattr(meta._Batches, "take", recorded)
        shared = meta.train_runs(conventional(train, config, specs))
        assert strides == {(True, 0, 0)}

        def gathering(self, *args):
            real_init(self, *args)
            self.shared = False

        monkeypatch.setattr(meta._Batches, "__init__", gathering)
        strides.clear()
        gathered = meta.train_runs(conventional(train, config, specs))
        assert {s for s, _, _ in strides} == {False} and all(sx > 0 and sy > 0 for _, sx, sy in strides)
        for (end, snaps), (want_end, want_snaps) in zip(shared, gathered):
            assert [(t, p.vec.tobytes()) for t, p, _ in snaps] == [(t, p.vec.tobytes()) for t, p, _ in want_snaps]
            assert np.array_equal(end.params.vec, want_end.params.vec)

    @pytest.mark.parametrize("variant", ["gce", "bi_tempered"])
    def test_lone_late_run_matches_its_stacked_run(self, variant):
        train, _, _ = small_problem(seed=84)
        config = meta.TrainConfig(variant, alpha=0.5, beta=0.0, batch_n=16, max_iters=30, seed=85,
                                  metrics_every=7, momentum=0.9)
        [(_, snapshots)] = meta.train_runs(conventional(train, config, [(losses.HyperParams(variant), None, 0)]))
        t, p, h = snapshots[2]  # the snapshot at 14
        specs = [(h, p, t), (losses.HyperParams(variant), None, 0), (h, p, 21)]
        [(lone_end, lone)] = meta.train_runs(conventional(train, config, specs[:1]))
        (end, stacked), *_ = meta.train_runs(conventional(train, config, specs))
        _, want = conventional_run(train, None, config, h, p, t)
        assert [s for s, _, _ in lone] == [s for s, _, _ in stacked] == [t] + [s for s, _ in want]
        for (_, lone_p, _), (_, stacked_p, _), (_, want_p) in zip(lone[1:], stacked[1:], want):
            assert np.array_equal(lone_p.vec, stacked_p.vec) and np.array_equal(lone_p.vec, want_p.vec)
        assert np.array_equal(lone_end.params.vec, end.params.vec)


class TestLockstepAdaptive:
    """A stack of adaptive runs gives each run the bits of its serial run (``serial_reference``)."""

    @pytest.mark.parametrize("variant", ["ce", "gce", "sl", "polysoft", "bi_tempered"])
    def test_matches_serial_runs(self, variant):
        # odd batch sizes put each run's rows of the stack at an odd offset
        config = meta.TrainConfig(variant, alpha=0.5, beta=0.5, batch_n=7, batch_m=5, max_iters=30,
                                  metrics_every=7, momentum=0.9, decay_steps=(12,))
        rng = np.random.default_rng(70)
        runs = [meta.Run(*small_problem(seed=seed)[:2], replace(config, seed=seed, model_seed=model_seed,
                                                                 init_hyper=random_hyper(rng, variant)))
                for seed, model_seed in ((71, None), (72, 5), (73, None))]
        for stack in (runs[:1], runs):
            for run, (state, snapshots) in zip(stack, meta.train_runs(stack)):
                want_state, want_snapshots = adaptive_run(*run[:3])
                assert len(snapshots) == len(want_snapshots)
                for (t, p, h), (want_t, want_p, want_h) in zip(snapshots, want_snapshots):
                    assert (t, h) == (want_t, want_h)
                    np.testing.assert_array_equal(p.vec, want_p.vec)
                np.testing.assert_array_equal(state.params.vec, want_state.params.vec)
                assert state.hyper == want_state.hyper

    def test_one_run_past_the_bound_is_named(self):
        # the kink test of TestPolysoftKink, on the middle run of three
        train, meta_set, test = small_problem(seed=56)
        config = meta.TrainConfig("polysoft", alpha=0.3, beta=0.5, batch_n=16, batch_m=10, max_iters=5)
        first = replace(config, seed=5)
        idx = np.random.default_rng([5, 17, 0]).choice(len(train), size=16, replace=False)
        Z = model.forward_logits(meta._init_params(train, first), train.X[idx])
        ce0 = float(losses.normalize(losses.HyperParams("ce"), Z, train.y[idx]).ce[0])
        lam = float(np.nextafter(ce0, np.inf))
        assert 0.0 < 1.0 - ce0 / lam <= 2.0 * np.finfo(float).eps
        bad = losses.HyperParams("polysoft", lam=lam, d=3.0)
        runs = [meta.Run(train, meta_set, replace(config, seed=3)),
                meta.Run(train, meta_set, replace(first, init_hyper=bad)),
                meta.Run(train, meta_set, replace(config, seed=7))]
        theta = losses.to_unconstrained(bad).tolist()
        with pytest.raises(NumericError, match=rf"iteration 1 \(theta={re.escape(repr(theta))}, run from 0, "
                                               rf"runs\[1\], seed 5, {re.escape(repr(bad))}\): bound .* passed "
                                               rf"by a .* derivative in lam under .* at train row 0 "
                                               rf"\(ce={re.escape(repr(ce0))}\)"):
            meta.train_runs(runs)

    def test_failing_warm_solve_names_its_run(self, monkeypatch):
        # a step's second solve starts from its first solve's roots; a NaN root fails
        # the stacked solve and run 1's own, which is cold-solvable, so the fallback
        # must solve each run from its own rows of the start to name it
        train, meta_set, _ = small_problem(seed=58)
        config = meta.TrainConfig("bi_tempered", alpha=0.3, beta=0.5, batch_n=16, batch_m=10, max_iters=5)
        normalize = losses.normalize

        def poisoned(hyper, Z, labels, start=None):
            batch = normalize(hyper, Z, labels, start)
            if start is None and len(Z) == 3 * 16:  # the stacked first solve
                batch.gamma = batch.gamma.copy()
                batch.gamma[16:32] = np.nan
            return batch

        monkeypatch.setattr(losses, "normalize", poisoned)
        runs = [meta.Run(train, meta_set, replace(config, seed=seed)) for seed in (3, 5, 7)]
        with pytest.raises(NumericError, match=r"iteration 1 \(theta=.*, run from 0, runs\[1\], seed 5, .*\): "
                                               r"tempered softmax Newton solve did not converge"):
            meta.train_runs(runs)


class TestSampleWeights:
    def test_matches_manual(self):
        train, meta_set, test = small_problem(seed=16)
        hyper = losses.HyperParams("polysoft", lam=1.2, d=2.5)
        params = model.init_mlp([2, 16, 3], seed=17)
        got = meta.compute_sample_weights(params, hyper, train)
        Z = model.forward_logits(params, train.X)
        P = losses.softmax(Z)
        for i in range(0, len(train), 37):
            ce_i = -np.log(P[i, train.y[i]])
            assert got[i] == pytest.approx(
                losses.polysoft_weight(float(ce_i), 1.2, 2.5), abs=1e-12
            )
        assert np.all((got >= 0.0) & (got <= 1.0))

    def test_wrong_variant(self):
        train, _, _ = small_problem(seed=18)
        params = model.init_mlp([2, 16, 3], seed=19)
        with pytest.raises(DomainError):
            meta.compute_sample_weights(params, losses.HyperParams("gce"), train)


class TestFlatteningPoint:
    def test_polysoft_curve(self):
        # slope of the lam=1, d=2 curve is 1 - ce, crossing 0.05 at 0.95
        grid = np.linspace(0.0, 3.0, 1201)
        vals = losses.polysoft_of_ce(grid, 1.0, 2.0)[0]
        fp = flattening_point(grid, vals)
        assert fp == pytest.approx(0.95, abs=0.01)

    def test_never_flat(self):
        grid = np.linspace(0.0, 3.0, 100)
        assert flattening_point(grid, grid.copy()) == np.inf


class TestCsvWriters:
    """The row templates write the bytes of the per-value f-string form."""

    SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-300, np.finfo(float).max,
               -np.finfo(float).max, 0.1, 1.0 / 3.0, -2.5, 1e9, 123456789.123, 1.0, 0.0]

    def values(self, n):
        rng = np.random.default_rng(64)
        return np.concatenate([self.SPECIAL, rng.normal(scale=1e3, size=n - len(self.SPECIAL))])

    def test_metrics(self, tmp_path):
        v = self.values(80).reshape(-1, 5)
        rows = [meta.MetricsRow(10 * i, *map(float, r[:3]), (r[3], float(r[4]))) for i, r in enumerate(v)]
        meta.write_metrics_csv(rows, tmp_path / "m.csv")
        want = "iter,train_loss,meta_loss,test_acc,hyper_1,hyper_2\n" + "".join(
            ",".join([str(r.iteration)] + [f"{x:.9g}" for x in (r.train_loss, r.meta_loss, r.test_acc,
                                                                  *r.hyper_values)]) + "\n"
            for r in rows)
        assert (tmp_path / "m.csv").read_text() == want

    def test_weights(self, tmp_path):
        w = self.values(64)
        flip = np.random.default_rng(65).uniform(size=len(w)) < 0.4
        meta.write_weights_csv(w, flip, tmp_path / "w.csv")
        want = "sample_id,is_clean,weight\n" + "".join(
            f"{i},{0 if f else 1},{x:.9g}\n" for i, (x, f) in enumerate(zip(w, flip)))
        assert (tmp_path / "w.csv").read_text() == want

    def test_losscurve(self, tmp_path, monkeypatch):
        header, table = ["x", "zero_one", "ce", "learned"], self.values(80).reshape(-1, 4)
        monkeypatch.setattr(cli, "losscurve_table", lambda *args: (header, table))
        cli.emit_losscurve(losses.HyperParams("gce"), 3, tmp_path / "c.csv")
        want = "x,zero_one,ce,learned\n" + "".join(",".join(f"{v:.9g}" for v in r) + "\n" for r in table)
        assert (tmp_path / "c.csv").read_text() == want
