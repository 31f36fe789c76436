"""Tests for the bilevel loop: virtual step, hypergradient, training."""

import warnings

import numpy as np
import pytest

from arl import data, losses, meta, model
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


class TestVirtualStep:
    def test_alpha_zero_identity(self):
        rng = np.random.default_rng(0)
        p = model.init_mlp([2, 6, 3], seed=1)
        Xn, yn, _, _ = make_batches(rng)
        q = meta.virtual_step(p, losses.HyperParams("gce", q=0.5), Xn, yn, 0.0)
        for a, b in zip(q.vec, p.vec):
            assert a == b

    def test_ce_variant_is_sgd_step(self):
        rng = np.random.default_rng(1)
        p = model.init_mlp([2, 6, 3], seed=2)
        Xn, yn, _, _ = make_batches(rng)
        got = meta.virtual_step(p, losses.HyperParams("ce"), Xn, yn, 0.2)
        _, grads = meta.train_grad(p, losses.HyperParams("ce"), Xn, yn)
        want = model.sgd_step(p, grads, 0.2)
        np.testing.assert_array_equal(got.vec, want.vec)

    def test_step_norm_identity(self):
        rng = np.random.default_rng(2)
        p = model.init_mlp([2, 6, 3], seed=3)
        Xn, yn, _, _ = make_batches(rng)
        hyper = losses.HyperParams("gce", q=0.5)
        _, grads = meta.train_grad(p, hyper, Xn, yn)
        moved = meta.virtual_step(p, hyper, Xn, yn, 0.3)
        assert np.linalg.norm(moved.vec - p.vec) == pytest.approx(0.3 * np.linalg.norm(grads))

    def test_original_untouched(self):
        rng = np.random.default_rng(3)
        p = model.init_mlp([2, 6, 3], seed=4)
        before = p.vec.copy()
        Xn, yn, _, _ = make_batches(rng)
        meta.virtual_step(p, losses.HyperParams("ce"), Xn, yn, 0.5)
        np.testing.assert_array_equal(p.vec, before)


class TestHypergradient:
    def test_alpha_zero_exactly_zero(self):
        rng = np.random.default_rng(4)
        for variant in ("gce", "sl", "bi_tempered", "polysoft"):
            hyper = random_hyper(rng, variant)
            theta = losses.to_unconstrained(hyper)
            p = model.init_mlp([2, 6, 3], seed=5)
            Xn, yn, Xm, ym = make_batches(rng)
            hg = meta.hypergradient(p, hyper, theta, Xn, yn, Xm, ym, alpha=0.0)
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
            got = meta.hypergradient(p, hyper, theta, Xn, yn, Xm, ym, alpha)

            w_tilde = meta.virtual_step(p, hyper, Xn, yn, alpha)
            _, g = meta.meta_ce_grad(w_tilde, Xm, ym)
            _, g_ce = meta.train_grad(p, losses.HyperParams("sl", gamma1=1.0, gamma2=0.0), Xn, yn)
            _, g_rce = meta.train_grad(p, losses.HyperParams("sl", gamma1=0.0, gamma2=1.0), Xn, yn)
            scale = losses.reparam_scale("sl", theta)
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
        # uses internally
        rng = np.random.default_rng(6)
        for variant in ("gce", "sl", "bi_tempered", "polysoft"):
            for trial in range(20):
                hyper = random_hyper(rng, variant)
                p = model.init_mlp([2, 6, 3], seed=100 + trial)
                Xn, yn, Xm, ym = make_batches(rng)
                if variant == "polysoft":
                    # the mixed partial has a kink where a sample's CE hits
                    # lam; keep the state away from it so both difference
                    # quotients estimate the same (existing) derivative
                    Z = model.forward_logits(p, Xn)
                    ce_vals, _ = losses.batch_loss(losses.HyperParams("ce"), Z, yn)
                    while np.min(np.abs(ce_vals - hyper.lam)) < 0.02:
                        hyper = losses.HyperParams(
                            "polysoft", lam=hyper.lam * 1.07, d=hyper.d
                        )
                theta = losses.to_unconstrained(hyper)
                alpha = 0.3
                got = meta.hypergradient(p, hyper, theta, Xn, yn, Xm, ym, alpha)

                def pipeline(th):
                    h = losses.from_unconstrained(th, hyper)
                    w = meta.virtual_step(p, h, Xn, yn, alpha)
                    value, _ = meta.meta_ce_grad(w, Xm, ym)
                    return value

                fd = np.zeros_like(theta)
                h_step = 1e-4
                for k in range(theta.size):
                    e = np.zeros_like(theta)
                    e[k] = h_step
                    fd[k] = (pipeline(theta + e) - pipeline(theta - e)) / (2 * h_step)
                assert rel_err(got, fd) <= 1e-3, (variant, trial)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("variant", ["gce", "sl", "bi_tempered", "polysoft"])
    def test_matches_full_gradient_probes(self, variant, activation):
        # reference: the mixed partial of each field is the full train
        # gradient backward(dG/dh_k / n), dotted with the flattened meta
        # gradient; the JVP route must agree to rounding
        def reference(p, hyper, theta, Xn, yn, Xm, ym, alpha):
            w_tilde = meta.virtual_step(p, hyper, Xn, yn, alpha)
            _, g = meta.meta_ce_grad(w_tilde, Xm, ym)
            _, _, _, dG = losses.batch_hgrad(hyper, model.forward_logits(p, Xn), yn)
            scale = losses.reparam_scale(hyper.variant, theta)
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
            got = meta.hypergradient(p, hyper, theta, Xn, yn, Xm, ym, 0.7)
            want = reference(p, hyper, theta, Xn, yn, Xm, ym, 0.7)
            assert rel_err(got, want) <= 1e-9, (variant, activation, trial)

    def test_nonfinite_derivative_names_field(self, monkeypatch):
        rng = np.random.default_rng(9)
        hyper = losses.HyperParams("sl", gamma1=0.8, gamma2=1.2)
        p = model.init_mlp([2, 6, 3], seed=7)
        Xn, yn, Xm, ym = make_batches(rng)
        real = losses.batch_hgrad

        def poisoned(h, Z, labels):
            values, grads, dvalues, dgrads = real(h, Z, labels)
            dgrads[1, 0, 0] = np.nan
            return values, grads, dvalues, dgrads

        monkeypatch.setattr(losses, "batch_hgrad", poisoned)
        with pytest.raises(NumericError, match=r"in gamma2 under .*gamma1=.*gamma2="):
            meta.hypergradient(p, hyper, losses.to_unconstrained(hyper), Xn, yn, Xm, ym, 0.3)


class TestMetaUpdate:
    def test_zero_hypergrad(self):
        theta = np.array([0.3, -0.7])
        np.testing.assert_array_equal(meta.meta_update(theta, np.zeros(2), 0.5), theta)

    def test_zero_beta(self):
        theta = np.array([0.3, -0.7])
        np.testing.assert_array_equal(meta.meta_update(theta, np.ones(2), 0.0), theta)

    def test_result_always_feasible(self):
        rng = np.random.default_rng(7)
        hyper = losses.HyperParams("polysoft", lam=1.1, d=3.0)
        theta = losses.to_unconstrained(hyper)
        for _ in range(100):
            theta = meta.meta_update(theta, rng.normal(size=2) * 5.0, 0.5)
            losses.from_unconstrained(theta, hyper).validate()

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            meta.meta_update(np.zeros(2), np.array([np.nan, 0.0]), 0.1)


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
        state2, rows2 = meta.conventional_train(train, test, config, hyper, meta_set=meta_set)
        np.testing.assert_array_equal(state.params.vec, state2.params.vec)
        assert rows[0] == rows2[0]

    def test_ce_variant_matches_plain_training(self):
        train, meta_set, test = small_problem(seed=4)
        config = meta.TrainConfig("ce", alpha=0.3, beta=0.5, batch_n=32,
                                  batch_m=10, max_iters=60, seed=5)
        state, rows = meta.arl_train(train, meta_set, test, config)
        state2, rows2 = meta.conventional_train(
            train, test, config, losses.HyperParams("ce"), meta_set=meta_set
        )
        np.testing.assert_array_equal(state.params.vec, state2.params.vec)
        assert rows == rows2

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
            state, rows = meta.arl_train(train, meta_set, test, config)
            names = losses.LEARNABLE[variant]
            for row in rows:
                snap = losses.HyperParams(variant, **dict(zip(names, row.hyper_values)))
                snap.validate()
            assert state.iteration == 60

    def test_metrics_cadence(self):
        train, meta_set, test = small_problem(seed=10)
        config = meta.TrainConfig("gce", alpha=0.2, beta=0.5, batch_n=32,
                                  batch_m=10, max_iters=120, seed=11, metrics_every=50)
        _, rows = meta.arl_train(train, meta_set, test, config)
        assert [r.iteration for r in rows] == [50, 100, 120]

    def test_fixed_run_at_boundary_never_reparameterizes(self):
        # q = 1.0 is a valid gce value but the boundary of its logit coordinate
        train, meta_set, test = small_problem(seed=34)
        config = meta.TrainConfig("gce", alpha=0.2, batch_n=32, batch_m=10, max_iters=5, seed=35)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state, _ = meta.conventional_train(train, test, config, losses.HyperParams("gce", q=1.0))
        assert state.hyper.q == 1.0

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

    def test_snapshot_hook_called_at_cadence(self):
        train, meta_set, test = small_problem(seed=14)
        config = meta.TrainConfig("gce", alpha=0.2, beta=0.5, batch_n=32,
                                  batch_m=10, max_iters=100, seed=15, metrics_every=50)
        seen = []
        meta.arl_train(train, meta_set, test, config,
                       snapshot_hook=lambda t, p, h: seen.append(t))
        assert seen == [0, 50, 100]

    def test_snapshots_shared_read_only(self):
        # snapshots share the loop's buffers, uncopied; neither the run
        # going on nor a continuation from a snapshot may change them
        train, meta_set, test = small_problem(seed=14)
        config = meta.TrainConfig("gce", alpha=0.2, beta=0.5, batch_n=32,
                                  batch_m=10, max_iters=100, seed=15, metrics_every=50)
        seen = []
        meta.arl_train(train, meta_set, test, config,
                       snapshot_hook=lambda t, p, h: seen.append((t, p, h, p.vec.copy())))
        t, p, h, _ = seen[1]
        meta.conventional_train(train, test, config, h, init_params=p, start_iter=t, num_iters=20)
        for _, p, _, at_hook in seen:
            np.testing.assert_array_equal(p.vec, at_hook)
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

    def test_conventional_train_one_per_step(self, monkeypatch):
        train, meta_set, test = small_problem(seed=28)
        counts = self.count_forwards(monkeypatch)
        config = meta.TrainConfig("sl", alpha=0.2, beta=0.5, batch_n=32,
                                  batch_m=10, max_iters=12, seed=29, metrics_every=5)
        hyper = losses.HyperParams("sl", gamma1=0.5, gamma2=1.0)
        _, rows = meta.conventional_train(train, test, config, hyper, meta_set=meta_set)
        assert counts["steps"] == 12
        assert counts["metrics"] == 3 * len(rows)


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
            _, grads = meta.train_grad(q, hyper, train.X[idx], train.y[idx])
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
        moved = []
        prev = {"w": None}

        def hook(t, params, hyper):
            flat = params.vec
            if prev["w"] is not None:
                moved.append((t, np.linalg.norm(flat - prev["w"])))
            prev["w"] = flat

        meta.arl_train(train, meta_set, test, config, snapshot_hook=hook)
        before = np.mean([d for t, d in moved if t <= 30])
        after = np.mean([d for t, d in moved if t > 30])
        assert after < 0.3 * before

    def test_nonfinite_derivative_names_iteration_and_theta(self, monkeypatch):
        train, meta_set, test = small_problem(seed=30)
        config = meta.TrainConfig("gce", alpha=0.2, beta=0.5, batch_n=32,
                                  batch_m=10, max_iters=10, seed=31)
        real, calls = losses.batch_hgrad, [0]

        def poisoned(h, Z, labels):
            out = real(h, Z, labels)
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
            return np.array([0.0, 1e3]) if calls[0] == 3 else real(*args)

        monkeypatch.setattr(meta, "hypergradient", huge_at_third)
        with pytest.raises(NumericError, match=r"iteration 3 \(theta=\[.*\], .*\): d=1\.0 outside"):
            meta.arl_train(train, meta_set, test, config)

    def test_divergence_aborts_with_iteration(self):
        train, meta_set, test = small_problem(seed=24)
        config = meta.TrainConfig("ce", alpha=1e200, beta=0.0, batch_n=32,
                                  batch_m=10, max_iters=60, seed=25, activation="relu")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="iteration"):
                meta.arl_train(train, meta_set, test, config)


class TestConventionalRuns:
    """The lockstep runs give the bits of their serial ``conventional_train``."""

    GRIDS = {
        "gce": [{"q": q} for q in (0.2, 0.5, 0.9)],
        "sl": [{"gamma1": g1, "gamma2": g2} for g1 in (0.1, 10.0) for g2 in (0.1, 1.0)],
        "polysoft": [{"lam": lam, "d": d} for lam in (1.0, 2.0) for d in (2.0, 3.0)],
        "bi_tempered": [{"t1": 0.2, "t2": 1.2}, {"t1": 0.8, "t2": 2.0}],
        "ce": [],
    }

    @staticmethod
    def serial(train, test, config, hyper, init_params, start):
        state, rows = meta.conventional_train(
            train, test, config, hyper, init_params=init_params, start_iter=start,
            num_iters=config.max_iters - start,
        )
        return state.params, [(r.iteration, r.test_acc) for r in rows]

    @pytest.mark.parametrize("knobs", [
        {},
        {"momentum": 0.9, "decay_steps": (12,), "hidden": (8, 8), "activation": "relu"},
    ], ids=["plain", "momentum-decay-relu"])
    @pytest.mark.parametrize("variant", ["ce", "gce", "sl", "polysoft", "bi_tempered"])
    def test_matches_serial_runs(self, variant, knobs):
        train, meta_set, test = small_problem(seed=40)
        config = meta.TrainConfig(variant, alpha=0.5, beta=0.5, batch_n=16, batch_m=10,
                                  max_iters=30, seed=41, metrics_every=7, **knobs)
        snapshots = []
        state, _ = meta.arl_train(train, meta_set, test, config,
                                  snapshot_hook=lambda t, p, h: snapshots.append((t, p, h)))
        # a grid and an opt1 run from 0, and a staircase of continuations
        # with two runs at one start and one that starts at the end
        runs = [(losses.HyperParams(variant, **fields), None, 0) for fields in self.GRIDS[variant]]
        runs.append((state.hyper, None, 0))
        runs += [(h, p, t) for t, p, h in snapshots] + [(snapshots[1][2], snapshots[1][1], 7)]
        got = meta.conventional_runs(train, test, config, runs)
        assert len(got) == len(runs)
        for (hyper, init, start), (params, curve) in zip(runs, got):
            want_params, want_curve = self.serial(train, test, config, hyper, init, start)
            np.testing.assert_array_equal(params.vec, want_params.vec)
            assert curve == want_curve

    def test_nonfinite_loss_names_run_and_iteration(self, monkeypatch):
        train, _, test = small_problem(seed=42)
        config = meta.TrainConfig("sl", alpha=0.2, batch_n=16, max_iters=10, seed=43)
        bad = losses.HyperParams("sl", gamma1=10.0, gamma2=0.1)
        real, calls = losses.batch_loss, [0]

        def poisoned(h, Z, labels):
            values, G = real(h, Z, labels)
            if h == bad:
                calls[0] += 1
                if calls[0] == 4:  # one call per iteration
                    values = values.copy()
                    values[2] = np.nan
            return values, G

        monkeypatch.setattr(losses, "batch_loss", poisoned)
        runs = [(losses.HyperParams("sl"), None, 0), (bad, None, 0), (losses.HyperParams("sl"), None, 2)]
        with pytest.raises(NumericError, match=r"iteration 4 \(run from 0, .*gamma1=10\.0, "
                                               r"gamma2=0\.1.*\): non-finite training loss"):
            meta.conventional_runs(train, test, config, runs)

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
        runs = [(losses.HyperParams("gce", q=q), None, start) for q, start in ((0.3, 0), (0.5, 0), (0.7, 5))]
        with pytest.raises(NumericError, match=r"iteration 6 \(run from 5, .*q=0\.7.*non-finite gradient"):
            meta.conventional_runs(train, test, config, runs)

    def test_checks_shared_with_serial_loop(self):
        train, _, test = small_problem(seed=46)
        config = meta.TrainConfig("gce", batch_n=10_000, max_iters=5)
        with pytest.raises(ConfigError, match="batch_n=10000 exceeds"):
            meta.conventional_runs(train, test, config, [(losses.HyperParams("gce"), None, 0)])


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
        fp = meta.flattening_point(grid, vals)
        assert fp == pytest.approx(0.95, abs=0.01)

    def test_never_flat(self):
        grid = np.linspace(0.0, 3.0, 100)
        assert meta.flattening_point(grid, grid.copy()) == np.inf
