"""Acceptance criteria, one test per criterion.

Every test prints a single pass/fail line (run with ``pytest -s``) and
enforces its runtime budget.  Heavy training runs share fixed seeds, so
each criterion is a deterministic function of the code.
"""

import math
import time
from dataclasses import replace

import kernel_reference as ref
import numpy as np
import pytest
from serial_reference import row_fields

from arl import cli, config as config_mod, data, losses, meta, model, theory

LN3 = math.log(3.0)

# desk-scale experiment: 3000/30/1000 blob split, 40% symmetric noise,
# [2,16,3] tanh classifier, constant steps, 3000 iterations
DESK = dict(alpha=2.0, beta=0.5, batch_n=16, batch_m=30, iters=3000, spread=0.5)
SEEDS = range(5)


def _report(name, t0, detail=""):
    print(f"\nACCEPTANCE {name}: PASS ({time.time() - t0:.1f}s){' - ' + detail if detail else ''}")


def rel_err(a, b):
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2 * h)
    return g


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


def desk_split(seed, eta):
    clean = data.gen_blobs(4030, 3, spread=DESK["spread"], seed=seed)
    split = data.split_meta(clean, 30, 1000, seed=seed + 1000)
    train = data.inject_symmetric(split.train, eta, seed=seed + 2000) if eta > 0 else split.train
    return train, split.meta, split.test


def desk_config(variant, seed, init_hyper=None, beta=None):
    return meta.TrainConfig(
        variant,
        alpha=DESK["alpha"],
        beta=DESK["beta"] if beta is None else beta,
        batch_n=DESK["batch_n"],
        batch_m=DESK["batch_m"],
        max_iters=DESK["iters"],
        seed=seed,
        init_hyper=init_hyper,
    )


POLY_INIT = losses.HyperParams("polysoft", lam=3.0 * LN3, d=3.0)


@pytest.fixture(scope="module")
def desk_runs():
    """Shared desk-scale runs at eta = 0.4 for criteria 5 and 7: one lockstep call per variant."""
    splits = [desk_split(seed, 0.4) for seed in SEEDS]
    runs = {}
    for variant, init, beta in (
        ("ce", None, 0.0),
        ("gce", None, None),
        ("polysoft", POLY_INIT, None),
    ):
        trained = meta.train_runs([meta.Run(train, meta_set, desk_config(variant, seed, init, beta))
                                   for seed, (train, meta_set, _) in zip(SEEDS, splits)])
        runs[variant] = [(model.accuracy(state.params, test.X, test.y), state, train)
                         for (state, _), (train, _, test) in zip(trained, splits)]
    return runs


class TestAcceptance:
    def test_1_gradient_suite(self):
        t0 = time.time()
        rng = np.random.default_rng(101)
        cases = {
            "ce": lambda: losses.HyperParams("ce"),
            "gce": lambda: losses.HyperParams("gce", q=float(rng.uniform(0.1, 0.95))),
            "sl": lambda: losses.HyperParams(
                "sl", gamma1=float(rng.uniform(0.6, 3.0)), gamma2=float(rng.uniform(0.6, 3.0))
            ),
            "bi_tempered": lambda: losses.HyperParams(
                "bi_tempered", t1=float(rng.uniform(0.1, 0.8)), t2=float(rng.uniform(1.2, 2.5))
            ),
            "polysoft": lambda: losses.HyperParams(
                "polysoft", lam=float(rng.uniform(0.8, 2.5)), d=float(rng.uniform(1.5, 4.0))
            ),
        }
        for variant, draw in cases.items():
            for _ in range(100):
                hyper = draw()
                c = int(rng.integers(3, 8))
                z = rng.normal(size=c) * 2.0
                label = int(rng.integers(c))
                ev = losses.loss_on_logits(hyper, z, label)
                fd = fd_grad(lambda zz: losses.loss_on_logits(hyper, zz, label).value, z)
                assert rel_err(ev.grad_logits, fd) <= 1e-5, variant

                # the value at other hyperparameters, on this sample's softmax row
                p = losses.softmax(z)[None, :]
                value_at = lambda **f: losses.loss_values(replace(hyper, **f), p, label)[0]  # noqa: E731
                if variant == "gce":
                    fd_h = fd_grad(lambda v: value_at(q=v[0]), np.array([hyper.q]))
                    assert rel_err(ev.grad_hyper, fd_h) <= 1e-5
                elif variant == "polysoft":
                    base = losses.loss_values(losses.HyperParams("ce"), p, label)[0]
                    fd_h = fd_grad(
                        lambda v: losses.polysoft_of_ce(base, v[0], v[1])[0],
                        np.array([hyper.lam, hyper.d]),
                    )
                    assert rel_err(ev.grad_hyper, fd_h) <= 1e-5
                elif variant == "bi_tempered":
                    h = 3e-5
                    on_z = lambda **f: losses.loss_on_logits(replace(hyper, **f), z, label).value  # noqa: E731
                    fd_h = np.array(
                        [
                            (on_z(t1=hyper.t1 + h) - on_z(t1=hyper.t1 - h)) / (2 * h),
                            (on_z(t2=hyper.t2 + h) - on_z(t2=hyper.t2 - h)) / (2 * h),
                        ]
                    )
                    assert rel_err(ev.grad_hyper, fd_h) <= 1e-5
                elif variant == "sl":
                    # linear in the gammas: a wide central step is exact
                    step = 0.5
                    for k, (lo, hi) in enumerate(
                        (
                            (value_at(gamma1=hyper.gamma1 - step),
                             value_at(gamma1=hyper.gamma1 + step)),
                            (value_at(gamma2=hyper.gamma2 - step),
                             value_at(gamma2=hyper.gamma2 + step)),
                        )
                    ):
                        fd_k = (hi - lo) / (2 * step)
                        assert abs(ev.grad_hyper[k] - fd_k) <= 1e-12
        elapsed = time.time() - t0
        assert elapsed < 30.0
        _report("1 gradient suite", t0, "5 families x 100 draws, rel err <= 1e-5")

    def test_2_tempered_math_suite(self):
        t0 = time.time()
        rng = np.random.default_rng(202)
        Z = rng.normal(size=(10_000, 6)) * rng.uniform(0.5, 5.0, size=(10_000, 1))
        t2s = rng.uniform(1.05, 3.0, size=10)
        for t2 in t2s:
            P, _ = losses._tempered_softmax_batch(Z[:1000], float(t2))
            assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-10
        P, _ = losses._tempered_softmax_batch(Z, 2.0)
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-10

        for _ in range(100):
            z = rng.normal(size=8) * 2.0
            P, _ = losses._tempered_softmax_batch(z[None, :], 1.0 + 1e-8)
            assert np.max(np.abs(P[0] - losses.softmax(z))) <= 1e-6

        for t in list(np.linspace(0.0, 0.9, 8)) + list(np.linspace(1.1, 3.0, 8)):
            x = np.geomspace(1e-4, 1.0, 50)
            back = losses._exp_t_neg_args(losses._log_t_of_log(np.log(x), t), 1.0 - t)
            assert np.max(np.abs(back - x)) <= 1e-10
        elapsed = time.time() - t0
        assert elapsed < 10.0
        _report("2 tempered math suite", t0, "norm<=1e-10, softmax limit<=1e-6, roundtrip<=1e-10")

    def test_3_hypergradient_suite(self):
        t0 = time.time()
        rng = np.random.default_rng(303)
        for variant in ("gce", "sl", "bi_tempered", "polysoft"):
            for trial in range(20):
                if variant == "gce":
                    hyper = losses.HyperParams("gce", q=float(rng.uniform(0.15, 0.9)))
                elif variant == "sl":
                    hyper = losses.HyperParams(
                        "sl", gamma1=float(rng.uniform(0.3, 2.0)), gamma2=float(rng.uniform(0.3, 2.0))
                    )
                elif variant == "bi_tempered":
                    hyper = losses.HyperParams(
                        "bi_tempered", t1=float(rng.uniform(0.15, 0.8)), t2=float(rng.uniform(1.2, 2.2))
                    )
                else:
                    hyper = losses.HyperParams(
                        "polysoft", lam=float(rng.uniform(0.9, 2.2)), d=float(rng.uniform(1.8, 4.0))
                    )
                params = model.init_mlp([2, 6, 3], seed=300 + trial)
                Xn = rng.normal(size=(40, 2)) * 1.5
                yn = rng.integers(3, size=40)
                Xm = rng.normal(size=(12, 2)) * 1.5
                ym = rng.integers(3, size=12)
                if variant == "polysoft":
                    Z = model.forward_logits(params, Xn)
                    ce_vals = losses.normalize(losses.HyperParams("ce"), Z, yn).ce
                    while np.min(np.abs(ce_vals - hyper.lam)) < 0.02:
                        hyper = losses.HyperParams("polysoft", lam=hyper.lam * 1.07, d=hyper.d)
                theta = losses.to_unconstrained(hyper)
                alpha = 0.3

                cache = model._forward_cached(params, Xn)
                # the run's hypergradient, as an R = 1 stack
                stack = model.MlpParams(params.vec[None], params.sizes, params.activation)
                stack_cache = model._forward_cached(stack, Xn[None])
                inputs = (stack, row_fields([hyper], len(yn)), theta[None], stack_cache,
                          losses.normalize(hyper, stack_cache[0][-1][0], yn), Xm[None], ym[None])
                assert np.all(meta.hypergradient(*inputs, 0.0) == 0.0)
                [got] = meta.hypergradient(*inputs, alpha)

                def pipeline(th):
                    # the meta cross entropy after the virtual step at th
                    h = ref.from_unconstrained(th, hyper)
                    h_batch = losses.normalize(h, cache[0][-1], yn)
                    grads = meta._backward_mean(params, *losses.batch_loss(h, h_batch), cache)
                    w = model.sgd_step(params, grads, alpha)
                    ce = losses.HyperParams("ce")
                    return losses.loss_values(ce, losses.softmax(model.forward_logits(w, Xm)), ym).mean()

                fd = np.zeros_like(theta)
                for k in range(theta.size):
                    e = np.zeros_like(theta)
                    e[k] = 1e-4
                    fd[k] = (pipeline(theta + e) - pipeline(theta - e)) / 2e-4
                assert rel_err(got, fd) <= 1e-3, (variant, trial)
        elapsed = time.time() - t0
        assert elapsed < 60.0
        _report("3 hypergradient suite", t0, "pipeline-FD rel err <= 1e-3; alpha=0 exact")

    def test_4_theorem_verification(self):
        t0 = time.time()
        labels = [0, 1, 2, 0]
        scan = lambda hyper: theory.grid_scan(3, 0.02, hyper)  # the world's c, delta and loss

        # soft-weighting sandwich plus the noise-tolerant equality point
        s_poly = scan(losses.HyperParams("polysoft", lam=2.0 * LN3, d=2.0))
        for eta in (0.1, 0.3, 0.6):
            report = theory.riskgap_verify(s_poly, labels, eta)
            assert report.noisy_sandwich_ok and report.clean_sandwich_ok, eta

        s_tol = scan(losses.HyperParams("polysoft", lam=LN3, d=2.0))
        for eta in (0.1, 0.3, 0.6):
            report = theory.riskgap_verify(s_tol, labels, eta)
            assert abs(report.noisy_risk_star - report.noisy_risk_hat) <= report.grid_tol

        s_bt = scan(losses.HyperParams("bi_tempered", t1=0.5, t2=2.0))
        for eta in (0.1, 0.3, 0.6):
            report = theory.riskgap_verify(s_bt, labels, eta)
            assert report.noisy_sandwich_ok and report.clean_sandwich_ok, eta
        elapsed = time.time() - t0
        assert elapsed < 60.0
        _report("4 theorem verification", t0, "both sandwiches hold; equality case within grid tol")

    def test_5_desk_scale_improvement(self, desk_runs):
        t0 = time.time()
        ce_mean = float(np.mean([acc for acc, _, _ in desk_runs["ce"]]))
        gce_mean = float(np.mean([acc for acc, _, _ in desk_runs["gce"]]))
        poly_mean = float(np.mean([acc for acc, _, _ in desk_runs["polysoft"]]))
        assert gce_mean >= ce_mean + 0.05
        assert poly_mean >= ce_mean + 0.05
        _report(
            "5 desk-scale improvement", t0,
            f"CE={ce_mean:.3f} A-GCE={gce_mean:.3f} A-PolySoft={poly_mean:.3f} (5 seeds)",
        )

    def test_6_flattening_monotone_in_noise(self):
        t0 = time.time()
        grid = np.linspace(0.0, 6.0 * LN3, 600)
        runs = []
        for eta in (0.2, 0.4, 0.6):
            for seed in SEEDS:
                # same blobs per seed across noise rates; only the label
                # corruption draw changes with eta
                clean = data.gen_blobs(4030, 3, spread=DESK["spread"], seed=100 + seed)
                split = data.split_meta(clean, 30, 1000, seed=200 + seed)
                train = data.inject_symmetric(split.train, eta, seed=seed + int(1000 * eta))
                runs.append(meta.Run(train, split.meta, desk_config("polysoft", seed, POLY_INIT)))
        points = [flattening_point(grid, losses.polysoft_of_ce(grid, state.hyper.lam, state.hyper.d)[0])
                  for state, _ in meta.train_runs(runs)]  # all 15 runs in one lockstep call
        per_eta = [points[i:i + len(SEEDS)] for i in range(0, len(points), len(SEEDS))]
        means = [float(np.mean(p)) for p in per_eta]
        # the per-seed points show which runs a change of training bits moved
        detail = "; ".join(f"eta {eta}: " + ", ".join(f"{p:.3f}" for p in pts) + f" (mean {m:.3f})"
                           for eta, pts, m in zip((0.2, 0.4, 0.6), per_eta, means))
        assert means[0] >= means[1] >= means[2], detail
        elapsed = time.time() - t0
        assert elapsed < 600.0
        _report("6 flattening point nonincreasing", t0, detail)

    def test_7_weight_separation(self, desk_runs):
        t0 = time.time()
        ratios = []
        for _, state, train in desk_runs["polysoft"]:
            w = meta.compute_sample_weights(state.params, state.hyper, train)
            clean_mean = float(w[~train.flip_mask].mean())
            noisy_mean = float(w[train.flip_mask].mean())
            assert clean_mean >= 2.0 * noisy_mean
            ratios.append(clean_mean / max(noisy_mean, 1e-12))
        _report(
            "7 weight separation", t0,
            f"clean/noisy weight ratios per seed: {', '.join(f'{r:.1f}' for r in ratios)}",
        )

    def test_8_ablation_ordering(self, tmp_path):
        t0 = time.time()
        doc = {
            "dataset": {"n": 4030, "classes": 3, "dim": 2, "spread": DESK["spread"]},
            "noise": {"type": "symmetric", "eta": 0.4},
            "split": {"meta_size": 30, "test_fraction": 1000},
            "loss": {"variant": "sl"},
            "train": {
                "alpha": DESK["alpha"], "beta": DESK["beta"],
                "batch_n": DESK["batch_n"], "batch_m": DESK["batch_m"],
                "iters": DESK["iters"],
            },
        }
        finals = {m: [] for m in ("fixed", "opt1", "opt2", "adaptive")}
        for seed in SEEDS:
            exp = config_mod.parse_config(dict(doc), seed_override=seed)
            payload = cli.run_ablation(
                exp, ["fixed", "opt1", "opt2", "adaptive"], tmp_path / f"abl{seed}"
            )
            for mode in finals:
                finals[mode].append(payload["modes"][mode]["final_acc"])
        means = {m: float(np.mean(v)) for m, v in finals.items()}
        assert means["adaptive"] >= means["opt2"] - 0.01, means
        assert means["opt1"] <= means["fixed"] + 0.01, means
        elapsed = time.time() - t0
        assert elapsed < 900.0
        _report(
            "8 ablation ordering", t0,
            " ".join(f"{m}={means[m]:.3f}" for m in ("fixed", "opt1", "opt2", "adaptive")),
        )

    def test_9_determinism(self, tmp_path):
        t0 = time.time()
        train, meta_set, test = desk_split(0, 0.4)
        config = meta.TrainConfig("gce", alpha=0.5, beta=0.5, batch_n=32,
                                  batch_m=30, max_iters=200, seed=0)
        paths = []
        for tag in ("a", "b"):
            state, rows = meta.arl_train(train, meta_set, test, config)
            path = tmp_path / f"{tag}.csv"
            meta.write_metrics_csv(rows, path)
            model.save_checkpoint(state.params, tmp_path / f"{tag}.bin")
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        _report("9 determinism", t0, "metrics and checkpoint byte-identical across reruns")
