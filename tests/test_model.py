"""Tests for the MLP: forward, hand-derived backprop, SGD, checkpoints."""

import json

import numpy as np
import pytest

import kernel_reference as ref
from arl import data, losses, model
from arl.errors import ConfigError, NumericError, ShapeError


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / denom


def mean_loss_of_params(params, hyper, X, y):
    Z = model.forward_logits(params, X)
    values, _ = losses.batch_loss(hyper, losses.normalize(hyper, Z, y))
    return values.mean()


def fd_param_grad(params, f, h=1e-6):
    """Central finite differences over every weight and bias entry."""
    flat = params.vec
    g = np.zeros_like(flat)
    for k in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[k] += h
        down[k] -= h
        g[k] = (
            f(model.MlpParams(up, params.sizes, params.activation))
            - f(model.MlpParams(down, params.sizes, params.activation))
        ) / (2 * h)
    return g


class TestInit:
    def test_deterministic(self):
        a = model.init_mlp([2, 16, 3], seed=5)
        b = model.init_mlp([2, 16, 3], seed=5)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_shapes(self):
        p = model.init_mlp([2, 16, 3])
        assert [w.shape for w in p.weights] == [(2, 16), (16, 3)]
        assert [b.shape for b in p.biases] == [(16,), (3,)]

    def test_zero_biases(self):
        p = model.init_mlp([4, 8, 8, 2], seed=1)
        for b in p.biases:
            assert np.all(b == 0.0)

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            model.init_mlp([3])
        with pytest.raises(ConfigError):
            model.init_mlp([3, 2], activation="gelu")

    def test_vector_layout(self):
        # W0, b0, W1, b1, ... with weights row-major: the checkpoint format
        p = model.init_mlp([4, 8, 8, 2], seed=2)
        parts = [a.ravel() for w, b in zip(p.weights, p.biases) for a in (w, b)]
        np.testing.assert_array_equal(p.vec, np.concatenate(parts))
        assert all(np.shares_memory(a, p.vec) for a in p.weights + p.biases)

    def test_read_only(self):
        p = model.init_mlp([2, 4, 3], seed=3)
        for target in (p.vec, p.weights[1], p.biases[0]):
            with pytest.raises(ValueError):
                target[0] = 1.0

    def test_wrong_length(self):
        with pytest.raises(ShapeError):
            model.MlpParams(np.zeros(10), [2, 4, 3], "tanh")


class TestForward:
    def test_zero_params_uniform(self):
        p = model.init_mlp([2, 4, 3], seed=0)
        p = model.MlpParams(np.zeros_like(p.vec), p.sizes, p.activation)
        Z = model.forward_logits(p, np.random.default_rng(0).normal(size=(5, 2)))
        np.testing.assert_array_equal(Z, 0.0)
        np.testing.assert_allclose(losses.softmax(Z), 1.0 / 3.0)

    def test_single_row_matches_batch(self):
        rng = np.random.default_rng(2)
        p = model.init_mlp([3, 7, 4], seed=3)
        X = rng.normal(size=(6, 3))
        Z = model.forward_logits(p, X)
        for i in range(6):
            np.testing.assert_allclose(model.forward_logits(p, X[i:i + 1]), Z[i:i + 1])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        p = model.init_mlp([3, 5, 2], seed=1)
        X = rng.normal(size=(8, 3))
        perm = rng.permutation(8)
        np.testing.assert_allclose(
            model.forward_logits(p, X[perm]), model.forward_logits(p, X)[perm]
        )

    def test_dim_mismatch(self):
        p = model.init_mlp([3, 5, 2])
        with pytest.raises(ShapeError):
            model.forward_logits(p, np.zeros((4, 2)))


class TestBackward:
    def test_zero_upstream(self):
        p = model.init_mlp([2, 6, 3], seed=7)
        g = model.backward(p, model._forward_cached(p, np.ones((4, 2))), np.zeros((4, 3)))
        assert np.all(g == 0)

    def test_matches_fd(self):
        rng = np.random.default_rng(11)
        for activation in ("tanh", "relu"):
            p = model.init_mlp([3, 6, 4], activation=activation, seed=13)
            X = rng.normal(size=(5, 3))
            G = rng.normal(size=(5, 4))
            got = model.backward(p, model._forward_cached(p, X), G)
            want = fd_param_grad(
                p, lambda q: float((model.forward_logits(q, X) * G).sum())
            )
            assert rel_err(got, want) <= 1e-5

    def test_stacking_linearity(self):
        rng = np.random.default_rng(17)
        p = model.init_mlp([2, 5, 3], seed=19)
        x = rng.normal(size=(1, 2))
        g = rng.normal(size=(1, 3))
        single = model.backward(p, model._forward_cached(p, x), g)
        stacked = model.backward(p, model._forward_cached(p, np.vstack([x, x])), np.vstack([g / 2, g / 2]))
        np.testing.assert_allclose(stacked, single, atol=1e-14)

    def test_end_to_end_each_family(self):
        rng = np.random.default_rng(23)
        cases = [
            losses.HyperParams("ce"),
            losses.HyperParams("gce", q=0.4),
            losses.HyperParams("sl", gamma1=1.0, gamma2=0.5),
            losses.HyperParams("bi_tempered", t1=0.4, t2=1.8),
            losses.HyperParams("polysoft", lam=1.2, d=2.5),
        ]
        p = model.init_mlp([2, 6, 3], seed=29)
        X = rng.normal(size=(10, 2)) * 1.5
        y = rng.integers(3, size=10)
        for hyper in cases:
            Z = model.forward_logits(p, X)
            _, G = losses.batch_loss(hyper, losses.normalize(hyper, Z, y))
            got = model.backward(p, model._forward_cached(p, X), G / len(y))
            want = fd_param_grad(p, lambda q: mean_loss_of_params(q, hyper, X, y))
            assert rel_err(got, want) <= 1e-5, hyper.variant

    def test_shape_mismatch(self):
        p = model.init_mlp([2, 6, 3], seed=31)
        cache = model._forward_cached(p, np.ones((4, 2)))
        for G in (np.zeros((5, 3)), np.zeros((4, 2)), np.zeros(12)):
            with pytest.raises(ShapeError):
                model.backward(p, cache, G)


class TestJvp:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("hidden", [(16,), (8, 5)])
    def test_matches_fd_of_forward(self, activation, hidden):
        rng = np.random.default_rng(41)
        p = model.init_mlp([3, *hidden, 4], activation=activation, seed=43)
        X = rng.normal(size=(9, 3))
        direction = rng.normal(size=p.vec.size)
        got = model.jvp(p, model._forward_cached(p, X), direction)
        def logits_at(step):
            moved = model.MlpParams(p.vec + step * direction, p.sizes, p.activation)
            return model.forward_logits(moved, X)

        h = 1e-6
        want = (logits_at(h) - logits_at(-h)) / (2 * h)
        assert got.shape == (9, 4)
        assert rel_err(got, want) <= 1e-7

    def test_adjoint_of_backward(self):
        # sum <G, jvp> == direction . backward, for one network and for each run of a stack
        rng = np.random.default_rng(47)
        shape = model.init_mlp([2, 6, 3], seed=53)
        for lead in ((), (3,)):
            p = model.MlpParams(rng.normal(size=lead + shape.vec.shape), shape.sizes, shape.activation)
            X = rng.normal(size=lead + (5, 2))
            G = rng.normal(size=lead + (5, 3))
            direction = rng.normal(size=p.vec.shape)
            cache = model._forward_cached(p, X)
            tangent = model.jvp(p, cache, direction)
            lhs = (G * tangent).sum(axis=(-2, -1))
            rhs = (direction * model.backward(p, cache, G)).sum(axis=-1)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)
            for r in range(lead[0] if lead else 0):  # a run's slice is its own unstacked jvp
                one = model.MlpParams(p.vec[r], p.sizes, p.activation)
                np.testing.assert_array_equal(
                    tangent[r], model.jvp(one, model._forward_cached(one, X[r]), direction[r]))

    def test_shape_mismatch(self):
        p = model.init_mlp([2, 6, 3], seed=61)
        cache = model._forward_cached(p, np.ones((4, 2)))
        with pytest.raises(ShapeError):
            model.jvp(p, cache, model.init_mlp([2, 5, 3], seed=61).vec)


class TestAgainstReference:
    """The backward pass and the JVP give the bits of their plain forms (``kernel_reference``)."""

    @pytest.mark.parametrize("n", [1, 7, 16])
    @pytest.mark.parametrize("hidden", [(), (16,), (8, 5)], ids=["0", "1", "2"])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("runs", [None, 3], ids=["lone", "stacked"])
    def test_bits(self, runs, activation, hidden, n):
        rng = np.random.default_rng(101)
        sizes = [2, *hidden, 3]
        lead = () if runs is None else (runs,)
        vec = np.stack([model.init_mlp(sizes, activation, seed=s).vec for s in range(runs or 1)])
        p = model.MlpParams(vec.reshape(lead + vec.shape[1:]) + 0.1 * rng.normal(size=lead + vec.shape[1:]),
                            sizes, activation)
        X = rng.normal(size=lead + (n, 2)) * 1.5
        G = rng.normal(size=lead + (n, 3))
        direction = rng.normal(size=p.vec.shape)
        cache = model._forward_cached(p, X)
        for _ in range(2):  # a fresh cache, then one whose activation derivatives are formed
            assert np.array_equal(model.backward(p, cache, G), ref.backward(p, cache, G))
        assert np.array_equal(model.jvp(p, cache, direction), ref.jvp(p, cache, direction))


class TestSgd:
    def test_zero_step(self):
        p = model.init_mlp([2, 4, 2], seed=1)
        q = model.sgd_step(p, p.vec, 0.0)
        for a, b in zip(q.weights, p.weights):
            np.testing.assert_array_equal(a, b)

    def test_full_step_to_zero(self):
        p = model.init_mlp([2, 4, 2], seed=2)
        q = model.sgd_step(p, p.vec, 1.0)
        # biases start at zero, so everything lands at zero
        assert np.all(q.vec == 0)

    def test_two_steps_sum(self):
        p = model.init_mlp([2, 4, 2], seed=3)
        g = model.init_mlp([2, 4, 2], seed=4)
        once = model.sgd_step(model.sgd_step(p, g.vec, 0.1), g.vec, 0.2)
        summed = model.sgd_step(p, g.vec, 0.3)
        for a, b in zip(once.weights, summed.weights):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_nonfinite_grads(self):
        p = model.init_mlp([2, 4, 2], seed=5)
        g = p.vec.copy()
        g[0] = np.nan  # weights[0][0, 0]
        with pytest.raises(NumericError) as info:
            model.sgd_step(p, g, 0.1)
        assert info.value.row == 0

    def test_nonfinite_stack_names_first_network(self):
        p = model.init_mlp([2, 4, 2], seed=6)
        stack = model.MlpParams(np.stack([p.vec] * 4), p.sizes, p.activation)
        g = np.zeros(stack.vec.shape)
        g[3, 0], g[1, -1] = np.inf, np.nan  # the first network with one is network 1
        with pytest.raises(NumericError, match="^non-finite gradient in sgd_step$") as info:
            model.sgd_step(stack, g, 0.1)
        assert info.value.row == 1


class TestStack:
    """An (R, P) stack computes each row as its own unstacked network, bit for bit."""

    @pytest.mark.parametrize("activation, hidden", [("tanh", (16,)), ("relu", (8, 8))])
    def test_rows_match_unstacked(self, activation, hidden):
        rng = np.random.default_rng(71)
        nets = [model.init_mlp([2, *hidden, 3], activation, seed=s) for s in range(4)]
        stack = model.MlpParams(np.stack([p.vec for p in nets]), nets[0].sizes, activation)
        X = rng.normal(size=(4, 16, 2))
        G = rng.normal(size=(4, 16, 3))
        cache = model._forward_cached(stack, X)
        grads = model.backward(stack, cache, G)
        moved = model.sgd_step(stack, grads, 0.3)
        for r, p in enumerate(nets):
            np.testing.assert_array_equal(stack.weights[1][r], p.weights[1])
            np.testing.assert_array_equal(stack.biases[0][r, 0], p.biases[0])
            one = model._forward_cached(p, X[r])
            np.testing.assert_array_equal(cache[0][-1][r], one[0][-1])
            np.testing.assert_array_equal(grads[r], model.backward(p, one, G[r]))
            np.testing.assert_array_equal(moved.vec[r], p.vec - 0.3 * grads[r])

    def test_batch_stack_mismatch(self):
        nets = [model.init_mlp([2, 6, 3], seed=s) for s in range(3)]
        stack = model.MlpParams(np.stack([p.vec for p in nets]), nets[0].sizes, "tanh")
        for X in (np.zeros((2, 5, 2)), np.zeros((5, 2)), np.zeros((3, 5, 4))):
            with pytest.raises(ShapeError):
                model._forward_cached(stack, X)
        with pytest.raises(ShapeError):
            model.MlpParams(np.zeros((2, 3, nets[0].vec.size)), nets[0].sizes, "tanh")


class TestTrainingSanity:
    def test_separable_blobs_reach_99(self):
        blobs = data.gen_blobs(200, 2, d_in=2, spread=0.15, seed=0)
        p = model.init_mlp([2, 16, 2], seed=0)
        hyper = losses.HyperParams("ce")
        rng = np.random.default_rng(0)
        for _ in range(500):
            idx = rng.choice(len(blobs), size=32, replace=False)
            Z = model.forward_logits(p, blobs.X[idx])
            _, G = losses.batch_loss(hyper, losses.normalize(hyper, Z, blobs.y[idx]))
            p = model.sgd_step(p, model.backward(p, model._forward_cached(p, blobs.X[idx]), G / len(idx)), 0.5)
        assert model.accuracy(p, blobs.X, blobs.y) >= 0.99


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        p = model.init_mlp([3, 8, 4], activation="relu", seed=31)
        path = tmp_path / "ckpt.bin"
        model.save_checkpoint(p, path)
        q = model.load_checkpoint(path)
        assert q.sizes == p.sizes and q.activation == "relu"
        for a, b in zip(q.weights + q.biases, p.weights + p.biases):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "sidecar",
        [
            {"sizes": [3, 8, 4], "activation": "gelu"},
            {"sizes": [3, 8.0, 4], "activation": "relu"},
            {"sizes": [100], "activation": "relu"},
            {"activation": "relu"},
            {"sizes": [3, 8, 4]},
        ],
    )
    def test_bad_sidecar(self, tmp_path, sidecar):
        path = tmp_path / "ckpt.bin"
        model.save_checkpoint(model.init_mlp([3, 8, 4], activation="relu", seed=31), path)
        (tmp_path / "ckpt.bin.json").write_text(json.dumps(sidecar))
        with pytest.raises(ConfigError):
            model.load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        model.save_checkpoint(model.init_mlp([3, 8, 4], seed=31), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ShapeError):
            model.load_checkpoint(path)
