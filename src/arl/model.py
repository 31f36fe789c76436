"""Small fully connected classifier with hand-derived backprop.

The architecture is a fixed affine + activation stack, so reverse-mode
gradients are written out directly; no autodiff tape.  All math is in
float64 and every operation is a pure function of its inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

ACTIVATIONS = ("tanh", "relu")


@dataclass
class MlpParams:
    """Per-layer weight matrices and bias vectors."""

    weights: list
    biases: list
    sizes: list
    activation: str

    def copy(self):
        return MlpParams(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            list(self.sizes),
            self.activation,
        )


def init_mlp(sizes, activation="tanh", seed=0):
    """Scaled-uniform weight init (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    sizes = [int(s) for s in sizes]
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ConfigError(f"invalid layer sizes {sizes}")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases, sizes, activation)


def _act(x, kind):
    return np.tanh(x) if kind == "tanh" else np.maximum(x, 0.0)


def _act_grad(pre, post, kind):
    if kind == "tanh":
        return 1.0 - post**2
    return (pre > 0.0).astype(float)


def _forward_cached(params, X):
    """Forward pass of a 2-D batch, kept for ``backward`` and ``jvp``.

    Returns the cache ``(pres, posts)``: per-layer pre-activations and
    layer inputs, with ``posts[0]`` the features and ``pres[-1]`` the logits.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.sizes[0]:
        raise ShapeError(
            f"feature batch of shape {X.shape} != (n, {params.sizes[0]}) model input"
        )
    pres, posts = [], [X]
    h = X
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        pre = h @ w + b
        pres.append(pre)
        if l < last:
            h = _act(pre, params.activation)
            posts.append(h)
    return pres, posts


def forward_logits(params, X):
    """Logits for a batch of feature rows (softmax applied by the loss)."""
    X = np.asarray(X, dtype=float)
    squeeze = X.ndim == 1
    if squeeze:
        X = X[None, :]
    pres, _ = _forward_cached(params, X)
    logits = pres[-1]
    return logits[0] if squeeze else logits


def backward(params, X, grad_logits_batch, cache=None):
    """Exact gradients of sum_i <logits_i, g_i> with respect to the parameters.

    Callers bake any 1/N loss reduction into ``grad_logits_batch``.
    ``cache`` is ``_forward_cached(params, X)`` when the caller already
    has it; otherwise the forward pass is recomputed here.
    """
    X = np.asarray(X, dtype=float)
    G = np.asarray(grad_logits_batch, dtype=float)
    if X.ndim != 2 or G.ndim != 2 or X.shape[0] != G.shape[0]:
        raise ShapeError("X and grad_logits_batch must be matching batches")
    if G.shape[1] != params.sizes[-1]:
        raise ShapeError(
            f"gradient width {G.shape[1]} != model output {params.sizes[-1]}"
        )
    pres, posts = _forward_cached(params, X) if cache is None else cache
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    delta = G
    for l in range(len(params.weights) - 1, -1, -1):
        grads_w[l] = posts[l].T @ delta
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ params.weights[l].T) * _act_grad(
                pres[l - 1], posts[l], params.activation
            )
    return MlpParams(grads_w, grads_b, list(params.sizes), params.activation)


def jvp(params, cache, direction):
    """Logit tangent J_w g: the derivative of the logits along ``direction``.

    Forward mode over the cached forward pass of ``params`` (Pearlmutter's
    R-operator).  Because ``backward`` is linear in its logit gradient,
    sum_i <G_i, jvp_i> == flatten(direction) . flatten(backward(params, X, G)).
    """
    if [w.shape for w in direction.weights] != [w.shape for w in params.weights]:
        raise ShapeError("direction does not match the parameter shapes")
    pres, posts = cache
    dw, db = direction.weights, direction.biases
    tangent = posts[0] @ dw[0] + db[0]  # of pres[0]; the features are fixed
    for l in range(1, len(params.weights)):
        d_post = tangent * _act_grad(pres[l - 1], posts[l], params.activation)
        tangent = d_post @ params.weights[l] + posts[l] @ dw[l] + db[l]
    return tangent


def sgd_step(params, grads, alpha):
    """params - alpha * grads, elementwise."""
    for g in grads.weights + grads.biases:
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite gradient in sgd_step")
    return MlpParams(
        [w - alpha * g for w, g in zip(params.weights, grads.weights)],
        [b - alpha * g for b, g in zip(params.biases, grads.biases)],
        list(params.sizes),
        params.activation,
    )


def axpy(params, scale, other):
    """params + scale * other, used for momentum buffers."""
    return MlpParams(
        [w + scale * o for w, o in zip(params.weights, other.weights)],
        [b + scale * o for b, o in zip(params.biases, other.biases)],
        list(params.sizes),
        params.activation,
    )


def zeros_like(params):
    return MlpParams(
        [np.zeros_like(w) for w in params.weights],
        [np.zeros_like(b) for b in params.biases],
        list(params.sizes),
        params.activation,
    )


def flatten(params):
    """All parameters (or gradients) as one float64 vector, layer by layer."""
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    return np.concatenate(parts)


def unflatten(vector, sizes, activation):
    vector = np.asarray(vector, dtype=float)
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(vector[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(vector[at : at + fan_out].copy())
        at += fan_out
    if at != vector.size:
        raise ShapeError(f"checkpoint has {vector.size} values, expected {at}")
    return MlpParams(weights, biases, list(sizes), activation)


def save_checkpoint(params, path):
    """Flat little-endian float64 array plus a JSON sidecar with the shape."""
    flatten(params).astype("<f8").tofile(path)
    sidecar = {"sizes": list(params.sizes), "activation": params.activation}
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=1)


def load_checkpoint(path):
    with open(str(path) + ".json") as fh:
        sidecar = json.load(fh)
    vector = np.fromfile(path, dtype="<f8")
    return unflatten(vector, sidecar["sizes"], sidecar["activation"])


def predict(params, X):
    return np.argmax(forward_logits(params, X), axis=-1)


def accuracy(params, X, y):
    return float(np.mean(predict(params, X) == np.asarray(y)))
