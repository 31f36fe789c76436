"""Small fully connected classifier with hand-derived backprop.

The architecture is a fixed affine + activation stack, so reverse-mode
gradients are written out directly; no autodiff tape.  A parameter set
is an ``MlpParams``: one read-only float64 vector laid out layer by layer
(W0, b0, W1, b1, ...), which is also the checkpoint format, with
per-layer views.  A gradient or a direction is a plain vector in the same
layout.  R networks of one shape can train as one stack: an (R, P)
``MlpParams`` holds one such vector per row, and the forward pass, the
backward pass, the JVP and the SGD step take (R, n, .) batches and
(R, P) vectors, each run's slice computed as its own unstacked pass would.
All math is in float64 and every operation is a pure function of its
inputs.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

ACTIVATIONS = ("tanh", "relu")


@functools.lru_cache(maxsize=16, typed=True)
def _layout(activation, *sizes):
    """Per-layer (weight slice, weight shape, bias slice) of the flat vector, and its length.

    The one check of ``sizes`` and ``activation``; cached, so a step that
    builds parameters of a known shape repeats none of it.  The sizes are
    separate arguments so that the typed cache keeps a float 8.0 from a
    checkpoint sidecar apart from the int 8 it equals.
    """
    if len(sizes) < 2 or any(type(s) is not int or s < 1 for s in sizes):
        raise ConfigError(f"invalid layer sizes {list(sizes)}")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}")
    layers, at = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        end = at + fan_in * fan_out
        layers.append((slice(at, end), (fan_in, fan_out), slice(end, end + fan_out)))
        at = end + fan_out
    return tuple(layers), at


class MlpParams:
    """One read-only parameter vector, or a stack of them, with per-layer views.

    ``vec`` holds W0, b0, W1, b1, ... (weights row-major); ``weights[l]``
    and ``biases[l]`` are views into it.  The constructor takes ``vec``
    over and marks it read-only, so parameter sets can be shared, as
    snapshots or as the start of another run, without copies.  A stack
    ``vec`` of shape (R, P) holds R networks, one per row; its views are
    (R, fan_in, fan_out) weights and (R, 1, fan_out) biases.
    """

    def __init__(self, vec, sizes, activation):
        sizes = tuple(sizes)
        layers, total = _layout(activation, *sizes)
        vec = np.ascontiguousarray(vec, dtype=np.float64)
        if vec.ndim not in (1, 2) or vec.shape[-1] != total:
            raise ShapeError(
                f"parameter vector of shape {vec.shape} != ([R,] {total}) for sizes {list(sizes)}"
            )
        vec.setflags(write=False)
        self.vec = vec
        self.sizes = sizes
        self.activation = activation
        lead = vec.shape[:-1]
        self.weights = [vec[..., w].reshape(lead + shape) for w, shape, _ in layers]
        self.biases = [vec[:, None, b] if lead else vec[b] for _, _, b in layers]


def init_mlp(sizes, activation="tanh", seed=0):
    """Scaled-uniform weight init (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    sizes = tuple(int(s) for s in sizes)
    layers, total = _layout(activation, *sizes)
    rng = np.random.default_rng(seed)
    vec = np.zeros(total)
    for w, (fan_in, fan_out), _ in layers:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        vec[w] = rng.uniform(-bound, bound, size=fan_in * fan_out)
    return MlpParams(vec, sizes, activation)


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
    Stacked ``params`` of R networks take an (R, n, d) batch, one per run.
    """
    X = np.asarray(X, dtype=float)
    lead = params.vec.shape[:-1]
    if X.ndim != len(lead) + 2 or X.shape[:-2] != lead or X.shape[-1] != params.sizes[0]:
        raise ShapeError(
            f"feature batch of shape {X.shape} != ({'R, ' * len(lead)}n, {params.sizes[0]}) model input"
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
    """Logits for a 2-D batch of feature rows (softmax applied by the loss)."""
    return _forward_cached(params, X)[0][-1]


def backward(params, cache, grad_logits_batch):
    """Exact gradient of sum_i <logits_i, g_i> with respect to the parameters.

    ``cache`` is ``_forward_cached(params, X)``; the result is one vector in
    the layout of ``params.vec`` (one row per run for stacked ``params``).
    Callers bake any 1/N loss reduction into ``grad_logits_batch``.
    """
    pres, posts = cache
    G = np.asarray(grad_logits_batch, dtype=float)
    if G.shape != pres[-1].shape:
        raise ShapeError(f"logit gradient of shape {G.shape} != cached logits {pres[-1].shape}")
    flat = params.vec.shape[:-1] + (-1,)
    parts = []  # b_L, W_L, ..., b_0, W_0: reversed at the end
    delta = G
    for l in range(len(params.weights) - 1, -1, -1):
        parts += [delta.sum(axis=-2), (posts[l].swapaxes(-1, -2) @ delta).reshape(flat)]
        if l > 0:
            delta = (delta @ params.weights[l].swapaxes(-1, -2)) * _act_grad(
                pres[l - 1], posts[l], params.activation
            )
    return np.concatenate(parts[::-1], axis=-1)


def jvp(params, cache, direction):
    """Logit tangent J_w g: the derivative of the logits along the vector ``direction``.

    Forward mode over the cached forward pass of ``params`` (Pearlmutter's
    R-operator).  Because ``backward`` is linear in its logit gradient,
    sum_i <G_i, jvp_i> == direction . backward(params, cache, G).
    """
    layers, _ = _layout(params.activation, *params.sizes)
    if np.shape(direction) != params.vec.shape:
        raise ShapeError(f"direction of shape {np.shape(direction)} != {params.vec.shape} parameters")
    pres, posts = cache
    dw = [direction[..., w].reshape(params.vec.shape[:-1] + shape) for w, shape, _ in layers]
    db = [direction[:, None, b] if params.vec.ndim == 2 else direction[b] for _, _, b in layers]
    tangent = posts[0] @ dw[0] + db[0]  # of pres[0]; the features are fixed
    for l in range(1, len(params.weights)):
        d_post = tangent * _act_grad(pres[l - 1], posts[l], params.activation)
        tangent = d_post @ params.weights[l] + posts[l] @ dw[l] + db[l]
    return tangent


def sgd_step(params, step, alpha):
    """params - alpha * step, with ``step`` shaped like ``params.vec``."""
    if not np.isfinite(step).all():
        raise NumericError("non-finite gradient in sgd_step")
    return MlpParams(params.vec - alpha * step, params.sizes, params.activation)


def save_checkpoint(params, path):
    """Flat little-endian float64 array plus a JSON sidecar with the shape."""
    params.vec.astype("<f8").tofile(path)
    sidecar = {"sizes": list(params.sizes), "activation": params.activation}
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=1)


def load_checkpoint(path):
    """Parameters saved by ``save_checkpoint``; the sidecar and the length are checked."""
    with open(str(path) + ".json") as fh:
        sidecar = json.load(fh)
    for key in ("sizes", "activation"):
        if key not in sidecar:
            raise ConfigError(f"checkpoint sidecar {path}.json lacks '{key}'")
    return MlpParams(np.fromfile(path, dtype="<f8"), sidecar["sizes"], sidecar["activation"])


def accuracy(params, X, y):
    return float(np.mean(np.argmax(forward_logits(params, X), axis=-1) == np.asarray(y)))
