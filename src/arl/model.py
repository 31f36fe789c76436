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
    and ``biases[l]`` are views into it, and ``layers`` is its
    ``_layout``.  The constructor takes ``vec`` over and marks it
    read-only, so parameter sets can be shared, as snapshots or as the
    start of another run, without copies.  A stack
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
        self._adopt(vec, sizes, activation, layers)

    def _adopt(self, vec, sizes, activation, layers):
        """Take over the checked vector ``vec`` of ``_layout(activation, *sizes)``'s ``layers``."""
        vec.setflags(write=False)
        self.vec, self.sizes, self.activation, self.layers = vec, sizes, activation, layers
        self.weights, self.biases = _views(vec, layers)


def _views(vec, layers):
    """Per-layer weight and bias views of a vector, or of an (R, P) stack, in ``layers``' layout.

    Stacked weights are (R, fan_in, fan_out) and biases (R, 1, fan_out).
    """
    lead = vec.shape[:-1]
    return ([vec[..., w].reshape(lead + shape) for w, shape, _ in layers],
            [vec[:, None, b] if lead else vec[b] for _, _, b in layers])


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

    Returns the cache ``(pres, posts, act_grads)``: per-layer
    pre-activations and layer inputs, with ``posts[0]`` the features and
    ``pres[-1]`` the logits, and a list that ``_act_grads`` fills with the
    hidden layers' activation derivatives on first use, so the passes over
    one cache form them once.  Stacked ``params`` of R networks take an
    (R, n, d) batch, one per run.
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
    return pres, posts, []


def _act_grads(params, cache):
    """The activation derivative of each hidden layer of ``cache``, formed on first use."""
    pres, posts, grads = cache
    if not grads:
        grads += [_act_grad(pre, post, params.activation) for pre, post in zip(pres[:-1], posts[1:])]
    return grads


def forward_logits(params, X):
    """Logits for a 2-D batch of feature rows (softmax applied by the loss)."""
    return _forward_cached(params, X)[0][-1]


def backward(params, cache, grad_logits_batch):
    """Exact gradient of sum_i <logits_i, g_i> with respect to the parameters.

    ``cache`` is ``_forward_cached(params, X)``; the result is one vector in
    the layout of ``params.vec`` (one row per run for stacked ``params``),
    each layer's bias sum and weight product written into its slots.
    Callers bake any 1/N loss reduction into ``grad_logits_batch``.
    """
    pres, posts, _ = cache
    G = np.asarray(grad_logits_batch, dtype=float)
    if G.shape != pres[-1].shape:
        raise ShapeError(f"logit gradient of shape {G.shape} != cached logits {pres[-1].shape}")
    out = np.empty(params.vec.shape)
    lead = out.shape[:-1]
    act_grads = _act_grads(params, cache)
    delta = G
    for l in range(len(params.layers) - 1, -1, -1):
        w, shape, b = params.layers[l]
        np.add.reduce(delta, axis=-2, out=out[..., b])
        # a weight slot reshapes to a view of out, so matmul writes into out
        np.matmul(posts[l].swapaxes(-1, -2), delta, out=out[..., w].reshape(lead + shape))
        if l > 0:
            delta = (delta @ params.weights[l].swapaxes(-1, -2)) * act_grads[l - 1]
    return out


def jvp(params, cache, direction):
    """Logit tangent J_w g: the derivative of the logits along the vector ``direction``.

    Forward mode over the cached forward pass of ``params`` (Pearlmutter's
    R-operator).  Because ``backward`` is linear in its logit gradient,
    sum_i <G_i, jvp_i> == direction . backward(params, cache, G).
    """
    if np.shape(direction) != params.vec.shape:
        raise ShapeError(f"direction of shape {np.shape(direction)} != {params.vec.shape} parameters")
    posts = cache[1]
    dw, db = _views(direction, params.layers)
    act_grads = _act_grads(params, cache)
    tangent = posts[0] @ dw[0] + db[0]  # of pres[0]; the features are fixed
    for l in range(1, len(params.weights)):
        d_post = tangent * act_grads[l - 1]
        tangent = d_post @ params.weights[l] + posts[l] @ dw[l] + db[l]
    return tangent


def _first_bad(ok, params):
    """The first network of ``params`` (one or a stack) whose block of the flags ``ok`` holds a False."""
    return int(ok.reshape(params.vec.size // params.vec.shape[-1], -1).all(axis=1).argmin())


def sgd_step(params, step, alpha):
    """params - alpha * step, with ``step`` shaped like ``params.vec``; a non-finite step raises
    ``NumericError``, whose ``row`` is the first network of the stack (0 for one network) with one."""
    if np.shape(step) != params.vec.shape:
        raise ShapeError(f"step of shape {np.shape(step)} != {params.vec.shape} parameters")
    ok = np.isfinite(step)
    if not ok.all():
        raise NumericError("non-finite gradient in sgd_step", _first_bad(ok, params))
    moved = object.__new__(MlpParams)  # params' checked layout
    moved._adopt(params.vec - alpha * step, params.sizes, params.activation, params.layers)
    return moved


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
