"""Reference formulas of the kernels the training bits rest on.

Each function here is the plain form of a ``model`` or ``losses`` kernel:
the backward pass that concatenates its per-layer parts, the JVP and the
backward pass that form every activation derivative where they use it,
P - Y by a copy and an indexed subtraction, and the softmax through the
array methods.  They call no ``arl`` kernel, so the equality gates that
compare the kernels with them see any change in a kernel's bits.
"""

import numpy as np


def act_grad(params, cache, l):
    """The derivative of hidden layer ``l``'s activation, at the cached forward pass."""
    pres, posts = cache[:2]
    if params.activation == "tanh":
        return 1.0 - posts[l + 1] ** 2
    return (pres[l] > 0.0).astype(float)


def backward(params, cache, G):
    """Gradient of sum_i <logits_i, G_i>: the parts b_L, W_L, ..., b_0, W_0, reversed and concatenated."""
    posts = cache[1]
    flat = params.vec.shape[:-1] + (-1,)
    parts = []
    delta = np.asarray(G, dtype=float)
    for l in range(len(params.weights) - 1, -1, -1):
        parts += [delta.sum(axis=-2), (posts[l].swapaxes(-1, -2) @ delta).reshape(flat)]
        if l > 0:
            delta = (delta @ params.weights[l].swapaxes(-1, -2)) * act_grad(params, cache, l - 1)
    return np.concatenate(parts[::-1], axis=-1)


def jvp(params, cache, direction):
    """Logit tangent along ``direction``, each activation derivative formed where it is used."""
    posts = cache[1]
    lead = params.vec.shape[:-1]
    at, dw, db = 0, [], []
    for fan_in, fan_out in zip(params.sizes[:-1], params.sizes[1:]):
        end = at + fan_in * fan_out
        dw.append(direction[..., at:end].reshape(lead + (fan_in, fan_out)))
        db.append(direction[..., None, end:end + fan_out] if lead else direction[end:end + fan_out])
        at = end + fan_out
    tangent = posts[0] @ dw[0] + db[0]
    for l in range(1, len(params.weights)):
        d_post = tangent * act_grad(params, cache, l - 1)
        tangent = d_post @ params.weights[l] + posts[l] @ dw[l] + db[l]
    return tangent


def p_minus_y(P, labels):
    """P - Y for one-hot labels Y: one label per row or for all rows; a (k, 1)
    column of labels gives (k, rows, c), one P - Y per label."""
    labels = np.asarray(labels)
    if labels.ndim == 2:
        return np.stack([p_minus_y(P, label) for label in labels[:, 0]])
    D = P.copy()
    D[np.arange(len(P)), labels] -= 1.0
    return D


def softmax(z):
    """Stable softmax over the last axis, reduced through the array methods."""
    z = np.asarray(z, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
