"""Reference formulas of the kernels the training bits rest on.

Each function here is the plain form of a ``model`` or ``losses`` kernel:
the backward pass that concatenates its per-layer parts, the JVP and the
backward pass that form every activation derivative where they use it,
P - Y by a copy and an indexed subtraction, the softmax through the
array methods, and the tempered softmax solve and tempered log that take
the t = 1 limit within 1e-8 of 1.  They call no ``arl`` kernel, so the
equality gates that compare the kernels with them see any change in a
kernel's bits.  The solve here is the older Newton on sum_j p_j - 1 with a
closing pass; the kernel's Newton on log_t2 of that sum is gated against
it within a stated tolerance instead.  The hyperparameter reparameterization
here is the scalar one: one run's coordinates, one field at a time through
math (libm), into a ``HyperParams``.
"""

import math
from dataclasses import replace

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


# the t = 1 band of the tempered kernels below: within it they take the limit
T_NEAR_ONE = 1e-8


def log_t_of_log(log_x, t):
    """log_t from log x, expm1((1-t) log x) / (1-t), and log x within the band of t = 1."""
    s = 1.0 - np.asarray(t, dtype=float)
    near = np.abs(s) < T_NEAR_ONE
    s = np.where(near, 1.0, s)
    return np.where(near, log_x, np.expm1(s * log_x) / s)


def tempered_softmax(Z, t2):
    """The tempered softmax and gamma of rows of logits, ``t2`` a scalar or one per row.

    Rows with t2 within the band of 1 take the softmax and logsumexp; the
    rest run Newton from gamma = max z, with exp_t through the [.]_+ clamp
    and each row's powers at its own scalar exponent.
    """
    Z = np.asarray(Z, dtype=float)
    t2 = np.broadcast_to(np.asarray(t2, dtype=float), (len(Z),))
    near = np.abs(t2 - 1.0) < T_NEAR_ONE
    P_all = softmax(Z)
    m = Z.max(axis=-1, keepdims=True)
    gamma_all = (m + np.log(np.exp(Z - m).sum(axis=-1, keepdims=True)))[:, 0]
    if near.all():
        return P_all, gamma_all
    Zt, tt = Z[~near], t2[~near]
    s = 1.0 - tt[:, None]
    gamma = Zt.max(axis=1)
    done = np.zeros(len(Zt), dtype=bool)
    with np.errstate(divide="ignore"):  # log1p(-1) on the clamp
        for _ in range(50):
            P = np.exp(np.log1p(np.maximum(s * (Zt - gamma[:, None]), -1.0)) / s)
            powers = np.stack([row ** float(t) for row, t in zip(P, tt)])
            step = (P.sum(axis=1) - 1.0) / powers.sum(axis=1)
            gamma = np.where(done, gamma, gamma + step)
            done |= np.abs(step) <= 1e-13 * np.maximum(1.0, np.abs(gamma))
            if done.all():
                break
        P = np.exp(np.log1p(np.maximum(s * (Zt - gamma[:, None]), -1.0)) / s)
    P_all[~near], gamma_all[~near] = P, gamma
    return P_all, gamma_all


# field -> (low, span): low + span * sigmoid(theta) for the bounded fields,
# low + softplus(theta) where span is None
REPARAM = {
    "q": (1e-3, 1.0 - 1e-3),
    "t1": (0.0, 1.0 - 1e-3),
    "t2": (1.0, None),
    "d": (1.0, None),
    "gamma1": (0.0, None),
    "gamma2": (0.0, None),
    "lam": (0.0, None),
}


def sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def softplus(x):
    return x + math.log1p(math.exp(-x)) if x > 0 else math.log1p(math.exp(x))


def from_unconstrained(theta, like):
    """``like`` (a ``HyperParams``) with its learnable fields at one run's coordinates ``theta`` (K,);
    a field that rounds onto its domain's boundary fails the ``HyperParams`` check."""
    fields = {}
    for name, th in zip(like.learnable_names, np.asarray(theta, dtype=float).tolist()):
        low, span = REPARAM[name]
        fields[name] = low + (span * sigmoid(th) if span else softplus(th))
    return replace(like, **fields)


def reparam_scale(like, theta):
    """d(field)/d(theta) of ``like``'s learnable fields at one run's coordinates ``theta`` (K,)."""
    out = []
    for name, th in zip(like.learnable_names, np.asarray(theta, dtype=float).tolist()):
        span, sig = REPARAM[name][1], sigmoid(th)
        out.append(span * sig * (1.0 - sig) if span else sig)
    return np.array(out)
