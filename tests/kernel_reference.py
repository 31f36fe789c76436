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

The bi_tempered path is here a second time, in its plain form and with the
kernels' bits: the log_t2 Newton solve on (n,) roots with a per-pass
``[:, None]``, the array methods' sums and an ``np.where`` freeze on every
pass; the three loss kernels with ``np.stack``, an indexed subtraction for
the label entries and an unconditional zero of the clamped entries; and
``(expm1(x) - x) / x^2`` that always forms its series.  The kernels'
call-lean forms are gated against these for equal bytes.
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


# ---------------------------------------------------------------------------
# the bi_tempered path in its plain form, with the kernels' bits
# ---------------------------------------------------------------------------

PROB_FLOOR = 1e-12


def clamp(p):
    return np.minimum(np.maximum(p, PROB_FLOOR), 1.0 - PROB_FLOOR)


def on_classes(h):
    """A scalar as itself, one value per row as a column over the classes."""
    return h if np.ndim(h) == 0 else np.asarray(h)[..., None]


def pow_rows(x, e):
    """x ** e; an exponent array takes the general power, except where an entry is one of
    numpy's special scalar exponents (-1, 1/2, 2), which take that exponent's op."""
    out = x ** e
    if np.ndim(e) == 0:
        return out
    for special, op in ((-1.0, np.reciprocal), (0.5, np.sqrt), (2.0, np.square)):
        hit = np.broadcast_to(e == special, out.shape)
        out[hit] = op(np.broadcast_to(x, out.shape)[hit])
    return out


def tempered_softmax_newton(Z, t2, start=None):
    """``(P, gamma)``: Newton on log_t2 of the partition sum from max z, or from ``start`` clamped
    into the root's bracket, each row frozen once its step is below 1e-13 max(1, |gamma|), and the
    stopping step taken to first order.  ``t2 > 1`` is a scalar or one per row."""
    Z = np.asarray(Z, dtype=float)
    k = t2 - 1.0
    s = -on_classes(k)
    top = Z.max(axis=1)
    gamma = top
    if start is not None:
        gamma = np.minimum(np.maximum(start, top), top + np.expm1(k * math.log(Z.shape[1])) / k)
    done = np.zeros(len(Z), dtype=bool)
    for _ in range(50):
        X = Z - gamma[:, None]
        P = np.exp(np.log1p(s * X) / s)
        Pt = P / (1.0 + s * X)
        S = P.sum(axis=1)
        step = S * np.expm1(k * np.log(S)) / (k * Pt.sum(axis=1))
        done |= np.abs(step) <= 1e-13 * np.maximum(1.0, np.abs(gamma))
        if done.all():
            break
        gamma = np.where(done, gamma, gamma + step)
        if start is not None:
            gamma = np.maximum(gamma, top)
    else:
        raise ArithmeticError("the Newton solve did not converge in 50 steps")
    P -= Pt * step[:, None]
    return P, gamma + step


def expm1_excess(x):
    """(expm1(x) - x) / x^2, its Taylor series where |x| < 1e-2."""
    small = np.abs(x) < 1e-2
    xs = np.where(small, 1.0, x)
    series = 0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0 + x * (1.0 / 120.0 + x / 720.0)))
    return np.where(small, series, (np.expm1(xs) - xs) / xs**2)


def bi_tempered_values(P, labels, t1):
    """The bi_tempered values at probability rows ``P``: ``labels`` one per row, one for all rows
    or a (k, 1) column, which gives (k, rows); ``t1`` a scalar or one per row."""
    Pc = clamp(P)
    log_py = np.log(clamp(P[np.arange(len(P)), labels]))
    tail = (1.0 - pow_rows(Pc, on_classes(2.0 - t1)).sum(axis=1)) / (2.0 - t1)
    return np.maximum(-np.expm1((1.0 - t1) * log_py) / (1.0 - t1) - tail, 0.0)


def bi_tempered(P, labels, t1, t2):
    """``(values, grads, dvalues, dgrads, dgamma_dt2)`` of bi_tempered at the tempered-softmax rows
    ``P`` (n, c), one label per row, ``t1`` and ``t2`` scalars or one per row: the (2, n) and
    (2, n, c) derivatives are in (t1, t2)."""
    n = np.arange(len(P))
    Pc = clamp(P)
    pyc = clamp(P[n, labels])
    log_py = np.log(pyc)
    Pa = pow_rows(Pc, on_classes(2.0 - t1))
    tail = (1.0 - Pa.sum(axis=1)) / (2.0 - t1)
    values = bi_tempered_values(P, labels, t1)

    A = pow_rows(Pc, on_classes(1.0 - t1 + t2))
    B = pow_rows(pyc, t2 - t1)
    g = A.copy()
    g[n, labels] -= B
    V = pow_rows(Pc, on_classes(t2))
    S = V.sum(axis=1, keepdims=True)
    U = V / S
    grads = g - U * g.sum(axis=1, keepdims=True)

    T1, T2 = on_classes(t1), on_classes(t2)
    log_p = np.log(Pc)
    R = log_p**2 * expm1_excess((T2 - 1.0) * log_p)
    dgamma = (Pc * R).sum(axis=1, keepdims=True) / S
    R -= pow_rows(Pc, T2 - 1.0) * dgamma
    R[P != Pc] = 0.0
    y = (1.0 - t1) * log_py
    dlog_term = log_py**2 * ((1.0 - y) * expm1_excess(y) - 1.0)
    dv_t1 = -dlog_term - ((Pa * log_p).sum(axis=1) + tail) / (2.0 - t1)
    dv_t2 = (Pa * R).sum(axis=1) - pow_rows(pyc, 1.0 - t1) * R[n, labels]

    dg_t1 = -log_p * g
    dg_t2 = log_p * g + (1.0 - T1 + T2) * A * R
    dg_t2[n, labels] -= (t2 - t1) * B * R[n, labels]
    dU = U * (log_p + T2 * R)
    dU -= U * dU.sum(axis=1, keepdims=True)
    dG = np.stack([dg_t1, dg_t2])
    dG -= U * dG.sum(axis=2, keepdims=True)
    dG[1] -= dU * g.sum(axis=1, keepdims=True)
    return values, grads, np.stack([dv_t1, dv_t2]), dG, dgamma[:, 0]
