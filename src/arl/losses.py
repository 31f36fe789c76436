"""Robust classification losses with tunable hyperparameters.

Five loss families over a c-class softmax (or tempered-softmax) output:

* ``ce``          -- cross entropy, no hyperparameters
* ``gce``         -- generalized cross entropy, power ``q`` in (0, 1]
* ``sl``          -- symmetric loss, a ``gamma1 * ce + gamma2 * rce`` blend
* ``bi_tempered`` -- tempered logarithm/exponential loss, ``0 <= t1 < 1 < t2``
* ``polysoft``    -- polynomial soft-weighting loss applied on top of the
                     per-sample cross entropy, threshold ``lam`` and order ``d``

Each family's value, analytic logit gradient and hyperparameter derivatives
are written once, as batched kernels ``value(P, labels, h) -> (values,
shared)``, ``grad(P, labels, h, shared)`` and ``hgrad(P, labels, h, shared)
-> (dvalues, dgrads)`` on probability rows P, whose hyperparameter fields are
scalars or one per row; ``polysoft_of_ce`` is the soft-weighting formula on
cross entropies.  ``batch_loss`` (training, metrics) takes values and
gradients, ``batch_hgrad`` (the hypergradient) adds their derivatives in
each learnable field from the same normalization, and ``loss_values`` (the
theory table, the loss curve, the cross entropies of the sample weights)
takes values only.  ``loss_on_logits`` is the one checked single-row entry
point, ``polysoft_weight`` the checked sample weight of a cross entropy.  A
smooth reparameterization maps the constrained hyperparameter domains onto
unconstrained coordinates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NumericError

# Probabilities are clamped into [PROB_FLOOR, 1 - PROB_FLOOR] before any
# log or power; softmax outputs are never exactly 0 or 1, so this only
# guards user-supplied vertex inputs.
PROB_FLOOR = 1e-12

# Interior margins keeping q away from its q -> 0 singularity and t1 away
# from the tempered-log singularity at t = 1.
EPS_Q = 1e-3
EPS_T = 1e-3

# Tempered-softmax normalization: Newton steps on gamma stop once a step is
# below _NEWTON_RTOL * max(1, |gamma|); a row that has not stopped after
# _NEWTON_MAX_STEPS raises.  |t - 1| < _T_NEAR_ONE takes the t = 1 limit.
_NEWTON_RTOL = 1e-13
_NEWTON_MAX_STEPS = 50
_T_NEAR_ONE = 1e-8

VARIANTS = ("ce", "gce", "sl", "bi_tempered", "polysoft")

# Learnable hyperparameters per variant, in a fixed order.  The RCE scale
# constant of ``sl`` stays preset, never learned.
LEARNABLE = {
    "ce": (),
    "gce": ("q",),
    "sl": ("gamma1", "gamma2"),
    "bi_tempered": ("t1", "t2"),
    "polysoft": ("lam", "d"),
}


@dataclass(frozen=True)
class HyperParams:
    """Hyperparameter set of one loss variant.

    Only the fields of the active ``variant`` are ever read; the rest keep
    their defaults.  Domains: ``q`` in (0, 1], ``gamma1, gamma2 >= 0``,
    ``0 <= t1 < 1``, ``t2 > 1``, ``lam > 0``, ``d > 1``, ``rce_a < 0``.
    """

    variant: str
    q: float = 0.3
    gamma1: float = 1.0
    gamma2: float = 1.0
    t1: float = 0.5
    t2: float = 1.5
    lam: float = 1.0
    d: float = 3.0
    rce_a: float = -4.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown loss variant {self.variant!r}")
        self.validate()

    def validate(self):
        """Check the active variant's fields against their domains."""
        checks = {
            "q": 0.0 < self.q <= 1.0,
            "gamma1": self.gamma1 >= 0.0,
            "gamma2": self.gamma2 >= 0.0,
            "t1": 0.0 <= self.t1 < 1.0,
            "t2": self.t2 > 1.0,
            "lam": self.lam > 0.0,
            "d": self.d > 1.0,
            "rce_a": self.rce_a < 0.0,
        }
        for name in self.learnable_names + (("rce_a",) if self.variant == "sl" else ()):
            value = getattr(self, name)
            if not math.isfinite(value) or not checks[name]:
                raise DomainError(
                    f"{name}={value!r} outside its domain for variant {self.variant!r}"
                )

    @property
    def learnable_names(self):
        return LEARNABLE[self.variant]

    def learnable_values(self):
        return np.array([getattr(self, n) for n in self.learnable_names], dtype=float)


def default_hyper(variant, num_classes):
    """Mid-domain starting hyperparameters; ``lam`` starts at 3 log(c).

    An untrained network's cross entropies sit near log(c), where a
    lam = log(c) start gives almost every sample about zero weight: on
    the desk blobs such a run collapses lam and ends at 0.63 test
    accuracy against 0.92 from 3 log(c).
    """
    if num_classes < 2:
        raise DomainError("need at least two classes")
    return HyperParams(variant, lam=3.0 * math.log(num_classes))


@dataclass
class LossEval:
    """Loss value with its gradients.

    ``grad_logits`` is the derivative with respect to the c logits;
    ``grad_hyper`` lines up with the variant's learnable hyperparameters.
    """

    value: float
    grad_logits: np.ndarray
    grad_hyper: np.ndarray


def _check_label(label, c):
    label = int(label)
    if not 0 <= label < c:
        raise DomainError(f"label {label} out of range for {c} classes")
    return label


def _clamp(p):
    return np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)


def softmax(z):
    """Numerically stable softmax over the last axis."""
    z = np.asarray(z, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def logsumexp(z):
    z = np.asarray(z, dtype=float)
    m = z.max(axis=-1, keepdims=True)
    return (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))).squeeze(-1)


# ---------------------------------------------------------------------------
# tempered math
# ---------------------------------------------------------------------------

def _log_t_of_log(log_x, t):
    """log_t from log x, ``t`` a scalar or an array: expm1((1-t) log x) / (1-t), log x near t = 1."""
    s = 1.0 - np.asarray(t, dtype=float)
    near = np.abs(s) < _T_NEAR_ONE
    s = np.where(near, 1.0, s)
    return np.where(near, log_x, np.expm1(s * log_x) / s)


def log_t(x, t):
    """Tempered logarithm (x^(1-t) - 1) / (1 - t); natural log at t = 1."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("log_t requires x > 0")
    out = _log_t_of_log(np.log(x), t)
    return float(out) if out.ndim == 0 else out


def exp_t(x, t):
    """Tempered exponential [1 + (1-t) x]_+^(1/(1-t)); exp at t = 1.

    For t > 1 with 1 + (1-t) x <= 0 the true limit is +inf, returned as a
    sentinel; the tempered softmax never reaches it because its arguments
    are <= 0 there.
    """
    x = np.asarray(x, dtype=float)
    if abs(t - 1.0) < _T_NEAR_ONE:
        out = np.exp(x)
    else:
        with np.errstate(divide="ignore"):
            out = _exp_t_neg_args(x, 1.0 - t)
    return float(out) if out.ndim == 0 else out


def _exp_t_neg_args(X, s):
    """exp_t with s = 1 - t (a scalar or one per row), t away from 1.

    Where the base 1 + s*X is <= 0, log1p(-1) = -inf gives the [.]_+
    branch: the exact 0 for t < 1 and the +inf sentinel for t > 1; the
    caller silences its divide warning.  The solver's arguments are <= 0,
    so for t > 1 its base is >= 1.  log1p keeps the base exact as s -> 0
    on both sides of 1.
    """
    return np.exp(np.log1p(np.maximum(s * X, -1.0)) / s)


def _tempered_softmax_batch(Z, t2):
    """Normalization solve for rows of logits, ``t2`` a scalar or one per row.

    Returns ``(P, gamma)`` with P[i] = exp_t2(Z[i] - gamma[i]) summing to 1;
    rows with t2 within _T_NEAR_ONE of 1 take the softmax.  The rest run
    Newton on f(gamma) = sum_j exp_t2(z_j - gamma) - 1: f is convex and
    decreasing in gamma for every t2 != 1 (exp_t is the positive part of a
    convex power), and f'(gamma) = -sum_j p_j^t2, so the steps
    gamma += f / sum_j p_j^t2 from gamma = max z rise monotonically to the
    unique root.  A row stops on a relative step size, not on the residual,
    whose floor is about |gamma| * eps; each row's steps are its own, so a
    row solves to the same bits in any batch.  Domain checks on t2 live in
    the public entry points.
    """
    Z = np.asarray(Z, dtype=float)
    if not np.all(np.isfinite(Z)):
        raise DomainError("logits must be finite")
    t2 = np.broadcast_to(np.asarray(t2, dtype=float), Z.shape[:1])
    near = np.abs(t2 - 1.0) < _T_NEAR_ONE
    if near.all():
        return softmax(Z), np.atleast_1d(logsumexp(Z))
    Zt, tt = (Z[~near], t2[~near]) if near.any() else (Z, t2)

    s = (1.0 - tt)[:, None]
    gamma = Zt.max(axis=1)
    done = np.zeros(len(Zt), dtype=bool)
    with np.errstate(divide="ignore"):  # log1p(-1) in _exp_t_neg_args
        for _ in range(_NEWTON_MAX_STEPS):
            P = _exp_t_neg_args(Zt - gamma[:, None], s)
            resid = P.sum(axis=1) - 1.0
            step = resid / (P ** tt[:, None]).sum(axis=1)
            gamma = np.where(done, gamma, gamma + step)
            done |= np.abs(step) <= _NEWTON_RTOL * np.maximum(1.0, np.abs(gamma))
            if done.all():
                break
        else:
            raise NumericError(
                f"tempered softmax Newton solve did not converge in {_NEWTON_MAX_STEPS} steps: "
                f"t2={np.unique(tt[~done])}, max |sum p - 1| = {np.abs(resid[~done]).max():.3e}, "
                f"logit range [{Z.min():.3g}, {Z.max():.3g}]"
            )
        P = _exp_t_neg_args(Zt - gamma[:, None], s)
    err = np.abs(P.sum(axis=1) - 1.0)
    if np.any(err > 1e-10):
        raise NumericError(
            "tempered softmax did not normalize: "
            f"max |sum p - 1| = {err.max():.3e}, t2={np.unique(tt[err > 1e-10])}, "
            f"logit range [{Z.min():.3g}, {Z.max():.3g}]"
        )
    if not near.any():
        return P, gamma
    P_all, gamma_all = softmax(Z), np.atleast_1d(logsumexp(Z))
    P_all[~near], gamma_all[~near] = P, gamma
    return P_all, gamma_all


def tempered_softmax(z, t2):
    """Probabilities p_j = exp_t2(z_j - gamma*) with sum p = 1.

    Returns ``(p, gamma*)`` where gamma* is the normalization constant.
    """
    if not (np.isfinite(t2) and t2 > 1.0):
        raise DomainError(f"t2={t2!r} must exceed 1")
    P, gamma = _tempered_softmax_batch(np.asarray(z, dtype=float)[None, :], t2)
    return P[0], float(gamma[0])


# ---------------------------------------------------------------------------
# loss kernels: each family's value, logit gradient and hyperparameter
# derivatives, written once
# ---------------------------------------------------------------------------

# ``labels`` is one label per row of P or one for all rows.  The order of
# operations in ``value`` and ``grad`` is the training path's, which the
# training bits depend on.  ``hgrad`` returns the derivatives of the values
# (k, n) and of the logit gradients (k, n, c) in each learnable field, in
# LEARNABLE order; D = P - Y below.

def _on_classes(h):
    """A hyperparameter (scalar or one per row) lifted onto the class axis."""
    return np.asarray(h)[..., None]


def _label_probs(P, labels):
    """Each row's probability of its label, not clamped."""
    if np.ndim(labels) == 0:
        return P[:, labels]  # one label for all rows is a column: no gather
    return P[np.arange(len(P)), labels]


def _ce_value(P, labels, h=None):
    return -np.log(_clamp(_label_probs(P, labels))), None


def _ce_grad(P, labels, h=None, shared=None):
    """P - Y for one-hot labels Y: the softmax-composed cross-entropy gradient."""
    D = P.copy()
    D[np.arange(len(P)), labels] -= 1.0
    return D


def _ce_hgrad(P, labels, h=None, shared=None):
    """No learnable field: empty derivative stacks."""
    return np.zeros((0, len(P))), np.zeros((0, *P.shape))


def _gce_value(P, labels, h):
    pq = _clamp(_label_probs(P, labels)) ** h.q
    return (1.0 - pq) / h.q, pq


def _gce_grad(P, labels, h, pq):
    return pq[..., None] * _ce_grad(P, labels)


def _gce_hgrad(P, labels, h, pq):
    """d/dq of the value, -(pq log p_y + value) / q, and of G = pq D, pq log p_y D."""
    pq_log = pq * np.log(_clamp(_label_probs(P, labels)))
    dvalues = -(pq_log + (1.0 - pq) / h.q) / h.q
    return dvalues[None], pq_log[None, :, None] * _ce_grad(P, labels)


def _sl_parts(P, labels, h):
    """ce, rce (-rce_a times the off-label mass) and the label probabilities."""
    pl = _label_probs(P, labels)
    return _ce_value(P, labels)[0], -h.rce_a * (P.sum(axis=1) - pl), pl


def _rce_grad(D, h, pl):
    return _on_classes(h.rce_a) * pl[:, None] * -D


def _sl_value(P, labels, h):
    """gamma1 * ce + gamma2 * rce."""
    ce, rce, pl = _sl_parts(P, labels, h)
    return h.gamma1 * ce + h.gamma2 * rce, pl


def _sl_grad(P, labels, h, pl):
    D = _ce_grad(P, labels)
    return _on_classes(h.gamma1) * D + _on_classes(h.gamma2) * _rce_grad(D, h, pl)


def _sl_hgrad(P, labels, h, pl):
    """Linear in the gammas: the derivatives are the ce and rce parts."""
    ce, rce, _ = _sl_parts(P, labels, h)
    D = _ce_grad(P, labels)
    return np.stack([ce, rce]), np.stack([D, _rce_grad(D, h, pl)])


def _bi_tempered_terms(Pc, labels, h):
    """log_t1 of the label probabilities, P^(2-t1) and the tail (1 - sum P^(2-t1)) / (2-t1)."""
    Pa = Pc ** _on_classes(2.0 - h.t1)
    log_term = _log_t_of_log(np.log(_label_probs(Pc, labels)), h.t1)
    return log_term, Pa, (1.0 - Pa.sum(axis=1)) / (2.0 - h.t1)


def _bi_tempered_value(P, labels, h):
    """-log_t1(p[label]) - (1 - sum_j p_j^(2-t1)) / (2 - t1), clamped at 0."""
    Pc = _clamp(P)
    log_term, _, tail = _bi_tempered_terms(Pc, labels, h)
    return np.maximum(-log_term - tail, 0.0), Pc


def _bi_tempered_grad(P, labels, h, Pc):
    """d value / d logits through the implicit normalization of P.

    With S = sum_j p_j^t2 and u = p^t2 / S, the normalization constraint
    gives d gamma / d z_k = u_k, hence
    d value / d z_k = g_k - u_k * sum_j g_j with
    g_j = (dL/dp_j) * p_j^t2 = -1[j = label] p_j^(t2-t1) + p_j^(1-t1+t2).
    """
    n = np.arange(len(P))
    G = Pc ** _on_classes(1.0 - h.t1 + h.t2)
    G[n, labels] -= Pc[n, labels] ** (h.t2 - h.t1)
    U = Pc ** _on_classes(h.t2)
    U /= U.sum(axis=1, keepdims=True)
    return G - U * G.sum(axis=1, keepdims=True)


def _expm1_excess(x):
    """(expm1(x) - x) / x^2, with its Taylor series where that cancels; 1/2 at 0."""
    small = np.abs(x) < 1e-2
    xs = np.where(small, 1.0, x)
    series = 0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0 + x * (1.0 / 120.0 + x / 720.0)))
    return np.where(small, series, (np.expm1(xs) - xs) / xs**2)


def _bi_tempered_hgrad(P, labels, h, Pc):
    """(t1, t2) derivatives of the values and of G = g - u sum g.

    t1 enters explicitly: with y = (1-t1) log p, d log_t1(p) / dt1 is
    log^2 p ((1-y) (expm1(y) - y) / y^2 - 1), d tail / dt1 is
    (sum_j p_j^(2-t1) log p_j + tail) / (2 - t1), and dg/dt1 = -log p * g.
    t2 moves P: differentiating sum_j exp_t2(z_j - gamma) = 1 at fixed
    logits gives d log p_j / dt2 = R_j = e_j - p_j^(t2-1) dgamma/dt2, where
    e_j = (expm1(x_j) - x_j) / (t2-1)^2 with x_j = (t2-1) log p_j, which is
    log^2 p_j / 2 at t2 = 1, and dgamma/dt2 = sum_j p_j e_j / sum_j p_j^t2.
    The value then moves by sum_j (dL/dp_j) p_j R_j, and g and u by the
    chain rule through p together with their explicit t2; R is 0 where
    the kernels clamp p.
    """
    n = np.arange(len(P))
    t1, t2 = _on_classes(h.t1), _on_classes(h.t2)
    log_p = np.log(Pc)
    log_py, py = log_p[n, labels], Pc[n, labels]
    _, Pa, tail = _bi_tempered_terms(Pc, labels, h)

    y = (1.0 - h.t1) * log_py
    dlog_term = log_py**2 * ((1.0 - y) * _expm1_excess(y) - 1.0)
    dv_t1 = -dlog_term - ((Pa * log_p).sum(axis=1) + tail) / (2.0 - h.t1)

    R = log_p**2 * _expm1_excess((t2 - 1.0) * log_p)
    V = Pc**t2
    S = V.sum(axis=1, keepdims=True)
    R -= Pc ** (t2 - 1.0) * ((Pc * R).sum(axis=1, keepdims=True) / S)
    R[P != Pc] = 0.0  # a clamped probability does not move
    dv_t2 = (Pa * R).sum(axis=1) - py ** (1.0 - h.t1) * R[n, labels]

    e1 = 1.0 - t1 + t2
    A = Pc**e1
    B = py ** (h.t2 - h.t1)
    g = A.copy()
    g[n, labels] -= B
    U = V / S
    dg_t1 = -log_p * g
    dg_t2 = log_p * g + e1 * A * R
    dg_t2[n, labels] -= (h.t2 - h.t1) * B * R[n, labels]
    dU = U * (log_p + t2 * R)
    dU -= U * dU.sum(axis=1, keepdims=True)
    dG = np.stack([dg_t1, dg_t2])
    dG -= U * dG.sum(axis=2, keepdims=True)
    dG[1] -= dU * g.sum(axis=1, keepdims=True)
    return np.stack([dv_t1, dv_t2]), dG


def polysoft_of_ce(ce, lam, d):
    """Soft-weighting loss values at cross-entropy values ``ce``, and u.

    u = 1 - ce/lam below the threshold lam and 0 on the plateau, and
    value = (d-1) lam / d * (1 - u^(d/(d-1))), which is the constant
    (d-1) lam / d where u = 0.  ``_polysoft_weight`` turns u into the
    weight d value / d ce.  Inputs are not checked; ``polysoft_weight`` is
    the checked form.
    """
    u = np.where(ce < lam, 1.0 - ce / lam, 0.0)
    plateau = (d - 1.0) * lam / d
    return plateau * (1.0 - u ** (d / (d - 1.0))), u


def _polysoft_weight(u, d):
    """The sample weight u^(d/(d-1) - 1), 0 on the plateau."""
    return np.where(u > 0.0, u ** (d / (d - 1.0) - 1.0), 0.0)


def _polysoft_hgrad_of_ce(ce, lam, d):
    """(lam, d) derivatives of the values and the weights w at cross entropies ce.

    With u = 1 - ce/lam and w = u^(1/(d-1)): d value/d lam =
    (value - w ce) / lam, d value/d d = (value + lam u w log u) / (d (d-1)),
    dw/d lam = w / u * ce / ((d-1) lam^2) and dw/d d = -w log u / (d-1)^2.
    On the plateau (u = 0) w and its derivatives are 0.
    """
    values, u = polysoft_of_ce(ce, lam, d)
    w = _polysoft_weight(u, d)
    u_safe = np.where(u > 0.0, u, 1.0)  # keeps log u and w / u finite on the plateau
    log_u = np.log(u_safe)
    dvalues = [(values - w * ce) / lam, (values + lam * u * w * log_u) / (d * (d - 1.0))]
    dweights = [w / u_safe * ce / ((d - 1.0) * lam**2), -w * log_u / (d - 1.0) ** 2]
    return np.stack(dvalues), np.stack(dweights)


def _polysoft_value(P, labels, h):
    return polysoft_of_ce(_ce_value(P, labels)[0], h.lam, h.d)


def _polysoft_grad(P, labels, h, u):
    return _polysoft_weight(u, h.d)[..., None] * _ce_grad(P, labels)


def _polysoft_hgrad(P, labels, h, u):
    dvalues, dweights = _polysoft_hgrad_of_ce(_ce_value(P, labels)[0], h.lam, h.d)
    return dvalues, dweights[..., None] * _ce_grad(P, labels)


_FAMILIES = {
    "ce": (_ce_value, _ce_grad, _ce_hgrad),
    "gce": (_gce_value, _gce_grad, _gce_hgrad),
    "sl": (_sl_value, _sl_grad, _sl_hgrad),
    "bi_tempered": (_bi_tempered_value, _bi_tempered_grad, _bi_tempered_hgrad),
    "polysoft": (_polysoft_value, _polysoft_grad, _polysoft_hgrad),
}


def loss_values(hyper, P, labels):
    """Per-row values of ``hyper``'s family on unchecked probability rows ``P``.

    No gradient is formed.  For ``bi_tempered`` P is the tempered softmax.
    """
    return _FAMILIES[hyper.variant][0](P, labels, hyper)[0]


@dataclass(frozen=True)
class _TemperedRows:
    """bi_tempered's (t1, t2) as one value per row of a batch.

    numpy raises an array to a constant power of 2 or 1/2 by square or
    sqrt, whose last bit can differ from its general power.  With one
    exponent per row a batch row takes the general power for every
    (t1, t2), as it does in a batch of rows with differing fields.
    """

    t1: np.ndarray
    t2: np.ndarray


def _normalized(hyper, Z, labels):
    """Probability rows of logits ``Z`` (softmax, or the tempered softmax
    for ``bi_tempered``), the labels as ints and the fields for the kernels."""
    Z = np.asarray(Z, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if hyper.variant != "bi_tempered":
        return softmax(Z), labels, hyper
    rows = _TemperedRows(np.full(len(Z), hyper.t1), np.full(len(Z), hyper.t2))
    return _tempered_softmax_batch(Z, rows.t2)[0], labels, rows


def batch_loss(hyper, Z, labels):
    """Per-sample values and logit gradients for a batch.

    ``Z`` is (n, c), ``labels`` (n,) ints.  Returns ``(values, grads)``
    with shapes (n,) and (n, c); callers handle the 1/n reduction.  The
    logits are normalized (softmax, or the tempered softmax for
    ``bi_tempered``) and handed to the family's kernels.
    """
    P, labels, h = _normalized(hyper, Z, labels)
    value, grad, _ = _FAMILIES[hyper.variant]
    values, shared = value(P, labels, h)
    return values, grad(P, labels, h, shared)


def batch_hgrad(hyper, Z, labels):
    """``batch_loss`` plus its derivatives in each learnable field.

    Returns ``(values, grads, dvalues, dgrads)`` with shapes (n,), (n, c),
    (k, n) and (k, n, c) for the k fields of ``hyper.learnable_names``;
    all four come from one normalization of ``Z``.
    """
    P, labels, h = _normalized(hyper, Z, labels)
    value, grad, hgrad = _FAMILIES[hyper.variant]
    values, shared = value(P, labels, h)
    return (values, grad(P, labels, h, shared), *hgrad(P, labels, h, shared))


def polysoft_weight(ce_value, lam, d):
    """Implicit sample weight d polysoft / d ce, 0 beyond the plateau."""
    HyperParams("polysoft", lam=lam, d=d)  # checks lam and d
    ce_value = np.asarray(ce_value, dtype=float)
    if np.any(~np.isfinite(ce_value)) or np.any(ce_value < 0.0):
        raise DomainError("ce_value must be a nonnegative real")
    w = _polysoft_weight(polysoft_of_ce(ce_value, lam, d)[1], d)
    return float(w) if w.ndim == 0 else w


def loss_on_logits(hyper, z, label):
    """The one checked single-row entry point: ``batch_hgrad`` on one row.

    ``z`` is a finite vector of c >= 2 logits, normalized as the variant
    takes it; ``grad_hyper`` holds the value derivatives.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.shape[0] < 2 or not np.all(np.isfinite(z)):
        raise DomainError("logits must be a finite vector of length >= 2")
    values, grads, dvalues, _ = batch_hgrad(hyper, z[None, :], [_check_label(label, len(z))])
    return LossEval(float(values[0]), grads[0], dvalues[:, 0])


# ---------------------------------------------------------------------------
# unconstrained reparameterization
# ---------------------------------------------------------------------------

# The reparameterization maps one scalar at a time; math beats numpy's
# 0-d array overhead several times over on scalars.

# field -> (low, span): low + span * sigmoid(theta) for the bounded fields,
# low + softplus(theta) where span is None
_REPARAM = {
    "q": (EPS_Q, 1.0 - EPS_Q),
    "t1": (0.0, 1.0 - EPS_T),
    "t2": (1.0, None),
    "d": (1.0, None),
    "gamma1": (0.0, None),
    "gamma2": (0.0, None),
    "lam": (0.0, None),
}


def _sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _softplus(x):
    return x + math.log1p(math.exp(-x)) if x > 0 else math.log1p(math.exp(x))


def _softplus_inv(y):
    # inverse of softplus: log(e^y - 1), stable at both ends
    return float(y + np.log(-np.expm1(-y)))


def _logit(u, name):
    tiny = 1e-15
    if u <= 0.0 or u >= 1.0:
        warnings.warn(f"{name} at its domain boundary; clamping for reparameterization")
        u = min(max(u, tiny), 1.0 - tiny)
    return math.log(u) - math.log1p(-u)


def _positive(value, name):
    if value <= 0.0:
        warnings.warn(f"{name} at its domain boundary; clamping for reparameterization")
        value = 1e-12
    return value


def to_unconstrained(h):
    """Map the active hyperparameters onto unconstrained coordinates.

    q and t1 use scaled logits, everything else shifted softplus inverses;
    ``from_unconstrained`` inverts exactly (roundtrip error <= 1e-10).
    """
    theta = []
    for name in h.learnable_names:
        low, span = _REPARAM[name]
        v = getattr(h, name) - low
        theta.append(_logit(v / span, name) if span else _softplus_inv(_positive(v, name)))
    return np.array(theta, dtype=float)


def from_unconstrained(theta, like):
    """Rebuild a valid HyperParams from unconstrained coordinates.

    ``like`` supplies the variant and any preset fields (e.g. ``rce_a``).
    """
    names = like.learnable_names
    if np.shape(theta) != (len(names),):
        raise DomainError(
            f"expected {len(names)} coordinates for {like.variant!r}, got {np.shape(theta)}"
        )
    updates = {}
    for name, th in zip(names, theta):
        low, span = _REPARAM[name]
        updates[name] = low + (span * _sigmoid(float(th)) if span else _softplus(float(th)))
    return replace(like, **updates)


def reparam_scale(variant, theta):
    """d(constrained)/d(unconstrained) per coordinate, for chain rules."""
    names = LEARNABLE[variant]
    out = np.empty(len(names))
    for k, (name, th) in enumerate(zip(names, np.asarray(theta, dtype=float))):
        span = _REPARAM[name][1]
        sig = _sigmoid(float(th))
        out[k] = span * sig * (1.0 - sig) if span else sig
    return out
