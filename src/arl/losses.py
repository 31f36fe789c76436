"""Robust classification losses with tunable hyperparameters.

Five loss families over a c-class softmax (or tempered-softmax) output:

* ``ce``          -- cross entropy, no hyperparameters
* ``gce``         -- generalized cross entropy, power ``q`` in (0, 1]
* ``sl``          -- symmetric loss, a ``gamma1 * ce + gamma2 * rce`` blend
* ``bi_tempered`` -- tempered logarithm/exponential loss, ``0 <= t1 < 1 < t2``
* ``polysoft``    -- polynomial soft-weighting loss applied on top of the
                     per-sample cross entropy, threshold ``lam`` and order ``d``

Each family's value and analytic logit gradient are written once, as
batched kernels ``value(P, labels, h) -> (values, shared)`` and
``grad(P, labels, h, shared)`` on probability rows P, whose hyperparameter
fields are scalars, one per row, or (K, 1) columns of stacked probes;
``polysoft_of_ce`` is the soft-weighting formula on cross entropies.
``batch_loss`` (training, hypergradient probes, metrics) takes values and
gradients, ``loss_values`` (the theory table, the loss curve, the cross
entropies of the sample weights) takes values only, and the single-sample
``ce``, ``gce``, ``rce``, ``sl``, ``bi_tempered``, ``polysoft``,
``polysoft_weight`` and ``loss_on_logits`` check their inputs, evaluate one
row and add the hyperparameter gradients.  A smooth reparameterization maps
the constrained hyperparameter domains onto unconstrained coordinates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from types import SimpleNamespace

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

_FIELDS_READ = {
    "ce": (),
    "gce": ("q",),
    "sl": ("gamma1", "gamma2", "rce_a"),
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
        for name in _FIELDS_READ[self.variant]:
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
    return HyperParams(
        variant,
        q=0.3,
        gamma1=1.0,
        gamma2=1.0,
        t1=0.5,
        t2=1.5,
        lam=3.0 * math.log(num_classes),
        d=3.0,
    )


@dataclass
class LossEval:
    """Loss value with its gradients.

    ``grad_logits`` is the derivative with respect to the c logits (empty
    for the scalar-input ``polysoft``); ``grad_hyper`` lines up with the
    variant's learnable hyperparameters.
    """

    value: float
    grad_logits: np.ndarray
    grad_hyper: np.ndarray


def _check_probs(p):
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.shape[0] < 2:
        raise DomainError("probabilities must be a vector of length >= 2")
    if not np.all(np.isfinite(p)):
        raise DomainError("probabilities must be finite")
    if np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-8:
        raise DomainError("probabilities must be nonnegative and sum to 1")
    return p


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

def log_t(x, t):
    """Tempered logarithm (x^(1-t) - 1) / (1 - t); natural log at t = 1."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("log_t requires x > 0")
    if abs(t - 1.0) < _T_NEAR_ONE:
        out = np.log(x)
    else:
        s = 1.0 - t
        out = np.expm1(s * np.log(x)) / s
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
        return float(out) if out.ndim == 0 else out
    s = 1.0 - t
    base = 1.0 + s * x
    out = np.empty_like(x)
    pos = base > 0.0
    out[pos] = np.exp(np.log1p(s * x[pos]) / s)
    out[~pos] = 0.0 if t < 1.0 else np.inf
    return float(out) if out.ndim == 0 else out


def _exp_t_neg_args(X, s):
    """exp_t with s = 1 - t (a scalar or one per row) for arguments X <= 0.

    For t > 1 the base 1 + s*X is >= 1; for t < 1 (reached only by the
    finite-difference probes around t2) it can hit zero, which is the
    [.]_+ branch of exp_t: log1p(-1) = -inf gives the exact 0, and the
    caller silences its divide warning.  log1p keeps the base exact as
    s -> 0 on both sides of 1.
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
# loss kernels: each family's value and logit gradient, written once
# ---------------------------------------------------------------------------

# ``labels`` is one label per row of P or one for all rows.  The order of
# operations is the training path's, which the training bits depend on.

def _on_classes(h):
    """A hyperparameter (scalar, per row, or (K, 1) when stacked) lifted onto the class axis."""
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


def _gce_value(P, labels, h):
    pq = _clamp(_label_probs(P, labels)) ** h.q
    return (1.0 - pq) / h.q, pq


def _gce_grad(P, labels, h, pq):
    return pq[..., None] * _ce_grad(P, labels)


def _sl_value(P, labels, h):
    """gamma1 * ce + gamma2 * rce; rce is -rce_a times the off-label mass."""
    pl = _label_probs(P, labels)
    rce = -h.rce_a * (P.sum(axis=1) - pl)
    return h.gamma1 * _ce_value(P, labels)[0] + h.gamma2 * rce, pl


def _sl_grad(P, labels, h, pl):
    D = _ce_grad(P, labels)
    return _on_classes(h.gamma1) * D + _on_classes(h.gamma2) * (
        _on_classes(h.rce_a) * pl[:, None] * -D
    )


def _bi_tempered_value(P, labels, h):
    """-log_t1(p[label]) - (1 - sum_j p_j^(2-t1)) / (2 - t1), clamped at 0."""
    Pc = _clamp(P)
    log_pj = np.log(_label_probs(Pc, labels))
    s1 = 1.0 - h.t1
    near = np.abs(s1) < _T_NEAR_ONE  # the t1 -> 1 limit is the natural log
    s1 = np.where(near, 1.0, s1)
    log_term = np.where(near, log_pj, np.expm1(s1 * log_pj) / s1)
    tail = (1.0 - (Pc ** _on_classes(2.0 - h.t1)).sum(axis=1)) / (2.0 - h.t1)
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


def polysoft_of_ce(ce, lam, d):
    """Soft-weighting loss values at cross-entropy values ``ce``, and u.

    u = 1 - ce/lam below the threshold lam and 0 on the plateau, and
    value = (d-1) lam / d * (1 - u^(d/(d-1))), which is the constant
    (d-1) lam / d where u = 0.  ``_polysoft_weight`` turns u into the
    weight d value / d ce.  Inputs are not checked; ``polysoft`` and
    ``polysoft_weight`` are the checked forms.
    """
    u = np.where(ce < lam, 1.0 - ce / lam, 0.0)
    plateau = (d - 1.0) * lam / d
    return plateau * (1.0 - u ** (d / (d - 1.0))), u


def _polysoft_weight(u, d):
    """The sample weight u^(d/(d-1) - 1), 0 on the plateau."""
    return np.where(u > 0.0, u ** (d / (d - 1.0) - 1.0), 0.0)


def _polysoft_value(P, labels, h):
    return polysoft_of_ce(_ce_value(P, labels)[0], h.lam, h.d)


def _polysoft_grad(P, labels, h, u):
    return _polysoft_weight(u, h.d)[..., None] * _ce_grad(P, labels)


_FAMILIES = {
    "ce": (_ce_value, _ce_grad),
    "gce": (_gce_value, _gce_grad),
    "sl": (_sl_value, _sl_grad),
    "bi_tempered": (_bi_tempered_value, _bi_tempered_grad),
    "polysoft": (_polysoft_value, _polysoft_grad),
}


def _evaluate(variant, P, labels, h):
    """Values and logit gradients of one family on probability rows."""
    value, grad = _FAMILIES[variant]
    values, shared = value(P, labels, h)
    return values, grad(P, labels, h, shared)


def loss_values(hyper, P, labels):
    """Per-row values of ``hyper``'s family on unchecked probability rows ``P``.

    No gradient is formed.  For ``bi_tempered`` P is the tempered softmax.
    """
    return _FAMILIES[hyper.variant][0](P, labels, hyper)[0]


def batch_loss(hyper, Z, labels):
    """Per-sample values and logit gradients for a batch.

    ``Z`` is (n, c), ``labels`` (n,) ints.  Returns ``(values, grads)``
    with shapes (n,) and (n, c); callers handle the 1/n reduction.  The
    logits are normalized (softmax, or the tempered softmax for
    ``bi_tempered``) and handed to the family's kernel.

    ``hyper`` may also be a sequence of K HyperParams of one learnable
    variant (the hypergradient's probes).  The outputs then gain a leading
    probe axis, (K, n) and (K, n, c), and the softmax of ``Z`` is computed
    once for all K; the tempered softmax depends on ``t2``, so
    ``bi_tempered`` stacks the K probes into one normalization solve over
    K * n rows, one ``(t1, t2)`` per row.
    """
    Z = np.asarray(Z, dtype=float)
    labels = np.asarray(labels, dtype=int)
    stacked = not isinstance(hyper, HyperParams)
    hypers = tuple(hyper) if stacked else (hyper,)
    v = hypers[0].variant
    if stacked and (not LEARNABLE[v] or any(h.variant != v for h in hypers)):
        raise DomainError("stacked hyperparameters must share one learnable variant")

    if v == "bi_tempered":
        K, n = len(hypers), len(labels)
        rows = SimpleNamespace(
            t1=np.repeat([h.t1 for h in hypers], n), t2=np.repeat([h.t2 for h in hypers], n)
        )
        P, _ = _tempered_softmax_batch(np.tile(Z, (K, 1)), rows.t2)
        values, grads = _evaluate(v, P, np.tile(labels, K), rows)
        if not stacked:
            return values, grads
        return values.reshape(K, -1), grads.reshape(K, *Z.shape)

    if stacked:
        # each field as a (K, 1) column, broadcasting against (n,) per-sample arrays
        hyper = SimpleNamespace(**{
            name: np.array([getattr(h, name) for h in hypers])[:, None]
            for name in _FIELDS_READ[v]
        })
    return _evaluate(v, softmax(Z), labels, hyper)


# ---------------------------------------------------------------------------
# single-sample API: checked inputs, LossEval outputs, one kernel row each
# ---------------------------------------------------------------------------

def _checked_row(hyper, probs, label):
    """Value and logit gradient of one checked probability row."""
    p = _check_probs(probs)
    values, grads = _evaluate(hyper.variant, p[None, :], _check_label(label, p.shape[0]), hyper)
    return float(values[0]), grads[0]


def ce(probs, label):
    """Cross entropy -log p[label].

    ``grad_logits`` is the usual softmax-composed gradient ``p - y``; it is
    only meaningful when ``probs`` came from a softmax over those logits.
    """
    return LossEval(*_checked_row(HyperParams("ce"), probs, label), np.zeros(0))


def gce(probs, label, q):
    """Generalized cross entropy (1 - p[label]^q) / q for q in (0, 1].

    Interpolates between cross entropy (q -> 0) and the mean absolute
    error 1 - p[label] (q = 1).
    """
    value, grad = _checked_row(HyperParams("gce", q=q), probs, label)
    pj = float(_clamp(np.asarray(probs, dtype=float)[int(label)]))
    return LossEval(value, grad, np.array([-(pj**q * math.log(pj) + value) / q]))


def rce(probs, label, rce_a=-4.0):
    """Reverse cross entropy -rce_a * sum of off-label probabilities (``sl`` at 0, 1)."""
    hyper = HyperParams("sl", gamma1=0.0, gamma2=1.0, rce_a=rce_a)
    return LossEval(*_checked_row(hyper, probs, label), np.zeros(0))


def sl(probs, label, gamma1, gamma2, rce_a=-4.0):
    """Symmetric loss gamma1 * ce + gamma2 * rce; linear in both gammas."""
    hyper = HyperParams("sl", gamma1=gamma1, gamma2=gamma2, rce_a=rce_a)
    value, grad = _checked_row(hyper, probs, label)
    return LossEval(value, grad, np.array([ce(probs, label).value, rce(probs, label, rce_a).value]))


def bi_tempered(z, label, t1, t2):
    """Tempered-log loss of the tempered softmax of ``z``.

    value = -log_t1(p[label]) - (1 - sum_j p_j^(2-t1)) / (2 - t1), a
    bounded divergence: 0 <= value <= 1/(1-t1).  The logit gradient
    differentiates through the implicit normalization; the (t1, t2)
    gradient uses central differences (step 1e-4) since the analytic
    route through the normalization solve is error-prone.  The value and
    its four probes are rows of one normalization solve.
    """
    HyperParams("bi_tempered", t1=t1, t2=t2)  # checks t1 and t2
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise DomainError("logits must be a vector")
    j = _check_label(label, z.shape[0])

    h = 1e-4
    rows = SimpleNamespace(t1=np.array([t1, t1 + h, t1 - h, t1, t1]),
                           t2=np.array([t2, t2, t2, t2 + h, t2 - h]))
    P, _ = _tempered_softmax_batch(np.tile(z, (5, 1)), rows.t2)
    values, grads = _evaluate("bi_tempered", P, j, rows)
    grad_hyper = np.array([values[1] - values[2], values[3] - values[4]]) / (2 * h)
    return LossEval(float(values[0]), grads[0], grad_hyper)


def polysoft(ce_value, lam, d):
    """Polynomial soft-weighting loss of a cross-entropy value.

    value = (d-1) lam / d * [1 - (1 - ce/lam)^(d/(d-1))] for ce < lam,
    constant (d-1) lam / d beyond.  Its derivative in ce equals
    ``polysoft_weight`` everywhere (left limit 0 at ce = lam).
    ``grad_hyper`` holds the (lam, d) partials; ``grad_logits`` is empty
    because this loss consumes a scalar.
    """
    ce_value = float(ce_value)
    weight = polysoft_weight(ce_value, lam, d)  # checks lam, d and ce_value
    values, us = polysoft_of_ce(np.array([ce_value]), lam, d)
    value, u = float(values[0]), float(us[0])
    # d/dlam = (value - weight * ce) / lam and d/dd = (value + lam u^r log u) / (d (d-1))
    # with r = d/(d-1) and u^r = u * weight, which tends to 0 with u
    ur_log_u = u * weight * math.log(u) if u > 0.0 else 0.0
    grad_hyper = [(value - weight * ce_value) / lam, (value + lam * ur_log_u) / (d * (d - 1.0))]
    return LossEval(value, np.zeros(0), np.array(grad_hyper))


def polysoft_weight(ce_value, lam, d):
    """Implicit sample weight d polysoft / d ce, 0 beyond the plateau."""
    HyperParams("polysoft", lam=lam, d=d)  # checks lam and d
    ce_value = np.asarray(ce_value, dtype=float)
    if np.any(~np.isfinite(ce_value)) or np.any(ce_value < 0.0):
        raise DomainError("ce_value must be a nonnegative real")
    w = _polysoft_weight(polysoft_of_ce(ce_value, lam, d)[1], d)
    return float(w) if w.ndim == 0 else w


def loss_on_logits(hyper, z, label):
    """Single-sample dispatch: full LossEval for ``hyper.variant``."""
    z = np.asarray(z, dtype=float)
    v = hyper.variant
    if v == "bi_tempered":
        return bi_tempered(z, label, hyper.t1, hyper.t2)
    p = softmax(z)
    if v == "ce":
        return ce(p, label)
    if v == "gce":
        return gce(p, label, hyper.q)
    if v == "sl":
        return sl(p, label, hyper.gamma1, hyper.gamma2, hyper.rce_a)
    grad_hyper = polysoft(ce(p, label).value, hyper.lam, hyper.d).grad_hyper
    return LossEval(*_checked_row(hyper, p, label), grad_hyper)


# ---------------------------------------------------------------------------
# unconstrained reparameterization
# ---------------------------------------------------------------------------

# The reparameterization maps one scalar at a time; math beats numpy's
# 0-d array overhead several times over on the hypergradient probes.

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
        v = getattr(h, name)
        if name == "q":
            theta.append(_logit((v - EPS_Q) / (1.0 - EPS_Q), name))
        elif name == "t1":
            theta.append(_logit(v / (1.0 - EPS_T), name))
        elif name == "t2":
            theta.append(_softplus_inv(_positive(v - 1.0, name)))
        elif name == "d":
            theta.append(_softplus_inv(_positive(v - 1.0, name)))
        else:  # gamma1, gamma2, lam
            theta.append(_softplus_inv(_positive(v, name)))
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
        th = float(th)
        if name == "q":
            updates[name] = EPS_Q + (1.0 - EPS_Q) * _sigmoid(th)
        elif name == "t1":
            updates[name] = (1.0 - EPS_T) * _sigmoid(th)
        elif name in ("t2", "d"):
            updates[name] = 1.0 + _softplus(th)
        else:
            updates[name] = _softplus(th)
    return replace(like, **updates)


def reparam_scale(variant, theta):
    """d(constrained)/d(unconstrained) per coordinate, for chain rules."""
    names = LEARNABLE[variant]
    theta = np.asarray(theta, dtype=float)
    out = np.empty(len(names))
    for k, (name, th) in enumerate(zip(names, theta)):
        sig = _sigmoid(float(th))
        if name == "q":
            out[k] = (1.0 - EPS_Q) * sig * (1.0 - sig)
        elif name == "t1":
            out[k] = (1.0 - EPS_T) * sig * (1.0 - sig)
        else:
            out[k] = sig
    return out
