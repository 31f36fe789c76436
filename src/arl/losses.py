"""Robust classification losses with tunable hyperparameters.

Five loss families over a c-class softmax (or tempered-softmax) output:

* ``ce``          -- cross entropy, no hyperparameters
* ``gce``         -- generalized cross entropy, power ``q`` in (0, 1]
* ``sl``          -- symmetric loss, a ``gamma1 * ce + gamma2 * rce`` blend
* ``bi_tempered`` -- tempered logarithm/exponential loss, ``0 <= t1 < 1 < t2``
* ``polysoft``    -- polynomial soft-weighting loss applied on top of the
                     per-sample cross entropy, threshold ``lam`` and order ``d``

Every loss returns its value together with analytic gradients with respect
to the logits and (where present) its hyperparameters, so the training loop
never needs autodiff.  A smooth reparameterization maps the constrained
hyperparameter domains onto unconstrained coordinates for gradient updates.
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


def _onehot(label, c):
    y = np.zeros(c)
    y[label] = 1.0
    return y


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
# softmax-based losses
# ---------------------------------------------------------------------------

def ce(probs, label):
    """Cross entropy -log p[label].

    ``grad_logits`` is the usual softmax-composed gradient ``p - y``; it is
    only meaningful when ``probs`` came from a softmax over those logits.
    """
    p = _check_probs(probs)
    j = _check_label(label, p.shape[0])
    value = -math.log(_clamp(p[j]))
    return LossEval(value, p - _onehot(j, p.shape[0]), np.zeros(0))


def gce(probs, label, q):
    """Generalized cross entropy (1 - p[label]^q) / q for q in (0, 1].

    Interpolates between cross entropy (q -> 0) and the mean absolute
    error 1 - p[label] (q = 1).
    """
    if not (np.isfinite(q) and 0.0 < q <= 1.0):
        raise DomainError(f"q={q!r} outside (0, 1]")
    p = _check_probs(probs)
    j = _check_label(label, p.shape[0])
    pj = float(_clamp(p[j]))
    pq = pj ** q
    value = (1.0 - pq) / q
    grad_logits = pq * (p - _onehot(j, p.shape[0]))
    dq = -(pq * math.log(pj)) / q - (1.0 - pq) / q**2
    return LossEval(value, grad_logits, np.array([dq]))


def rce(probs, label, rce_a=-4.0):
    """Reverse cross entropy -rce_a * sum of off-label probabilities."""
    if not (np.isfinite(rce_a) and rce_a < 0.0):
        raise DomainError(f"rce_a={rce_a!r} must be negative")
    p = _check_probs(probs)
    j = _check_label(label, p.shape[0])
    value = -rce_a * float(p.sum() - p[j])
    grad_logits = rce_a * p[j] * (_onehot(j, p.shape[0]) - p)
    return LossEval(value, grad_logits, np.zeros(0))


def sl(probs, label, gamma1, gamma2, rce_a=-4.0):
    """Symmetric loss gamma1 * ce + gamma2 * rce; linear in both gammas."""
    if not (np.isfinite(gamma1) and gamma1 >= 0.0):
        raise DomainError(f"gamma1={gamma1!r} must be nonnegative")
    if not (np.isfinite(gamma2) and gamma2 >= 0.0):
        raise DomainError(f"gamma2={gamma2!r} must be nonnegative")
    e_ce = ce(probs, label)
    e_rce = rce(probs, label, rce_a)
    value = gamma1 * e_ce.value + gamma2 * e_rce.value
    grad_logits = gamma1 * e_ce.grad_logits + gamma2 * e_rce.grad_logits
    return LossEval(value, grad_logits, np.array([e_ce.value, e_rce.value]))


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


def _bi_tempered_value_batch(Z, labels, t1, t2):
    """Per-row values and clamped probabilities, one t1 and t2 per row."""
    P, _ = _tempered_softmax_batch(Z, t2)
    Pc = _clamp(P)
    log_pj = np.log(Pc[np.arange(len(labels)), labels])
    s1 = 1.0 - t1
    near = np.abs(s1) < _T_NEAR_ONE  # the t1 -> 1 limit is the natural log
    s1 = np.where(near, 1.0, s1)
    log_term = np.where(near, log_pj, np.expm1(s1 * log_pj) / s1)
    tail = (1.0 - (Pc ** (2.0 - t1)[:, None]).sum(axis=1)) / (2.0 - t1)
    values = -log_term - tail
    return np.maximum(values, 0.0), Pc


def bi_tempered(z, label, t1, t2):
    """Tempered-log loss of the tempered softmax of ``z``.

    value = -log_t1(p[label]) - (1 - sum_j p_j^(2-t1)) / (2 - t1), a
    bounded divergence: 0 <= value <= 1/(1-t1).  The logit gradient
    differentiates through the implicit normalization; the (t1, t2)
    gradient uses central differences (step 1e-4) since the analytic
    route through the normalization solve is error-prone.  The value and
    its four probes are rows of one normalization solve.
    """
    if not (np.isfinite(t1) and 0.0 <= t1 < 1.0):
        raise DomainError(f"t1={t1!r} outside [0, 1)")
    if not (np.isfinite(t2) and t2 > 1.0):
        raise DomainError(f"t2={t2!r} must exceed 1")
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise DomainError("logits must be a vector")
    j = _check_label(label, z.shape[0])

    h = 1e-4
    t1s = np.array([t1, t1 + h, t1 - h, t1, t1])
    t2s = np.array([t2, t2, t2, t2 + h, t2 - h])
    labels = np.full(len(t1s), j)
    values, Pc = _bi_tempered_value_batch(np.tile(z, (len(t1s), 1)), labels, t1s, t2s)
    grad = _bi_tempered_grad_batch(Pc[:1], labels[:1], t1s[:1], t2s[:1])[0]
    grad_hyper = np.array([values[1] - values[2], values[3] - values[4]]) / (2 * h)
    return LossEval(float(values[0]), grad, grad_hyper)


def _bi_tempered_grad_batch(Pc, labels, t1, t2):
    """d value / d logits through the implicit normalization, t1, t2 per row.

    With S = sum_j p_j^t2 and u = p^t2 / S, the normalization constraint
    gives d gamma / d z_k = u_k, hence
    d value / d z_k = g_k - u_k * sum_j g_j with
    g_j = (dL/dp_j) * p_j^t2 = -1[j = label] p_j^(t2-t1) + p_j^(1-t1+t2).
    """
    n = np.arange(len(labels))
    G = Pc ** (1.0 - t1 + t2)[:, None]
    G[n, labels] -= Pc[n, labels] ** (t2 - t1)
    U = Pc ** t2[:, None]
    U /= U.sum(axis=1, keepdims=True)
    return G - U * G.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# polynomial soft-weighting loss
# ---------------------------------------------------------------------------

def _polysoft_check(lam, d):
    if not (np.isfinite(lam) and lam > 0.0):
        raise DomainError(f"lam={lam!r} must be positive")
    if not (np.isfinite(d) and d > 1.0):
        raise DomainError(f"d={d!r} must exceed 1")


def polysoft(ce_value, lam, d):
    """Polynomial soft-weighting loss of a cross-entropy value.

    value = (d-1) lam / d * [1 - (1 - ce/lam)^(d/(d-1))] for ce < lam,
    constant (d-1) lam / d beyond.  Its derivative in ce equals
    ``polysoft_weight`` everywhere (left limit 0 at ce = lam).
    ``grad_hyper`` holds the (lam, d) partials; ``grad_logits`` is empty
    because this loss consumes a scalar.
    """
    _polysoft_check(lam, d)
    ce_value = float(ce_value)
    if not np.isfinite(ce_value) or ce_value < 0.0:
        raise DomainError(f"ce_value={ce_value!r} must be a nonnegative real")
    plateau_frac = (d - 1.0) / d
    if ce_value >= lam:
        value = plateau_frac * lam
        d_lam = plateau_frac
        d_d = lam / d**2
    else:
        u = 1.0 - ce_value / lam
        r = d / (d - 1.0)
        ur = u**r
        value = plateau_frac * lam * (1.0 - ur)
        d_lam = plateau_frac * (1.0 - ur) - u ** (r - 1.0) * ce_value / lam
        d_d = lam / d**2 * (1.0 - ur) + lam * ur * math.log(u) / (d * (d - 1.0))
    return LossEval(value, np.zeros(0), np.array([d_lam, d_d]))


def polysoft_weight(ce_value, lam, d):
    """Implicit sample weight (1 - ce/lam)^(1/(d-1)), 0 beyond the plateau."""
    _polysoft_check(lam, d)
    ce_value = np.asarray(ce_value, dtype=float)
    if np.any(~np.isfinite(ce_value)) or np.any(ce_value < 0.0):
        raise DomainError("ce_value must be a nonnegative real")
    inside = ce_value < lam
    u = np.where(inside, 1.0 - ce_value / lam, 0.0)
    w = np.where(inside, u ** (1.0 / (d - 1.0)), 0.0)
    return float(w) if w.ndim == 0 else w


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


# ---------------------------------------------------------------------------
# batched dispatch used by the training loop
# ---------------------------------------------------------------------------

def _on_classes(h):
    """A hyperparameter (scalar, or (K, 1) when stacked) lifted onto the class axis."""
    return np.asarray(h)[..., None]


def batch_loss(hyper, Z, labels):
    """Per-sample values and logit gradients for a batch.

    ``Z`` is (n, c), ``labels`` (n,) ints.  Returns ``(values, grads)``
    with shapes (n,) and (n, c); callers handle the 1/n reduction.

    ``hyper`` may also be a sequence of K HyperParams of one learnable
    variant (the hypergradient's probes).  The outputs then gain a leading
    probe axis, (K, n) and (K, n, c), and the softmax of ``Z`` is computed
    once for all K; the tempered softmax depends on ``t2``, so
    ``bi_tempered`` stacks the K probes into one normalization solve over
    K * n rows, one ``t2`` per row.
    """
    Z = np.asarray(Z, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n = np.arange(len(labels))
    stacked = not isinstance(hyper, HyperParams)
    hypers = tuple(hyper) if stacked else (hyper,)
    v = hypers[0].variant
    if stacked:
        if not LEARNABLE[v] or any(h.variant != v for h in hypers):
            raise DomainError("stacked hyperparameters must share one learnable variant")
        # each field as a (K, 1) column, broadcasting against (n,) per-sample arrays
        hyper = SimpleNamespace(**{
            name: np.array([getattr(h, name) for h in hypers])[:, None]
            for name in _FIELDS_READ[v]
        })

    if v == "bi_tempered":
        # the K probes are K blocks of rows of one normalization solve
        K, rows = len(hypers), np.tile(labels, len(hypers))
        t1 = np.repeat([h.t1 for h in hypers], len(labels))
        t2 = np.repeat([h.t2 for h in hypers], len(labels))
        values, Pc = _bi_tempered_value_batch(np.tile(Z, (K, 1)), rows, t1, t2)
        grads = _bi_tempered_grad_batch(Pc, rows, t1, t2)
        if not stacked:
            return values, grads
        return values.reshape(K, -1), grads.reshape(K, *Z.shape)

    P = softmax(Z)
    Y = np.zeros_like(P)
    Y[n, labels] = 1.0
    pj = np.clip(P[n, labels], PROB_FLOOR, 1.0 - PROB_FLOOR)

    if v == "ce":
        return -np.log(pj), P - Y
    if v == "gce":
        pq = pj**hyper.q
        return (1.0 - pq) / hyper.q, pq[..., None] * (P - Y)
    if v == "sl":
        ce_vals = -np.log(pj)
        rce_vals = -hyper.rce_a * (P.sum(axis=1) - P[n, labels])
        values = hyper.gamma1 * ce_vals + hyper.gamma2 * rce_vals
        grads = _on_classes(hyper.gamma1) * (P - Y) + _on_classes(hyper.gamma2) * (
            _on_classes(hyper.rce_a) * P[n, labels][:, None] * (Y - P)
        )
        return values, grads
    if v == "polysoft":
        ce_vals = -np.log(pj)
        lam, d = hyper.lam, hyper.d
        inside = ce_vals < lam
        u = np.where(inside, 1.0 - ce_vals / lam, 0.0)
        r = d / (d - 1.0)
        plateau = (d - 1.0) * lam / d
        values = np.where(inside, plateau * (1.0 - u**r), plateau)
        weights = np.where(inside, u ** (r - 1.0), 0.0)
        return values, weights[..., None] * (P - Y)
    raise DomainError(f"unknown loss variant {v!r}")


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
    if v == "polysoft":
        base = ce(p, label)
        poly = polysoft(base.value, hyper.lam, hyper.d)
        weight = polysoft_weight(base.value, hyper.lam, hyper.d)
        return LossEval(poly.value, weight * base.grad_logits, poly.grad_hyper)
    raise DomainError(f"unknown loss variant {v!r}")
