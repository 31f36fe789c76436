"""Robust classification losses with tunable hyperparameters.

Five loss families over a c-class softmax (or tempered-softmax) output:

* ``ce``          -- cross entropy, no hyperparameters
* ``gce``         -- generalized cross entropy, power ``q`` in (0, 1]
* ``sl``          -- symmetric loss, a ``gamma1 * ce + gamma2 * rce`` blend
* ``bi_tempered`` -- tempered logarithm/exponential loss, ``0 <= t1 < 1 < t2``
* ``polysoft``    -- polynomial soft-weighting loss applied on top of the
                     per-sample cross entropy, threshold ``lam`` and order ``d``

Each family's value, analytic logit gradient and hyperparameter derivatives
are written once, as batched kernels on a ``_Batch`` record b, one
normalization of a batch: ``value(b, h) -> (values, shared)``, ``grad(b,
h, shared)`` and ``hgrad(b, h, shared) -> (dvalues, dgrads)``, ``shared``
carrying the terms they share; ``polysoft_of_ce`` is the soft-weighting
formula on cross entropies.  A kernel reads its hyperparameter fields from
a ``HyperParams`` or from the ``_RowFields`` record that training builds
from the runs' (R, K) array of fields: a field that the runs share as one
Python float, any other as a value per row, so one call serves the stacked
rows of runs with different fields.  Every power whose exponent is a loss
field goes through ``_pow``:
a scalar field is a plain scalar power, and a row of a per-row field gets
the bits of its own scalar, so a row evaluates to the same bits alone,
stacked or in a batch of one.  On the record of
``normalize``, ``batch_loss`` (training) takes values and gradients and
``batch_hgrad`` (the hypergradient) adds the gradients' derivatives in
each learnable field, and the values' derivatives when asked;
``loss_values`` (the metrics rows, the theory table, the loss curve, the
cross entropies of the sample weights) takes the same values alone, on
bare probability rows.  The tempered logarithm and exponential exist only
as the kernels that ``bi_tempered`` runs, on the domain that
``HyperParams`` checks, 0 <= t1 < 1 < t2: ``_log_t_of_log`` (from log x,
at t1), ``_exp_t_neg_args`` (at t2, of arguments <= 0) and the batched
normalization solve ``_tempered_softmax_batch`` (Newton at t2 on every
row, from max z or from given starts), which ``normalize`` calls; one
Newton pass is one call of ``_exp_t_neg_args``.  At desk scale the
bi_tempered path costs numpy call overhead, not arithmetic, so its solve
and kernels form each term in as few calls as keep its bits: (n, 1)
columns, ``np.add.reduce`` rather than the ``.sum`` wrapper, one
preallocated derivative array, and no freeze of stopped rows or Taylor
series while no entry needs one.
``loss_on_logits`` is the one checked single-row entry point,
``polysoft_weight`` the checked sample weight of a cross entropy.  A smooth
reparameterization maps the runs' (R, K) unconstrained coordinates onto
the fields' domains, which ``HyperParams`` and the map check by one table.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

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
# _NEWTON_MAX_STEPS raises.
_NEWTON_RTOL = 1e-13
_NEWTON_MAX_STEPS = 50

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


# each field's domain, checked by ``_check_rows``
_DOMAINS = {
    "q": lambda v: 0.0 < v <= 1.0,
    "gamma1": lambda v: v >= 0.0,
    "gamma2": lambda v: v >= 0.0,
    "t1": lambda v: 0.0 <= v < 1.0,
    "t2": lambda v: v > 1.0,
    "lam": lambda v: v > 0.0,
    "d": lambda v: v > 1.0,
    "rce_a": lambda v: v < 0.0,
}


def _check_rows(variant, names, rows):
    """Rows of field values (columns ``names``) in their domains: the first value outside
    raises ``DomainError``, which names its field and holds its row."""
    for r, row in enumerate(rows):
        for name, value in zip(names, row):
            if not math.isfinite(value) or not _DOMAINS[name](value):
                raise DomainError(f"{name}={value!r} outside its domain for variant {variant!r}", r)


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
        names = self.learnable_names + (("rce_a",) if self.variant == "sl" else ())
        _check_rows(self.variant, names, [[getattr(self, name) for name in names]])

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
    # np.clip's bits; its wrapper costs about 3 us a call on small arrays
    return np.minimum(np.maximum(p, PROB_FLOOR), 1.0 - PROB_FLOOR)


def softmax(z):
    """Numerically stable softmax over the last axis (the reductions are the array methods' ufuncs)."""
    z = np.asarray(z, dtype=float)
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# tempered math
# ---------------------------------------------------------------------------

def _log_t_of_log(log_x, t):
    """log_t from log x at t in [0, 1), a scalar or an array: expm1((1-t) log x) / (1-t), exact as t -> 1."""
    s = 1.0 - t
    return np.expm1(s * log_x) / s


def _exp_t_neg_args(X, s):
    """exp_t(X) = (1 + s X)^(1/s) with s = 1 - t < 0 (a scalar or one per row) and X <= 0.

    For t > 1 and X <= 0 the base 1 + s X is >= 1, so exp_t needs no
    positive part; log1p keeps the base exact as t -> 1.
    """
    return np.exp(np.log1p(s * X) / s)


def _tempered_softmax_batch(Z, t2, start=None):
    """Normalization solve for rows of logits, ``t2 > 1`` a scalar or one per row.

    Returns ``(P, gamma)`` with P[i] = exp_t2(Z[i] - gamma[i]) summing to 1.
    Every row runs Newton on F(gamma) = log_t2 S(gamma), S being the
    partition sum sum_j exp_t2(z_j - gamma), whose root is S = 1.  With
    k = t2 - 1 each term is b_j^(-1/k) on the base b_j = 1 + k (gamma - z_j),
    which is >= 1 and affine in gamma, so S^(-k) is a power mean of
    exponent -1/k < 1 of the bases: concave and increasing in gamma.  F =
    (1 - S^(-k)) / k is therefore convex and decreasing, and the steps
    gamma += F / -F' = S expm1(k log S) / (k sum_j p_j^t2) from
    gamma = max z rise monotonically to the unique root.  F is exactly
    linear in gamma as t2 -> 1 (log S) and where one class holds all the
    mass, which is where S - 1 bends most, so Newton on F takes few steps.
    The derivative term p^t2 = dp/dx is p / (1 + (1 - t2) x), no power.  A
    row stops on a relative step size, not on the residual, whose floor is
    about |gamma| * eps, and a NaN step never stops; the stopping step is
    taken to first order, P -= p^t2 * step, with no further pass.  Each
    row's steps are its own and elementwise in t2, so a row solves to the
    same bits in any batch.  ``HyperParams`` checks t2's domain.

    ``start`` (one per row, e.g. a guess at the root from a nearby t2)
    starts Newton elsewhere.  It is first clamped into the root's bracket
    [max z, max z - log_t2(1/c)], where the largest p runs from 1 down to
    1/c, so S and sum_j p_j^t2 cannot underflow.  From a start left of
    the root the steps rise as above.  From one right of it, convexity puts
    the first iterate at or left of the root, since F(x1) >= F(x0) + F'(x0)
    (x1 - x0) = 0, and from there they rise; each iterate is clamped at
    max z, which keeps every argument of exp_t <= 0.  A row's start is its
    own, so it still solves to the same bits in any batch.  Without a start
    every iterate is >= max z already, and the bits are the cold solve's.

    A pass is one call of ``_exp_t_neg_args``.  Stopped rows are frozen by
    an ``np.where`` only once some row has stopped; before that the update
    is the same plain add.  A row that has not stopped after
    ``_NEWTON_MAX_STEPS`` passes raises ``NumericError``, which names the
    first such row, its t2, its |S - 1| and its logits; non-finite logits
    raise ``DomainError`` naming their first row.  Both hold it as ``row``.
    """
    Z = np.asarray(Z, dtype=float)
    n = len(Z)
    if not np.isfinite(Z).all():  # the method: np.all's wrapper costs about 3 us a call
        i = int(np.argmin(np.isfinite(Z).all(axis=1)))  # the first row with a non-finite logit
        raise DomainError(f"logits must be finite: row {i} of {n}, logits {Z[i].tolist()}", i)
    k = _on_classes(t2 - 1.0)  # a scalar or one per row, as a column
    s = -k
    top = np.maximum.reduce(Z, axis=1, keepdims=True)
    gamma = top
    if start is not None:  # -log_t2(1/c) = expm1((t2 - 1) log c) / (t2 - 1)
        gamma = np.minimum(np.maximum(start[:, None], top), top + np.expm1(k * math.log(Z.shape[1])) / k)
    done = np.zeros((n, 1), dtype=bool)
    for _ in range(_NEWTON_MAX_STEPS):
        X = Z - gamma
        P = _exp_t_neg_args(X, s)
        Pt = P / (1.0 + s * X)  # p^t2 = dp/dx
        S = np.add.reduce(P, axis=1, keepdims=True)
        step = S * np.expm1(k * np.log(S)) / (k * np.add.reduce(Pt, axis=1, keepdims=True))
        done |= np.abs(step) <= _NEWTON_RTOL * np.maximum(1.0, np.abs(gamma))  # NaN stays active
        stopped = np.count_nonzero(done)
        if stopped == n:
            break
        # a stopped row repeats its last pass's bits
        gamma = np.where(done, gamma, gamma + step) if stopped else gamma + step
        if start is not None:
            gamma = np.maximum(gamma, top)
    else:
        i = int(np.argmin(done[:, 0]))  # the first row that did not stop
        raise NumericError(
            f"tempered softmax Newton solve did not converge in {_NEWTON_MAX_STEPS} steps: "
            f"row {i} of {n} ({n - stopped} not stopped), t2={float(np.broadcast_to(t2, n)[i])!r}, "
            f"|sum p - 1| = {abs(S[i, 0] - 1.0):.3e}, logits {Z[i].tolist()}", i
        )
    P -= Pt * step
    return P, (gamma + step)[:, 0]


# ---------------------------------------------------------------------------
# loss kernels: each family's value, logit gradient and hyperparameter
# derivatives, written once
# ---------------------------------------------------------------------------

# ``b.labels`` is one label per row of P, one for all rows, or a (k, 1)
# column of labels, which gives (k, rows) values, one row of values per
# label.  Where ``hgrad`` reads a term that ``grad`` forms, ``grad`` adds it
# to ``shared``; ``batch_hgrad`` calls ``grad`` first.  The order of
# operations in ``value`` and ``grad`` is the training path's, which the
# training bits depend on.  ``hgrad(b, h, shared, dvalues)`` returns the
# derivatives of the values (k, n), only when ``dvalues`` is true and else
# None, and of the logit gradients (k, n, c) in each learnable field, in
# LEARNABLE order; D = P - Y below.

class _once:
    """``functools.cached_property`` without the lock Python 3.11 takes on each first read."""

    def __init__(self, compute):
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, obj, owner=None):
        obj.__dict__[self.name] = value = self.compute(obj)
        return value


class _Batch:
    """One normalization of a batch, the record the kernels read.

    The probability rows P (softmax, or the tempered softmax for
    ``bi_tempered``) and the labels; the row index, the label
    probabilities (one gather P[rows, labels] for every form of labels),
    their clamp, the cross entropies and D = P - Y are each computed on
    first use, once.  No loss field enters, so a softmax family's record
    serves at moved fields; a ``bi_tempered`` record holds the solve at
    one t2, with its roots ``gamma`` (None for the softmax) and, once
    ``_bi_tempered_hgrad`` has formed it, their slope ``dgamma_dt2``.  Its
    arrays are shared, never written.
    """

    def __init__(self, P, labels, gamma=None):
        self.P, self.labels, self.gamma, self.dgamma_dt2 = P, labels, gamma, None

    def start_at(self, dt2):
        """A first-order guess at the roots after t2 moves by ``dt2`` (a scalar or one per row):
        gamma + dgamma/dt2 * dt2, or the roots themselves where no slope was formed."""
        return self.gamma if self.dgamma_dt2 is None else self.gamma + self.dgamma_dt2 * dt2

    @_once
    def rows(self):
        return np.arange(len(self.P))

    @_once
    def py(self):
        """Each row's probability of its label, not clamped."""
        return self.P[self.rows, self.labels]

    @_once
    def pyc(self):
        return _clamp(self.py)

    @_once
    def ce(self):
        return -np.log(self.pyc)

    @_once
    def D(self):
        """P - Y for one-hot labels Y: the softmax-composed cross-entropy gradient.

        (k, rows, c) for a (k, 1) column of labels, one P - Y per label.
        """
        return self.P - _one_hot(self.P.shape[-1])[self.labels]


@functools.lru_cache(maxsize=None)
def _one_hot(c):
    """The read-only c x c identity, whose row j is label j's one-hot row."""
    eye = np.eye(c)
    eye.setflags(write=False)
    return eye


def _is_scalar(h):
    """``np.ndim(h) == 0``, which costs an exception and an array on a Python float."""
    return isinstance(h, (float, int)) or np.ndim(h) == 0


def _on_classes(h):
    """A hyperparameter lifted onto the class axis: a scalar as itself, one per row as a column."""
    return h if _is_scalar(h) else np.asarray(h)[..., None]


# numpy raises to a scalar exponent of -1, 1/2 or 2 by these ops, whose last
# bit can differ from its general power; an exponent array of more than one
# element always takes the general power, and one of one element counts as a scalar
_SCALAR_POWERS = ((-1.0, np.reciprocal), (0.5, np.sqrt), (2.0, np.square))


def _pow(x, e):
    """x ** e with ``e`` a scalar or one per row: the bits of a scalar exponent.

    A scalar ``e`` is plain ``x ** e``.  An array ``e`` (rows, or a column
    broadcast over classes) takes the general power, and rows whose exponent
    is one of numpy's special scalar exponents take its op instead, so a row
    gets the same bits stacked with other runs' rows as alone.
    """
    if _is_scalar(e):
        return x ** e
    out = x ** e
    for special, op in _SCALAR_POWERS:
        hit = e == special
        if hit.any():
            hit = np.broadcast_to(hit, out.shape)
            out[hit] = op(np.broadcast_to(x, out.shape)[hit])
    return out


def _ce_value(b, h=None):
    return b.ce, None


def _ce_grad(b, h=None, shared=None):
    return b.D


def _ce_hgrad(b, h, shared, dvalues):
    """No learnable field: empty derivative stacks."""
    return np.zeros((0, len(b.P))) if dvalues else None, np.zeros((0, *b.P.shape))


def _gce_value(b, h):
    pq = _pow(b.pyc, h.q)
    return (1.0 - pq) / h.q, pq


def _gce_grad(b, h, pq):
    return pq[..., None] * b.D


def _gce_hgrad(b, h, pq, dvalues):
    """d/dq of the value, -(pq log p_y + value) / q, and of G = pq D, pq log p_y D."""
    pq_log = pq * -b.ce
    return (-(pq_log + (1.0 - pq) / h.q) / h.q)[None] if dvalues else None, pq_log[None, :, None] * b.D


def _sl_value(b, h):
    """gamma1 * ce + gamma2 * rce, rce being -rce_a times the off-label mass."""
    rce = -h.rce_a * (b.P.sum(axis=1) - b.py)
    return h.gamma1 * b.ce + h.gamma2 * rce, {"rce": rce}


def _sl_grad(b, h, shared):
    shared["rce_grad"] = rce_grad = _on_classes(h.rce_a) * b.py[:, None] * -b.D
    return _on_classes(h.gamma1) * b.D + _on_classes(h.gamma2) * rce_grad


def _sl_hgrad(b, h, shared, dvalues):
    """Linear in the gammas: the derivatives are the ce and rce parts."""
    return np.stack([b.ce, shared["rce"]]) if dvalues else None, np.stack([b.D, shared["rce_grad"]])


def _bi_tempered_value(b, h):
    """-log_t1(p[label]) - (1 - sum_j p_j^(2-t1)) / (2 - t1), clamped at 0."""
    Pc = _clamp(b.P)
    log_py = np.log(b.pyc)
    Pa = _pow(Pc, _on_classes(2.0 - h.t1))
    tail = (1.0 - np.add.reduce(Pa, axis=1)) / (2.0 - h.t1)
    values = np.maximum(-_log_t_of_log(log_py, h.t1) - tail, 0.0)
    return values, {"Pc": Pc, "log_py": log_py, "Pa": Pa, "tail": tail}


def _bi_tempered_grad(b, h, shared):
    """d value / d logits through the implicit normalization of P.

    With S = sum_j p_j^t2 and u = p^t2 / S, the normalization constraint
    gives d gamma / d z_k = u_k, hence
    d value / d z_k = g_k - u_k * sum_j g_j with
    g_j = (dL/dp_j) * p_j^t2 = -1[j = label] p_j^(t2-t1) + p_j^(1-t1+t2).
    """
    Pc = shared["Pc"]
    A = _pow(Pc, _on_classes(1.0 - h.t1 + h.t2))
    B = _pow(b.pyc, h.t2 - h.t1)
    g = A.copy()
    g[b.rows, b.labels] -= B
    V = _pow(Pc, _on_classes(h.t2))
    S = np.add.reduce(V, axis=1, keepdims=True)
    U = V / S
    g_sum = np.add.reduce(g, axis=1, keepdims=True)
    shared.update(A=A, B=B, g=g, S=S, U=U, g_sum=g_sum)
    return g - U * g_sum


def _expm1_excess(x):
    """(expm1(x) - x) / x^2, with its Taylor series where that cancels; 1/2 at 0."""
    small = np.abs(x) < 1e-2
    if not small.any():
        return (np.expm1(x) - x) / x**2
    xs = np.where(small, 1.0, x)
    series = 0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0 + x * (1.0 / 120.0 + x / 720.0)))
    return np.where(small, series, (np.expm1(xs) - xs) / xs**2)


def _bi_tempered_hgrad(b, h, shared, dvalues):
    """(t1, t2) derivatives of the values and of G = g - u sum g.

    t1 enters explicitly: with y = (1-t1) log p, d log_t1(p) / dt1 is
    log^2 p ((1-y) (expm1(y) - y) / y^2 - 1), d tail / dt1 is
    (sum_j p_j^(2-t1) log p_j + tail) / (2 - t1), and dg/dt1 = -log p * g.
    t2 moves P: differentiating sum_j exp_t2(z_j - gamma) = 1 at fixed
    logits gives d log p_j / dt2 = R_j = e_j - p_j^(t2-1) dgamma/dt2, where
    e_j = (expm1(x_j) - x_j) / (t2-1)^2 with x_j = (t2-1) log p_j, which is
    log^2 p_j / 2 at t2 = 1, and dgamma/dt2 = sum_j p_j e_j / sum_j p_j^t2,
    which the record keeps for the next solve's start.  The value then
    moves by sum_j (dL/dp_j) p_j R_j, and g and u by the chain rule through
    p together with their explicit t2; R is 0 where the kernels clamp p.
    """
    n, labels = b.rows, b.labels
    t1, t2 = _on_classes(h.t1), _on_classes(h.t2)
    Pc, log_py, Pa, tail = shared["Pc"], shared["log_py"], shared["Pa"], shared["tail"]
    A, B, g, S, U, g_sum = shared["A"], shared["B"], shared["g"], shared["S"], shared["U"], shared["g_sum"]
    log_p = np.log(Pc)

    R = log_p**2 * _expm1_excess((t2 - 1.0) * log_p)
    dgamma = np.add.reduce(Pc * R, axis=1, keepdims=True) / S
    b.dgamma_dt2 = dgamma[:, 0]
    R -= _pow(Pc, t2 - 1.0) * dgamma
    R[b.P != Pc] = 0.0  # a clamped probability does not move
    dv = None
    if dvalues:
        y = (1.0 - h.t1) * log_py
        dlog_term = log_py**2 * ((1.0 - y) * _expm1_excess(y) - 1.0)
        dv_t1 = -dlog_term - (np.add.reduce(Pa * log_p, axis=1) + tail) / (2.0 - h.t1)
        dv_t2 = np.add.reduce(Pa * R, axis=1) - _pow(b.pyc, 1.0 - h.t1) * R[n, labels]
        dv = np.stack([dv_t1, dv_t2])

    dG = np.empty((2, *g.shape))
    dg_t1, dg_t2 = dG
    np.multiply(log_p, g, out=dg_t2)
    np.negative(dg_t2, out=dg_t1)  # -log p * g
    dg_t2 += (1.0 - t1 + t2) * A * R
    dg_t2[n, labels] -= (h.t2 - h.t1) * B * R[n, labels]
    dU = U * (log_p + t2 * R)
    dU -= U * np.add.reduce(dU, axis=1, keepdims=True)
    dG -= U * np.add.reduce(dG, axis=2, keepdims=True)
    dg_t2 -= dU * g_sum
    return dv, dG


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
    return plateau * (1.0 - _pow(u, d / (d - 1.0))), u


def _polysoft_weight(u, d):
    """The sample weight u^(d/(d-1) - 1), 0 on the plateau."""
    return np.where(u > 0.0, _pow(u, d / (d - 1.0) - 1.0), 0.0)


def _polysoft_hgrad_of_ce(ce, lam, d, values, u, w, dvalues=True):
    """(lam, d) derivatives of the values (None unless ``dvalues``) and the weights w at cross entropies ce.

    ``values``, ``u`` and ``w`` are ``polysoft_of_ce`` and ``_polysoft_weight``
    at ce.  With u = 1 - ce/lam and w = u^(1/(d-1)): d value/d lam =
    (value - w ce) / lam, d value/d d = (value + lam u w log u) / (d (d-1)),
    dw/d lam = w / u * ce / ((d-1) lam^2) and dw/d d = -w log u / (d-1)^2.
    On the plateau (u = 0) w and its derivatives are 0.
    """
    u_safe = np.where(u > 0.0, u, 1.0)  # keeps log u and w / u finite on the plateau
    log_u = np.log(u_safe)
    dweights = np.stack([w / u_safe * ce / ((d - 1.0) * lam**2), -w * log_u / (d - 1.0) ** 2])
    if not dvalues:
        return None, dweights
    return np.stack([(values - w * ce) / lam, (values + lam * u * w * log_u) / (d * (d - 1.0))]), dweights


def _polysoft_value(b, h):
    values, u = polysoft_of_ce(b.ce, h.lam, h.d)
    return values, {"values": values, "u": u}


def _polysoft_grad(b, h, shared):
    shared["w"] = w = _polysoft_weight(shared["u"], h.d)
    return w[..., None] * b.D


def _polysoft_hgrad(b, h, shared, dvalues):
    dv, dweights = _polysoft_hgrad_of_ce(b.ce, h.lam, h.d, shared["values"], shared["u"], shared["w"], dvalues)
    return dv, dweights[..., None] * b.D


_FAMILIES = {
    "ce": (_ce_value, _ce_grad, _ce_hgrad),
    "gce": (_gce_value, _gce_grad, _gce_hgrad),
    "sl": (_sl_value, _sl_grad, _sl_hgrad),
    "bi_tempered": (_bi_tempered_value, _bi_tempered_grad, _bi_tempered_hgrad),
    "polysoft": (_polysoft_value, _polysoft_grad, _polysoft_hgrad),
}


class _RowFields:
    """The fields the kernels read, of R runs: ``values`` (R, K) in ``LEARNABLE`` order, ``presets`` (R,) rce_a.

    Each run's fields fill ``rows`` consecutive rows of a stacked batch, so
    one kernel call serves runs with different fields.  A field that all the
    runs share (every field of one run) is held as that Python float, which
    takes the scalar paths; any other is repeated per row, and ``_pow``
    gives each row its run's own bits.
    """

    def __init__(self, variant, values, presets, rows):
        self.variant, self.values, self.presets = variant, values, presets
        for name, column in zip(LEARNABLE[variant] + ("rce_a",), [*values.T.tolist(), presets.tolist()]):
            setattr(self, name, column[0] if column.count(column[0]) == len(column) else np.repeat(column, rows))


def normalize(hyper, Z, labels, start=None):
    """The ``_Batch`` record of logits ``Z`` (n, c) and ``labels`` (n,) ints:
    the softmax, or for ``bi_tempered`` the tempered softmax at ``hyper``'s t2,
    its solve started from ``start`` (n,) when given."""
    Z = np.asarray(Z, dtype=float)
    if hyper.variant != "bi_tempered":
        return _Batch(softmax(Z), np.asarray(labels, dtype=int))
    P, gamma = _tempered_softmax_batch(Z, hyper.t2, start)
    return _Batch(P, np.asarray(labels, dtype=int), gamma)


def loss_values(hyper, P, labels):
    """``batch_loss``'s values alone, on unchecked probability rows ``P``.

    No gradient is formed.  For ``bi_tempered`` P is the tempered softmax;
    ``labels`` may also be one label for all rows, or a (k, 1) column that
    gives (k, rows) values, one row per label.
    """
    return _FAMILIES[hyper.variant][0](_Batch(P, labels), hyper)[0]


def batch_loss(hyper, batch):
    """Per-sample values and logit gradients of a ``normalize`` record.

    ``hyper`` is a ``HyperParams`` or a ``_RowFields`` record of n rows.
    Returns ``(values, grads)`` with shapes (n,) and (n, c); callers handle
    the 1/n reduction.  A row gets the same bits from a record of fields
    as from its own ``HyperParams``.
    """
    value, grad, _ = _FAMILIES[hyper.variant]
    values, shared = value(batch, hyper)
    return values, grad(batch, hyper, shared)


def batch_hgrad(hyper, batch, dvalues=False):
    """``batch_loss`` plus the derivatives of its gradients in each learnable field.

    Returns ``(values, grads, dvalues, dgrads)`` with shapes (n,), (n, c),
    (k, n) and (k, n, c) for the k fields of ``hyper.learnable_names``;
    the kernels compute each term they share once.  The value derivatives
    are formed only when asked for by ``dvalues`` and are None otherwise:
    the hypergradient reads the gradients' derivatives alone.
    """
    value, grad, hgrad = _FAMILIES[hyper.variant]
    values, shared = value(batch, hyper)
    return (values, grad(batch, hyper, shared), *hgrad(batch, hyper, shared, dvalues))


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
    batch = normalize(hyper, z[None, :], [_check_label(label, len(z))])
    values, grads, dvalues, _ = batch_hgrad(hyper, batch, dvalues=True)
    return LossEval(float(values[0]), grads[0], dvalues[:, 0])


# ---------------------------------------------------------------------------
# unconstrained reparameterization
# ---------------------------------------------------------------------------

# The runs' coordinates are one (R, K) array theta, mapped entry by entry through
# math (libm): numpy's exp rounds apart from it on some inputs, which moves polysoft runs.

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


def to_unconstrained(h):
    """The unconstrained coordinates (K,) of ``h``'s learnable fields, which ``from_unconstrained``
    inverts to 1e-10: scaled logits for q and t1, shifted softplus inverses log(e^y - 1) for the
    rest.  A value on its domain's boundary is clamped, with a warning."""
    theta = []
    for name in h.learnable_names:
        low, span = _REPARAM[name]
        u = (getattr(h, name) - low) / (span or 1.0)
        if u <= 0.0 or span and u >= 1.0:
            warnings.warn(f"{name} at its domain boundary; clamping for reparameterization")
            u = min(max(u, 1e-15), 1.0 - 1e-15) if span else 1e-12
        theta.append(math.log(u) - math.log1p(-u) if span else float(u + np.log(-np.expm1(-u))))
    return np.array(theta, dtype=float)


def from_unconstrained(variant, theta):
    """The (R, K) fields of the runs' (R, K) coordinates ``theta``; a field that rounds onto its
    domain's boundary (d = 1 + softplus -> 1.0) raises ``DomainError``, whose ``row`` is its run."""
    maps = [_REPARAM[name] for name in LEARNABLE[variant]]
    rows = [[low + (span * _sigmoid(th) if span else _softplus(th)) for (low, span), th in zip(maps, row)]
            for row in theta.tolist()]
    _check_rows(variant, LEARNABLE[variant], rows)
    return np.array(rows)


def reparam_scale(variant, theta):
    """d(field)/d(theta) at each entry of the (R, K) coordinates ``theta``, for chain rules."""
    spans = [_REPARAM[name][1] for name in LEARNABLE[variant]]
    return np.array([[span * sig * (1.0 - sig) if span else sig for span, sig in zip(spans, map(_sigmoid, row))]
                     for row in theta.tolist()])
