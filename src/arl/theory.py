"""Numeric verification of the bounded-loss robustness guarantees.

Under symmetric label noise with rate eta <= 1 - 1/c, the soft-weighting
and tempered losses admit sandwich bounds relating the risks of the
clean-risk minimizer f* and the noisy-risk minimizer f^:

    0 <= R_noisy(f*) - R_noisy(f^) <= noisy_gap_bound
    clean_gap_bound <= R_clean(f*) - R_clean(f^) <= 0

This module evaluates the bound constants in closed form and checks the
inequalities by exhaustive minimization over a finite world: K points,
each assigned a probability vector from a delta-spaced simplex grid.  The
risk is a sum of independent per-point terms, so the global minimizer is
found by scanning the grid once per label instead of enumerating the
product hypothesis space.

One verification evaluates the loss on the grid once: a (points, c) table
of L(u, j) per (variant, hyper, c, delta).  Its columns give the clean and
noisy per-point terms of every label, hence both minimizers, and its rows
give the grid tolerance: moving one delta of mass between two coordinates
of a grid point lands on another grid point, so every slope the tolerance
needs is a difference of two table rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import losses
from .errors import ConfigError, DomainError

GRID_BUDGET = 10**7


@dataclass
class BoundConstants:
    """Closed-form sandwich-bound constants for one (loss, c, eta) setting."""

    noisy_gap_bound: float  # >= 0, caps R_noisy(f*) - R_noisy(f^)
    clean_gap_bound: float  # <= 0, floors R_clean(f*) - R_clean(f^)
    variant: str
    c: int
    eta: float


@dataclass
class FiniteWorld:
    """K points with clean labels under symmetric label noise."""

    labels: np.ndarray
    c: int
    delta: float
    eta: float

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if self.c < 2:
            raise ConfigError("need at least two classes")
        if np.any(self.labels < 0) or np.any(self.labels >= self.c):
            raise ConfigError("labels out of range")
        if not 0.0 <= self.eta <= 1.0 - 1.0 / self.c:
            raise DomainError(f"eta={self.eta} violates eta <= 1 - 1/c")
        if not 0.0 < self.delta <= 0.5:
            raise ConfigError("delta must lie in (0, 0.5]")


@dataclass
class RiskReport:
    """Minimizers, risks, bound constants, and slack for one verification."""

    f_star: np.ndarray
    f_hat: np.ndarray
    clean_risk_star: float
    clean_risk_hat: float
    noisy_risk_star: float
    noisy_risk_hat: float
    noisy_gap_bound: float
    clean_gap_bound: float
    grid_tol: float
    noisy_sandwich_ok: bool
    clean_sandwich_ok: bool
    noisy_slack: float
    clean_slack: float

    def as_dict(self):
        return {
            "clean_risk_star": self.clean_risk_star,
            "clean_risk_hat": self.clean_risk_hat,
            "noisy_risk_star": self.noisy_risk_star,
            "noisy_risk_hat": self.noisy_risk_hat,
            "noisy_gap_bound": self.noisy_gap_bound,
            "clean_gap_bound": self.clean_gap_bound,
            "grid_tol": self.grid_tol,
            "noisy_sandwich_ok": bool(self.noisy_sandwich_ok),
            "clean_sandwich_ok": bool(self.clean_sandwich_ok),
            "noisy_slack": self.noisy_slack,
            "clean_slack": self.clean_slack,
        }


def _check_variant(variant, hyper):
    if variant != hyper.variant:
        raise DomainError(f"variant {variant!r} does not match hyper.variant {hyper.variant!r}")


def bound_constants(variant, c, eta, hyper):
    """Evaluate the sandwich-bound constants for polysoft or bi_tempered."""
    _check_variant(variant, hyper)
    if c < 2:
        raise DomainError("need at least two classes")
    if not 0.0 <= eta <= 1.0 - 1.0 / c:
        raise DomainError(f"eta={eta} violates the hypothesis eta <= 1 - 1/c")
    denom = c - 1 - eta * c
    if denom <= 0:
        raise DomainError(
            f"eta={eta} leaves c - 1 - eta*c <= 0; the clean-gap constant needs eta < 1 - 1/c"
        )
    if variant == "polysoft":
        lam, d = hyper.lam, hyper.d
        if d <= 1.0:
            raise DomainError("polysoft bound needs d > 1")
        if lam < math.log(c) - 1e-12:
            raise DomainError(
                f"polysoft bound needs lam >= log(c) = {math.log(c):.6f}, got {lam}"
            )
        a = c * (d - 1.0) * eta / (d * (c - 1.0)) * (lam - math.log(c))
        a_prime = c * (d - 1.0) * eta / (d * denom) * (math.log(c) - lam)
        return BoundConstants(a, a_prime, variant, c, eta)
    if variant == "bi_tempered":
        t1 = hyper.t1
        if not 0.0 <= t1 < 1.0:
            raise DomainError("bi_tempered bound needs 0 <= t1 < 1")
        if not hyper.t2 > 1.0:
            raise DomainError("bi_tempered bound needs t2 > 1")
        tail = (c - c**t1) / ((1.0 - t1) * (2.0 - t1))
        a = eta / (1.0 - t1) - eta * tail / (c - 1.0)
        a_prime = eta * tail / denom - eta * (c - 1.0) / ((1.0 - t1) * denom)
        return BoundConstants(a, a_prime, variant, c, eta)
    raise DomainError(
        f"no closed-form bound constants for variant {variant!r}; "
        "only polysoft and bi_tempered are covered"
    )


def simplex_grid(c, delta):
    """All probability vectors with entries that are multiples of delta.

    Rows come in lexicographic order of their counts (n_0, ..., n_{c-1}) of
    delta.  The counts are built one coordinate at a time: each prefix, in
    order, is extended by every count its remaining mass allows, and the
    last coordinate takes what is left.
    """
    parts = int(round(1.0 / delta))
    if abs(parts * delta - 1.0) > 1e-9:
        raise ConfigError(f"1/delta must be an integer, got delta={delta}")
    count = math.comb(parts + c - 1, c - 1)
    if count > GRID_BUDGET:
        raise ConfigError(f"simplex grid would hold {count} points > budget {GRID_BUDGET}")
    counts = np.zeros((1, 0), dtype=np.int32)
    left = np.array([parts], dtype=np.int32)
    for _ in range(c - 1):
        width = left + 1
        head = np.arange(width.sum(), dtype=np.int32) - np.repeat(np.cumsum(width) - width, width)
        counts = np.column_stack([np.repeat(counts, width, axis=0), head])
        left = np.repeat(left, width) - head
    return np.column_stack([counts, left]) / parts


def loss_on_simplex(variant, hyper, probs, label):
    """Loss value L(u, label) for rows of probability vectors.

    The values of ``losses.loss_values``: vertex entries are clamped by the
    probability floor before logs and powers, as for softmax outputs.
    """
    _check_variant(variant, hyper)
    return losses.loss_values(hyper, np.atleast_2d(probs), label)


def _loss_table(variant, hyper, probs):
    """The (rows, c) table of L(u, j) for every row u of probs and label j."""
    table = np.empty(probs.shape)
    for j in range(probs.shape[1]):
        table[:, j] = loss_on_simplex(variant, hyper, probs, j)
    return table


def _per_point_terms(table, label, eta, noisy):
    """Expected loss of every table row under ``label`` (one, or one per row)."""
    c = table.shape[1]
    own = table[np.arange(len(table)), label]
    if not noisy:
        return own
    others = table.sum(axis=1) - own
    return (1.0 - eta) * own + eta / (c - 1.0) * others


def exact_risk(world, assignment, variant, hyper, noisy):
    """Exact expected loss of a per-point simplex assignment.

    Uniform over the K points; under noise the label of a point is its
    clean label with probability 1 - eta, otherwise uniform over the
    other classes.
    """
    A = np.atleast_2d(np.asarray(assignment, dtype=float))
    if A.shape != (len(world.labels), world.c):
        raise DomainError(f"assignment shape {A.shape} does not match the world")
    if np.any(A < -1e-12) or np.any(np.abs(A.sum(axis=1) - 1.0) > 1e-9):
        raise DomainError("assignments must be probability vectors")
    terms = _per_point_terms(_loss_table(variant, hyper, A), world.labels, world.eta, noisy)
    total = 0.0
    for term in terms.tolist():
        total += term
    return total / len(world.labels)


def _neighbours(counts):
    """Row indices of adjacent grid points, one coordinate pair a < b at a time.

    ``counts`` are the grid rows in delta units, in lexicographic order.
    Yields ``(src, dst)``: the rows with mass at a, and the rows that one
    delta moved from a to b lands on.  With suffix sums S_i = sum_{l>=i} n_l
    a row's rank is N - 1 - sum_{i=1}^{c-1} C(S_i + c-1-i, c-i).  The move
    raises S_i by one for a < i <= b, so by Pascal's rule the destination
    sits D_{a+1} + ... + D_b rows earlier, D_i = C(S_i + c-1-i, c-1-i).
    Every term is at most N, unlike a positional key in base parts + 1.
    """
    c = counts.shape[1]
    parts = int(counts[0].sum())
    # binom[m, s] = C(s + m, m), by the hockey-stick identity
    binom = np.ones((c - 1, parts + 1), dtype=np.int32)
    for m in range(1, c - 1):
        np.cumsum(binom[m - 1], out=binom[m])
    suffix = np.cumsum(counts[:, :0:-1], axis=1, dtype=np.int32)[:, ::-1]
    offsets = np.zeros(counts.shape, dtype=np.int32)
    np.cumsum(binom[np.arange(c - 2, -1, -1), suffix], axis=1, out=offsets[:, 1:])
    del suffix
    for a in range(c - 1):
        src = np.flatnonzero(counts[:, a])
        for b in range(a + 1, c):
            yield src, src - (offsets[src, b] - offsets[src, a])


def grid_lipschitz(grid, table, delta):
    """Max loss slope between adjacent grid points, per unit L1 mass.

    Adjacent means one delta of mass moved between a coordinate pair (an
    L1 displacement of 2 delta); the estimate feeds the grid tolerance
    lipschitz * delta.  The move keeps every entry a multiple of delta and
    the sum at 1, so it lands on another row of ``grid``; each slope is
    |table[dst] - table[src]| / (2 delta) over the rows of the grid's loss
    table, with no loss evaluated again.  Adjacency is symmetric, so the
    pairs a < b cover every adjacent pair.
    """
    counts = np.rint(grid * round(1.0 / delta)).astype(np.int32)
    worst = 0.0
    for src, dst in _neighbours(counts):
        rise = table[dst]
        rise -= table[src]
        worst = max(worst, float(np.abs(rise, out=rise).max()) / (2.0 * delta))
    return worst


def riskgap_verify(world, variant, hyper):
    """Check both sandwich inequalities by exhaustive grid minimization.

    The risk is additive over points with independent assignments, so the
    global minimizers decompose into per-point grid scans; points sharing
    a label share their minimizers.
    """
    constants = bound_constants(variant, world.c, world.eta, hyper)
    grid = simplex_grid(world.c, world.delta)
    table = _loss_table(variant, hyper, grid)
    K = len(world.labels)
    f_star = np.empty((K, world.c))
    f_hat = np.empty((K, world.c))
    for label in np.unique(world.labels):
        points = world.labels == label
        f_star[points] = grid[int(np.argmin(_per_point_terms(table, label, world.eta, False)))]
        f_hat[points] = grid[int(np.argmin(_per_point_terms(table, label, world.eta, True)))]

    r_clean_star = exact_risk(world, f_star, variant, hyper, noisy=False)
    r_clean_hat = exact_risk(world, f_hat, variant, hyper, noisy=False)
    r_noisy_star = exact_risk(world, f_star, variant, hyper, noisy=True)
    r_noisy_hat = exact_risk(world, f_hat, variant, hyper, noisy=True)

    tol = grid_lipschitz(grid, table, world.delta) * world.delta
    noisy_gap = r_noisy_star - r_noisy_hat
    clean_gap = r_clean_star - r_clean_hat
    noisy_ok = -1e-12 <= noisy_gap <= constants.noisy_gap_bound + tol
    clean_ok = constants.clean_gap_bound - tol <= clean_gap <= 1e-12
    return RiskReport(
        f_star, f_hat,
        r_clean_star, r_clean_hat, r_noisy_star, r_noisy_hat,
        constants.noisy_gap_bound, constants.clean_gap_bound,
        tol, noisy_ok, clean_ok,
        constants.noisy_gap_bound + tol - noisy_gap,
        clean_gap - constants.clean_gap_bound + tol,
    )


def label_sum_range(variant, hyper, c, delta):
    """Range of sum_j L(u, j) over the simplex grid (bounded-loss check)."""
    sums = _loss_table(variant, hyper, simplex_grid(c, delta)).sum(axis=1)
    return float(sums.min()), float(sums.max())
