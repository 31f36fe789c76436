"""Numeric verification of the bounded-loss robustness guarantees.

Under symmetric label noise with rate eta < 1 - 1/c, the soft-weighting
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

The grid is held as integer counts of delta, in lexicographic order; only
the loss table's blocks and the two minimizers become probabilities.  One
``grid_scan`` evaluates the loss on the grid once: a (points, c) table of
L(u, j) per (hyper, c, delta), which the verifications of every eta share,
and no verification evaluates the loss again.  Its columns give the clean
and noisy per-point terms of every label, hence both minimizers, and the
minimizers' rows give the four risks; its rows give the grid tolerance:
moving one delta of mass between two coordinates of a grid point lands on
another grid point, so every slope the tolerance needs is a difference of
two table rows.  The move keeps the grid's order, so the rows it pairs are
found by their place among the rows with mass at each coordinate.  The
tolerance scan takes its rows one table block at a time, so its
temporaries are one block's, well under one table.

A scan is the one source of a world's c, delta and loss, and each input
rule is one function that ``config`` also calls: ``_grid_parts`` for c and
delta, ``_check_labels`` for the labels and ``_check_eta`` for eta.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import losses
from .errors import ConfigError, DomainError

GRID_BUDGET = 10**7
# grid rows per loss call of a table: at c = 5, a (c, rows) temporary is 320 KiB
_TABLE_BLOCK = 8192


@dataclass
class BoundConstants:
    """Closed-form sandwich-bound constants for one (loss, c, eta) setting."""

    noisy_gap_bound: float  # >= 0, caps R_noisy(f*) - R_noisy(f^)
    clean_gap_bound: float  # <= 0, floors R_clean(f*) - R_clean(f^)


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
        """The scalar fields, for JSON reports."""
        return {k: v for k, v in vars(self).items() if k not in ("f_star", "f_hat")}


def _check_eta(eta, c):
    """The hypothesis on the noise rate, 0 <= eta < 1 - 1/c: the clean-gap constant divides by c - 1 - eta c."""
    if not 0.0 <= eta < 1.0 - 1.0 / c:
        raise DomainError(f"eta {eta} out of range 0 <= eta < 1 - 1/c = {1.0 - 1.0 / c:.6g} for {c} classes")


def _check_labels(labels, c):
    """A world's clean labels as an array: at least one point, each label in [0, c)."""
    labels = np.asarray(labels, dtype=int)
    if not len(labels):
        raise ConfigError("a world needs at least one point")
    bad = labels[(labels < 0) | (labels >= c)]
    if len(bad):
        raise ConfigError(f"label {bad[0]} out of range for {c} classes")
    return labels


def bound_constants(c, eta, hyper):
    """Evaluate the sandwich-bound constants for a polysoft or bi_tempered ``hyper``."""
    variant = hyper.variant
    if c < 2:
        raise DomainError("need at least two classes")
    _check_eta(eta, c)
    denom = c - 1 - eta * c
    if denom <= 0:  # rounding can still reach it below 1 - 1/c
        raise DomainError(
            f"eta={eta} leaves c - 1 - eta*c <= 0; the clean-gap constant needs eta < 1 - 1/c"
        )
    if variant == "polysoft":
        lam, d = hyper.lam, hyper.d
        if lam < math.log(c) - 1e-12:
            raise DomainError(
                f"polysoft bound needs lam >= log(c) = {math.log(c):.6f}, got {lam}"
            )
        a = c * (d - 1.0) * eta / (d * (c - 1.0)) * (lam - math.log(c))
        a_prime = c * (d - 1.0) * eta / (d * denom) * (math.log(c) - lam)
        return BoundConstants(a, a_prime)
    if variant == "bi_tempered":
        t1 = hyper.t1
        tail = (c - c**t1) / ((1.0 - t1) * (2.0 - t1))
        a = eta / (1.0 - t1) - eta * tail / (c - 1.0)
        a_prime = eta * tail / denom - eta * (c - 1.0) / ((1.0 - t1) * denom)
        return BoundConstants(a, a_prime)
    raise DomainError(
        f"no closed-form bound constants for variant {variant!r}; "
        "only polysoft and bi_tempered are covered"
    )


def _grid_parts(c, delta):
    """1/delta, the grid's steps per unit of mass: a grid needs c >= 2, delta
    in (0, 0.5] with 1/delta an integer, and at most ``GRID_BUDGET`` points."""
    if c < 2:
        raise ConfigError(f"need at least two classes, got {c}")
    if not 0.0 < delta <= 0.5:
        raise ConfigError(f"delta must lie in (0, 0.5], got {delta}")
    inv = 1.0 / delta
    parts = round(inv) if math.isfinite(inv) else 0
    if abs(parts * delta - 1.0) > 1e-9:
        raise ConfigError(f"1/delta must be an integer, got delta={delta}")
    count = math.comb(parts + c - 1, c - 1)
    if count > GRID_BUDGET:
        raise ConfigError(f"a simplex grid of {c} classes at delta={delta} would hold {count} points "
                          f"> budget {GRID_BUDGET}")
    return parts


def simplex_grid(c, delta):
    """The (N, c) int32 counts of delta of every probability vector with
    entries that are multiples of delta, each row summing to 1/delta.

    Rows come in lexicographic order of their counts (n_0, ..., n_{c-1}).
    The array is filled one column at a time: column i runs through the
    heads n_i that each prefix (n_0, ..., n_{i-1}) allows, in order, and
    repeats each head by the completions of its prefix, C(m + k - 1, k - 1)
    for the mass m left over the k coordinates after i; the last column
    takes what is left.
    """
    parts = _grid_parts(c, delta)
    counts = np.empty((math.comb(parts + c - 1, c - 1), c), dtype=np.int32)
    # ways[k - 1, m] = C(m + k - 1, k - 1), by the hockey-stick identity
    ways = np.ones((c - 1, parts + 1), dtype=np.intp)
    for k in range(1, c - 1):
        np.cumsum(ways[k - 1], out=ways[k])
    left = np.array([parts], dtype=np.int32)  # the mass left after each prefix, in order
    for i in range(c - 1):
        width = left + 1
        first = np.cumsum(width, dtype=np.int32) - width  # int32 throughout: half the bytes of intp
        head = np.arange(width.sum(), dtype=np.int32) - np.repeat(first, width)
        left = np.repeat(left, width) - head
        # at i = c - 2 every head completes one way, and a repeat by ones is slow
        counts[:, i] = np.repeat(head, ways[c - 2 - i].take(left)) if i < c - 2 else head
    counts[:, c - 1] = left
    return counts


def _loss_table(hyper, rows):
    """The (rows, c) table of L(u, j) for every row u of ``rows`` and label j.

    ``rows`` are a grid's integer counts, each row summing to 1/delta, or
    probability vectors.  Each block of rows becomes probabilities (counts
    over 1/delta, the bits of the grid's probability vectors) and takes one
    loss call over a column of all c labels, so a label-independent term
    (bi_tempered's tail) is computed once per row, and a block's
    temporaries stay in cache.
    """
    parts = rows[0].sum() if rows.dtype.kind == "i" else 1
    table = np.empty(rows.shape)
    labels = np.arange(rows.shape[1])[:, None]
    for start in range(0, len(rows), _TABLE_BLOCK):
        block = slice(start, start + _TABLE_BLOCK)
        table[block] = losses.loss_values(hyper, rows[block] / parts, labels).T
    return table


def _per_point_terms(table, sums, label, eta, noisy):
    """Expected loss of every table row under ``label`` (one, or one per row)."""
    c = table.shape[1]
    own = table[:, label] if np.ndim(label) == 0 else table[np.arange(len(table)), label]
    if not noisy:
        return own
    return (1.0 - eta) * own + eta / (c - 1.0) * (sums - own)


def grid_lipschitz(counts, table, delta):
    """Max loss slope between adjacent grid points, per unit L1 mass.

    Adjacent means one delta of mass moved between a coordinate pair (an
    L1 displacement of 2 delta); the estimate feeds the grid tolerance
    lipschitz * delta.  ``counts`` are the grid rows in delta units, in
    lexicographic order.  Moving one delta from a to b maps the rows with
    n_a >= 1 one to one onto the rows with n_b >= 1, and keeps their order:
    two rows still differ first where they did, by as much.  So the k-th
    row with mass at a lands on the k-th row with mass at b, and each slope
    is |table[dst] - table[src]| / (2 delta) over the rows of the grid's
    loss table, with no loss evaluated again.  Adjacency is symmetric, so
    the pairs a < b cover every adjacent pair.  The scan takes the rows one
    table block at a time, so its temporaries are a block's, and a max
    taken in any order is the same max.
    """
    holders = [np.flatnonzero(column).astype(np.int32) for column in counts.T]  # int32: half the bytes
    worst = 0.0
    for a in range(len(holders) - 1):
        for start in range(0, len(holders[a]), _TABLE_BLOCK):
            block = slice(start, start + _TABLE_BLOCK)
            base = table.take(holders[a][block], axis=0)
            for dst in holders[a + 1:]:
                rise = table.take(dst[block], axis=0)
                rise -= base
                worst = max(worst, float(rise.max()), -float(rise.min()))
    return worst / (2.0 * delta)


GridScan = namedtuple("GridScan", "c delta hyper counts table sums tol")
GridScan.__doc__ = ("The c, delta and hyper a scan was built for, its simplex grid's counts, the "
                    "grid's loss table, the table's row sums and the grid tolerance.")


def grid_scan(c, delta, hyper):
    """The ``GridScan`` of the delta-spaced simplex grid in c classes: no eta moves it."""
    counts = simplex_grid(c, delta)
    table = _loss_table(hyper, counts)
    return GridScan(c, delta, hyper, counts, table, table.sum(axis=1),
                    grid_lipschitz(counts, table, delta) * delta)


def _risk(scan, labels, eta, rows, noisy):
    """Exact expected loss of putting point k on grid row ``rows[k]``: the mean of the
    per-point terms read from the scan's loss table, summed in point order."""
    terms = _per_point_terms(scan.table.take(rows, axis=0), scan.sums.take(rows), labels, eta, noisy)
    total = 0.0
    for term in terms.tolist():
        total += term
    return total / len(labels)


def riskgap_verify(scan, labels, eta):
    """Check both sandwich inequalities by exhaustive grid minimization.

    The world is K points with clean ``labels`` under symmetric noise of
    rate ``eta``; its c, delta and loss are those ``scan`` was built for,
    so a caller that verifies several etas or worlds builds one scan.  The
    risk is additive over points with independent assignments, so the
    global minimizers decompose into per-point grid scans; points sharing
    a label share their minimizers.  The four risks are read from the
    table at the minimizers' rows, so the loss is evaluated only in
    ``grid_scan``.
    """
    constants = bound_constants(scan.c, eta, scan.hyper)
    labels = _check_labels(labels, scan.c)
    counts, table, sums, tol = scan.counts, scan.table, scan.sums, scan.tol
    distinct, of_point = np.unique(labels, return_inverse=True)
    star, hat = (
        np.array([np.argmin(_per_point_terms(table, sums, label, eta, noisy)) for label in distinct])[of_point]
        for noisy in (False, True)
    )  # each point's minimizer row, clean and noisy
    parts = counts[0].sum()
    f_star, f_hat = counts[star] / parts, counts[hat] / parts

    r_clean_star, r_clean_hat, r_noisy_star, r_noisy_hat = (
        _risk(scan, labels, eta, rows, noisy) for noisy in (False, True) for rows in (star, hat))

    noisy_gap = r_noisy_star - r_noisy_hat
    clean_gap = r_clean_star - r_clean_hat
    noisy_ok = bool(-1e-12 <= noisy_gap <= constants.noisy_gap_bound + tol)
    clean_ok = bool(constants.clean_gap_bound - tol <= clean_gap <= 1e-12)
    return RiskReport(
        f_star, f_hat,
        r_clean_star, r_clean_hat, r_noisy_star, r_noisy_hat,
        constants.noisy_gap_bound, constants.clean_gap_bound,
        tol, noisy_ok, clean_ok,
        constants.noisy_gap_bound + tol - noisy_gap,
        clean_gap - constants.clean_gap_bound + tol,
    )
