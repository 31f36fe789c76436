"""References for ``theory``: the float simplex grid, the exact risk of any
assignment, and a rank-based ``grid_lipschitz``.

``simplex_grid`` builds the grid's probability vectors by repeating every
prefix block, one coordinate at a time; ``theory.simplex_grid`` holds the
same rows as integer counts.

``exact_risk`` evaluates the loss again on the rows of an assignment,
which may lie off the grid; ``riskgap_verify`` reads its risks from the
grid's loss table and must give the same bits at its minimizers.

``grid_lipschitz`` is the grid-tolerance slope as computed over the whole
grid at once: the rank offsets of every row of the integer counts, then
one fancy-index gather of the source rows and one of the destination rows
per coordinate pair a < b.  The blocked pass of ``theory`` must give the
same bits.
"""

import numpy as np

from arl import losses, theory
from arl.errors import DomainError


def simplex_grid(c, delta):
    """All probability vectors with entries that are multiples of delta, in
    lexicographic order of their counts: each prefix, in order, is extended
    by every count its remaining mass allows, and the last coordinate takes
    what is left."""
    parts = theory._grid_parts(c, delta)
    counts = np.zeros((1, 0), dtype=np.int32)
    left = np.array([parts], dtype=np.int32)
    for _ in range(c - 1):
        width = left + 1
        head = np.arange(width.sum(), dtype=np.int32) - np.repeat(np.cumsum(width) - width, width)
        counts = np.column_stack([np.repeat(counts, width, axis=0), head])
        left = np.repeat(left, width) - head
    return np.column_stack([counts, left]) / parts


def exact_risk(labels, eta, assignment, hyper, noisy):
    """Exact expected loss of a per-point simplex assignment of the world of clean ``labels``.

    Uniform over the K points; under noise of rate ``eta`` the label of a
    point is its clean label with probability 1 - eta, otherwise uniform
    over the other classes.  The assignment's columns are the c classes.
    """
    A = np.atleast_2d(np.asarray(assignment, dtype=float))
    labels = theory._check_labels(labels, A.shape[1])
    if len(A) != len(labels):
        raise DomainError(f"assignment shape {A.shape} does not match {len(labels)} points")
    if np.any(A < -1e-12) or np.any(np.abs(A.sum(axis=1) - 1.0) > 1e-9):
        raise DomainError("assignments must be probability vectors")
    table = losses.loss_values(hyper, A, np.arange(A.shape[1])[:, None]).T
    terms = theory._per_point_terms(table, table.sum(axis=1), labels, eta, noisy)
    total = 0.0
    for term in terms.tolist():
        total += term
    return total / len(labels)


def neighbours(counts):
    """Row indices of adjacent grid points, one coordinate pair a < b at a time.

    ``counts`` are the grid rows in delta units, in lexicographic order.
    Yields ``(src, dst)``: the rows with mass at a, and the rows that one
    delta moved from a to b lands on.
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


def grid_lipschitz(counts, table, delta):
    """Max loss slope between adjacent grid points, per unit L1 mass, of the grid's counts."""
    worst = 0.0
    for src, dst in neighbours(counts):
        rise = table[dst]
        rise -= table[src]
        worst = max(worst, float(np.abs(rise, out=rise).max()) / (2.0 * delta))
    return worst
