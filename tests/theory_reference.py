"""Gather-based reference for ``theory.grid_lipschitz``.

``grid_lipschitz`` is the grid-tolerance slope as computed over the whole
grid at once: the integer counts and the rank offsets of every row, then
one fancy-index gather of the source rows and one of the destination rows
per coordinate pair a < b.  The blocked pass of ``theory`` must give the
same bits.
"""

import numpy as np


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


def grid_lipschitz(grid, table, delta):
    """Max loss slope between adjacent grid points, per unit L1 mass."""
    counts = np.rint(grid * round(1.0 / delta)).astype(np.int32)
    worst = 0.0
    for src, dst in neighbours(counts):
        rise = table[dst]
        rise -= table[src]
        worst = max(worst, float(np.abs(rise, out=rise).max()) / (2.0 * delta))
    return worst
