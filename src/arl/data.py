"""Synthetic datasets, label-noise injectors, and CSV ingestion.

Noise is injected sample-wise i.i.d. with probability eta (an exact-count
mode exists behind a flag) into the labels ``y`` a run trains on; the true
labels ``y_clean`` ride along so diagnostics can compare against them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, DomainError


@dataclass
class Dataset:
    """Features with training labels ``y`` and true labels ``y_clean`` in {0..c-1}.

    ``y_clean`` defaults to ``y`` itself: a dataset is clean until a noise injector flips ``y``.
    """

    X: np.ndarray
    y: np.ndarray
    c: int
    label_map: dict | None = None
    y_clean: np.ndarray | None = None

    def __post_init__(self):
        if self.y_clean is None:
            self.y_clean = self.y

    def __len__(self):
        return len(self.y)

    @property
    def flip_mask(self):
        return self.y != self.y_clean


@dataclass
class MetaSplit:
    """Noisy training data plus small clean meta and clean test sets."""

    train: Dataset
    meta: Dataset
    test: Dataset


def gen_blobs(n, c, d_in=2, spread=0.3, seed=0):
    """Balanced Gaussian clusters, centers on the unit circle (d_in = 2)
    or along random orthonormal directions (d_in > 2)."""
    if c < 2 or n < c:
        raise ConfigError(f"need n >= c >= 2, got n={n}, c={c}")
    if d_in < 2:
        raise ConfigError("d_in must be >= 2")
    if spread <= 0:
        raise ConfigError("spread must be positive")
    rng = np.random.default_rng(seed)
    if d_in == 2:
        angles = 2.0 * np.pi * np.arange(c) / c
        centers = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        if c > d_in:
            raise ConfigError("need d_in >= c for orthogonal centers")
        raw = rng.normal(size=(d_in, d_in))
        qmat = np.linalg.qr(raw)[0]
        centers = qmat[:, :c].T
    base, extra = divmod(n, c)
    counts = [base + (1 if k < extra else 0) for k in range(c)]
    xs, ys = [], []
    for k, count in enumerate(counts):
        xs.append(centers[k] + spread * rng.normal(size=(count, d_in)))
        ys.append(np.full(count, k, dtype=int))
    X = np.concatenate(xs)
    y = np.concatenate(ys)
    order = rng.permutation(n)
    return Dataset(X[order], y[order], c)


def _check_eta(eta):
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta={eta!r} outside [0, 1]")


def _flip(dataset, eta, seed, exact_count, relabel):
    """Noisy copy of ``dataset``: each label is flipped with probability eta
    (exactly floor(eta * n) of them with ``exact_count``) from ``y_clean`` to
    ``relabel(rng, clean labels to flip)``; the clean labels ride along."""
    y_clean = dataset.y_clean
    n = len(y_clean)
    rng = np.random.default_rng(seed)
    if exact_count:
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=int(np.floor(eta * n)), replace=False)] = True
    else:
        mask = rng.random(n) < eta
    y_noisy = y_clean.copy()
    y_noisy[mask] = relabel(rng, y_clean[mask])
    return Dataset(dataset.X, y_noisy, dataset.c, y_clean=y_clean.copy())


def inject_symmetric(dataset, eta, seed=0, exact_count=False):
    """Flip each label with probability eta, uniformly to another class."""
    _check_eta(eta)
    c = dataset.c
    # uniform over the c-1 other classes via an offset in 1..c-1
    return _flip(dataset, eta, seed, exact_count,
                 lambda rng, y: (y + rng.integers(1, c, size=len(y))) % c)


def inject_asymmetric(dataset, eta, seed=0, exact_count=False):
    """Flip each label with probability eta to one of two designated classes.

    True class j is sent to (j+1) mod c or (j+2) mod c with probability
    eta/2 each; the cyclic rule keeps the construction deterministic.
    """
    _check_eta(eta)
    c = dataset.c
    if c < 3:
        raise ConfigError("asymmetric noise needs at least 3 classes")
    return _flip(dataset, eta, seed, exact_count,
                 lambda rng, y: (y + rng.integers(1, 3, size=len(y))) % c)


def inject_hierarchical(dataset, eta, superclasses, seed=0, exact_count=False):
    """Flip within semantic superclass blocks only."""
    _check_eta(eta)
    c = dataset.c
    seen = sorted(cls for block in superclasses for cls in block)
    if seen != list(range(c)):
        raise ConfigError(f"superclasses must partition 0..{c - 1}, got {superclasses}")
    if eta > 0 and any(len(block) < 2 for block in superclasses):
        raise ConfigError("every superclass block needs >= 2 classes when eta > 0")
    others = {cls: [o for o in sorted(block) if o != cls] for block in superclasses for cls in block}

    def relabel(rng, y):
        return [others[label][rng.integers(len(others[label]))] for label in y.tolist()]

    return _flip(dataset, eta, seed, exact_count, relabel)


def _test_size(test_fraction, n):
    """The test-set size of ``n`` samples: ``test_fraction`` of them if it
    lies in (0, 1), else ``test_fraction`` itself, which must be a positive count."""
    if isinstance(test_fraction, float) and 0.0 < test_fraction < 1.0:
        return int(round(test_fraction * n))
    if float(test_fraction).is_integer() and test_fraction >= 1:
        return int(test_fraction)
    raise ConfigError(
        f"test_fraction={test_fraction!r} is neither a fraction in (0, 1) nor a positive count")


def split_meta(clean, meta_size, test_fraction, seed=0):
    """Disjoint train/meta/test split of a clean dataset.

    ``test_fraction`` is a fraction in (0, 1) or an absolute count.  The
    meta set is stratified (meta_size/c per class) whenever it divides
    evenly.  All three parts are clean datasets; a noise injector flips
    the train part's labels afterwards.
    """
    n = len(clean)
    test_size = _test_size(test_fraction, n)
    if meta_size < 1 or test_size < 1 or meta_size + test_size >= n:
        raise ConfigError(
            f"infeasible split: n={n}, meta={meta_size}, test={test_size}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    test_idx = order[:test_size]
    rest = order[test_size:]

    if meta_size % clean.c == 0:
        per_class = meta_size // clean.c
        meta_parts = []
        for k in range(clean.c):
            members = rest[clean.y[rest] == k]
            if len(members) < per_class:
                raise ConfigError(f"class {k} too small for stratified meta set")
            meta_parts.append(members[:per_class])
        meta_idx = np.concatenate(meta_parts)
    else:
        meta_idx = rest[:meta_size]
    train_idx = np.setdiff1d(rest, meta_idx, assume_unique=True)

    train = Dataset(clean.X[train_idx], clean.y[train_idx].copy(), clean.c)
    meta = Dataset(clean.X[meta_idx], clean.y[meta_idx].copy(), clean.c)
    test = Dataset(clean.X[test_idx], clean.y[test_idx].copy(), clean.c)
    return MetaSplit(train, meta, test)


def load_csv(path):
    """Read ``feature_1,...,feature_d,label`` rows into a clean dataset.

    Labels are remapped to contiguous 0..c-1; the mapping is recorded on
    the returned dataset.
    """
    rows = []
    width = None
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if width is None:
                width = len(row)
                if width < 2:
                    raise DataFormatError(
                        f"{path}:{lineno}: need at least one feature and a label"
                    )
            elif len(row) != width:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {width} columns, got {len(row)}"
                )
            try:
                feats = [float(v) for v in row[:-1]]
                label = float(row[-1])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
            if not all(math.isfinite(v) for v in feats):
                raise DataFormatError(f"{path}:{lineno}: non-finite feature")
            if not label.is_integer():
                raise DataFormatError(f"{path}:{lineno}: label {row[-1]!r} is not an integer")
            rows.append((feats, int(label)))
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    X = np.array([r[0] for r in rows])
    raw = np.array([r[1] for r in rows])
    classes = sorted(set(raw.tolist()))
    label_map = {orig: k for k, orig in enumerate(classes)}
    y = np.array([label_map[v] for v in raw])
    return Dataset(X, y, len(classes), label_map)


def write_csv(dataset, path):
    """Inverse of load_csv: the features and the training labels ``y``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for feats, label in zip(dataset.X, dataset.y):
            writer.writerow([f"{v:.9g}" for v in feats] + [int(label)])
