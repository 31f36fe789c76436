"""Synthetic datasets, label-noise injectors, and CSV ingestion.

Noise is injected sample-wise i.i.d. with probability eta (an exact-count
mode exists behind a flag); the clean labels always ride along so that
diagnostics can compare against ground truth.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError, DomainError


@dataclass
class Dataset:
    """Feature matrix with clean labels in {0..c-1}."""

    X: np.ndarray
    y: np.ndarray
    c: int
    label_map: dict | None = None

    def __len__(self):
        return len(self.y)


@dataclass
class NoisyDataset:
    """Features with corrupted labels; the clean ones stay hidden alongside."""

    X: np.ndarray
    y_noisy: np.ndarray
    y_clean: np.ndarray
    c: int
    provenance: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.y_noisy)

    @property
    def flip_mask(self):
        return self.y_noisy != self.y_clean


@dataclass
class MetaSplit:
    """Noisy training data plus small clean meta and clean test sets."""

    train: NoisyDataset
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


def _clean_labels(dataset):
    if isinstance(dataset, NoisyDataset):
        return dataset.X, dataset.y_clean, dataset.c
    return dataset.X, dataset.y, dataset.c


def _flip_mask(rng, n, eta, exact_count):
    if exact_count:
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=int(np.floor(eta * n)), replace=False)] = True
        return mask
    return rng.random(n) < eta


def inject_symmetric(dataset, eta, seed=0, exact_count=False):
    """Flip each label with probability eta, uniformly to another class."""
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta={eta!r} outside [0, 1]")
    X, y_clean, c = _clean_labels(dataset)
    rng = np.random.default_rng(seed)
    y_noisy = y_clean.copy()
    mask = _flip_mask(rng, len(y_clean), eta, exact_count)
    # uniform over the c-1 other classes via an offset in 1..c-1
    offsets = rng.integers(1, c, size=int(mask.sum()))
    y_noisy[mask] = (y_clean[mask] + offsets) % c
    return NoisyDataset(
        X, y_noisy, y_clean.copy(), c,
        {"noise": "symmetric", "eta": eta, "seed": seed, "exact_count": exact_count},
    )


def inject_asymmetric(dataset, eta, seed=0, exact_count=False):
    """Flip each label with probability eta to one of two designated classes.

    True class j is sent to (j+1) mod c or (j+2) mod c with probability
    eta/2 each; the cyclic rule keeps the construction deterministic.
    """
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta={eta!r} outside [0, 1]")
    X, y_clean, c = _clean_labels(dataset)
    if c < 3:
        raise ConfigError("asymmetric noise needs at least 3 classes")
    rng = np.random.default_rng(seed)
    y_noisy = y_clean.copy()
    mask = _flip_mask(rng, len(y_clean), eta, exact_count)
    offsets = rng.integers(1, 3, size=int(mask.sum()))
    y_noisy[mask] = (y_clean[mask] + offsets) % c
    return NoisyDataset(
        X, y_noisy, y_clean.copy(), c,
        {"noise": "asymmetric", "eta": eta, "seed": seed, "exact_count": exact_count},
    )


def inject_hierarchical(dataset, eta, superclasses, seed=0, exact_count=False):
    """Flip within semantic superclass blocks only."""
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta={eta!r} outside [0, 1]")
    X, y_clean, c = _clean_labels(dataset)
    seen = sorted(cls for block in superclasses for cls in block)
    if seen != list(range(c)):
        raise ConfigError(f"superclasses must partition 0..{c - 1}, got {superclasses}")
    if eta > 0 and any(len(block) < 2 for block in superclasses):
        raise ConfigError("every superclass block needs >= 2 classes when eta > 0")
    block_of = {}
    for block in superclasses:
        for cls in block:
            block_of[cls] = sorted(block)
    rng = np.random.default_rng(seed)
    y_noisy = y_clean.copy()
    mask = _flip_mask(rng, len(y_clean), eta, exact_count)
    for i in np.flatnonzero(mask):
        others = [cls for cls in block_of[int(y_clean[i])] if cls != y_clean[i]]
        y_noisy[i] = others[rng.integers(len(others))]
    return NoisyDataset(
        X, y_noisy, y_clean.copy(), c,
        {
            "noise": "hierarchical",
            "eta": eta,
            "seed": seed,
            "superclasses": [sorted(b) for b in superclasses],
            "exact_count": exact_count,
        },
    )


def split_meta(clean, meta_size, test_fraction, seed=0):
    """Disjoint train/meta/test split of a clean dataset.

    ``test_fraction`` is a fraction in (0, 1) or an absolute count.  The
    meta set is stratified (meta_size/c per class) whenever it divides
    evenly; the train part is returned as a NoisyDataset with eta = 0 so a
    noise injector can rewrite its labels in place of the clean copies.
    """
    n = len(clean)
    if isinstance(test_fraction, float) and 0.0 < test_fraction < 1.0:
        test_size = int(round(test_fraction * n))
    else:
        test_size = int(test_fraction)
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

    train = NoisyDataset(
        clean.X[train_idx],
        clean.y[train_idx].copy(),
        clean.y[train_idx].copy(),
        clean.c,
        {"noise": "none", "eta": 0.0, "seed": seed},
    )
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
    """Inverse of load_csv for clean datasets (noisy labels if present)."""
    y = dataset.y_noisy if isinstance(dataset, NoisyDataset) else dataset.y
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for feats, label in zip(dataset.X, y):
            writer.writerow([f"{v:.9g}" for v in feats] + [int(label)])
