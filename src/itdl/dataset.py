"""Datasets of labeled signal vectors: CSV I/O, synthesis, splits, masking.

A dataset holds signals as the columns of an (n, N) matrix together with
integer class labels remapped to a contiguous 0..p-1 range. All operations
are pure given their inputs and seed; returned datasets are frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class LoadError(ValueError):
    """Malformed dataset or mask file."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Signals (n features x N samples) with labels in {0..p-1}."""

    signals: np.ndarray
    labels: np.ndarray
    p: int
    class_counts: np.ndarray

    def __post_init__(self):
        signals = _freeze(np.ascontiguousarray(self.signals, dtype=np.float64))
        labels = _freeze(np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "signals", signals)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(
            self, "class_counts", _freeze(np.asarray(self.class_counts, dtype=np.int64))
        )
        if signals.ndim != 2:
            raise ValueError("signals must be a 2-d matrix")
        if labels.shape != (signals.shape[1],):
            raise ValueError("labels length must match the number of signal columns")
        if self.p < 1 or labels.min(initial=0) < 0 or (labels >= self.p).any():
            raise ValueError("labels must lie in {0..p-1}")
        if self.class_counts.shape != (self.p,) or (self.class_counts < 1).any():
            raise ValueError("every class needs at least one sample")
        if int(self.class_counts.sum()) != signals.shape[1]:
            raise ValueError("class counts must sum to the sample count")

    @property
    def n(self) -> int:
        return self.signals.shape[0]

    @property
    def size(self) -> int:
        return self.signals.shape[1]


def _make_dataset(signals: np.ndarray, labels: np.ndarray) -> Dataset:
    labels = np.asarray(labels, dtype=np.int64)
    p = int(labels.max()) + 1 if labels.size else 0
    counts = np.bincount(labels, minlength=p)
    return Dataset(signals=signals, labels=labels, p=p, class_counts=counts)


def load_csv(path) -> Dataset:
    """Read rows of ``label, feature_1, ..., feature_n``.

    Raw labels may be arbitrary integers; they are remapped to 0..p-1 in
    order of first appearance. Raises LoadError naming the offending
    1-based row for ragged, non-numeric, non-finite (nan/inf),
    all-zero-signal or empty input.
    """
    raw_labels: list[int] = []
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
                if width < 2:
                    raise LoadError(f"row {lineno}: expected a label and at least one feature")
            elif len(cells) != width:
                raise LoadError(f"row {lineno}: expected {width} cells, got {len(cells)}")
            try:
                label_val = float(cells[0])
                feats = [float(c) for c in cells[1:]]
            except ValueError as exc:
                raise LoadError(f"row {lineno}: non-numeric cell ({exc})") from None
            if not (math.isfinite(label_val) and all(map(math.isfinite, feats))):
                raise LoadError(f"row {lineno}: non-finite cell (nan or inf)")
            if label_val != int(label_val):
                raise LoadError(f"row {lineno}: label {cells[0]!r} is not an integer")
            if not any(v != 0.0 for v in feats):
                raise LoadError(f"row {lineno}: all-zero signal rejected")
            raw_labels.append(int(label_val))
            rows.append(feats)
    if not rows:
        raise LoadError("empty file: no data rows")
    remap: dict[int, int] = {}
    for lab in raw_labels:
        if lab not in remap:
            remap[lab] = len(remap)
    labels = np.array([remap[lab] for lab in raw_labels], dtype=np.int64)
    signals = np.array(rows, dtype=np.float64).T
    return _make_dataset(signals, labels)


def save_csv(ds: Dataset, path) -> None:
    """Write the dataset in load_csv's row format with round-trip floats."""
    with open(path, "w", encoding="ascii") as fh:
        for i in range(ds.size):
            feats = ",".join(repr(float(v)) for v in ds.signals[:, i])
            fh.write(f"{int(ds.labels[i])},{feats}\n")


def synth_gaussian_classes(n: int, p: int, per_class: int, spread: float, seed: int) -> Dataset:
    """Class blobs: p means drawn uniformly on the unit sphere, isotropic noise.

    Deterministic for a fixed seed. spread=0 collapses every class onto
    its mean; negative spread is rejected.
    """
    if n < 1 or p < 2 or per_class < 2:
        raise ValueError("need n >= 1, p >= 2, per_class >= 2")
    if spread < 0:
        raise ValueError("spread must be non-negative")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((p, n))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    signals = np.empty((n, p * per_class))
    labels = np.empty(p * per_class, dtype=np.int64)
    for c in range(p):
        block = means[c][:, None] + spread * rng.standard_normal((n, per_class))
        signals[:, c * per_class : (c + 1) * per_class] = block
        labels[c * per_class : (c + 1) * per_class] = c
    return _make_dataset(signals, labels)


def split(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified train/test split, per-class count rounded half up.

    Every class contributes at least one sample to each side, which is why
    classes with fewer than two samples are rejected.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    if (ds.class_counts < 2).any():
        raise ValueError("every class needs at least 2 samples to split")
    rng = np.random.default_rng(seed)
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for c in range(ds.p):
        members = np.flatnonzero(ds.labels == c)
        order = members[rng.permutation(members.size)]
        k = int(np.floor(train_fraction * members.size + 0.5))
        k = min(max(k, 1), members.size - 1)
        train_idx.append(np.sort(order[:k]))
        test_idx.append(np.sort(order[k:]))
    tr = np.concatenate(train_idx)
    te = np.concatenate(test_idx)
    return (
        _make_dataset(ds.signals[:, tr], ds.labels[tr]),
        _make_dataset(ds.signals[:, te], ds.labels[te]),
    )


def mask_pixels(ds: Dataset, missing_fraction: float, seed: int) -> tuple[Dataset, np.ndarray]:
    """Zero a uniformly random feature subset of each column.

    The mask is True where entries are kept; every column has exactly
    round(missing_fraction * n) False entries.
    """
    if not 0.0 <= missing_fraction < 1.0:
        raise ValueError("missing_fraction must lie in [0, 1)")
    k = int(np.floor(missing_fraction * ds.n + 0.5))
    mask = np.ones_like(ds.signals, dtype=bool)
    if k == 0:
        return ds, _freeze(mask)
    rng = np.random.default_rng(seed)
    signals = ds.signals.copy()
    for i in range(ds.size):
        drop = rng.choice(ds.n, size=k, replace=False)
        mask[drop, i] = False
        signals[drop, i] = 0.0
    return (
        Dataset(signals=signals, labels=ds.labels, p=ds.p, class_counts=ds.class_counts),
        _freeze(mask),
    )


def save_mask(mask: np.ndarray, path) -> None:
    """Persist a mask as 0/1 CSV, one row per signal column."""
    with open(path, "w", encoding="ascii") as fh:
        for i in range(mask.shape[1]):
            fh.write(",".join("1" if v else "0" for v in mask[:, i]) + "\n")


def load_mask(path) -> np.ndarray:
    """Read a 0/1 CSV mask, one row per signal column.

    Raises LoadError naming the 1-based row for a cell other than 0 or 1,
    a row whose length differs from the first, or an empty file.
    """
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = [c.strip() for c in line.split(",")]
            if not all(c in ("0", "1") for c in cells):
                raise LoadError(f"row {lineno}: mask cells must be 0 or 1")
            if rows and len(cells) != len(rows[0]):
                raise LoadError(f"row {lineno}: expected {len(rows[0])} cells, got {len(cells)}")
            rows.append([c == "1" for c in cells])
    if not rows:
        raise LoadError("empty mask file")
    return np.array(rows, dtype=bool).T
