"""Datasets of labeled signal vectors: CSV I/O, synthesis, splits, masking.

A dataset holds signals as the columns of an (n, N) matrix together with
integer class labels remapped to a contiguous 0..p-1 range, and the raw
label value of each class. All operations are pure given their inputs
and seed; returned datasets are frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np


class LoadError(ValueError):
    """Malformed dataset file, named with its 1-based row where one is at fault."""


def frozen_copy(arr, dtype=np.float64) -> np.ndarray:
    """A read-only, C-ordered copy of ``arr`` that no caller holds: every
    record keeps its array fields this way, so editing the caller's array
    cannot change the record, and the record's arrays cannot be edited."""
    out = np.array(arr, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def class_labels(labels, n: int | None, of: str = "signals") -> np.ndarray:
    """The labels as a contiguous int64 array, checked in order to be numbers,
    whole numbers in the int64 range (1.5 is not class 1; signed-integer and
    bool labels are exact), 1-d, n of them (n None takes any count) and
    non-negative, or raise ValueError naming them (README: the label rule)."""
    raw = np.asarray(labels)
    if raw.dtype.kind not in "biuf":
        raise ValueError(f"labels must be numbers, got dtype {raw.dtype}")
    if raw.dtype.kind in "bi":
        out = raw.astype(np.int64, order="C", copy=False)
    else:
        with np.errstate(invalid="ignore"):
            out = raw.astype(np.int64, order="C")
        bad = out != raw
        if bad.any():
            raise ValueError(f"label {raw[bad][0]} is not a whole number in the int64 range")
    if out.ndim != 1:
        raise ValueError(f"labels must be a 1-d array, got shape {out.shape}")
    if n is not None and out.size != n:
        raise ValueError(f"{out.size} labels for {n} {of}")
    if out.min(initial=0) < 0:
        raise ValueError(f"negative label {out.min()}")
    return out


def float_matrix(values, name: str, rows: int | None = None, class_id: int | None = None) -> np.ndarray:
    """The values as a float64 matrix (a float64 array as is), checked in order
    to be numbers, 2-d with a row, with a column, of ``rows`` rows if given and
    finite, or ValueError naming ``name`` and ``class_id`` (README: the matrix rule)."""
    what = name if class_id is None else f"{name} of class {class_id}"
    raw = np.asarray(values)
    if raw.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be numbers, got dtype {raw.dtype}")
    out = raw.astype(np.float64, copy=False)
    if out.ndim != 2 or out.shape[0] == 0:
        raise ValueError(f"{what} must be a 2-d matrix with at least one row, got shape {out.shape}")
    if out.shape[1] == 0:
        raise ValueError(f"no {what}: the {name[:-1]} matrix has 0 columns")
    if rows is not None and out.shape[0] != rows:
        raise ValueError(f"{what} must have {rows} rows, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{what} must be finite (they hold nan or inf)")
    return out


def class_atoms(atoms_by_class, rows: int) -> list[tuple]:
    """The (class id, atoms) pairs, each atom set through float_matrix of its class."""
    return [(c, float_matrix(atoms, "atoms", rows, c)) for c, atoms in atoms_by_class]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Signals (n features x N samples) with labels in {0..p-1}; class c
    has the raw label label_values[c] (c itself by default), and no two
    classes share one.

    p is the number of label values when they are given, else the largest
    label plus one; class_counts is the per-class sample count.
    """

    signals: np.ndarray
    labels: np.ndarray
    label_values: tuple | None = None
    p: int = field(init=False)
    class_counts: np.ndarray = field(init=False)

    def __post_init__(self):
        signals = frozen_copy(float_matrix(self.signals, "signals"))
        labels = frozen_copy(class_labels(self.labels, signals.shape[1]), np.int64)
        object.__setattr__(self, "signals", signals)
        object.__setattr__(self, "labels", labels)
        top = int(labels.max()) + 1
        values = tuple(range(top) if self.label_values is None else self.label_values)
        if top > len(values):
            raise ValueError("need one raw label value per class")
        if len(set(values)) != len(values):
            raise ValueError(f"raw label values must be distinct, got {values}")
        counts = frozen_copy(np.bincount(labels, minlength=len(values)), np.int64)
        if (counts < 1).any():
            raise ValueError("every class needs at least one sample")
        object.__setattr__(self, "label_values", values)
        object.__setattr__(self, "p", len(values))
        object.__setattr__(self, "class_counts", counts)

    @property
    def n(self) -> int:
        return self.signals.shape[0]

    @property
    def size(self) -> int:
        return self.signals.shape[1]


def load_csv(path) -> Dataset:
    """Read rows of ``label, feature_1, ..., feature_n``.

    Raw labels may be any int64 integers; integer text is parsed exactly,
    and float text such as ``1.0`` or ``1e3`` must hold an integral value.
    Labels are remapped to 0..p-1 in increasing order of value, so row
    order does not change the mapping, and the sorted values are kept as
    label_values. Ragged, non-numeric, non-finite (nan/inf), non-integer
    or out-of-range label, all-zero-signal, empty or non-ASCII input
    raises LoadError naming the file (and 1-based row).
    """
    raw_labels, rows = [], []
    width = None
    try:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                cells = line.split(",")
                width = width or len(cells)
                if len(cells) != width:
                    raise LoadError(f"expected {width} cells, got {len(cells)}")
                if width < 2:
                    raise LoadError("expected a label and at least one feature")
                try:
                    label_val = float(cells[0])
                    feats = [float(c) for c in cells[1:]]
                except ValueError as exc:
                    raise LoadError(f"non-numeric cell ({exc})") from None
                if not (math.isfinite(label_val) and all(map(math.isfinite, feats))):
                    raise LoadError("non-finite cell (nan or inf)")
                if label_val != int(label_val):
                    raise LoadError(f"label {cells[0]!r} is not an integer")
                try:
                    label = int(cells[0])  # exact, where float would round above 2**53
                except ValueError:
                    label = int(label_val)  # integral float text such as 1.0 or 1e3
                if not -(2**63) <= label < 2**63:
                    raise LoadError(f"label {cells[0]!r} is outside the int64 range")
                if not any(v != 0.0 for v in feats):
                    raise LoadError("all-zero signal rejected")
                raw_labels.append(label)
                rows.append(feats)
    except UnicodeDecodeError:
        raise LoadError(f"{path}: not an ASCII text file") from None
    except LoadError as exc:
        raise LoadError(f"{path}: row {lineno}: {exc}") from None
    if not rows:
        raise LoadError(f"{path}: empty file: no data rows")
    values, labels = np.unique(np.array(raw_labels, dtype=np.int64), return_inverse=True)
    signals = np.array(rows, dtype=np.float64).T
    return Dataset(signals, labels, tuple(values.tolist()))


def save_csv(ds: Dataset, path) -> None:
    """Write the dataset in load_csv's row format, raw labels and round-trip floats."""
    with open(path, "w", encoding="ascii") as fh:
        for i in range(ds.size):
            feats = ",".join(repr(float(v)) for v in ds.signals[:, i])
            fh.write(f"{int(ds.label_values[ds.labels[i]])},{feats}\n")


def synth_gaussian_classes(n: int, p: int, per_class: int, spread: float, seed: int) -> Dataset:
    """Class blobs: p means drawn uniformly on the unit sphere, isotropic noise.

    Deterministic for a fixed seed. spread=0 collapses every class onto
    its mean; a negative or non-finite spread is rejected.
    """
    if n < 1 or p < 2 or per_class < 2:
        raise ValueError("need n >= 1, p >= 2, per_class >= 2")
    if not (math.isfinite(spread) and spread >= 0):
        raise ValueError(f"spread must be finite and non-negative, got {spread}")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((p, n))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    signals = np.empty((n, p * per_class))
    labels = np.empty(p * per_class, dtype=np.int64)
    for c in range(p):
        block = means[c][:, None] + spread * rng.standard_normal((n, per_class))
        signals[:, c * per_class : (c + 1) * per_class] = block
        labels[c * per_class : (c + 1) * per_class] = c
    return Dataset(signals, labels)


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
        Dataset(ds.signals[:, tr], ds.labels[tr], ds.label_values),
        Dataset(ds.signals[:, te], ds.labels[te], ds.label_values),
    )


def mask_pixels(ds: Dataset, missing_fraction: float, seed: int) -> tuple[Dataset, np.ndarray]:
    """Zero a uniformly random feature subset of each column.

    The mask is True where entries are kept; every column has exactly
    round(missing_fraction * n) False entries, fewer than n.
    """
    if not 0.0 <= missing_fraction < 1.0:
        raise ValueError("missing_fraction must lie in [0, 1)")
    k = int(np.floor(missing_fraction * ds.n + 0.5))
    if k >= ds.n:
        raise ValueError(
            f"missing_fraction {missing_fraction} drops {k} of n={ds.n} entries per signal"
        )
    mask = np.ones_like(ds.signals, dtype=bool)
    if k == 0:
        return ds, frozen_copy(mask, bool)
    rng = np.random.default_rng(seed)
    signals = ds.signals.copy()
    for i in range(ds.size):
        drop = rng.choice(ds.n, size=k, replace=False)
        mask[drop, i] = False
        signals[drop, i] = 0.0
    return replace(ds, signals=signals), frozen_copy(mask, bool)

