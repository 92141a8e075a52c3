"""Linear max-margin classification on sparse codes, plus evaluation.

The trainer is a one-vs-rest hinge-loss SGD with the classic 1/(reg*t)
step schedule and seeded shuffling, so training is deterministic. The
masked-reconstruction experiment codes each signal on the observed rows
of every class dictionary and predicts the class with the smallest
observed-entry residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .info_measures import bayes_bound, class_entropy, mi_codes_labels
from .sparse_coding import pinv, rmse


@dataclass(frozen=True, eq=False)
class LinearModel:
    """One-vs-rest linear scores: weights (p, F) and bias (p,)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        b = np.ascontiguousarray(self.bias, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ValueError("weights must be (p, F) with a length-p bias")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("model parameters must be finite")


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    rmse: float
    mi_estimate: float
    bayes_bound: float
    per_class_accuracy: tuple


def train_linear(
    features: np.ndarray,
    labels: np.ndarray,
    reg: float | None = None,
    epochs: int = 50,
    seed: int = 0,
) -> LinearModel:
    """One-vs-rest hinge loss by subgradient descent, step 1/(reg*t).

    reg defaults to 1/N. The bias is updated but not regularized. A fixed
    seed fixes the per-epoch shuffling, so retraining reproduces the model.

    Features are standardized internally (training mean/scale) and the
    scaling is folded back into the returned weights, so the fixed step
    schedule behaves the same however the code scales run; predict applies
    the model to raw features as usual.
    """
    F = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    N, dim = F.shape
    p = int(labels.max()) + 1
    if p < 2:
        raise ValueError("training needs at least 2 classes")
    if reg is None:
        reg = 1.0 / N
    if reg <= 0:
        raise ValueError("reg must be positive")
    mu = F.mean(axis=0)
    sd = F.std(axis=0)
    sd = np.where(sd > 1e-12, sd, 1.0)
    Fs = (F - mu) / sd
    rng = np.random.default_rng(seed)
    W = np.zeros((p, dim))
    b = np.zeros(p)
    total = epochs * N
    tail_start = total - max(total // 2, 1)
    radius = 1.0 / np.sqrt(reg)
    for c in range(p):
        y = np.where(labels == c, 1.0, -1.0)
        w = np.zeros(dim)
        bc = 0.0
        w_tail = np.zeros(dim)
        b_tail = 0.0
        tail = 0
        t = 0
        for _ in range(epochs):
            for i in rng.permutation(N):
                t += 1
                eta = 1.0 / (reg * t)
                margin = y[i] * (w @ Fs[i] + bc)
                w *= 1.0 - eta * reg
                if margin < 1.0:
                    w += eta * y[i] * Fs[i]
                    bc += eta * y[i]
                norm = math.sqrt(w @ w)
                if norm > radius:
                    # projection onto the feasible ball tames the huge
                    # early steps of the 1/(reg*t) schedule
                    w *= radius / norm
                if t > tail_start:
                    w_tail += w
                    b_tail += bc
                    tail += 1
        # tail-averaged iterate: the raw final iterate is noisy
        w_avg = w_tail / tail
        b_avg = b_tail / tail
        W[c] = w_avg / sd
        b[c] = b_avg - float((w_avg / sd) @ mu)
    return LinearModel(weights=W, bias=b)


def predict(model: LinearModel, features: np.ndarray) -> np.ndarray:
    """Argmax class score per sample; ties go to the lowest class index."""
    F = np.asarray(features, dtype=np.float64)
    if F.ndim != 2 or F.shape[1] != model.weights.shape[1]:
        raise ValueError(
            f"feature dimension {F.shape} does not match model ({model.weights.shape[1]})"
        )
    scores = F @ model.weights.T + model.bias
    return np.argmax(scores, axis=1).astype(np.int64)


def code_test_signals(atoms_by_class: list, signals: np.ndarray, shared: bool):
    """Least-squares codes of the signals under each learned atom set.

    Returns the classifier features, one row per signal, and the
    (class_id, codes, atoms) of every set. The features are the codes of
    the first set (shared) or the codes of every set stacked in class
    order (dedicated).
    """
    Y = np.asarray(signals, dtype=np.float64)
    per_class = [(class_id, pinv(atoms) @ Y, atoms) for class_id, atoms in atoms_by_class]
    coded = per_class[:1] if shared else per_class
    features = np.ascontiguousarray(np.vstack([coeffs for _, coeffs, _ in coded]).T)
    return features, per_class


def evaluate(
    model: LinearModel,
    atoms_by_class: list,
    test: Dataset,
    *,
    shared: bool,
    sigma: float | None = None,
) -> EvalReport:
    """Accuracy, reconstruction RMSE, MI estimate and Bayes bound on a test set.

    Reconstruction uses the shared atoms for every signal, or each
    signal's true-class atoms in dedicated mode (mirroring how training
    reconstructions are defined per class). sigma is the bandwidth of the
    MI estimate, None for bandwidth_rule.
    """
    features, per_class = code_test_signals(atoms_by_class, test.signals, shared)
    pred = predict(model, features)
    correct = pred == test.labels
    per_class_acc = []
    for c in range(test.p):
        members = test.labels == c
        per_class_acc.append(float(correct[members].mean()))
    weights = test.class_counts / test.size
    accuracy = float(np.dot(weights, per_class_acc))

    if shared:
        _, coeffs, atoms = per_class[0]
        recon = atoms @ coeffs
    else:
        recon = np.empty_like(test.signals)
        for class_id, coeffs, atoms in per_class:
            members = test.labels == class_id
            recon[:, members] = atoms @ coeffs[:, members]
    err = rmse(test.signals, recon)

    mi = mi_codes_labels(features.T, test.labels, sigma)
    bound = bayes_bound(class_entropy(test.labels), mi)
    return EvalReport(
        accuracy=accuracy,
        rmse=err,
        mi_estimate=mi,
        bayes_bound=bound,
        per_class_accuracy=tuple(per_class_acc),
    )


def reconstruct_masked(
    atoms_by_class: list, masked: Dataset, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct masked signals and predict classes by observed residual.

    For every signal and class, the code is the least squares fit of the
    observed entries against the observed rows of that class's atoms; the
    predicted class minimizes the observed-entry residual (lowest class on
    ties) and supplies the full reconstruction. Columns sharing a mask
    pattern are coded together, so an all-true mask reproduces plain
    least-squares coding exactly. Patterns with the same observed-row and
    column counts are stacked, one ``pinv`` per class per stack.
    """
    Y = masked.signals
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != Y.shape:
        raise ValueError("mask shape must match the signals")
    n, N = Y.shape
    patterns, which = np.unique(mask.T, axis=0, return_inverse=True)
    which = which.reshape(N)  # the inverse's shape differs between numpy versions
    cols_by_pattern = np.argsort(which, kind="stable")
    n_cols = np.bincount(which, minlength=len(patterns))
    first = np.concatenate(([0], np.cumsum(n_cols)[:-1]))
    n_obs = patterns.sum(axis=1)
    recon = np.empty((n, N))
    pred = np.empty(N, dtype=np.int64)
    best = np.full(N, np.inf)
    for m, c in np.unique(np.column_stack([n_obs, n_cols]), axis=0):
        group = np.flatnonzero((n_obs == m) & (n_cols == c))
        cols = cols_by_pattern[first[group, None] + np.arange(c)]  # (G, c)
        rows = np.nonzero(patterns[group])[1].reshape(len(group), m)  # (G, m)
        Yg = Y[rows[:, :, None], cols[:, None, :]]  # (G, m, c)
        for class_id, atoms in atoms_by_class:
            sub = atoms[rows]  # (G, m, k)
            coeffs = pinv(sub) @ Yg
            diff = Yg - sub @ coeffs
            resid = np.sqrt(np.sum(diff * diff, axis=1))
            better = resid < best[cols]
            hit = cols[better]
            best[hit] = resid[better]
            pred[hit] = class_id
            recon[:, hit] = (atoms @ coeffs).swapaxes(0, 1)[:, better]
    return recon, pred
