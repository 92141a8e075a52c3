"""Linear max-margin classification on sparse codes, plus evaluation.

The trainer is a one-vs-rest squared-hinge L2-SVM solved exactly by
finite Newton, so it needs no seed. The masked-reconstruction experiment
codes each signal on the observed rows of every class dictionary and
predicts the class with the smallest observed-entry residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, frozen_copy
from .info_measures import bayes_bound, class_entropy, mi_codes_labels
from .sparse_coding import pinv, rmse


@dataclass(frozen=True, eq=False)
class LinearModel:
    """One-vs-rest linear scores: weights (p, F) and bias (p,)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = frozen_copy(self.weights)
        b = frozen_copy(self.bias)
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
) -> LinearModel:
    """One-vs-rest squared-hinge L2-SVM, solved exactly by finite Newton.

    Class c minimizes reg/2 ||w||^2 + 1/N sum_i max(0, 1 - y_i (w.x_i + b))^2,
    y_i = +1 on its rows and -1 elsewhere, on features standardized
    internally (the scaling is folded back into the returned weights):
    LIBLINEAR's default loss (Fan et al., 2008) with C = 1/(reg N). reg
    defaults to 1/N; the bias is not regularized. Each pass (Keerthi &
    DeCoste, 2005) solves one (dim+1)-square system for the minimizer of the
    quadratic that keeps the active set (margins below 1), then takes the
    exact line search towards it; a Newton point that keeps the active set
    is the exact minimizer. ``epochs`` (at least 1) caps the passes. There is no seed.
    """
    F = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if F.ndim != 2 or labels.shape != F.shape[:1]:
        raise ValueError(f"features {F.shape} and labels {labels.shape} must be (N, dim), (N,)")
    if not np.isfinite(F).all():
        raise ValueError("features must be finite")
    if (labels < 0).any():
        raise ValueError("labels must be non-negative class indices")
    counts = np.bincount(labels)
    p = len(counts)
    if p < 2:
        raise ValueError("training needs at least 2 classes")
    if not counts.all():
        raise ValueError(f"class {int(np.argmin(counts))} has no training row")
    N, dim = F.shape
    reg = 1.0 / N if reg is None else reg
    if not reg > 0:
        raise ValueError("reg must be positive")
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    mu, sd = F.mean(axis=0), F.std(axis=0)
    sd = np.where(sd > 1e-12, sd, 1.0)
    Z = np.hstack([(F - mu) / sd, np.ones((N, 1))])
    lam = reg * N / 2  # the normal equations below are scaled by N/2
    ridge = np.diag(np.append(np.full(dim, lam), 0.0))
    models = np.zeros((p, dim + 1))
    for c, theta in enumerate(models):
        y = np.where(labels == c, 1.0, -1.0)
        for _ in range(epochs):
            out = Z @ theta
            active = y * out < 1.0
            Za = Z[active]
            gram = Za.T @ Za + ridge
            if not active.any():
                gram[-1, -1] = 1.0  # every margin is past 1: aim the free bias at 0
            step = np.linalg.solve(gram, Za.T @ y[active]) - theta
            delta = Z @ step
            if ((y * (out + delta) < 1.0) == active).all():
                theta += step
                break
            theta += _exact_step(lam, theta[:-1], step[:-1], 1.0 - y * out, y * delta) * step
    weights = models[:, :-1] / sd
    return LinearModel(weights=weights, bias=models[:, -1] - weights @ mu)


def _exact_step(lam, w, dw, slack, s):
    """Minimizer t of lam ||w + t dw||^2 + sum_i max(0, slack_i - t s_i)^2.

    Half the derivative is a + q t, linear between the breakpoints where a
    row's margin crosses 1; the root is on the first segment ending >= 0.
    """
    on = slack > 0
    cross = np.flatnonzero(np.where(on, s > 0, s < 0))
    cross = cross[np.argsort(slack[cross] / s[cross])]
    t = slack[cross] / s[cross]
    leave = np.where(on[cross], s[cross], -s[cross])  # an active row leaves, another enters
    a = np.cumsum(np.concatenate(([lam * (w @ dw) - slack[on] @ s[on]], leave * slack[cross])))
    q = np.cumsum(np.concatenate(([lam * (dw @ dw) + s[on] @ s[on]], -leave * s[cross])))
    k = np.argmax(np.append(a[:-1] + q[:-1] * t, 0.0) >= 0)  # the last segment never ends
    return -a[k] / q[k]


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


def evaluate(model: LinearModel, atoms_by_class: list, test: Dataset) -> EvalReport:
    """Accuracy, reconstruction RMSE, MI estimate and Bayes bound on a test set.

    A shared set (class id None) codes and reconstructs every signal; else
    each class's set rebuilds its own class's signals, as in training, and a
    test class with no set raises ValueError. The MI estimate always uses
    bandwidth_rule of the features.
    """
    shared = atoms_by_class[0][0] is None
    missing = set() if shared else set(range(test.p)) - {c for c, _ in atoms_by_class}
    if missing:
        raise ValueError(f"test class {min(missing)} has no atom set")
    features, per_class = code_test_signals(atoms_by_class, test.signals, shared)
    pred = predict(model, features)
    correct = pred == test.labels
    per_class_acc = [float(correct[test.labels == c].mean()) for c in range(test.p)]
    accuracy = float(np.dot(test.class_counts / test.size, per_class_acc))

    recon = np.empty_like(test.signals)
    for class_id, coeffs, atoms in per_class:
        members = slice(None) if class_id is None else test.labels == class_id
        recon[:, members] = atoms @ coeffs[:, members]
    err = rmse(test.signals, recon)

    mi = mi_codes_labels(features.T, test.labels)
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
    for m, c in sorted(set(zip(n_obs.tolist(), n_cols.tolist()))):
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
