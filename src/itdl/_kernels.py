"""Hot numeric kernels: pairwise Gaussian sums behind the information measures.

Every kernel exists twice: a numba @njit loop version and a vectorized
pure-numpy version. The active path is chosen at import time; set
``ITDL_NUMBA=0`` in the environment to force the numpy fallback. Both
paths are deterministic (serial, fixed-order accumulation), so a given
path always reproduces its own results bit for bit.

Sample matrices are (N, d) float64 C-contiguous, labels int64 in
{0..p-1}, counts int64 of length p.

Sparse codes have mostly all-zero rows. The numpy class-kernel sums use
that exactly: all-zero rows coincide (their mutual kernel is 1), so only
the |A| x N block of active rows against all rows is evaluated, and the
all-zero rows' sums follow from per-class zero counts plus the block's
column sums. Without all-zero rows the block is the full N x N matrix.
"""

from __future__ import annotations

import math
import os

import numpy as np

_flag = os.environ.get("ITDL_NUMBA", "1").strip().lower()
_want_numba = _flag not in ("0", "false", "off")

try:
    from numba import njit

    _have_numba = True
except ImportError:  # pragma: no cover - exercised only without numba
    _have_numba = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap


NUMBA_ENABLED = _have_numba and _want_numba


def _sq_dist_matrix(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of x and the rows of y
    (default: x itself), clipped at zero."""
    sq = (x * x).sum(axis=1)
    if y is None:
        y = x
    d2 = sq[:, None] + (sq if y is x else (y * y).sum(axis=1))
    d2 -= 2.0 * (x @ y.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


# ---------------------------------------------------------------------------
# class-conditional Gaussian sums (resubstitution KDE)
# ---------------------------------------------------------------------------

def _class_kernel_sums_np(x, labels, var):
    active = x.any(axis=1)
    n_zero = len(x) - np.count_nonzero(active)
    # Kernel rows for the active rows only. Without all-zero rows x itself
    # is passed, so the Gram product is the same call as the dense sum's.
    w = _sq_dist_matrix(x[active] if n_zero else x, x)
    np.divide(w, -2.0 * var, out=w)
    np.exp(w, out=w)
    w_own = w * (labels[active][:, None] == labels)
    # All-zero rows coincide: each gets kernel 1 from every all-zero row,
    # itself included (from those of its class for the own-class sum),
    # plus its column of the active block. Active rows take their row sums.
    s_all = w.sum(axis=0) + n_zero
    s_own = w_own.sum(axis=0) + np.bincount(labels, weights=~active)[labels]
    s_all[active] = w.sum(axis=1)
    s_own[active] = w_own.sum(axis=1)
    return s_all, s_own


@njit(cache=True)
def _class_kernel_sums_nb(x, labels, var):  # pragma: no cover - jit body
    n, d = x.shape
    s_all = np.zeros(n)
    s_own = np.zeros(n)
    inv = 1.0 / (2.0 * var)
    for i in range(n):
        s_all[i] += 1.0
        s_own[i] += 1.0
        for j in range(i + 1, n):
            d2 = 0.0
            for k in range(d):
                t = x[i, k] - x[j, k]
                d2 += t * t
            e = math.exp(-d2 * inv)
            s_all[i] += e
            s_all[j] += e
            if labels[i] == labels[j]:
                s_own[i] += e
                s_own[j] += e
    return s_all, s_own


# ---------------------------------------------------------------------------
# quadratic mutual information, closed form
# ---------------------------------------------------------------------------

def _qmi_value_np(x, labels, counts, sigma2):
    n, d = x.shape
    w = np.exp(_sq_dist_matrix(x) / (-4.0 * sigma2))
    prior = counts.astype(np.float64) / n
    sum_p2 = float(np.sum(prior * prior))
    s_all = float(w.sum())
    same = labels[:, None] == labels[None, :]
    s_within = float((w * same).sum())
    s_cross = float(prior[labels] @ w.sum(axis=1))
    const = (4.0 * math.pi * sigma2) ** (-0.5 * d)
    return const * (s_within - 2.0 * s_cross + sum_p2 * s_all) / (n * n)


@njit(cache=True)
def _qmi_value_nb(x, labels, counts, sigma2):  # pragma: no cover - jit body
    n, d = x.shape
    inv = 1.0 / (4.0 * sigma2)
    sum_p2 = 0.0
    for c in range(counts.shape[0]):
        pc = counts[c] / n
        sum_p2 += pc * pc
    s_all = float(n)
    s_within = float(n)
    s_cross = 0.0
    for i in range(n):
        s_cross += counts[labels[i]] / n
    for i in range(n):
        for j in range(i + 1, n):
            d2 = 0.0
            for k in range(d):
                t = x[i, k] - x[j, k]
                d2 += t * t
            w = math.exp(-d2 * inv)
            s_all += 2.0 * w
            if labels[i] == labels[j]:
                s_within += 2.0 * w
            s_cross += (counts[labels[i]] + counts[labels[j]]) / n * w
    const = (4.0 * math.pi * sigma2) ** (-0.5 * d)
    return const * (s_within - 2.0 * s_cross + sum_p2 * s_all) / (n * n)


# ---------------------------------------------------------------------------
# gradient of the quadratic MI with respect to every sample
# ---------------------------------------------------------------------------
#
# d I_Q / d x_i = const/(N^2 sigma^2) * sum_j coef(c_i, c_j) w_ij (x_j - x_i)
# with coef(a, b) = [a == b] - (N_a + N_b)/N + sum_c (N_c/N)^2.

def _qmi_grad_np(x, labels, counts, sigma2):
    n, d = x.shape
    w = np.exp(_sq_dist_matrix(x) / (-4.0 * sigma2))
    prior = counts.astype(np.float64) / n
    sum_p2 = float(np.sum(prior * prior))
    pl = prior[labels]
    coef = (labels[:, None] == labels[None, :]).astype(np.float64)
    coef -= pl[:, None] + pl[None, :]
    coef += sum_p2
    a = coef * w
    grad = a @ x - x * a.sum(axis=1)[:, None]
    const = (4.0 * math.pi * sigma2) ** (-0.5 * d)
    grad *= const / (n * n * sigma2)
    return grad


@njit(cache=True)
def _qmi_grad_nb(x, labels, counts, sigma2):  # pragma: no cover - jit body
    n, d = x.shape
    inv = 1.0 / (4.0 * sigma2)
    sum_p2 = 0.0
    for c in range(counts.shape[0]):
        pc = counts[c] / n
        sum_p2 += pc * pc
    grad = np.zeros((n, d))
    for i in range(n):
        pi = counts[labels[i]] / n
        for j in range(i + 1, n):
            d2 = 0.0
            for k in range(d):
                t = x[i, k] - x[j, k]
                d2 += t * t
            w = math.exp(-d2 * inv)
            coef = sum_p2 - pi - counts[labels[j]] / n
            if labels[i] == labels[j]:
                coef += 1.0
            a = coef * w
            for k in range(d):
                diff = x[j, k] - x[i, k]
                grad[i, k] += a * diff
                grad[j, k] -= a * diff
    const = (4.0 * math.pi * sigma2) ** (-0.5 * d)
    scale = const / (n * n * sigma2)
    for i in range(n):
        for k in range(d):
            grad[i, k] *= scale
    return grad


if NUMBA_ENABLED:
    class_kernel_sums = _class_kernel_sums_nb
    qmi_value = _qmi_value_nb
    qmi_grad = _qmi_grad_nb
else:
    class_kernel_sums = _class_kernel_sums_np
    qmi_value = _qmi_value_np
    qmi_grad = _qmi_grad_np
