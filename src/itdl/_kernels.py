"""Hot numeric kernels: pairwise Gaussian sums behind the information measures.

Vectorized numpy, one implementation per kernel. Accumulation order is
fixed, so every kernel reproduces its own results bit for bit.

Sample matrices are (N, d) float64 C-contiguous, labels int64 in
{0..p-1}, counts int64 of length p.

Sparse codes have mostly all-zero rows. The class-kernel sums use that
exactly: all-zero rows coincide (their mutual kernel is 1), so only the
|A| x N block of active rows against all rows is evaluated, and the
all-zero rows' sums follow from per-class zero counts plus the block's
column sums. Without all-zero rows the block is the full N x N matrix.
"""

from __future__ import annotations

import math

import numpy as np

# There is no JIT path. The flag stays because the benchmark's environment
# record (perfbench/pipeline.py) reads it.
NUMBA_ENABLED = False


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

def class_kernel_sums(x, labels, var):
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


# ---------------------------------------------------------------------------
# quadratic mutual information, closed form
# ---------------------------------------------------------------------------

def qmi_value(x, labels, counts, sigma2):
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


# ---------------------------------------------------------------------------
# gradient of the quadratic MI with respect to every sample
# ---------------------------------------------------------------------------
#
# d I_Q / d x_i = const/(N^2 sigma^2) * sum_j coef(c_i, c_j) w_ij (x_j - x_i)
# with coef(a, b) = [a == b] - (N_a + N_b)/N + sum_c (N_c/N)^2.

def qmi_grad(x, labels, counts, sigma2):
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
