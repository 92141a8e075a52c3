"""Information-theoretic scoring over sparse codes, atoms and signals.

Three families of measures drive atom selection and update:

* KDE-based mutual information between codes and class labels, estimated
  by resubstitution with isotropic Gaussian kernels. Higher values tighten
  the Bayes-error bound ``(H(C) - I(X;C)) / 2``.
* Gaussian-process mutual information between a selected atom subset and
  the remaining pool, whose greedy marginal gains measure dictionary
  compactness (low atom redundancy).
* A Gaussian residual likelihood whose projection-gain measures how much
  an extra atom improves signal reconstruction.

The quadratic mutual information (KL divergence replaced by the quadratic
divergence) has an exact finite-sum form and an analytic gradient with
respect to the codes, both evaluated by the hot kernels in
:mod:`itdl._kernels`; ``qmi(..., grad=True)`` returns the value and the
gradient from one pass over the pairs. The ascent's gradient with respect
to its coding transform phi follows by the chain rule:
``Y @ qmi(phi.T @ Y, labels, sigma, grad=True)[1].T``.

Every KDE measure takes its kernel bandwidth as a plain ``sigma``, which
must be finite and positive. ``mi_codes_labels`` also takes None, which
derives it from the scored codes by ``bandwidth_rule``; the quadratic MI
and its gradients need a given sigma (the ascent uses ``ascent_bandwidth``).

Entropies and MI are in nats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import class_kernel_sums, qmi_grad, qmi_value, sq_dist_median_pair
from .dataset import frozen_copy
from .sparse_coding import CERTIFIED_RATIO, SVD_CUTOFF, Dictionary, Selection, svd_keep

# Unused here. The import stays because the benchmark's tracer
# (perfbench/tracing.py) patches info_measures.pinv.
from .sparse_coding import pinv  # noqa: F401

# Floor of the KDE bandwidth rules: degenerate (single-point or duplicated)
# code sets still give a usable kernel.
BANDWIDTH_FLOOR = 1e-3

# ---------------------------------------------------------------------------
# bandwidths and KDE
# ---------------------------------------------------------------------------

def median_pairwise_distance(codes: np.ndarray) -> float:
    """Median Euclidean distance over distinct column pairs.

    1-d codes are one row; codes with no columns, or with more than two
    dimensions, raise ValueError. A single column has no pair and a
    median of 0.0. Codes that hold nan or inf have a nan median, as
    np.median gives. z all-zero columns give z(z-1)/2 pairs at distance
    exactly 0. When that is more than half of the M = N(N-1)/2 pairs (at
    least M//2 + 1), the median is exactly 0.0 and is returned after an
    O(dN) count.

    Otherwise the two middle squared distances come from
    _kernels.sq_dist_median_pair; sqrt is monotone, so the median is
    (sqrt(lo) + sqrt(hi)) / 2, the mean np.median takes of the middle
    values, written out because np.median's first call imports numpy.ma.
    """
    codes = _code_matrix(codes)
    if not np.isfinite(codes).all():
        return math.nan
    n = codes.shape[1]
    if n < 2:
        return 0.0
    z = n - np.count_nonzero(codes.any(axis=0))
    m = n * (n - 1) // 2
    if z * (z - 1) // 2 >= m // 2 + 1:
        return 0.0
    lo, hi = sq_dist_median_pair(codes.T)
    return (math.sqrt(lo) + math.sqrt(hi)) / 2


def bandwidth_rule(codes: np.ndarray) -> float:
    """Density-estimation bandwidth: median pairwise distance * N^(-1/(d+4)).

    Floored at BANDWIDTH_FLOOR. Sparse codes whose columns are mostly all
    zero have a median of exactly 0 (see median_pairwise_distance), so
    they resolve to the floor without a distance pass. Non-finite codes
    raise ValueError, as do codes with no columns; 1-d codes are one row.
    """
    codes = _code_matrix(codes)
    median = median_pairwise_distance(codes)
    if math.isnan(median):
        raise ValueError("codes must be finite (they hold nan or inf)")
    d, n = codes.shape
    return max(median * n ** (-1.0 / (d + 4)), BANDWIDTH_FLOOR)


def ascent_bandwidth(codes: np.ndarray) -> float:
    """Interaction-scale bandwidth for the quadratic-MI gradient ascent.

    The ascent needs kernels that couple samples across the whole code
    cloud; at the density-estimation scale only nearest neighbours
    interact and the ascent scatters codes instead of grouping classes.
    Eight median pairwise distances keeps every pair coupled, floored at
    BANDWIDTH_FLOOR. Non-finite codes raise ValueError, as do codes with
    no columns; 1-d codes are one row.
    """
    median = median_pairwise_distance(codes)
    if math.isnan(median):
        raise ValueError("codes must be finite (they hold nan or inf)")
    return max(8.0 * median, BANDWIDTH_FLOOR)


def _code_matrix(codes: np.ndarray) -> np.ndarray:
    """The float (d, N) code matrix, 1-d codes as one row; codes of any
    other dimension, or with no columns, raise ValueError."""
    codes = np.asarray(codes, dtype=np.float64)
    if codes.ndim == 1:
        codes = codes[None, :]
    if codes.ndim != 2:
        raise ValueError(f"codes must be a 1-d or 2-d matrix, got shape {codes.shape}")
    if codes.shape[1] == 0:
        raise ValueError("no codes: the code matrix has 0 columns")
    return codes


def _kernel_inputs(codes: np.ndarray, labels: np.ndarray, sigma: float | None, *, rule: bool):
    """Codes, labels and bandwidth as the kernels take them.

    Returns the float (d, N) codes (1-d codes are one row), the int64
    labels, their class counts and the squared bandwidth. The codes must
    have a column and the labels be one non-negative label per column
    (a negative one is named). A given sigma must be finite and positive; None
    derives it by bandwidth_rule where ``rule`` is set and is an error
    otherwise (the quadratic MI). The counts are None when fewer than two
    classes are present, where every measure is zero.
    """
    codes = _code_matrix(codes)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size != codes.shape[1]:
        raise ValueError(f"{labels.size} labels for {codes.shape[1]} code columns; need one label per column")
    if sigma is None:
        if not rule:
            raise ValueError(
                "the quadratic MI needs a given bandwidth sigma (ascent_bandwidth derives one from codes)"
            )
        sigma = bandwidth_rule(codes)
    elif not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"bandwidth sigma must be finite and positive, got {sigma!r}")
    counts = _class_counts(labels)
    sigma = float(sigma)
    return codes, labels, (counts if np.count_nonzero(counts) >= 2 else None), sigma * sigma


def mi_codes_labels(codes: np.ndarray, labels: np.ndarray, sigma: float | None = None) -> float:
    """Resubstitution estimate of I(codes; labels), clamped at zero.

    sigma is the kernel bandwidth; None derives it from the codes by
    bandwidth_rule. Non-finite codes raise ValueError.

    H(X) and H(X|c) use the same KDE evaluated at the samples themselves;
    the kernel normalization cancels in the difference, so only the
    class-conditional and marginal kernel sums are needed: over a point per
    nonzero column, and a point per class weighted by its all-zero columns.
    """
    codes, labels, counts, var = _kernel_inputs(codes, labels, sigma, rule=True)
    if counts is None:
        return 0.0
    active = codes.any(axis=0)
    zeros = np.bincount(labels[~active], minlength=len(counts))
    merged = zeros.nonzero()[0]
    a = np.count_nonzero(active)
    points = np.zeros((a + len(merged), len(codes)))
    points[:a] = codes[:, active].T
    classes, weights = np.empty(len(points), dtype=np.int64), np.ones(len(points))
    classes[:a], classes[a:], weights[a:] = labels[active], merged, zeros[merged]
    s_all, s_own = class_kernel_sums(points, classes, weights, var)
    n = len(labels)
    mi = float((weights * (np.log(s_own / counts[classes]) - np.log(s_all / n))).sum()) / n
    if not math.isfinite(mi):
        raise ValueError("codes must be finite (they hold nan or inf)")
    return max(mi, 0.0)


def _class_counts(labels: np.ndarray) -> np.ndarray:
    """np.bincount of the int64 labels; a negative label raises ValueError
    naming it."""
    low = labels.min(initial=0)
    if low < 0:
        raise ValueError(f"negative label {low}")
    return np.bincount(labels)


def class_entropy(labels: np.ndarray) -> float:
    """Entropy of the empirical label distribution, in nats; a negative
    label raises ValueError."""
    counts = _class_counts(np.asarray(labels, dtype=np.int64))
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def bayes_bound(h_c: float, mi: float) -> float:
    """Upper bound on the Bayes error: (H(C) - I(X;C)) / 2, floored at 0."""
    return max(0.0, 0.5 * (h_c - mi))


def save_mi_trace(values, path) -> None:
    """Dump an objective trace as ``iteration,value`` CSV rows."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("iteration,value\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{float(v)!r}\n")


# ---------------------------------------------------------------------------
# Gaussian-process compactness
# ---------------------------------------------------------------------------

GP_JITTER = 1e-8  # on the built covariance's diagonal: duplicate atoms stay SPD
# Exact duplicate atoms leave a conditional variance of about 2 * GP_JITTER,
# so the "fully explained" sentinel sits above it.
GP_VAR_FLOOR = 10.0 * GP_JITTER


@dataclass(frozen=True, eq=False)
class GpModel:
    """SPD covariance over the atom pool, jitter already on the diagonal, and
    its precision (inverse), formed once here. A covariance that is empty,
    not square, non-finite, asymmetric or not SPD raises ValueError."""

    cov: np.ndarray
    prec: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cov = frozen_copy(self.cov)
        object.__setattr__(self, "cov", cov)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.size == 0:
            raise ValueError("covariance must be a nonempty square matrix")
        if not np.isfinite(cov).all():
            raise ValueError("covariance must be finite (it holds nan or inf)")
        if np.max(np.abs(cov - cov.T)) > 1e-12:
            raise ValueError("covariance must be symmetric")
        # W^T W with W = L^-1, not inv(cov): at cond ~1e9 (near-duplicate atoms) the
        # gains then agree with per-candidate solves to 3e-8, inv(cov)'s to 4e-6
        w = np.linalg.inv(np.linalg.cholesky(cov))
        object.__setattr__(self, "prec", frozen_copy(w.T @ w))


def build_gp_model(atoms: np.ndarray, rho: float | None = None) -> GpModel:
    """Squared-exponential covariance over atoms, length scale rho, plus
    GP_JITTER on the diagonal. Each atom's squared distances to the atoms
    after it are summed from their exact differences, one row of pairs at
    a time (memory O(nK)), and the kernel's upper triangle is mirrored, so
    the covariance is exactly symmetric.

    It stays SPD for any rho, duplicate atoms included: the exact kernel
    matrix is positive semidefinite, and rounding moves it by less than
    the jitter. A computed d2 of n-dimensional atoms, times -0.5 / rho^2,
    has relative error at most (n + 5) eps; that moves exp(-x) by at most
    x e^-x (n + 5) eps + eps <= ((n + 5) / e + 1) eps, and the matrix by
    K times that in spectral norm. This stays below GP_JITTER / 4 while
    K (n + 8) <= 3e7 (K = 256 atoms of n = 64 make 1.8e4), so the
    smallest eigenvalue stays above 3/4 GP_JITTER.

    rho defaults to the median pairwise atom distance (floored at 1e-6),
    which keeps the covariance scale-free across dictionaries. Atoms that
    are not a 2-d matrix with at least one column raise ValueError.
    """
    atoms = np.asarray(atoms, dtype=np.float64)
    if atoms.ndim != 2 or atoms.shape[1] < 1:
        raise ValueError(f"atoms must be a 2-d matrix with at least one column, got shape {atoms.shape}")
    if rho is None:
        rho = max(median_pairwise_distance(atoms), 1e-6)
    elif not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"rho must be finite and positive, got {rho!r}")
    K = atoms.shape[1]
    d2 = np.zeros((K, K))
    for i in range(K - 1):
        diff = atoms[:, i + 1 :] - atoms[:, i, None]
        d2[i, i + 1 :] = np.einsum("nk,nk->k", diff, diff)
    cov = np.exp(d2 * (-0.5 / (rho * rho)))
    return GpModel(cov=np.triu(cov) + np.triu(cov, 1).T + GP_JITTER * np.eye(K))


def _round_indices(selected: Selection, candidates, K: int) -> tuple[list[int], np.ndarray]:
    """A greedy round's selected atoms as a list and candidates as an index
    array. A candidate outside 0..K-1 (a negative one would alias an atom)
    or already selected raises ValueError."""
    cands = np.asarray(candidates, dtype=np.intp)
    if ((cands < 0) | (cands >= K)).any():
        raise ValueError(f"candidate outside the atom indices 0..{K - 1}")
    if np.isin(cands, selected.indices).any():
        raise ValueError("candidate already selected")
    return list(selected.indices), cands


def _schur_diag(m: np.ndarray, sel: list[int], cands: np.ndarray) -> np.ndarray:
    """Diagonal of m_cc - m_cS m_SS^-1 m_Sc over the candidates c: one t x t solve."""
    diag = m[cands, cands]
    if not sel:
        return diag
    B = m[np.ix_(sel, cands)]
    return diag - np.einsum("ij,ij->j", B, np.linalg.solve(m[np.ix_(sel, sel)], B))


def gp_compact_gains(model: GpModel, selected: Selection, candidates: list[int]) -> np.ndarray:
    """Compactness gain of each candidate for one greedy round: half the
    log-ratio of its variance given the selected atoms S over its variance
    given the other unselected atoms U, or -inf when S explains it.

    Both are the same Schur complement on S. Of the covariance, it is
    var(k | S) = cov_kk - cov_kS cov_SS^-1 cov_Sk. Of the precision, it is
    the precision diagonal of the unselected block (the block-inverse
    identity), the reciprocal of k's variance given the rest of U. A round
    of t selected atoms solves two t x t systems; a selected or
    out-of-range candidate raises ValueError.
    """
    sel, cands = _round_indices(selected, candidates, model.cov.shape[0])
    v_sel = _schur_diag(model.cov, sel, cands)
    v_comp = np.maximum(1.0 / _schur_diag(model.prec, sel, cands), 1e-300)
    dup = v_sel < GP_VAR_FLOOR
    gains = np.full(cands.size, -np.inf)
    gains[~dup] = 0.5 * np.log(v_sel[~dup] / v_comp[~dup])
    return gains


# ---------------------------------------------------------------------------
# reconstruction information
# ---------------------------------------------------------------------------

def recon_gain(
    dictionary: Dictionary,
    selected: Selection,
    candidates: list[int],
    signals: np.ndarray,
    sigma_r: float | None = None,
) -> np.ndarray:
    """Log-likelihood improvement of each candidate joining the support: the
    drop in squared least-squares residual over 2 sigma_r^2, where the
    Gaussian residual scale sigma_r must be finite and positive (None is a
    tenth of the mean norm of the signals, floored at 1e-12), with pinv's
    rank rule (svd_keep) on the selected atoms plus the candidate. One
    projection scores the round (the orthogonal least-squares forward
    step): with Q the left singular vectors of the selected atoms A that
    svd_keep keeps, R = Y - QQ^T Y and P = D_cands - Q(Q^T D_cands), the
    drop is |P_k^T R|^2 / |P_k|^2.

    With r the number of singular values svd_keep keeps in A, and A's
    atoms of unit norm, the (r+1)-th singular value of [A, d_k] is at
    least |P_k| (s_r/s_1 of A) / sqrt(10) of its largest. A candidate for
    which that bound falls below CERTIFIED_RATIO (100 x SVD_CUTOFF) may
    lose a singular value to svd_keep, so its drop is taken from the kept
    left singular vectors of [A, d_k] instead, as a least-squares refit
    would take it.
    A P_k of norm below SVD_CUTOFF always loses one: its unit atom lies in
    the span of Q within the cutoff, and it gains 0. A selected or
    out-of-range candidate raises ValueError.
    """
    sel, cands = _round_indices(selected, candidates, dictionary.K)
    atoms = dictionary.atoms
    Y = np.asarray(signals, dtype=np.float64)
    if sigma_r is None:
        sigma_r = max(0.1 * float(np.linalg.norm(Y, axis=0).mean()), 1e-12)
    elif not (math.isfinite(sigma_r) and sigma_r > 0):
        raise ValueError(f"sigma_r must be finite and positive, got {sigma_r!r}")
    u, s, _ = np.linalg.svd(atoms[:, sel], full_matrices=False)
    kept = svd_keep(s)
    Q = u[:, kept]
    R = Y - Q @ (Q.T @ Y)
    P = atoms[:, cands] - Q @ (Q.T @ atoms[:, cands])
    p_sq = np.einsum("nk,nk->k", P, P)
    C = P.T @ R
    p_norm = np.sqrt(p_sq)
    keep = p_norm >= SVD_CUTOFF
    drop = np.divide(np.einsum("kj,kj->k", C, C), p_sq, out=np.zeros(cands.size), where=keep)
    s_ratio = s[kept][-1] / s[0] if kept.any() else 1.0
    for i in np.flatnonzero(keep & (p_norm * s_ratio < CERTIFIED_RATIO)):
        u_ext, s_ext, _ = np.linalg.svd(atoms[:, sel + [cands[i]]], full_matrices=False)
        Q_ext = u_ext[:, svd_keep(s_ext)]
        R_ext = Y - Q_ext @ (Q_ext.T @ Y)
        drop[i] = np.sum(R * R) - np.sum(R_ext * R_ext)
    return drop / (2.0 * sigma_r**2)


# ---------------------------------------------------------------------------
# quadratic mutual information and its gradient
# ---------------------------------------------------------------------------

def qmi(
    codes: np.ndarray, labels: np.ndarray, sigma: float, *, grad: bool = False
) -> float | tuple[float, np.ndarray]:
    """Closed-form quadratic MI between codes and labels at kernel bandwidth sigma.

    Exact finite sum over sample pairs with variance-doubled kernels; a
    single-class labeling gives exactly zero. grad=True returns (value,
    gradient with respect to every code column, shape (d, N)) from one
    pass over the pairs (_kernels.qmi_grad), the value bit for bit the
    one grad=False returns. Non-finite codes give a non-finite value,
    not an error: the ascent's backtracking rejects such a trial.
    """
    codes, labels, counts, var = _kernel_inputs(codes, labels, sigma, rule=False)
    if counts is None:
        return (0.0, np.zeros_like(codes)) if grad else 0.0
    x = np.ascontiguousarray(codes.T)
    if not grad:
        return float(qmi_value(x, labels, counts, var))
    value, g = qmi_grad(x, labels, counts, var)
    return float(value), np.ascontiguousarray(g.T)


def qmi_grad_codes(codes: np.ndarray, labels: np.ndarray, sigma: float) -> np.ndarray:
    """Gradient of qmi with respect to every code column, shape (d, N)."""
    return qmi(codes, labels, sigma, grad=True)[1]
