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
divergence) has an exact finite-sum form and an analytic gradient, both
evaluated by the hot kernels in :mod:`itdl._kernels`.

Entropies and MI are in nats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _sq_dist_matrix, class_kernel_sums, qmi_grad, qmi_value
from .sparse_coding import Dictionary, Selection, pinv

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# kernels and KDE
# ---------------------------------------------------------------------------

def gauss_kernel(x: np.ndarray, sigma2: float) -> float:
    """Isotropic Gaussian kernel (2*pi*sigma2)^(-d/2) exp(-|x|^2 / (2 sigma2))."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    x = np.asarray(x, dtype=np.float64).ravel()
    d = x.size
    return float((2.0 * math.pi * sigma2) ** (-0.5 * d) * math.exp(-float(x @ x) / (2.0 * sigma2)))


def median_pairwise_distance(codes: np.ndarray) -> float:
    """Median Euclidean distance over distinct column pairs.

    z all-zero columns give z(z-1)/2 pairs at distance exactly 0. When
    that is more than half of the M = N(N-1)/2 pairs (at least M//2 + 1),
    the median is exactly 0.0 and is returned after an O(dN) count,
    without forming the N x N distances.
    """
    codes = np.asarray(codes, dtype=np.float64)
    n = codes.shape[1]
    if n < 2:
        return 0.0
    z = n - np.count_nonzero(codes.any(axis=0))
    m = n * (n - 1) // 2
    if z * (z - 1) // 2 >= m // 2 + 1:
        return 0.0
    d2 = _sq_dist_matrix(codes.T)
    return float(np.median(np.sqrt(d2[np.triu_indices(n, k=1)])))


def bandwidth_rule(codes: np.ndarray) -> float:
    """Density-estimation bandwidth: median pairwise distance * N^(-1/(d+4)).

    Floored at 1e-3 so degenerate (single-point or duplicated) code sets
    still give a usable kernel. Sparse codes whose columns are mostly all
    zero have a median of exactly 0 (see median_pairwise_distance), so
    they resolve to the floor without an N x N distance pass.
    """
    codes = np.asarray(codes, dtype=np.float64)
    d, n = codes.shape
    return max(median_pairwise_distance(codes) * n ** (-1.0 / (d + 4)), 1e-3)


def ascent_bandwidth(codes: np.ndarray) -> float:
    """Interaction-scale bandwidth for the quadratic-MI gradient ascent.

    The ascent needs kernels that couple samples across the whole code
    cloud; at the density-estimation scale only nearest neighbours
    interact and the ascent scatters codes instead of grouping classes.
    Eight median pairwise distances keeps every pair coupled.
    """
    return max(8.0 * median_pairwise_distance(codes), 1e-3)


@dataclass(frozen=True)
class KdeConfig:
    """Kernel bandwidth, either fixed or derived from the scored codes."""

    sigma: float | None = None
    auto: bool = True

    def __post_init__(self):
        if not self.auto and (self.sigma is None or self.sigma <= 0):
            raise ValueError("fixed bandwidth requires sigma > 0")

    def resolve(self, codes: np.ndarray) -> float:
        if self.auto:
            return bandwidth_rule(codes)
        return float(self.sigma)

    @staticmethod
    def fixed(sigma: float) -> "KdeConfig":
        return KdeConfig(sigma=sigma, auto=False)


def _codes_matrix(codes: np.ndarray) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.float64)
    if codes.ndim == 1:
        codes = codes[None, :]
    return codes


def _label_counts(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    counts = np.bincount(labels).astype(np.int64)
    return labels, counts


def kde_class_density(
    codes: np.ndarray, labels: np.ndarray, c: int, x: np.ndarray, cfg: KdeConfig
) -> float:
    """KDE estimate of p(x | class c) over the class-c code columns."""
    codes = np.asarray(codes, dtype=np.float64)
    if codes.ndim == 1:
        codes = codes[None, :]
    labels = np.asarray(labels, dtype=np.int64)
    members = codes[:, labels == c]
    if members.shape[1] == 0:
        raise ValueError(f"class {c} has no samples")
    sigma2 = cfg.resolve(codes) ** 2
    x = np.asarray(x, dtype=np.float64).ravel()
    total = sum(gauss_kernel(x - members[:, j], sigma2) for j in range(members.shape[1]))
    return total / members.shape[1]


def mi_codes_labels(codes: np.ndarray, labels: np.ndarray, cfg: KdeConfig) -> float:
    """Resubstitution estimate of I(codes; labels), clamped at zero.

    H(X) and H(X|c) use the same KDE evaluated at the samples themselves;
    the kernel normalization cancels in the difference, so only the
    class-conditional and marginal kernel sums are needed.
    """
    codes = _codes_matrix(codes)
    labels, counts = _label_counts(labels)
    if (counts > 0).sum() < 2:
        return 0.0
    sigma = cfg.resolve(codes)
    x = np.ascontiguousarray(codes.T)
    s_all, s_own = class_kernel_sums(x, labels, sigma * sigma)
    n = x.shape[0]
    mi = float(np.mean(np.log(s_own / counts[labels]) - np.log(s_all / n)))
    return max(mi, 0.0)


def class_entropy(labels: np.ndarray) -> float:
    """Entropy of the empirical label distribution, in nats."""
    _, counts = _label_counts(labels)
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


def kl_qd_check(p: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """KL divergence and quadratic divergence of two discrete distributions.

    Exists for validating D(p||q) >= Q(p||q)/2 in the test suite. A zero
    in q where p is positive yields kl = +inf.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("p and q must be 1-d with a common support")
    for name, v in (("p", p), ("q", q)):
        if (v < 0).any() or abs(v.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} is not a distribution")
    qd = float(np.sum((p - q) ** 2))
    pos = p > 0
    if (q[pos] == 0).any():
        return float("inf"), qd
    kl = float(np.sum(p[pos] * np.log(p[pos] / q[pos])))
    return kl, qd


# ---------------------------------------------------------------------------
# Gaussian-process compactness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GpModel:
    """SPD covariance over the atom pool, jitter already on the diagonal."""

    cov: np.ndarray
    jitter: float = 1e-8

    def __post_init__(self):
        cov = np.ascontiguousarray(self.cov, dtype=np.float64)
        object.__setattr__(self, "cov", cov)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("covariance must be square")
        if np.max(np.abs(cov - cov.T)) > 1e-12:
            raise ValueError("covariance must be symmetric")
        np.linalg.cholesky(cov)

    @property
    def size(self) -> int:
        return self.cov.shape[0]

    @property
    def var_floor(self) -> float:
        # Exact duplicate atoms leave a conditional variance of about
        # 2 * jitter, so the "fully explained" sentinel must sit above it.
        return max(1e-12, 10.0 * self.jitter)


def build_gp_model(atoms: np.ndarray, rho: float | None = None, jitter: float = 1e-8) -> GpModel:
    """Squared-exponential covariance over atoms, length scale rho.

    rho defaults to the median pairwise atom distance, which keeps the
    covariance scale-free across dictionaries.
    """
    atoms = np.asarray(atoms, dtype=np.float64)
    K = atoms.shape[1]
    d2 = _sq_dist_matrix(atoms.T)
    if rho is None:
        if K < 2:
            rho = 1.0
        else:
            rho = float(np.median(np.sqrt(d2[np.triu_indices(K, k=1)])))
        rho = max(rho, 1e-6)
    elif rho <= 0:
        raise ValueError("rho must be positive")
    cov = np.exp(d2 / (-2.0 * rho * rho))
    cov[np.diag_indices(K)] += jitter
    cov = 0.5 * (cov + cov.T)
    return GpModel(cov=cov, jitter=jitter)


def _cond_var(cov: np.ndarray, a: int, given: list[int]) -> float:
    if not given:
        return float(cov[a, a])
    sub = cov[np.ix_(given, given)]
    b = cov[given, a]
    return float(cov[a, a] - b @ np.linalg.solve(sub, b))


def gp_compact_gain(model: GpModel, selected: Selection, candidate: int) -> float:
    """Marginal compactness gain of one candidate atom.

    Half the log-ratio of the candidate's conditional variance given the
    selected set over its conditional variance given all remaining atoms.
    Returns -inf when the selected set already explains the candidate.
    """
    sel = list(selected.indices)
    K = model.size
    if candidate in sel:
        raise ValueError("candidate already selected")
    if len(sel) + 1 >= K:
        raise ValueError("complement side would be empty")
    v_sel = _cond_var(model.cov, candidate, sel)
    if v_sel < model.var_floor:
        return NEG_INF
    comp = [i for i in range(K) if i != candidate and i not in set(sel)]
    v_comp = max(_cond_var(model.cov, candidate, comp), 1e-300)
    return 0.5 * math.log(v_sel / v_comp)


def gp_compact_gains(model: GpModel, selected: Selection, candidates: list[int]) -> np.ndarray:
    """Vector of gp_compact_gain values for one greedy round.

    Each candidate's complement variance is the reciprocal precision
    diagonal of the unselected block, so the whole round costs one solve
    of the unselected covariance instead of one per candidate.
    """
    sel = list(selected.indices)
    cov = model.cov
    K = model.size
    sel_set = set(sel)
    unsel = [i for i in range(K) if i not in sel_set]
    pos = {atom: j for j, atom in enumerate(unsel)}
    prec_diag = np.diag(np.linalg.inv(cov[np.ix_(unsel, unsel)]))
    if sel:
        sub = cov[np.ix_(sel, sel)]
        B = cov[np.ix_(sel, candidates)]
        v_sel = np.array(
            [cov[c, c] for c in candidates]
        ) - np.einsum("ij,ij->j", B, np.linalg.solve(sub, B))
    else:
        v_sel = np.array([cov[c, c] for c in candidates])
    gains = np.empty(len(candidates))
    floor = model.var_floor
    for j, c in enumerate(candidates):
        if v_sel[j] < floor:
            gains[j] = NEG_INF
            continue
        v_comp = max(1.0 / prec_diag[pos[c]], 1e-300)
        gains[j] = 0.5 * math.log(v_sel[j] / v_comp)
    return gains


def gp_total_mi(model: GpModel, subset: list[int]) -> float:
    """Mutual information between a subset and its complement under the GP."""
    K = model.size
    sub = sorted(set(subset))
    comp = [i for i in range(K) if i not in set(sub)]
    if not sub or not comp:
        return 0.0
    cov = model.cov
    _, ld_s = np.linalg.slogdet(cov[np.ix_(sub, sub)])
    _, ld_c = np.linalg.slogdet(cov[np.ix_(comp, comp)])
    _, ld_all = np.linalg.slogdet(cov)
    return 0.5 * (ld_s + ld_c - ld_all)


# ---------------------------------------------------------------------------
# reconstruction information
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualModel:
    """Gaussian residual scale for the reconstruction likelihood."""

    sigma_r: float

    def __post_init__(self):
        if self.sigma_r <= 0:
            raise ValueError("sigma_r must be positive")

    @staticmethod
    def from_signals(signals: np.ndarray, factor: float = 0.1) -> "ResidualModel":
        norms = np.linalg.norm(np.asarray(signals, dtype=np.float64), axis=0)
        return ResidualModel(sigma_r=max(factor * float(norms.mean()), 1e-12))


def _residual_sq(atoms: np.ndarray, indices: list[int], signals: np.ndarray) -> float:
    if not indices:
        return float(np.sum(signals * signals))
    sub = atoms[:, indices]
    resid = signals - sub @ (pinv(sub) @ signals)
    return float(np.sum(resid * resid))


def recon_gain(
    dictionary: Dictionary,
    selected: Selection,
    candidate: int,
    signals: np.ndarray,
    model: ResidualModel,
) -> float:
    """Log-likelihood improvement from adding one atom to the support.

    Computed as the drop in total squared projection residual over
    2 sigma_r^2, with least-squares coefficients on each support.
    """
    sel = list(selected.indices)
    if candidate in sel:
        raise ValueError("candidate already selected")
    Y = np.asarray(signals, dtype=np.float64)
    base = _residual_sq(dictionary.atoms, sel, Y)
    extended = _residual_sq(dictionary.atoms, sel + [candidate], Y)
    return (base - extended) / (2.0 * model.sigma_r**2)


# ---------------------------------------------------------------------------
# quadratic mutual information and its gradient
# ---------------------------------------------------------------------------

def qmi(codes: np.ndarray, labels: np.ndarray, cfg: KdeConfig = KdeConfig()) -> float:
    """Closed-form quadratic MI between codes and labels.

    Exact finite sum over sample pairs with variance-doubled kernels; a
    single-class labeling gives exactly zero.
    """
    codes = _codes_matrix(codes)
    labels, counts = _label_counts(labels)
    if (counts > 0).sum() < 2:
        return 0.0
    sigma = cfg.resolve(codes)
    x = np.ascontiguousarray(codes.T)
    return float(qmi_value(x, labels, counts, sigma * sigma))


def qmi_grad_codes(
    codes: np.ndarray, labels: np.ndarray, cfg: KdeConfig = KdeConfig()
) -> np.ndarray:
    """Gradient of qmi with respect to every code column, shape (d, N)."""
    codes = _codes_matrix(codes)
    labels, counts = _label_counts(labels)
    if (counts > 0).sum() < 2:
        return np.zeros_like(codes)
    sigma = cfg.resolve(codes)
    x = np.ascontiguousarray(codes.T)
    return np.ascontiguousarray(qmi_grad(x, labels, counts, sigma * sigma).T)


def qmi_grad_x(
    codes: np.ndarray, labels: np.ndarray, i: int, c: int, cfg: KdeConfig = KdeConfig()
) -> np.ndarray:
    """Gradient of qmi with respect to the code of sample i (class c)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels[i] != c:
        raise ValueError(f"sample {i} does not belong to class {c}")
    return qmi_grad_codes(codes, labels, cfg)[:, i].copy()


def qmi_grad_phi(
    phi: np.ndarray, signals: np.ndarray, labels: np.ndarray, cfg: KdeConfig = KdeConfig()
) -> np.ndarray:
    """Gradient of qmi(phi^T Y; labels) with respect to the coding map phi.

    Chain rule through X = phi^T Y: the per-sample code gradients are
    weighted by the corresponding signals, giving a matrix shaped like phi.
    """
    phi = np.asarray(phi, dtype=np.float64)
    Y = np.asarray(signals, dtype=np.float64)
    codes = phi.T @ Y
    grads = qmi_grad_codes(codes, labels, cfg)
    return Y @ grads.T
