"""Shared test fixtures: structured data generators and test oracles.

The quadrature oracles intentionally avoid the library's closed forms:
mutual information and quadratic MI are evaluated by dense grid
integration of the same KDE densities, so they can vouch for the
analytic paths. The dense oracles are the plain all-pairs forms of the
median pairwise distance and the class kernel sums, against which the
library's sparse-aware versions are checked. The loop oracles code one
signal (or one mask pattern) at a time, with a full pseudoinverse refit
after every OMP pick, against which the library's batched coding is
checked. The reference forms (single Gaussian kernel, per-point class
density, scalar GP compactness gain, GP total MI, per-sample QMI
gradient, discrete KL and quadratic divergence) spell out the
definitions that the library evaluates in batched or closed form.
"""

import math

import numpy as np

from itdl.dataset import Dataset
from itdl.info_measures import KdeConfig, qmi_grad_codes
from itdl.sparse_coding import Dictionary, pinv


def shared_style_dataset(n, p, per_class, seed, style=1.8, noise=0.08):
    """Digit-like classes: one prototype direction each plus two style
    directions common to all classes. The shared style is what a
    reconstruction-only coder wastes capacity on."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((n, p + 2)))[0]
    means, styles = basis[:, :p], basis[:, p:]
    signals = np.empty((n, p * per_class))
    labels = np.empty(p * per_class, dtype=np.int64)
    for c in range(p):
        amp = 1.0 + 0.15 * rng.standard_normal(per_class)
        block = (
            means[:, c : c + 1] * amp
            + styles[:, 0:1] * (style * rng.standard_normal(per_class))
            + styles[:, 1:2] * (style * rng.standard_normal(per_class))
            + noise * rng.standard_normal((n, per_class))
        )
        signals[:, c * per_class : (c + 1) * per_class] = block
        labels[c * per_class : (c + 1) * per_class] = c
    return Dataset(signals=signals, labels=labels, p=p, class_counts=np.bincount(labels))


def planted_support_instance(seed, n=16, K=32, T=4, nsig=6, noise=0.05):
    """Random unit-atom dictionary plus signals jointly sparse on a
    planted support of size T (the simultaneous-coding regime)."""
    rng = np.random.default_rng(seed)
    atoms = rng.standard_normal((n, K))
    atoms /= np.linalg.norm(atoms, axis=0)
    d = Dictionary(atoms=atoms)
    support = rng.choice(K, size=T, replace=False)
    coeffs = rng.standard_normal((T, nsig))
    Y = atoms[:, support] @ coeffs + noise * rng.standard_normal((n, nsig))
    return d, Y, set(int(i) for i in support)


def random_unit_dictionary(seed, n, K):
    rng = np.random.default_rng(seed)
    atoms = rng.standard_normal((n, K))
    atoms /= np.linalg.norm(atoms, axis=0)
    return Dictionary(atoms=atoms)


def qmi_quadrature(codes, labels, sigma, grid_points=2001, pad=10.0):
    """Grid integration of the quadratic MI definition in 1 or 2 dims."""
    codes = np.asarray(codes, dtype=np.float64)
    d, n = codes.shape
    labels = np.asarray(labels)
    classes = np.unique(labels)
    lo = codes.min(axis=1) - pad * sigma
    hi = codes.max(axis=1) + pad * sigma
    if d == 1:
        grid = np.linspace(lo[0], hi[0], grid_points)[:, None]
        weight = (hi[0] - lo[0]) / (grid_points - 1)
    elif d == 2:
        m = int(np.sqrt(grid_points)) if grid_points < 1000 else 400
        gx = np.linspace(lo[0], hi[0], m)
        gy = np.linspace(lo[1], hi[1], m)
        grid = np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1).reshape(-1, 2)
        weight = (gx[1] - gx[0]) * (gy[1] - gy[0])
    else:
        raise ValueError("quadrature oracle supports 1-d and 2-d only")
    norm = (2.0 * np.pi * sigma**2) ** (-0.5 * d)
    diffs = grid[:, None, :] - codes.T[None, :, :]
    kern = norm * np.exp(-np.sum(diffs**2, axis=2) / (2.0 * sigma**2))
    p_xc = {c: kern[:, labels == c].sum(axis=1) / n for c in classes}
    p_x = sum(p_xc.values())
    p_c = {c: (labels == c).sum() / n for c in classes}
    t1 = sum(np.sum(p_xc[c] ** 2) * weight for c in classes)
    t2 = sum(p_c[c] * np.sum(p_xc[c] * p_x) * weight for c in classes)
    t3 = sum(p_c[c] ** 2 for c in classes) * np.sum(p_x**2) * weight
    return t1 - 2.0 * t2 + t3


def mi_quadrature_1d(codes, labels, sigma, grid_points=4001, pad=10.0):
    """Grid integration of KDE mutual information (entropy differences)."""
    x = np.asarray(codes, dtype=np.float64).ravel()
    labels = np.asarray(labels)
    n = x.size
    classes = np.unique(labels)
    lo, hi = x.min() - pad * sigma, x.max() + pad * sigma
    grid = np.linspace(lo, hi, grid_points)
    dg = grid[1] - grid[0]
    norm = 1.0 / (np.sqrt(2.0 * np.pi) * sigma)

    def entropy(points):
        dens = norm * np.exp(-((grid[:, None] - points[None, :]) ** 2) / (2 * sigma**2))
        dens = dens.mean(axis=1)
        mask = dens > 1e-300
        return -np.trapezoid(np.where(mask, dens * np.log(np.where(mask, dens, 1.0)), 0.0), dx=dg)

    h_all = entropy(x)
    h_cond = sum((labels == c).sum() / n * entropy(x[labels == c]) for c in classes)
    return h_all - h_cond


def dense_median_pairwise_distance(codes):
    """Median Euclidean distance over all N(N-1)/2 column pairs, no shortcut."""
    codes = np.asarray(codes, dtype=np.float64)
    n = codes.shape[1]
    if n < 2:
        return 0.0
    x = codes.T
    sq = np.sum(x * x, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    return float(np.median(np.sqrt(d2[np.triu_indices(n, k=1)])))


def dense_class_kernel_sums(x, labels, var):
    """Marginal and own-class Gaussian kernel row sums over the full N x N block."""
    sq = np.sum(x * x, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    w = np.exp(d2 / (-2.0 * var))
    same = labels[:, None] == labels[None, :]
    return w.sum(axis=1), (w * same).sum(axis=1)


def dense_mi_codes_labels(codes, labels, sigma):
    """Resubstitution KDE mutual information from the dense kernel sums."""
    x = np.ascontiguousarray(np.asarray(codes, dtype=np.float64).T)
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels)
    if (counts > 0).sum() < 2:
        return 0.0
    s_all, s_own = dense_class_kernel_sums(x, labels, sigma * sigma)
    n = x.shape[0]
    return max(float(np.mean(np.log(s_own / counts[labels]) - np.log(s_all / n))), 0.0)


def loop_omp(atoms, y, T):
    """OMP for one signal: argmax |d^T r| (lowest index on ties), then a
    pinv least-squares refit on the grown support after every pick."""
    n, K = atoms.shape
    x = np.zeros(K)
    ynorm = np.linalg.norm(y)
    if ynorm == 0.0:
        return x
    resid = y.copy()
    chosen = []
    available = np.ones(K, dtype=bool)
    for _ in range(T):
        scores = np.abs(atoms.T @ resid)
        scores[~available] = -1.0
        best = int(np.argmax(scores))
        if scores[best] <= 1e-12 * ynorm:
            break
        chosen.append(best)
        available[best] = False
        sub = atoms[:, chosen]
        coef = pinv(sub) @ y
        resid = y - sub @ coef
        if np.linalg.norm(resid) <= 1e-12 * ynorm:
            break
    if chosen:
        x[chosen] = coef
    return x


def loop_omp_codes(dictionary, signals, T):
    """Column-by-column OMP coefficient matrix (K, N)."""
    signals = np.asarray(signals, dtype=np.float64)
    return np.column_stack(
        [loop_omp(dictionary.atoms, signals[:, i], T) for i in range(signals.shape[1])]
    )


def loop_reconstruct_masked(atoms_by_class, signals, mask):
    """Masked reconstruction one column at a time: per class, pinv of the
    observed atom rows; the class with the smallest observed residual
    (lowest on ties) supplies the prediction and the reconstruction."""
    n, N = signals.shape
    recon = np.empty((n, N))
    pred = np.empty(N, dtype=np.int64)
    for i in range(N):
        obs = mask[:, i]
        y = signals[obs, i]
        best = np.inf
        for class_id, atoms in atoms_by_class:
            sub = atoms[obs, :]
            coef = pinv(sub) @ y
            resid = np.linalg.norm(y - sub @ coef)
            if resid < best:
                best, pred[i], recon[:, i] = resid, class_id, atoms @ coef
    return recon, pred


def gauss_kernel(x: np.ndarray, sigma2: float) -> float:
    """Isotropic Gaussian kernel (2*pi*sigma2)^(-d/2) exp(-|x|^2 / (2 sigma2))."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    x = np.asarray(x, dtype=np.float64).ravel()
    d = x.size
    return float((2.0 * math.pi * sigma2) ** (-0.5 * d) * math.exp(-float(x @ x) / (2.0 * sigma2)))


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


def _cond_var(cov: np.ndarray, a: int, given: list[int]) -> float:
    if not given:
        return float(cov[a, a])
    sub = cov[np.ix_(given, given)]
    b = cov[given, a]
    return float(cov[a, a] - b @ np.linalg.solve(sub, b))


def gp_compact_gain(model, selected, candidate):
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
        return -math.inf
    comp = [i for i in range(K) if i != candidate and i not in set(sel)]
    v_comp = max(_cond_var(model.cov, candidate, comp), 1e-300)
    return 0.5 * math.log(v_sel / v_comp)


def gp_total_mi(model, subset):
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


def qmi_grad_x(
    codes: np.ndarray, labels: np.ndarray, i: int, c: int, cfg: KdeConfig = KdeConfig()
) -> np.ndarray:
    """Gradient of qmi with respect to the code of sample i (class c)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels[i] != c:
        raise ValueError(f"sample {i} does not belong to class {c}")
    return qmi_grad_codes(codes, labels, cfg)[:, i].copy()


def kl_qd_check(p: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """KL divergence and quadratic divergence of two discrete distributions.

    For checking D(p||q) >= Q(p||q)/2. A zero in q where p is positive
    yields kl = +inf.
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
