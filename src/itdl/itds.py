"""Greedy information-driven atom selection.

Atoms are picked one at a time from an initial dictionary by maximizing a
weighted sum of three marginal gains: compactness (GP mutual information
against the unselected pool), discrimination (KDE mutual information
between restricted codes and labels) and reconstruction (residual
log-likelihood drop). A round scores all remaining candidates as
vectors: compactness first, whose -inf entries (atoms the chosen ones
explain) leave the pool for good, then discrimination (one KDE estimate
per candidate, on one buffer per round that holds the chosen atoms' code
rows and takes each candidate's row in turn) and reconstruction (one
orthogonal projection); the pick is the first maximum of the weighted
total. Weight estimation scores round 1 with the same function, over the
selection's terms plus compactness, and keeps the best single-atom gain
of each; a term the ablation leaves out is scored nowhere and gets
weight 0.

Both variants run one greedy selection per group of (class id,
discrimination labels, own signals). Shared mode is the single group
(None, the class labels, every signal); dedicated mode has one group per
class, with one-vs-rest labels over all samples and only that class's
signals for reconstruction. Each group estimates its own weights unless
the caller fixes them.

Both take the active terms as ``ablation``, a nonempty subset of TERMS
(all three by default), the discrimination bandwidth as ``sigma`` (None
derives it from the scored codes by bandwidth_rule) and the residual
scale as ``sigma_r`` (None derives it from each group's own signals, see
recon_gain).
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import signal_labels
from .info_measures import (
    GpModel,
    build_gp_model,
    gp_compact_gains,
    mi_codes_labels,
    recon_gain,
)
from .sparse_coding import Dictionary, Selection, omp_codes

# Unused here. The import stays because the benchmark's tracer
# (perfbench/tracing.py) patches itds.code_ls.
from .sparse_coding import code_ls  # noqa: F401

TERMS = ("compact", "discriminative", "reconstructive")


class WeightsError(RuntimeError):
    """Raised when weight estimation hits a degenerate covariance."""


@dataclass(frozen=True)
class SelectionWeights:
    """Weights of the discrimination and reconstruction terms; compactness has weight 1."""

    lambda2: float = 0.0
    lambda3: float = 0.0

    def __post_init__(self):
        for name in ("lambda2", "lambda3"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and non-negative")


@dataclass(frozen=True)
class RoundRecord:
    """Chosen atom and its raw/weighted gains for one greedy round."""

    round: int
    index: int
    gain_compact: float
    gain_discrim: float
    gain_recon: float
    gain_total: float


@dataclass(frozen=True)
class SelectionResult:
    selection: Selection
    rounds: tuple[RoundRecord, ...]
    weights: SelectionWeights
    class_id: int | None = None


def _score_round(
    dictionary: Dictionary,
    codes: np.ndarray | None,
    labels: np.ndarray,
    signals: np.ndarray,
    chosen: list[int],
    pool: np.ndarray,
    gp_model: GpModel | None,
    sigma_r: float | None,
    sigma: float | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score adding each atom of the pool to the chosen ones.

    Returns (pool, compact, mi, recon): the atoms that stay in the pool and
    their raw gains under each term given its input (gp_model, codes,
    signals), zeros for the others. Compactness is scored first; atoms it
    scores -inf (the chosen atoms explain them) leave the pool before the
    other terms. mi is the KDE mutual information of the codes restricted
    to the chosen atoms plus the candidate, not yet a gain over theirs.
    """
    sel = Selection(indices=tuple(chosen))
    compact = np.zeros(pool.size)
    if gp_model is not None:
        compact = gp_compact_gains(gp_model, sel, pool)
        keep = compact != -math.inf
        pool, compact = pool[keep], compact[keep]
    if pool.size == 0:
        raise RuntimeError("all remaining atoms are excluded as duplicates")
    mi = np.zeros(pool.size)
    if codes is not None:
        rows = np.empty((len(chosen) + 1, codes.shape[1]))
        rows[:-1] = codes[chosen]
        for i, k in enumerate(pool):
            rows[-1] = codes[k]
            mi[i] = mi_codes_labels(rows, labels, sigma)
    recon = np.zeros(pool.size)
    if signals is not None:
        recon = recon_gain(dictionary, sel, pool, signals, sigma_r)
    return pool, compact, mi, recon


def estimate_lambdas(
    dictionary: Dictionary,
    codes: np.ndarray | None,
    labels: np.ndarray,
    signals: np.ndarray | None,
    gp_model: GpModel,
    sigma_r: float | None = None,
    sigma: float | None = None,
) -> SelectionWeights:
    """Data-driven weights: best single-atom gain ratios.

    lambda2 and lambda3 are the maxima of the single-atom discrimination
    and reconstruction gains divided by the maximal single-atom
    compactness gain (the first greedy round). codes are the (K, N)
    coefficients over the whole dictionary; codes None scores no
    discrimination and gives lambda2 = 0, signals None no reconstruction
    and lambda3 = 0. sigma is the KDE bandwidth, None for bandwidth_rule,
    and sigma_r the residual scale, None for recon_gain's rule.
    """
    labels = np.asarray(labels, dtype=np.int64)
    K = dictionary.K
    if codes is not None and codes.shape[0] != K:
        raise ValueError("weight estimation needs codes over the full initial dictionary")
    _, compact, mi, recon = _score_round(
        dictionary, codes, labels, signals, [], np.arange(K), gp_model, sigma_r, sigma
    )
    denom = float(np.max(compact))
    if not math.isfinite(denom) or denom <= 1e-12:
        raise WeightsError("degenerate atom covariance: no compactness gain to normalize by")
    return SelectionWeights(lambda2=float(np.max(mi)) / denom, lambda3=float(np.max(recon)) / denom)


def _greedy_select(
    dictionary: Dictionary,
    init_coeffs: np.ndarray | None,
    discrim_labels: np.ndarray,
    recon_signals: np.ndarray | None,
    T: int,
    weights: SelectionWeights,
    gp_model: GpModel | None,
    sigma_r: float | None,
    sigma: float | None,
) -> tuple[Selection, tuple[RoundRecord, ...]]:
    chosen: list[int] = []
    pool = np.arange(dictionary.K)
    records: list[RoundRecord] = []
    mi_base = 0.0
    for t in range(T):
        pool, compact, mi, recon = _score_round(
            dictionary, init_coeffs, discrim_labels, recon_signals, chosen, pool,
            gp_model, sigma_r, sigma,
        )
        discrim = mi - mi_base
        total = compact + weights.lambda2 * discrim + weights.lambda3 * recon
        j = int(np.argmax(total))
        pick = int(pool[j])
        chosen.append(pick)
        pool = np.delete(pool, j)
        mi_base += discrim[j]
        records.append(
            RoundRecord(
                round=t + 1,
                index=pick,
                gain_compact=float(compact[j]),
                gain_discrim=float(discrim[j]),
                gain_recon=float(recon[j]),
                gain_total=float(total[j]),
            )
        )
    return Selection(indices=tuple(chosen)), tuple(records)


def _check_select_args(dictionary: Dictionary, T: int, ablation: Collection[str]) -> None:
    if not ablation or not set(ablation) <= set(TERMS):
        raise ValueError(f"ablation must be a nonempty subset of {TERMS}")
    if T < 1:
        raise ValueError("sparsity T must be at least 1")
    if T >= dictionary.K:
        raise ValueError(f"sparsity T={T} must be smaller than the atom count K={dictionary.K}")
    if T > dictionary.n:
        raise ValueError(f"sparsity T={T} must not exceed the signal dimension n={dictionary.n}")


def scored_terms(ablation: Collection[str], weights: SelectionWeights | None) -> frozenset[str]:
    """The terms a selection scores: its ablation's, in every round, plus
    compactness when weights=None, since the estimate divides by the best
    compactness gain. A term outside the set is never scored, and the
    estimate gives it weight 0."""
    return frozenset(ablation) | ({"compact"} if weights is None else frozenset())


def _select_groups(
    dictionary: Dictionary,
    signals: np.ndarray,
    groups: list[tuple[int | None, np.ndarray, np.ndarray]],
    T: int,
    ablation: Collection[str],
    weights: SelectionWeights | None,
    gp_model: GpModel | None,
    sigma_r: float | None,
    sigma: float | None,
) -> list[SelectionResult]:
    """One greedy selection per (class_id, discrimination labels, own signals) group.

    The OMP codes and the GP model are shared by all groups. A term's
    input (codes, GP model, a group's signals) is passed on only where
    scored_terms keeps the term, and to the rounds only where the ablation
    does. The weights default to each group's estimate.
    """
    _check_select_args(dictionary, T, ablation)
    scored = scored_terms(ablation, weights)
    codes = omp_codes(dictionary, signals, T) if "discriminative" in scored else None
    if gp_model is None and "compact" in scored:
        gp_model = build_gp_model(dictionary.atoms)
    results: list[SelectionResult] = []
    for class_id, group_labels, group_signals in groups:
        if "reconstructive" not in scored:
            group_signals = None
        w = weights if weights is not None else estimate_lambdas(
            dictionary, codes, group_labels, group_signals, gp_model, sigma_r, sigma
        )
        selection, records = _greedy_select(
            dictionary, codes, group_labels, group_signals, T,
            w, gp_model if "compact" in ablation else None, sigma_r, sigma,
        )
        results.append(SelectionResult(selection, records, w, class_id))
    return results


def select_shared(
    dictionary: Dictionary,
    signals: np.ndarray,
    labels: np.ndarray,
    T: int,
    ablation: Collection[str] = TERMS,
    weights: SelectionWeights | None = None,
    *,
    gp_model: GpModel | None = None,
    sigma_r: float | None = None,
    sigma: float | None = None,
) -> SelectionResult:
    """One common support of T atoms for all classes, scored on every signal.

    weights=None estimates them from the class labels and all signals.
    """
    Y = np.asarray(signals, dtype=np.float64)
    labels = signal_labels(labels, Y)
    (result,) = _select_groups(
        dictionary, Y, [(None, labels, Y)], T, ablation, weights,
        gp_model, sigma_r, sigma,
    )
    return result


def select_dedicated(
    dictionary: Dictionary,
    signals: np.ndarray,
    labels: np.ndarray,
    T: int,
    ablation: Collection[str] = TERMS,
    weights: SelectionWeights | None = None,
    *,
    gp_model: GpModel | None = None,
    sigma_r: float | None = None,
    sigma: float | None = None,
) -> list[SelectionResult]:
    """An independent support of T atoms per class.

    Discrimination is scored with one-vs-rest labels over every sample's
    codes; reconstruction sees only the class's own signals. Given weights
    apply to every class; weights=None estimates them per class.
    """
    Y = np.asarray(signals, dtype=np.float64)
    labels = signal_labels(labels, Y)
    p = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=p)
    if (counts < 2).any():
        bad = int(np.argmin(counts))
        raise ValueError(f"class {bad} has fewer than 2 samples")
    groups = [(c, (labels == c).astype(np.int64), Y[:, labels == c]) for c in range(p)]
    return _select_groups(
        dictionary, Y, groups, T, ablation, weights,
        gp_model, sigma_r, sigma,
    )


def selection_report(results: list[SelectionResult]) -> dict:
    """JSON-ready report: each result's class, weights, indices and weighted round records."""
    return {
        "selections": [
            {
                "class": res.class_id,
                "lambda1": 1.0,
                **asdict(res.weights),
                "indices": list(res.selection.indices),
                "rounds": [
                    {
                        **asdict(r),
                        "weighted_discrim": res.weights.lambda2 * r.gain_discrim,
                        "weighted_recon": res.weights.lambda3 * r.gain_recon,
                    }
                    for r in res.rounds
                ],
            }
            for res in results
        ]
    }
