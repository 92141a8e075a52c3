"""Gradient-ascent atom update on the quadratic mutual information.

The selected atoms are updated indirectly through the coding transform
phi (the transposed pseudoinverse of the selected sub-dictionary), whose
codes are phi^T Y: ascend the quadratic MI between codes and labels with
respect to phi, then recover the atoms once, as the pseudoinverse of the
final transform. Backtracking line search halves the step until the
objective does not decrease, which makes the whole trace non-decreasing.

The kernel bandwidth is frozen at its initial value for the entire
ascent, otherwise the objective would move under the iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .info_measures import KdeConfig, ascent_bandwidth, qmi, qmi_grad_codes
from .sparse_coding import SVD_CUTOFF, pinv


@dataclass
class UpdateState:
    """Ascent bookkeeping: coding transform, step, objective trace."""

    transform: np.ndarray
    step: float
    iteration: int = 0
    trace: list = field(default_factory=list)
    converged: bool = False
    aborted: bool = False
    sigma: float = 0.0
    accepted_steps: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)


def backtrack_step(phi, grad, nu0, objective, current, max_halvings: int = 30):
    """Halve the step until the objective stops decreasing.

    Returns (accepted step, objective value). A zero gradient accepts the
    configured step immediately (the iterate does not move); if no
    improving step exists the accepted step is 0.
    """
    nu = float(nu0)
    for _ in range(max_halvings + 1):
        value = objective(phi + nu * grad)
        if math.isfinite(value) and value >= current:
            return nu, value
        nu *= 0.5
    return 0.0, current


def renormalize_atoms(atoms: np.ndarray, codes: np.ndarray):
    """Unit-normalize atoms, rescaling coefficient rows inversely.

    The product atoms @ codes (the reconstruction) is unchanged.
    """
    norms = np.linalg.norm(atoms, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    return atoms / safe, codes * safe[:, None]


def update_dictionary(
    dict_selected: np.ndarray,
    signals: np.ndarray,
    labels: np.ndarray,
    step: float | None = None,
    max_iters: int = 100,
    tol: float = 1e-6,
    kde_cfg: KdeConfig | None = None,
) -> tuple[np.ndarray, UpdateState]:
    """Ascend the quadratic MI of the codes; return updated atoms and state.

    step=None sizes the initial step from the transform/gradient norm
    ratio at the first iteration. kde_cfg=None uses the interaction-scale
    bandwidth of the initial codes. If no step was ever accepted the
    input atoms are returned untouched. Raises LinAlgError if the final
    transform has lost rank, since its pseudoinverse would then not be
    the dictionary whose codes were ascended.
    """
    D = np.ascontiguousarray(dict_selected, dtype=np.float64)
    Y = np.asarray(signals, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    P = pinv(D)
    phi = np.ascontiguousarray(P.T)
    X = P @ Y
    sigma = ascent_bandwidth(X) if kde_cfg is None else kde_cfg.resolve(X)
    cfg = KdeConfig(sigma)
    iq = qmi(X, labels, cfg)
    state = UpdateState(transform=phi, step=0.0 if step is None else float(step), sigma=sigma)
    state.trace.append(iq)

    def objective(phi_trial):
        return qmi(phi_trial.T @ Y, labels, cfg)

    took_step = False
    nu0 = None if step is None else float(step)
    for k in range(1, max_iters + 1):
        state.iteration = k
        grads = qmi_grad_codes(X, labels, cfg)
        grad_phi = Y @ grads.T
        gnorm = float(np.linalg.norm(grad_phi))
        if not math.isfinite(iq) or not math.isfinite(gnorm):
            state.aborted = True
            break
        if nu0 is None:
            # auto step, sized once: the first base step moves the
            # transform by a tenth of its norm
            nu0 = 0.1 * float(np.linalg.norm(phi)) / max(gnorm, 1e-30)
            state.step = nu0
        nu, _ = backtrack_step(phi, grad_phi, nu0, objective, iq)
        if nu * gnorm == 0.0:
            state.converged = True
            break
        phi = phi + nu * grad_phi
        X = phi.T @ Y
        # Recomputes the accepted trial's value bit for bit, so it is finite
        # (backtrack_step accepts only finite values). The call stays while
        # perfbench/test_perfbench.py pins the number of qmi calls.
        new_iq = qmi(X, labels, cfg)
        took_step = True
        state.transform = phi
        state.accepted_steps.append(nu)
        state.grad_norms.append(gnorm)
        rel = abs(new_iq - iq) / max(abs(iq), 1e-300)
        iq = new_iq
        state.trace.append(iq)
        if rel < tol:
            state.converged = True
            break

    if not took_step:
        return np.array(dict_selected, dtype=np.float64, copy=True), state
    sv = np.linalg.svd(phi, compute_uv=False)
    rank = int(np.count_nonzero((sv >= SVD_CUTOFF * sv[0]) & (sv > 0.0)))
    if rank < phi.shape[1]:
        raise np.linalg.LinAlgError(
            f"coding transform has rank {rank} < {phi.shape[1]} atoms; "
            "the atoms cannot be recovered from it"
        )
    atoms, _ = renormalize_atoms(pinv(phi.T), X)
    return atoms, state


@dataclass(frozen=True)
class ClassUpdateResult:
    class_id: int | None
    atoms: np.ndarray
    state: UpdateState
    codes: np.ndarray
    reconstruction: np.ndarray


def update_all_classes(
    selected_atoms: list,
    signals: np.ndarray,
    labels: np.ndarray,
    *,
    shared: bool,
    step: float | None = None,
    max_iters: int = 100,
    tol: float = 1e-6,
    kde_cfg: KdeConfig | None = None,
) -> list[ClassUpdateResult]:
    """Run the atom update per class (dedicated) or once (shared).

    selected_atoms is a list of (class_id, atoms) pairs; with shared=True
    it must hold exactly one entry, updated against the global labels.
    Dedicated entries are updated against one-vs-rest labels computed over
    all samples, then coded on their own class's signals.
    """
    Y = np.asarray(signals, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if shared and len(selected_atoms) != 1:
        raise ValueError("shared mode takes exactly one atom set")
    results: list[ClassUpdateResult] = []
    for class_id, atoms in selected_atoms:
        if shared:
            run_labels = labels
            Yc = Y
        else:
            run_labels = (labels == class_id).astype(np.int64)
            Yc = Y[:, labels == class_id]
        try:
            new_atoms, state = update_dictionary(
                atoms,
                Y,
                run_labels,
                step=step,
                max_iters=max_iters,
                tol=tol,
                kde_cfg=kde_cfg,
            )
        except Exception as exc:
            raise RuntimeError(f"atom update failed for class {class_id}: {exc}") from exc
        codes = pinv(new_atoms) @ Yc
        recon = new_atoms @ codes
        results.append(
            ClassUpdateResult(
                class_id=class_id,
                atoms=new_atoms,
                state=state,
                codes=codes,
                reconstruction=recon,
            )
        )
    return results


def update_report(results: list[ClassUpdateResult]) -> dict:
    """JSON-ready trace: per-iteration objective, accepted step, gradient norm."""
    entries = []
    for res in results:
        entries.append(
            {
                "class": res.class_id,
                "sigma": res.state.sigma,
                "step": res.state.step,
                "iterations": res.state.iteration,
                "converged": res.state.converged,
                "aborted": res.state.aborted,
                "objective_trace": list(res.state.trace),
                "accepted_steps": list(res.state.accepted_steps),
                "grad_norms": list(res.state.grad_norms),
            }
        )
    return {"updates": entries}
