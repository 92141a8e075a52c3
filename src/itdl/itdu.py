"""Gradient-ascent atom update on the quadratic mutual information.

The selected atoms are updated indirectly through the coding transform
phi (the transposed pseudoinverse of the selected sub-dictionary), whose
codes are phi^T Y: ascend the quadratic MI between codes and labels with
respect to phi, along Y (dI/dX)^T by the chain rule, then recover the
atoms once, as the unit-normalized pseudoinverse of the final transform.
Backtracking line search halves the step until the objective does not
decrease, which makes the whole trace non-decreasing.

The atoms depend on the transform only through the directions of its
columns: scaling a column of phi scales the matching row of its
pseudoinverse, which unit_columns cancels. The objective, by contrast,
keeps growing with the transform's scale. So the ascent stops when no
column of the transform turned by ``tol`` radians or more in an accepted
step (``column_turns``), not on the objective's change.

Each objective evaluation is one walk over the band of sample pairs
(``info_measures.qmi``). The initial codes and each accepted point are
evaluated with ``grad=True``, which returns the objective and its
gradient with respect to the codes from the same walk; backtracking
trials evaluate the value alone. An iteration whose first trial is
accepted therefore walks the pairs twice: once at the trial, once at the
accepted point, whose value repeats the trial's bit for bit and whose
gradient the next iteration steps along. No gradient is taken where no
iteration follows: at the point where the columns stopped turning, after
``max_iters`` iterations, or with ``max_iters=0``.

The kernel bandwidth is frozen at its initial value for the entire
ascent, otherwise the objective would move under the iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .dataset import class_atoms, class_labels, float_matrix
from .info_measures import ascent_bandwidth, qmi
from .sparse_coding import pinv, svd_keep, unit_columns

# Unused here. The import stays because the benchmark's tracer
# (perfbench/tracing.py) patches itdu.qmi_grad_codes.
from .info_measures import qmi_grad_codes  # noqa: F401

# Default stop tolerance of the ascent: the largest turn, in radians, of a
# transform column in one accepted step below which the ascent stops.
TURN_TOL = 0.01


@dataclass(eq=False)
class UpdateState:
    """The ascent's one record: every field except the coding transform is
    an entry key of ``update_report``. ``step`` is the base step (0.0 if an
    auto step was never sized); ``objective_trace`` starts with the initial
    objective and gains one value per accepted step."""

    transform: np.ndarray
    step: float
    sigma: float = 0.0
    iterations: int = 0
    converged: bool = False
    aborted: bool = False
    objective_trace: list = field(default_factory=list)
    accepted_steps: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)


def backtrack_step(phi, grad, nu0, objective, current):
    """Halve the step, at most 30 times, until the objective stops decreasing.

    Returns (accepted step, objective value). A zero gradient accepts the
    configured step immediately (the iterate does not move); if no
    improving step exists the accepted step is 0.
    """
    nu = float(nu0)
    for _ in range(31):
        value = objective(phi + nu * grad)
        if math.isfinite(value) and value >= current:
            return nu, value
        nu *= 0.5
    return 0.0, current


def column_turns(before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Angle in radians between each column of ``before`` and the same
    column of ``after``, whatever their norms: 2 arcsin(|u - v| / 2) of the
    unit directions u and v, which keeps its accuracy at small angles,
    where the arccos of the cosine rounds to 0."""
    chord = np.linalg.norm(unit_columns(after) - unit_columns(before), axis=0)
    return 2.0 * np.arcsin(np.minimum(0.5 * chord, 1.0))


def update_dictionary(
    dict_selected: np.ndarray,
    signals: np.ndarray,
    labels: np.ndarray,
    step: float | None = None,
    max_iters: int = 100,
    tol: float = TURN_TOL,
) -> tuple[np.ndarray, UpdateState]:
    """Ascend the quadratic MI of the codes; return updated atoms and state.

    step=None sizes the initial step from the transform/gradient norm
    ratio at the first iteration; a given step must be finite and
    positive, max_iters non-negative and tol finite and non-negative
    (ValueError otherwise). The signals pass dataset.float_matrix, the
    atoms too with as many rows, and the labels dataset.class_labels. The
    ascent stops (``state.converged``) after the first accepted step in
    which no column of the transform turned by tol radians or more, or
    when no step improves the objective; tol=0 runs it to max_iters. The
    stopping point is evaluated for the trace but takes no gradient. The
    bandwidth is always the interaction-scale ascent_bandwidth of the
    initial codes, frozen for the whole ascent and reported as
    ``state.sigma``. If no step was ever accepted the input atoms are
    returned untouched. Raises LinAlgError if the final transform
    has lost rank, since its pseudoinverse would then not be the dictionary
    whose codes were ascended.
    """
    if step is not None and not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step!r}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be non-negative, got {max_iters!r}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    Y = float_matrix(signals, "signals")
    D = float_matrix(dict_selected, "atoms", Y.shape[0])
    labels = class_labels(labels, Y.shape[1])
    P = pinv(D)
    X = P @ Y
    sigma = ascent_bandwidth(X)
    state = UpdateState(transform=np.ascontiguousarray(P.T), step=float(step or 0.0), sigma=sigma)

    def evaluate(codes, last):
        # (objective, its gradient w.r.t. the codes) in one band walk; the
        # gradient only when a later iteration uses it
        if last:
            return qmi(codes, labels, sigma), None
        return qmi(codes, labels, sigma, grad=True)

    def objective(phi_trial):
        return qmi(phi_trial.T @ Y, labels, sigma)

    value, grad_codes = evaluate(X, max_iters == 0)
    state.objective_trace.append(value)
    for state.iterations in range(1, max_iters + 1):
        # dI/dphi = Y (dI/dX)^T, from the last evaluation's gradient
        grad_phi = Y @ grad_codes.T
        gnorm = float(np.linalg.norm(grad_phi))
        iq = state.objective_trace[-1]
        if not math.isfinite(iq) or not math.isfinite(gnorm):
            state.aborted = True
            break
        if step is None and state.iterations == 1:
            # auto step, sized once: the first base step moves the
            # transform by a tenth of its norm
            state.step = 0.1 * float(np.linalg.norm(state.transform)) / max(gnorm, 1e-30)
        nu, _ = backtrack_step(state.transform, grad_phi, state.step, objective, iq)
        if nu * gnorm == 0.0:
            state.converged = True
            break
        phi = state.transform + nu * grad_phi
        state.converged = bool(column_turns(state.transform, phi).max() < tol)
        state.transform = phi
        # The accepted trial's value again, bit for bit, so it is finite
        # (backtrack_step accepts only finite values); the same walk returns
        # the gradient that the next iteration steps along.
        value, grad_codes = evaluate(
            phi.T @ Y, state.converged or state.iterations == max_iters
        )
        state.objective_trace.append(value)
        state.accepted_steps.append(nu)
        state.grad_norms.append(gnorm)
        if state.converged:
            break

    if not state.accepted_steps:
        return D.copy(), state
    rank = int(np.count_nonzero(svd_keep(np.linalg.svd(state.transform, compute_uv=False))))
    if rank < state.transform.shape[1]:
        raise np.linalg.LinAlgError(
            f"coding transform has rank {rank} < {state.transform.shape[1]} atoms; "
            "the atoms cannot be recovered from it"
        )
    return unit_columns(pinv(state.transform.T)), state


@dataclass(frozen=True, eq=False)
class ClassUpdateResult:
    class_id: int | None
    atoms: np.ndarray
    state: UpdateState


def update_all_classes(
    selected_atoms: list,
    signals: np.ndarray,
    labels: np.ndarray,
    *,
    step: float | None = None,
    max_iters: int = 100,
    tol: float = TURN_TOL,
) -> list[ClassUpdateResult]:
    """Run the atom update once per (class_id, atoms) entry.

    class_id=None (shared mode) ascends against the class labels; a class
    id ascends against its one-vs-rest labels. Both are computed over all
    samples. Each ascent freezes the ascent_bandwidth of its own initial
    codes. The signals, the labels and every atom set (dataset.class_atoms)
    are checked before the first ascent, the labels before any one-vs-rest
    labeling, which would hide a negative label.
    """
    Y = float_matrix(signals, "signals")
    labels = class_labels(labels, Y.shape[1])
    results: list[ClassUpdateResult] = []
    for class_id, atoms in class_atoms(selected_atoms, Y.shape[0]):
        run_labels = labels if class_id is None else (labels == class_id).astype(np.int64)
        try:
            new_atoms, state = update_dictionary(
                atoms, Y, run_labels, step=step, max_iters=max_iters, tol=tol
            )
        except Exception as exc:
            raise RuntimeError(f"atom update failed for class {class_id}: {exc}") from exc
        results.append(ClassUpdateResult(class_id, new_atoms, state))
    return results


def update_report(results: list[ClassUpdateResult]) -> dict:
    """JSON-ready record of each ascent: the class id and every
    ``UpdateState`` field except the transform."""
    keys = [f.name for f in fields(UpdateState) if f.name != "transform"]
    entries = [{"class": r.class_id} | {k: getattr(r.state, k) for k in keys} for r in results]
    return {"updates": entries}
