import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import shared_style_dataset, three_pass_update
from itdl.cli import RunConfig
from itdl.dataset import split, synth_gaussian_classes
from itdl.itds import select_dedicated
from itdl.itdu import (
    TURN_TOL,
    backtrack_step,
    column_turns,
    update_all_classes,
    update_dictionary,
    update_report,
)
from itdl.sparse_coding import ksvd_init, pinv, unit_columns


def two_class_instance(seed=0, n=8, per_class=15, spread=0.4, T=2):
    ds = synth_gaussian_classes(n, 2, per_class, spread, seed)
    d = ksvd_init(ds.signals, 6, T, 2, seed + 9)
    atoms = d.atoms[:, :T].copy()
    return atoms, ds.signals, ds.labels


class TestBacktrackStep:
    def test_zero_gradient_returns_configured_step(self):
        phi = np.ones((3, 2))
        nu, val = backtrack_step(phi, np.zeros((3, 2)), 0.5, lambda p: 7.0, 7.0)
        assert nu == 0.5 and val == 7.0

    def test_adversarial_step_is_shrunk(self):
        # concave objective with a narrow peak: huge steps overshoot
        phi = np.zeros((2, 2))
        grad = np.ones((2, 2))

        def objective(p):
            return -float(np.sum((p - 0.01) ** 2))

        current = objective(phi)
        nu, val = backtrack_step(phi, grad, 1e6, objective, current)
        assert 0.0 < nu < 1e6
        assert val >= current

    def test_concave_quadratic_accepts_ascending_step(self):
        phi = np.array([[0.0]])
        grad = np.array([[1.0]])

        def objective(p):
            return -float((p[0, 0] - 1.0) ** 2)

        nu, val = backtrack_step(phi, grad, 1.5, objective, objective(phi))
        assert val >= objective(phi)
        assert nu == 1.5  # phi + 1.5 grad lands at 0.5, closer to the peak

    def test_no_improving_step_returns_zero(self):
        phi = np.array([[0.0]])
        grad = np.array([[1.0]])

        def objective(p):
            return -abs(float(p[0, 0]))  # any move along +grad descends

        nu, val = backtrack_step(phi, grad, 1.0, objective, 0.0)
        assert nu == 0.0 and val == 0.0


class TestRenormalize:
    def test_reconstruction_unchanged(self):
        # unit-norm atoms with the same span: least-squares recoding
        # reconstructs every signal as before
        rng = np.random.default_rng(1)
        atoms = rng.standard_normal((6, 3)) * np.array([0.2, 5.0, 1.7])
        Y = rng.standard_normal((6, 10))
        atoms2 = unit_columns(atoms)
        np.testing.assert_allclose(np.linalg.norm(atoms2, axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(atoms2 * np.linalg.norm(atoms, axis=0), atoms, atol=1e-12)
        recon = atoms @ pinv(atoms) @ Y
        assert np.linalg.norm(recon - atoms2 @ pinv(atoms2) @ Y) < 1e-10

    def test_zero_atom_left_zero(self):
        atoms = np.column_stack([np.zeros(4), np.full(4, 2.0)])
        np.testing.assert_array_equal(unit_columns(atoms), [[0.0, 0.5]] * 4)


class TestColumnTurns:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(1, 6),
        extra=st.integers(2, 6),
        log_scales=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
    )
    def test_atoms_depend_only_on_the_transform_column_directions(
        self, seed, T, extra, log_scales
    ):
        # the rule's premise: scaling the transform's columns by positive c
        # scales the rows of pinv(phi^T) by 1/c, which unit_columns cancels
        phi = np.random.default_rng(seed).standard_normal((T + extra, T))
        c = 10.0 ** np.array(log_scales[:T])
        np.testing.assert_allclose(
            unit_columns(pinv((phi * c).T)), unit_columns(pinv(phi.T)), rtol=0, atol=1e-10
        )

    def test_turn_of_a_rotated_column_is_its_angle(self):
        # column j of `after` is column j of `before` turned by theta_j in
        # the plane of the first two axes, at another norm
        theta = np.array([1e-9, 1e-3, 0.5])
        before = np.zeros((3, 3))
        before[0] = 1.0
        after = 2.5 * np.stack([np.cos(theta), np.sin(theta), np.zeros(3)])
        np.testing.assert_allclose(column_turns(before, after), theta, rtol=1e-12, atol=0)
        # where the arccos of the cosine loses the angle altogether
        assert np.arccos(np.cos(1e-9)) == 0.0

    def test_unturned_and_reversed_columns(self):
        phi = np.random.default_rng(5).standard_normal((4, 2))
        np.testing.assert_array_equal(column_turns(phi, 4.0 * phi), 0.0)
        assert column_turns(phi, 3.0 * phi).max() < 1e-15
        np.testing.assert_allclose(column_turns(phi, -phi), np.pi, rtol=1e-15)


class TestUpdateDictionary:
    def test_zero_gradient_is_bitwise_fixed_point(self):
        # one class: the objective and its gradient are exactly zero, so the
        # first iteration takes no step and the input atoms come back
        atoms, Y, _ = two_class_instance()
        one_class = np.zeros(Y.shape[1], dtype=np.int64)
        out, state = update_dictionary(atoms, Y, one_class, step=0.5, max_iters=10)
        assert np.array_equal(out, atoms)
        assert state.converged and state.iterations == 1
        assert state.objective_trace == [0.0]

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"step": float("nan")}, "step must be finite and positive, got nan"),
            ({"step": float("inf")}, "step must be finite and positive, got inf"),
            ({"step": 0.0}, "step must be finite and positive, got 0.0"),
            ({"step": -1.0}, "step must be finite and positive, got -1.0"),
            ({"max_iters": -1}, "max_iters must be non-negative, got -1"),
            ({"tol": float("nan")}, "tol must be finite and non-negative, got nan"),
            ({"tol": float("inf")}, "tol must be finite and non-negative, got inf"),
            ({"tol": -1e-3}, "tol must be finite and non-negative, got -0.001"),
        ],
    )
    def test_bad_ascent_parameters_rejected(self, kwargs, message):
        atoms, Y, labels = two_class_instance(seed=2)
        with pytest.raises(ValueError, match=message):
            update_dictionary(atoms, Y, labels, **kwargs)

    def test_default_tol_is_the_one_constant(self):
        assert TURN_TOL == 0.01
        defaults = [
            inspect.signature(fn).parameters["tol"].default
            for fn in (update_dictionary, update_all_classes, three_pass_update)
        ]
        assert defaults + [RunConfig().tol] == [TURN_TOL] * 4

    def test_no_signals_rejected(self):
        atoms, Y, _ = two_class_instance(seed=2)
        with pytest.raises(ValueError, match="no signals: the signal matrix has 0 columns"):
            update_dictionary(atoms, Y[:, :0], np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda y: y[:-1], "29 labels for 30 signals"),
            (lambda y: np.append(y, 0), "31 labels for 30 signals"),
            (lambda y: np.where(np.arange(y.size) == 5, -1, y), "negative label -1"),
            (lambda y: np.where(np.arange(y.size) == 5, 0.5, y), "label 0.5 is not a whole number"),
            (lambda y: y.reshape(2, -1), r"labels must be a 1-d array, got shape \(2, 15\)"),
        ],
        ids=["too-short", "too-long", "negative", "fractional", "2-d"],
    )
    def test_labels_must_be_one_class_per_signal(self, change, message):
        atoms, Y, labels = two_class_instance(seed=2)
        with pytest.raises(ValueError, match=message):
            update_dictionary(atoms, Y, change(labels))
        # checked before any one-vs-rest labeling, which would hide a
        # negative label
        with pytest.raises(ValueError, match=message):
            update_all_classes([(None, atoms), (0, atoms), (1, atoms)], Y, change(labels))

    def test_non_finite_signals_rejected(self):
        atoms, Y, labels = two_class_instance(seed=2)
        Y = Y.copy()
        Y[0, 3] = np.nan
        message = r"signals must be finite \(they hold nan or inf\)"
        with pytest.raises(ValueError, match=message):
            update_dictionary(atoms, Y, labels)
        with pytest.raises(ValueError, match=message):
            update_all_classes([(None, atoms), (0, atoms)], Y, labels)

    def test_trace_strictly_increases_initially(self):
        atoms, Y, labels = two_class_instance(seed=2)
        _, state = update_dictionary(atoms, Y, labels, max_iters=8)
        trace = state.objective_trace
        assert len(trace) >= 6
        assert all(b > a for a, b in zip(trace[:5], trace[1:6]))

    def test_trace_nondecreasing_with_backtracking(self):
        for seed in range(4):
            atoms, Y, labels = two_class_instance(seed=seed)
            _, state = update_dictionary(atoms, Y, labels, max_iters=25)
            assert all(b >= a for a, b in zip(state.objective_trace, state.objective_trace[1:]))

    def test_updated_atoms_unit_norm_and_recodable(self):
        atoms, Y, labels = two_class_instance(seed=3)
        out, state = update_dictionary(atoms, Y, labels, max_iters=10)
        np.testing.assert_allclose(np.linalg.norm(out, axis=0), 1.0, atol=1e-10)
        # the accepted transform reproduces the final objective value
        raw_atoms = pinv(state.transform.T)
        raw_codes = pinv(raw_atoms) @ Y
        from itdl.info_measures import qmi

        assert qmi(raw_codes, labels, state.sigma) == pytest.approx(
            state.objective_trace[-1], rel=1e-8
        )
        # renormalization rescales code rows inversely: reconstruction intact
        codes = pinv(out) @ Y
        assert np.linalg.norm(out @ codes - raw_atoms @ raw_codes) < 1e-8

    def test_deterministic(self):
        atoms, Y, labels = two_class_instance(seed=4)
        out1, st1 = update_dictionary(atoms, Y, labels, max_iters=12)
        out2, st2 = update_dictionary(atoms, Y, labels, max_iters=12)
        np.testing.assert_array_equal(out1, out2)
        assert st1.objective_trace == st2.objective_trace
        assert st1.accepted_steps == st2.accepted_steps

    def test_atoms_recovered_once_after_the_ascent(self, monkeypatch):
        # one pinv for the initial transform, one for the final atoms,
        # however many steps and backtracking trials the ascent takes
        import itdl.itdu as itdu_mod

        calls = []

        def counting(mat):
            calls.append(mat.shape)
            return pinv(mat)

        monkeypatch.setattr(itdu_mod, "pinv", counting)
        atoms, Y, labels = two_class_instance(seed=2)
        _, state = update_dictionary(atoms, Y, labels, max_iters=8)
        assert len(state.accepted_steps) >= 6
        assert calls == [atoms.shape, atoms.shape[::-1]]

    def test_trace_is_objective_of_accepted_transform(self):
        atoms, Y, labels = two_class_instance(seed=3)
        _, state = update_dictionary(atoms, Y, labels, max_iters=10)
        from itdl.info_measures import qmi

        assert qmi(state.transform.T @ Y, labels, state.sigma) == state.objective_trace[-1]

    def test_rank_deficient_transform_raises_named_error(self):
        # twin atoms give a rank-1 transform whose columns stay equal under
        # the ascent, so recovering two atoms from it must fail loudly
        atoms, Y, labels = two_class_instance(seed=2)
        twin = np.column_stack([atoms[:, 0], atoms[:, 0]])
        with pytest.raises(np.linalg.LinAlgError, match="rank 1 < 2"):
            update_dictionary(twin, Y, labels, max_iters=3)
        with pytest.raises(RuntimeError, match="class 1: coding transform has rank 1 < 2"):
            update_all_classes([(0, atoms), (1, twin)], Y, labels, max_iters=3)

    def test_tol_stops_after_a_step_that_turns_no_column_by_tol(self):
        atoms, Y, labels = two_class_instance(seed=2)
        _, state = update_dictionary(atoms, Y, labels, max_iters=8, tol=1.0)
        assert state.converged and not state.aborted
        assert state.iterations == 1 and len(state.objective_trace) == 2
        assert len(state.accepted_steps) == len(state.grad_norms) == 1
        # at tol 0.01: every step before the last turns some column by tol
        # or more, the last turns none; tol 0 would go on to max_iters
        _, state = update_dictionary(atoms, Y, labels, max_iters=40, tol=1e-2)
        assert state.converged and 1 < state.iterations < 40
        walk = [
            update_dictionary(atoms, Y, labels, max_iters=k, tol=0.0)[1]
            for k in range(state.iterations + 1)
        ]
        assert np.array_equal(walk[-1].transform, state.transform)
        turns = [column_turns(a.transform, b.transform).max() for a, b in zip(walk, walk[1:])]
        assert min(turns[:-1]) >= 1e-2 > turns[-1]
        _, full = update_dictionary(atoms, Y, labels, max_iters=state.iterations + 5, tol=0.0)
        assert not full.converged and full.iterations == state.iterations + 5
        # where the objective still grows by far more than a 1e-6 relative gain
        before, last = state.objective_trace[-2:]
        assert last - before > 1e-3 * before

    def test_non_finite_objective_aborts_without_sizing_a_step(self, monkeypatch):
        import itdl.itdu as itdu_mod

        def nan_qmi(codes, labels, sigma, grad=False):
            return (float("nan"), np.zeros_like(codes)) if grad else float("nan")

        monkeypatch.setattr(itdu_mod, "qmi", nan_qmi)
        atoms, Y, labels = two_class_instance(seed=2)
        out, state = update_dictionary(atoms, Y, labels, max_iters=8)
        assert state.aborted and not state.converged and state.iterations == 1
        assert state.step == 0.0 and state.accepted_steps == []
        np.testing.assert_array_equal(out, atoms)

    def test_sigma_frozen_from_initial_codes(self):
        atoms, Y, labels = two_class_instance(seed=6)
        from itdl.info_measures import ascent_bandwidth

        want = ascent_bandwidth(pinv(atoms) @ Y)
        _, state = update_dictionary(atoms, Y, labels, max_iters=3)
        assert state.sigma == pytest.approx(want, rel=1e-12)


def three_class_instance():
    ds = shared_style_dataset(12, 3, 10, seed=8)
    atoms = ksvd_init(ds.signals, 8, 3, 1, 8).atoms[:, :3]
    return atoms, ds.signals, ds.labels


class TestFusedAscent:
    """The ascent takes each gradient from the walk that evaluates the
    accepted point; it must match the three-walk loop bit for bit."""

    @pytest.mark.parametrize(
        "labels_of, kwargs",
        [
            ("shared", {"max_iters": 12}),
            ("shared", {"step": 1e9, "max_iters": 10}),
            ("shared", {"step": 1e12, "max_iters": 10}),  # halves
            ("one-vs-rest", {"max_iters": 12}),
            ("one-vs-rest", {"step": 3e11, "max_iters": 10}),  # halves
            ("one-vs-rest", {"step": 2e9, "max_iters": 0}),
            ("shared", {"max_iters": 1}),
            ("shared", {"step": 1e9, "max_iters": 1}),
            ("single-class", {"max_iters": 5}),
        ],
    )
    def test_matches_three_pass_oracle(self, labels_of, kwargs):
        atoms, Y, labels = three_class_instance()
        labels = {
            "shared": labels,
            "one-vs-rest": (labels == 1).astype(np.int64),
            "single-class": np.zeros_like(labels),
        }[labels_of]
        self.assert_matches_oracle(atoms, Y, labels, kwargs)

    @pytest.mark.parametrize("instance", ["two-class", "three-class"])
    @pytest.mark.parametrize("tol", [3e-2, 1e-2, 3e-3])
    def test_matches_three_pass_oracle_when_the_columns_stop_turning(self, instance, tol):
        # the oracle measures each turn by its own angle formula
        atoms, Y, labels = (
            two_class_instance(seed=2) if instance == "two-class" else three_class_instance()
        )
        state = self.assert_matches_oracle(atoms, Y, labels, {"max_iters": 100, "tol": tol})
        assert state.converged and 1 < state.iterations < 100

    @staticmethod
    def assert_matches_oracle(atoms, Y, labels, kwargs):
        out, state = update_dictionary(atoms, Y, labels, **kwargs)
        want_out, want = three_pass_update(atoms, Y, labels, **kwargs)
        assert np.array_equal(out, want_out)
        assert np.array_equal(state.transform, want.transform)
        assert {k: v for k, v in vars(state).items() if k != "transform"} == {
            k: v for k, v in vars(want).items() if k != "transform"
        }
        if kwargs.get("step", 0.0) > 1e10:
            assert min(state.accepted_steps) < state.step  # backtracking halved
        return state

    @staticmethod
    def spy(monkeypatch):
        """Record the grad flag of every itdu.qmi call, tagged by whether a
        backtracking trial made it, and every itdu.qmi_grad_codes call."""
        import itdl.itdu as itdu_mod

        calls, grad_codes_calls = [], []
        in_trial = [False]
        qmi, backtrack = itdu_mod.qmi, itdu_mod.backtrack_step

        def spy_qmi(codes, labels, sigma, **kwargs):
            calls.append((in_trial[0], kwargs.get("grad", False)))
            return qmi(codes, labels, sigma, **kwargs)

        def spy_backtrack(phi, grad, nu0, objective, current):
            in_trial[0] = True
            try:
                return backtrack(phi, grad, nu0, objective, current)
            finally:
                in_trial[0] = False

        monkeypatch.setattr(itdu_mod, "qmi", spy_qmi)
        monkeypatch.setattr(itdu_mod, "backtrack_step", spy_backtrack)
        monkeypatch.setattr(itdu_mod, "qmi_grad_codes", lambda *a: grad_codes_calls.append(a))
        return calls, grad_codes_calls

    def test_one_call_per_evaluation_gradient_only_where_used(self, monkeypatch):
        # the initial objective, E trials and A accepted points: 1 + E + A qmi
        # calls; the gradient comes with every evaluation that an iteration
        # follows, never from qmi_grad_codes, never at a trial
        calls, grad_codes_calls = self.spy(monkeypatch)
        atoms, Y, labels = three_class_instance()
        _, state = update_dictionary(atoms, Y, labels, step=1e12, max_iters=10)
        trials = [grad for in_trial, grad in calls if in_trial]
        points = [grad for in_trial, grad in calls if not in_trial]
        accepted = len(state.accepted_steps)
        assert accepted == state.iterations == 10 and len(trials) > accepted
        assert len(calls) == 1 + len(trials) + accepted
        assert not any(trials)
        assert points == [True] * 10 + [False]
        assert grad_codes_calls == []

    def test_tol_stop_and_no_iteration(self, monkeypatch):
        calls, grad_codes_calls = self.spy(monkeypatch)
        atoms, Y, labels = two_class_instance(seed=2)
        _, state = update_dictionary(atoms, Y, labels, max_iters=40, tol=1e-2)
        points = [grad for in_trial, grad in calls if not in_trial]
        accepted = len(state.accepted_steps)
        assert state.converged and accepted == state.iterations < 40
        # the turn is known before the stopping point is evaluated, so that
        # evaluation takes no gradient
        assert points == [True] * accepted + [False]
        calls.clear()
        _, state = update_dictionary(atoms, Y, labels, max_iters=0)
        assert calls == [(False, False)] and state.objective_trace != []
        assert grad_codes_calls == []


class TestUpdateAllClasses:
    def test_shared_mode_single_run(self, monkeypatch):
        calls = []
        import itdl.itdu as itdu_mod

        original = itdu_mod.update_dictionary

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(itdu_mod, "update_dictionary", counting)
        atoms, Y, labels = two_class_instance(seed=7)
        results = update_all_classes([(None, atoms)], Y, labels, max_iters=2)
        assert len(calls) == 1
        assert len(results) == 1
        assert results[0].class_id is None

    def test_dedicated_mode_one_run_per_class(self, monkeypatch):
        calls = []
        import itdl.itdu as itdu_mod

        original = itdu_mod.update_dictionary

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(itdu_mod, "update_dictionary", counting)
        ds = shared_style_dataset(12, 3, 10, seed=8)
        d = ksvd_init(ds.signals, 8, 2, 1, 8)
        sel = select_dedicated(d, ds.signals, ds.labels, 2)
        atom_sets = [(r.class_id, d.atoms[:, list(r.selection.indices)]) for r in sel]
        results = update_all_classes(atom_sets, ds.signals, ds.labels, max_iters=2)
        assert len(calls) == 3
        assert [r.class_id for r in results] == [0, 1, 2]
        for r in results:
            assert r.atoms.shape == (ds.n, 2)

    def test_labels_global_for_none_one_vs_rest_for_class(self, monkeypatch):
        seen = []
        import itdl.itdu as itdu_mod

        original = itdu_mod.update_dictionary

        def recording(atoms, signals, labels, **kwargs):
            seen.append(np.array(labels))
            return original(atoms, signals, labels, **kwargs)

        monkeypatch.setattr(itdu_mod, "update_dictionary", recording)
        ds = shared_style_dataset(12, 3, 10, seed=12)
        atoms = ksvd_init(ds.signals, 8, 2, 1, 12).atoms[:, :2]
        results = update_all_classes(
            [(None, atoms), (2, atoms), (0, atoms)], ds.signals, ds.labels, max_iters=1
        )
        assert [r.class_id for r in results] == [None, 2, 0]
        np.testing.assert_array_equal(seen[0], ds.labels)
        np.testing.assert_array_equal(seen[1], (ds.labels == 2).astype(np.int64))
        np.testing.assert_array_equal(seen[2], (ds.labels == 0).astype(np.int64))
        # every entry ascends on all samples
        alone, _ = original(atoms, ds.signals, (ds.labels == 2).astype(np.int64), max_iters=1)
        np.testing.assert_array_equal(results[1].atoms, alone)

    def test_within_class_variance_fraction_drops(self):
        # the update concentrates each class's codes: the within-class share
        # of total code variance shrinks (scale-invariant reading of the
        # reduced intra-class variation)
        train, _ = split(shared_style_dataset(16, 4, 60, seed=0), 0.5, 77)
        d = ksvd_init(train.signals, 12, 2, 1, 123)
        sel = select_dedicated(d, train.signals, train.labels, 2)
        pre = [(r.class_id, d.atoms[:, list(r.selection.indices)]) for r in sel]
        post = update_all_classes(pre, train.signals, train.labels, max_iters=30)

        def mean_fraction(atom_sets):
            total = 0.0
            for c, atoms in atom_sets:
                codes_all = pinv(atoms) @ train.signals
                codes_own = codes_all[:, train.labels == c]
                total += np.cov(codes_own).trace() / np.cov(codes_all).trace()
            return total / len(atom_sets)

        assert mean_fraction([(r.class_id, r.atoms) for r in post]) < mean_fraction(pre)

    def test_error_tagged_with_class(self):
        atoms, Y, labels = two_class_instance(seed=10)
        bad = np.full_like(atoms, np.nan)
        with pytest.raises(RuntimeError, match="class 1"):
            update_all_classes([(0, atoms), (1, bad)], Y, labels, max_iters=1)

    def test_report_shape(self):
        atoms, Y, labels = two_class_instance(seed=11)
        results = update_all_classes([(None, atoms)], Y, labels, max_iters=3)
        rep = update_report(results)
        entry = rep["updates"][0]
        assert set(entry) == {
            "class", "sigma", "step", "iterations", "converged", "aborted",
            "objective_trace", "accepted_steps", "grad_norms",
        }
        assert len(entry["objective_trace"]) == len(entry["accepted_steps"]) + 1

    def test_report_entry_is_the_record_without_transform(self):
        atoms, Y, labels = two_class_instance(seed=11)
        results = update_all_classes([(0, atoms), (1, atoms)], Y, labels, max_iters=0)
        for res, entry in zip(results, update_report(results)["updates"]):
            record = {k: v for k, v in vars(res.state).items() if k != "transform"}
            assert entry == {"class": res.class_id, **record}
            # with no iteration the auto base step is never sized
            assert entry["step"] == 0.0 and entry["iterations"] == 0
