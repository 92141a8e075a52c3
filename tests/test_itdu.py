import numpy as np
import pytest

from helpers import shared_style_dataset
from itdl.dataset import split, synth_gaussian_classes
from itdl.info_measures import KdeConfig
from itdl.itds import SelectionMode, select_dedicated
from itdl.itdu import (
    backtrack_step,
    renormalize_atoms,
    update_all_classes,
    update_dictionary,
    update_report,
)
from itdl.sparse_coding import ksvd_init, pinv


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
        rng = np.random.default_rng(1)
        atoms = rng.standard_normal((6, 3)) * np.array([0.2, 5.0, 1.7])
        codes = rng.standard_normal((3, 10))
        atoms2, codes2 = renormalize_atoms(atoms, codes)
        np.testing.assert_allclose(np.linalg.norm(atoms2, axis=0), 1.0, atol=1e-12)
        assert np.linalg.norm(atoms @ codes - atoms2 @ codes2) < 1e-10


class TestUpdateDictionary:
    def test_zero_step_is_bitwise_fixed_point(self):
        atoms, Y, labels = two_class_instance()
        out, state = update_dictionary(atoms, Y, labels, step=0.0, max_iters=10)
        assert np.array_equal(out, atoms)
        assert state.converged
        assert len(state.trace) == 1

    def test_trace_strictly_increases_initially(self):
        atoms, Y, labels = two_class_instance(seed=2)
        _, state = update_dictionary(atoms, Y, labels, max_iters=8)
        trace = state.trace
        assert len(trace) >= 6
        assert all(b > a for a, b in zip(trace[:5], trace[1:6]))

    def test_trace_nondecreasing_with_backtracking(self):
        for seed in range(4):
            atoms, Y, labels = two_class_instance(seed=seed)
            _, state = update_dictionary(atoms, Y, labels, max_iters=25)
            assert all(b >= a for a, b in zip(state.trace, state.trace[1:]))

    def test_updated_atoms_unit_norm_and_recodable(self):
        atoms, Y, labels = two_class_instance(seed=3)
        out, state = update_dictionary(atoms, Y, labels, max_iters=10)
        np.testing.assert_allclose(np.linalg.norm(out, axis=0), 1.0, atol=1e-10)
        # the accepted transform reproduces the final objective value
        raw_atoms = pinv(state.transform.T)
        raw_codes = pinv(raw_atoms) @ Y
        from itdl.info_measures import qmi

        assert qmi(raw_codes, labels, KdeConfig(state.sigma)) == pytest.approx(
            state.trace[-1], rel=1e-8
        )
        # renormalization rescales code rows inversely: reconstruction intact
        codes = pinv(out) @ Y
        assert np.linalg.norm(out @ codes - raw_atoms @ raw_codes) < 1e-8

    def test_deterministic(self):
        atoms, Y, labels = two_class_instance(seed=4)
        out1, st1 = update_dictionary(atoms, Y, labels, max_iters=12)
        out2, st2 = update_dictionary(atoms, Y, labels, max_iters=12)
        np.testing.assert_array_equal(out1, out2)
        assert st1.trace == st2.trace
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

        cfg = KdeConfig(state.sigma)
        assert qmi(state.transform.T @ Y, labels, cfg) == state.trace[-1]

    def test_rank_deficient_transform_raises_named_error(self):
        # twin atoms give a rank-1 transform whose columns stay equal under
        # the ascent, so recovering two atoms from it must fail loudly
        atoms, Y, labels = two_class_instance(seed=2)
        twin = np.column_stack([atoms[:, 0], atoms[:, 0]])
        with pytest.raises(np.linalg.LinAlgError, match="rank 1 < 2"):
            update_dictionary(twin, Y, labels, max_iters=3)
        with pytest.raises(RuntimeError, match="class 1: coding transform has rank 1 < 2"):
            update_all_classes([(0, atoms), (1, twin)], Y, labels, shared=False, max_iters=3)

    def test_sigma_frozen_from_initial_codes(self):
        atoms, Y, labels = two_class_instance(seed=6)
        from itdl.info_measures import ascent_bandwidth

        want = ascent_bandwidth(pinv(atoms) @ Y)
        _, state = update_dictionary(atoms, Y, labels, max_iters=3)
        assert state.sigma == pytest.approx(want, rel=1e-12)


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
        results = update_all_classes([(None, atoms)], Y, labels, shared=True, max_iters=2)
        assert len(calls) == 1
        assert len(results) == 1
        assert results[0].codes.shape == (atoms.shape[1], Y.shape[1])

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
        sel = select_dedicated(d, ds.signals, ds.labels, 2, SelectionMode(variant="dedicated"))
        atom_sets = [(r.class_id, d.atoms[:, list(r.selection.indices)]) for r in sel]
        results = update_all_classes(atom_sets, ds.signals, ds.labels, shared=False, max_iters=2)
        assert len(calls) == 3
        for r in results:
            n_c = int((ds.labels == r.class_id).sum())
            assert r.codes.shape == (2, n_c)
            np.testing.assert_allclose(
                r.reconstruction, r.atoms @ r.codes, atol=1e-12
            )

    def test_shared_mode_needs_single_entry(self):
        atoms, Y, labels = two_class_instance(seed=9)
        with pytest.raises(ValueError):
            update_all_classes([(0, atoms), (1, atoms)], Y, labels, shared=True)

    def test_within_class_variance_fraction_drops(self):
        # the update concentrates each class's codes: the within-class share
        # of total code variance shrinks (scale-invariant reading of the
        # reduced intra-class variation)
        train, _ = split(shared_style_dataset(16, 4, 60, seed=0), 0.5, 77)
        d = ksvd_init(train.signals, 12, 2, 1, 123)
        sel = select_dedicated(d, train.signals, train.labels, 2, SelectionMode(variant="dedicated"))
        pre = [(r.class_id, d.atoms[:, list(r.selection.indices)]) for r in sel]
        post = update_all_classes(pre, train.signals, train.labels, shared=False, max_iters=30)

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
            update_all_classes([(0, atoms), (1, bad)], Y, labels, shared=False, max_iters=1)

    def test_report_shape(self):
        atoms, Y, labels = two_class_instance(seed=11)
        results = update_all_classes([(None, atoms)], Y, labels, shared=True, max_iters=3)
        rep = update_report(results)
        entry = rep["updates"][0]
        assert set(entry) == {
            "class", "sigma", "step", "iterations", "converged", "aborted",
            "objective_trace", "accepted_steps", "grad_norms",
        }
        assert len(entry["objective_trace"]) == len(entry["accepted_steps"]) + 1
