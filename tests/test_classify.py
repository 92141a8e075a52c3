import json
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import loop_reconstruct_masked, random_unit_dictionary, shared_style_dataset
from itdl.classify import (
    EvalReport,
    LinearModel,
    code_test_signals,
    evaluate,
    predict,
    reconstruct_masked,
    train_linear,
)
from itdl.dataset import Dataset, mask_pixels, synth_gaussian_classes
from itdl.sparse_coding import Selection, code_ls, pinv, rmse


def _primal(F, labels, model, reg):
    """Objective and gradient of each class's problem at the model.

    Both are taken in the trainer's standardized coordinates, where the
    objective is reg/2 ||w||^2 + 1/N sum_i max(0, 1 - y_i (w.x_i + b))^2.
    """
    mu = F.mean(axis=0)
    sd = F.std(axis=0)
    sd = np.where(sd > 1e-12, sd, 1.0)
    X = (F - mu) / sd
    N = len(F)
    values, grads = [], []
    for c in range(len(model.bias)):
        y = np.where(labels == c, 1.0, -1.0)
        w = model.weights[c] * sd
        b = model.bias[c] + model.weights[c] @ mu
        slack = np.maximum(1.0 - y * (X @ w + b), 0.0)
        values.append(reg / 2 * (w @ w) + (slack @ slack) / N)
        grads.append(np.append(reg * w - 2 / N * X.T @ (y * slack), -2 / N * (y @ slack)))
    return np.array(values), np.array(grads)


@st.composite
def _problems(draw):
    """Small training sets, every class present, plus a reg in [1e-6, 10]."""
    N = draw(st.integers(4, 30))
    dim = draw(st.integers(1, 40))  # often more columns than rows
    p = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.concatenate([np.arange(p), rng.integers(0, p, N - p)])
    F = rng.standard_normal((N, dim))
    shape = draw(st.sampled_from(["gaussian", "constant column", "duplicate rows", "separable"]))
    if shape == "constant column":
        F[:, 0] = 3.0
    elif shape == "duplicate rows":
        F[N // 2 :] = F[: N - N // 2]
    elif shape == "separable":
        F[:, 0] += 10.0 * labels
    reg = 10.0 ** draw(st.floats(-6.0, 1.0))
    return F, labels, reg


class TestTrainLinear:
    def test_separable_two_class(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((30, 2)) + np.array([4.0, 0.0])
        b = rng.standard_normal((30, 2)) - np.array([4.0, 0.0])
        F = np.vstack([a, b])
        labels = np.array([0] * 30 + [1] * 30)
        model = train_linear(F, labels)
        assert (predict(model, F) == labels).mean() == 1.0

    def test_huge_regularization_collapses_to_most_frequent_class(self):
        rng = np.random.default_rng(1)
        F = rng.standard_normal((40, 3))
        labels = rng.integers(0, 3, 40)
        labels[:3] = [0, 1, 2]
        model = train_linear(F, labels, reg=1e9)
        assert np.abs(model.weights).max() <= 1e-6
        # with w -> 0 the unregularized bias minimizes the squared hinge of
        # the class sizes alone: b_c = (2 n_c - N) / N
        counts = np.bincount(labels)
        np.testing.assert_allclose(model.bias, (2 * counts - 40) / 40, rtol=0, atol=1e-6)
        # so the biggest class wins everywhere, ties going to the lowest index
        assert np.all(predict(model, F) == np.argmax(counts))

    def test_close_to_ridge_oracle_on_blobs(self):
        ds = synth_gaussian_classes(6, 4, 40, 0.25, 7)
        F = ds.signals.T
        labels = ds.labels
        model = train_linear(F, labels)
        acc = (predict(model, F) == labels).mean()
        # independent closed-form regularized least-squares classifier
        design = np.hstack([F, np.ones((F.shape[0], 1))])
        gram = design.T @ design + 1e-6 * np.eye(design.shape[1])
        coef = np.linalg.solve(gram, design.T @ np.eye(4)[labels])
        ridge_acc = (np.argmax(design @ coef, axis=1) == labels).mean()
        assert acc >= ridge_acc - 0.02

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_linear(np.ones((5, 2)), np.zeros(5, dtype=int))

    @pytest.mark.parametrize(
        "features, labels, message",
        [
            (np.ones((10, 2)), np.arange(12) % 3, "12 labels for 10 feature rows"),
            (np.ones((10, 2)), np.arange(8) % 2, "8 labels for 10 feature rows"),
            (np.ones(10), np.arange(10) % 2, r"features \(10,\)"),
            (np.ones((4, 2)), np.array([0, 1, -1, 1]), "negative label -1"),
            (np.array([[0.0, 1.0], [np.nan, 0.0], [1.0, 1.0]]), np.array([0, 1, 1]), "finite"),
            (np.ones((4, 2)), np.array([0, 2, 2, 0]), "class 1 has no training row"),
        ],
    )
    def test_bad_input_rejected(self, features, labels, message):
        with pytest.raises(ValueError, match=message):
            train_linear(features, labels)

    @pytest.mark.parametrize("reg", [0.0, -1.0])
    def test_non_positive_reg_rejected(self, reg):
        F = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="reg must be positive"):
            train_linear(F, np.array([0, 1, 1, 0]), reg=reg)

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_no_pass_rejected(self, epochs):
        F = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=f"epochs must be at least 1, got {epochs}"):
            train_linear(F, np.array([0, 1, 1, 0]), epochs=epochs)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        F = rng.standard_normal((25, 3))
        labels = rng.integers(0, 2, 25)
        labels[:2] = [0, 1]
        m1 = train_linear(F, labels)
        m2 = train_linear(F, labels)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        np.testing.assert_array_equal(m1.bias, m2.bias)

    @settings(max_examples=150, deadline=None)
    @given(_problems())
    def test_gradient_vanishes_at_the_returned_model(self, problem):
        F, labels, reg = problem
        _, grads = _primal(F, labels, train_linear(F, labels, reg=reg), reg)
        assert np.abs(grads).max() <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(_problems())
    def test_objective_never_increases_between_passes(self, problem):
        F, labels, reg = problem
        values = [_primal(F, labels, train_linear(F, labels, reg, epochs), reg)[0]
                  for epochs in range(1, 13)]
        for before, after in zip(values, values[1:]):
            assert np.all(after <= before * (1 + 1e-12) + 1e-15)

    def test_no_point_of_a_fine_grid_beats_the_model(self):
        rng = np.random.default_rng(6)
        F = np.vstack([rng.standard_normal((12, 2)) + 0.8, rng.standard_normal((12, 2)) - 0.8])
        labels = np.repeat([0, 1], 12)
        reg = 0.05
        model = train_linear(F, labels, reg)
        value = _primal(F, labels, model, reg)[0][0]
        X = (F - F.mean(axis=0)) / F.std(axis=0)
        y = np.where(labels == 0, 1.0, -1.0)
        axis = np.linspace(-2.0, 2.0, 81)
        w = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        grid_min = np.inf
        for b in axis:
            slack = np.maximum(1.0 - y[:, None] * (X @ w.T + b), 0.0)
            objective = reg / 2 * np.sum(w * w, axis=1) + np.sum(slack * slack, axis=0) / len(y)
            grid_min = min(grid_min, objective.min())
        assert value <= grid_min + 1e-12
        # the grid spacing of 0.05 bounds how far the grid can miss the optimum
        assert grid_min - value < 1e-2

    def test_line_search_past_every_margin(self):
        # on this separable set a line search ends where no margin is below
        # 1, so the next pass has no active row to fix the bias with
        F = np.array([[-0.3, -0.4], [2.7, 0.3], [3.3, 1.0], [3.9, 1.3]])
        labels = np.array([0, 1, 1, 1])
        model = train_linear(F, labels, reg=1e-5)
        assert np.abs(_primal(F, labels, model, 1e-5)[1]).max() <= 1e-9

    def test_one_pass_gives_a_finite_model(self):
        rng = np.random.default_rng(8)
        F = rng.standard_normal((20, 30))
        F[:, 0] += 10.0 * (np.arange(20) % 3)
        model = train_linear(F, np.arange(20) % 3, reg=1e-6, epochs=1)
        assert np.isfinite(model.weights).all() and np.isfinite(model.bias).all()


class TestLinearModel:
    @pytest.mark.parametrize(
        "weights, bias, message",
        [
            (np.ones(3), np.zeros(1), "weights must be (p, F) with a length-p bias"),
            (np.ones((2, 3)), np.zeros(3), "weights must be (p, F) with a length-p bias"),
            (np.full((2, 3), np.inf), np.zeros(2), "model parameters must be finite"),
            (np.ones((2, 3)), np.array([0.0, np.nan]), "model parameters must be finite"),
        ],
    )
    def test_bad_parameters_rejected(self, weights, bias, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            LinearModel(weights=weights, bias=bias)


class TestPredict:
    def test_tie_breaks_to_lowest_class(self):
        model = LinearModel(weights=np.zeros((3, 2)), bias=np.zeros(3))
        pred = predict(model, np.random.default_rng(0).standard_normal((5, 2)))
        assert np.all(pred == 0)

    def test_identity_weights_argmax_of_features(self):
        model = LinearModel(weights=np.eye(4), bias=np.zeros(4))
        x = np.array([[0.1, 3.0, -1.0, 2.0]])
        assert predict(model, x)[0] == 1

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        F = rng.standard_normal((10, 4))
        base = predict(LinearModel(weights=W, bias=b), F)
        perm = np.array([2, 0, 1])
        permuted = predict(LinearModel(weights=W[perm], bias=b[perm]), F)
        np.testing.assert_array_equal(permuted, np.argsort(perm)[base])

    def test_dimension_mismatch(self):
        model = LinearModel(weights=np.ones((2, 3)), bias=np.zeros(2))
        with pytest.raises(ValueError):
            predict(model, np.ones((4, 2)))


class TestBuildFeatures:
    """Classifier features from code_test_signals."""

    @staticmethod
    def _atom_sets(p, k):
        # class c owns the coordinate axes c*k .. c*k+k-1, so its codes of
        # a signal are that signal's entries on those axes
        eye = np.eye(p * k)
        return [(c, eye[:, c * k : (c + 1) * k]) for c in range(p)]

    def test_dedicated_concatenation_length(self):
        F, per_class = code_test_signals(self._atom_sets(2, 3), np.ones((6, 5)), shared=False)
        assert F.shape == (5, 6)
        assert [c for c, _, _ in per_class] == [0, 1]

    def test_shared_length(self):
        # shared mode codes with the first atom set only
        atom_sets = self._atom_sets(2, 3)
        Y = np.arange(30.0).reshape(6, 5)
        F, _ = code_test_signals(atom_sets, Y, shared=True)
        assert F.shape == (5, 3)
        np.testing.assert_allclose(F, Y[:3].T, atol=1e-12)

    def test_class_order_convention(self):
        Y = np.repeat([[1.0], [1.0], [2.0], [2.0], [3.0], [3.0]], 4, axis=1)
        F, _ = code_test_signals(self._atom_sets(3, 2), Y, shared=False)
        np.testing.assert_allclose(F[0], [1, 1, 2, 2, 3, 3], atol=1e-12)


def _perfect_setup(seed=0):
    # orthonormal atoms, class signals exactly in distinct spans
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    signals = np.hstack(
        [
            basis[:, :2] @ (rng.standard_normal((2, 10)) + np.array([[4.0], [0.0]])),
            basis[:, 2:4] @ (rng.standard_normal((2, 10)) + np.array([[4.0], [0.0]])),
        ]
    )
    labels = np.array([0] * 10 + [1] * 10)
    ds = Dataset(signals=signals, labels=labels)
    atom_sets = [(0, basis[:, :2]), (1, basis[:, 2:4])]
    return ds, atom_sets


class TestEvaluate:
    def test_perfectly_separated_train_equals_test(self):
        ds, atom_sets = _perfect_setup()
        features, _ = code_test_signals(atom_sets, ds.signals, shared=False)
        model = train_linear(features, ds.labels)
        report = evaluate(model, atom_sets, ds)
        assert report.accuracy == 1.0
        assert report.rmse == pytest.approx(0.0, abs=1e-10)
        assert report.bayes_bound >= 0.0

    def test_exact_reconstruction_zero_rmse(self):
        ds, atom_sets = _perfect_setup(seed=1)
        features = np.random.default_rng(0).standard_normal((20, 4))
        model = train_linear(features, ds.labels)
        report = evaluate(model, atom_sets, ds)
        assert report.rmse == pytest.approx(0.0, abs=1e-10)

    def test_sample_order_invariance(self):
        ds, atom_sets = _perfect_setup(seed=2)
        features, _ = code_test_signals(atom_sets, ds.signals, shared=False)
        model = train_linear(features, ds.labels)
        r1 = evaluate(model, atom_sets, ds)
        perm = np.random.default_rng(3).permutation(ds.size)
        shuffled = Dataset(signals=ds.signals[:, perm], labels=ds.labels[perm])
        r2 = evaluate(model, atom_sets, shuffled)
        assert r1.accuracy == r2.accuracy
        assert r1.rmse == pytest.approx(r2.rmse, rel=1e-12)
        assert r1.mi_estimate == pytest.approx(r2.mi_estimate, rel=1e-9)
        assert r1.per_class_accuracy == r2.per_class_accuracy

    def test_accuracy_is_count_weighted_mean(self):
        ds, atom_sets = _perfect_setup(seed=4)
        features = np.random.default_rng(1).standard_normal((20, 4))
        model = train_linear(features, ds.labels)
        report = evaluate(model, atom_sets, ds)
        recomputed = float(
            np.dot(ds.class_counts / ds.size, report.per_class_accuracy)
        )
        assert report.accuracy == pytest.approx(recomputed, abs=1e-12)

    def test_shared_set_reconstructs_every_signal(self):
        ds, atom_sets = _perfect_setup(seed=5)
        A = np.hstack([atom_sets[0][1], atom_sets[1][1][:, :1]])
        features, _ = code_test_signals([(None, A)], ds.signals, True)
        report = evaluate(train_linear(features, ds.labels), [(None, A)], ds)
        assert report.rmse == rmse(ds.signals, A @ pinv(A) @ ds.signals)

    def test_dedicated_class_without_atoms_rejected(self):
        ds, atom_sets = _perfect_setup(seed=6)
        features, _ = code_test_signals(atom_sets[:1], ds.signals, False)
        model = train_linear(features, ds.labels)
        with pytest.raises(ValueError, match="test class 1 has no atom set"):
            evaluate(model, atom_sets[:1], ds)

    def test_report_serialization(self):
        r = EvalReport(
            accuracy=0.5, rmse=0.1, mi_estimate=0.2, bayes_bound=0.3, per_class_accuracy=(1.0, 0.0)
        )
        d = asdict(r)
        assert list(d) == ["accuracy", "rmse", "mi_estimate", "bayes_bound", "per_class_accuracy"]
        assert json.dumps(d) == (
            '{"accuracy": 0.5, "rmse": 0.1, "mi_estimate": 0.2, "bayes_bound": 0.3, '
            '"per_class_accuracy": [1.0, 0.0]}'
        )


class TestReconstructMasked:
    def test_all_true_mask_matches_code_ls_bit_for_bit(self):
        ds, atom_sets = _perfect_setup(seed=5)
        mask = np.ones_like(ds.signals, dtype=bool)
        recon, pred = reconstruct_masked(atom_sets, ds, mask)
        # same least-squares path per class on the full signals
        from itdl.sparse_coding import Dictionary

        best = np.full(ds.size, np.inf)
        want = np.empty_like(ds.signals)
        for class_id, atoms in atom_sets:
            coeffs = pinv(atoms) @ ds.signals
            resid = np.sqrt(np.sum((ds.signals - atoms @ coeffs) ** 2, axis=0))
            better = resid < best
            best[better] = resid[better]
            want[:, better] = (atoms @ coeffs)[:, better]
        np.testing.assert_array_equal(recon, want)

    def test_in_span_signal_is_recovered(self):
        rng = np.random.default_rng(6)
        basis = np.linalg.qr(rng.standard_normal((20, 6)))[0]
        atom_sets = [(0, basis[:, :3]), (1, basis[:, 3:6])]
        y = basis[:, :3] @ rng.standard_normal((3, 4))
        ds = Dataset(
            signals=np.hstack([y, basis[:, 3:6] @ rng.standard_normal((3, 4))]),
            labels=np.array([0] * 4 + [1] * 4),
        )
        masked, mask = mask_pixels(ds, 0.3, 7)
        recon, pred = reconstruct_masked(atom_sets, masked, mask)
        np.testing.assert_array_equal(pred, ds.labels)
        # observed-entry residual for the true class is tiny
        np.testing.assert_allclose(recon, ds.signals, atol=1e-8)

    def test_matches_loop_oracle_on_repeated_and_uneven_patterns(self):
        rng = np.random.default_rng(9)
        n, N = 12, 40
        a, b = rng.standard_normal((n, 3)), rng.standard_normal((n, 4))
        # class 2 repeats class 0's atoms: its residuals tie and it never wins
        atom_sets = [(0, a), (1, b), (2, a.copy())]
        patterns = [rng.random(n) < f for f in (0.5, 0.5, 0.8, 1.0)]
        # pattern 1 is pattern 0 shifted: the same observed count on other
        # rows, shared by fewer columns
        patterns[1] = np.roll(patterns[0], 1)
        pick = np.array([0, 0, 0, 1, 2, 2, 3] * 5 + [0, 1, 2, 3, 3])
        mask = np.column_stack([patterns[i] for i in pick])
        mask[:, 5] = rng.random(n) < 0.6  # a pattern of its own
        mask[:, 6] = False  # nothing observed
        signals = np.where(mask, rng.standard_normal((n, N)), 0.0)
        labels = np.arange(N) % 3
        ds = Dataset(signals=signals, labels=labels)
        recon, pred = reconstruct_masked(atom_sets, ds, mask)
        want_recon, want_pred = loop_reconstruct_masked(atom_sets, signals, mask)
        np.testing.assert_array_equal(pred, want_pred)
        np.testing.assert_allclose(recon, want_recon, rtol=1e-12, atol=1e-12)
        assert 2 not in pred

    def test_mask_shape_checked(self):
        ds, atom_sets = _perfect_setup(seed=8)
        with pytest.raises(ValueError):
            reconstruct_masked(atom_sets, ds, np.ones((2, 2), dtype=bool))
