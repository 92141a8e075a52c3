"""Acceptance suite: one test per criterion, printed pass lines included.

Each test pins the tolerances it asserts; the randomized ones fix their
seeds so the suite is reproducible. Run with ``pytest -s`` to see the
per-criterion summary lines.
"""

import json
import math
import time
from itertools import combinations

import numpy as np
import pytest

from helpers import (
    gp_total_mi,
    kl_qd_check,
    planted_support_instance,
    qmi_quadrature,
    shared_style_dataset,
    somp,
)
from itdl.classify import code_test_signals, predict, reconstruct_masked, train_linear
from itdl.cli import main
from itdl.dataset import mask_pixels, save_csv, split, synth_gaussian_classes
from itdl.info_measures import (
    bayes_bound,
    build_gp_model,
    class_entropy,
    gp_compact_gains,
    mi_codes_labels,
    qmi,
    qmi_grad_codes,
)
from itdl.itds import SelectionWeights, select_dedicated, select_shared
from itdl.itdu import update_all_classes, update_dictionary
from itdl.sparse_coding import Selection, ksvd_init, pinv


def _random_labels(rng, n, p):
    labels = rng.integers(0, p, n)
    labels[:p] = np.arange(p)
    return labels


def test_criterion_1_gradient_matches_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    instances = 0
    while instances < 20:
        d = int(rng.integers(1, 4))
        n = int(rng.integers(6, 31))
        p = int(rng.integers(2, 5))
        labels = _random_labels(rng, n, p)
        codes = rng.standard_normal((d, n))
        sigma = float(rng.uniform(0.4, 1.2))
        grads = qmi_grad_codes(codes, labels, sigma)
        h = 1e-5
        for i in range(n):
            for k in range(d):
                cp, cm = codes.copy(), codes.copy()
                cp[k, i] += h
                cm[k, i] -= h
                fd = (qmi(cp, labels, sigma) - qmi(cm, labels, sigma)) / (2 * h)
                err = abs(grads[k, i] - fd) / max(abs(fd), 1e-12)
                worst = max(worst, err)
        # the ascent's transform gradient at five random coordinates
        dim = int(rng.integers(2, 5))
        Y = rng.standard_normal((dim, n))
        phi = rng.standard_normal((dim, d))
        grad_phi = Y @ qmi(phi.T @ Y, labels, sigma, grad=True)[1].T
        for _ in range(5):
            r, c = int(rng.integers(0, dim)), int(rng.integers(0, d))
            pp, pm = phi.copy(), phi.copy()
            pp[r, c] += h
            pm[r, c] -= h
            fd = (qmi(pp.T @ Y, labels, sigma) - qmi(pm.T @ Y, labels, sigma)) / (2 * h)
            err = abs(grad_phi[r, c] - fd) / max(abs(fd), 1e-12)
            worst = max(worst, err)
        instances += 1
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: gradients match finite differences on {instances} "
          f"instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_closed_form_matches_quadrature():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(6):
        n = int(rng.integers(4, 10))
        labels = _random_labels(rng, n, 2)
        codes = rng.standard_normal((1, n)) * 1.5
        sigma = float(rng.uniform(0.3, 0.8))
        got = qmi(codes, labels, sigma)
        want = qmi_quadrature(codes, labels, sigma)
        worst = max(worst, abs(got - want) / abs(want))
    for _ in range(3):
        n = int(rng.integers(4, 9))
        labels = _random_labels(rng, n, 2)
        codes = rng.standard_normal((2, n))
        sigma = float(rng.uniform(0.4, 0.8))
        got = qmi(codes, labels, sigma)
        want = qmi_quadrature(codes, labels, sigma, pad=8.0)
        worst = max(worst, abs(got - want) / abs(want))
    # single-class instances collapse exactly
    for _ in range(5):
        codes = rng.standard_normal((2, 8))
        assert qmi(codes, np.zeros(8, dtype=int), 0.5) == 0.0
    elapsed = time.perf_counter() - start
    assert worst < 1e-3
    assert elapsed < 30.0
    print(f"ACCEPTANCE 2 PASS: closed form within {worst:.2e} of quadrature "
          f"(1-d and 2-d), single-class exactly 0, {elapsed:.1f}s")


def test_criterion_3_greedy_near_optimality():
    start = time.perf_counter()
    worst_ratio = math.inf
    for seed in range(50):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(6, 11))
        atoms = rng.standard_normal((8, K))
        atoms /= np.linalg.norm(atoms, axis=0)
        model = build_gp_model(atoms)
        chosen = []
        for _ in range(3):
            cands = [k for k in range(K) if k not in chosen]
            gains = gp_compact_gains(model, Selection(indices=tuple(chosen)), cands)
            chosen.append(cands[int(np.argmax(gains))])
        greedy = gp_total_mi(model, chosen)
        best = max(gp_total_mi(model, list(s)) for s in combinations(range(K), 3))
        assert greedy >= (1 - 1 / math.e) * best
        if best > 0:
            worst_ratio = min(worst_ratio, greedy / best)
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    print(f"ACCEPTANCE 3 PASS: greedy/optimum >= {worst_ratio:.3f} "
          f"(bound {1 - 1 / math.e:.3f}) on 50 seeds, {elapsed:.1f}s")


def test_criterion_4_submodular_gain_sequences():
    worst_violation = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        K = int(rng.integers(6, 12))
        atoms = rng.standard_normal((int(rng.integers(4, 10)), K))
        atoms /= np.linalg.norm(atoms, axis=0)
        model = build_gp_model(atoms)
        chosen, accepted = [], []
        for _ in range(K - 2):
            cands = [k for k in range(K) if k not in chosen]
            gains = gp_compact_gains(model, Selection(indices=tuple(chosen)), cands)
            j = int(np.argmax(gains))
            accepted.append(float(gains[j]))
            chosen.append(cands[j])
        for a, b in zip(accepted, accepted[1:]):
            worst_violation = max(worst_violation, b - a)
        assert all(b <= a + 1e-9 for a, b in zip(accepted, accepted[1:]))
    print(f"ACCEPTANCE 4 PASS: accepted compactness gains non-increasing on 100 "
          f"dictionaries (max violation {worst_violation:.1e})")


def test_criterion_5_reconstruction_selection_tracks_somp():
    matches = 0
    for seed in range(50):
        d, Y, _ = planted_support_instance(seed, n=16, K=32, T=4, nsig=6, noise=0.05)
        labels = np.zeros(Y.shape[1], dtype=int)
        labels[: Y.shape[1] // 2] = 1
        mode = frozenset({"reconstructive"})
        res = select_shared(d, Y, labels, 4, mode, SelectionWeights(lambda3=1.0))
        baseline, _ = somp(d, Y, 4)
        matches += set(res.selection.indices) == set(baseline.indices)
    assert matches >= 45
    print(f"ACCEPTANCE 5 PASS: reconstruction-only support equals SOMP on "
          f"{matches}/50 jointly sparse instances")


def test_criterion_6_ascent_monotone_and_fixed_point():
    for seed in range(6):
        ds = synth_gaussian_classes(8, 2, 12, 0.4, seed)
        d0 = ksvd_init(ds.signals, 6, 2, 1, seed)
        atoms = d0.atoms[:, :2].copy()
        _, state = update_dictionary(atoms, ds.signals, ds.labels, max_iters=25)
        assert all(b >= a for a, b in zip(state.objective_trace, state.objective_trace[1:]))
    for seed in range(3):
        ds = shared_style_dataset(12, 3, 15, seed)
        d0 = ksvd_init(ds.signals, 8, 2, 1, seed)
        atoms = d0.atoms[:, :2].copy()
        _, state = update_dictionary(atoms, ds.signals, ds.labels, max_iters=25)
        assert all(b >= a for a, b in zip(state.objective_trace, state.objective_trace[1:]))
    # a stationary point leaves every artifact bitwise unchanged: with one
    # class the gradient is exactly zero, so a positive step moves nothing
    # (a zero step is rejected as a parameter error)
    ds = synth_gaussian_classes(8, 2, 12, 0.4, 3)
    d0 = ksvd_init(ds.signals, 6, 2, 1, 3)
    atoms = d0.atoms[:, :2].copy()
    before_codes = pinv(atoms) @ ds.signals
    one_class = np.zeros_like(ds.labels)
    out, state = update_dictionary(atoms, ds.signals, one_class, step=0.5, max_iters=9)
    assert np.array_equal(out, atoms)
    assert np.array_equal(pinv(out) @ ds.signals, before_codes)
    assert state.converged and len(state.objective_trace) == 1
    with pytest.raises(ValueError, match="step must be finite and positive"):
        update_dictionary(atoms, ds.signals, ds.labels, step=0.0, max_iters=9)
    print("ACCEPTANCE 6 PASS: backtracking traces non-decreasing on 9 runs; "
          "zero-gradient run is a bitwise fixed point")


def test_criterion_7_update_improves_dedicated_accuracy():
    start = time.perf_counter()
    pre_accs, post_accs = [], []
    for seed in range(10):
        ds = synth_gaussian_classes(16, 4, 60, 0.6, seed)
        train, test = split(ds, 0.5, seed + 77)
        d0 = ksvd_init(train.signals, 10, 2, 1, seed + 123)
        res = select_dedicated(d0, train.signals, train.labels, 2)
        pre_atoms = [(r.class_id, d0.atoms[:, list(r.selection.indices)]) for r in res]
        upd = update_all_classes(
            pre_atoms, train.signals, train.labels, max_iters=30
        )
        post_atoms = [(r.class_id, r.atoms) for r in upd]

        def accuracy(atom_sets):
            ftr, _ = code_test_signals(atom_sets, train.signals, shared=False)
            fte, _ = code_test_signals(atom_sets, test.signals, shared=False)
            model = train_linear(ftr, train.labels)
            return float((predict(model, fte) == test.labels).mean())

        pre_accs.append(accuracy(pre_atoms))
        post_accs.append(accuracy(post_atoms))
    elapsed = time.perf_counter() - start
    med_pre = float(np.median(pre_accs))
    med_post = float(np.median(post_accs))
    assert med_post > med_pre
    assert med_post - med_pre >= 0.05
    assert elapsed < 120.0
    print(f"ACCEPTANCE 7 PASS: dedicated update lifts median test accuracy "
          f"{med_pre:.3f} -> {med_post:.3f} (+{100 * (med_post - med_pre):.1f} points) "
          f"over 10 seeds, {elapsed:.0f}s")


def test_criterion_8_kl_dominates_half_quadratic():
    rng = np.random.default_rng(808)
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        p = rng.random(k) + 1e-3
        q = rng.random(k) + 1e-3
        p /= p.sum()
        q /= q.sum()
        kl, qd = kl_qd_check(p, q)
        assert kl >= 0.5 * qd - 1e-12
    print("ACCEPTANCE 8 PASS: KL >= QD/2 on 1000 random distribution pairs")


def test_criterion_9_bayes_bound_sanity():
    rng = np.random.default_rng(909)
    n_half = 100
    codes = np.hstack(
        [
            rng.standard_normal((2, n_half)) * 0.5 + np.array([[10.0], [0.0]]),
            rng.standard_normal((2, n_half)) * 0.5 - np.array([[10.0], [0.0]]),
        ]
    )
    labels = np.array([0] * n_half + [1] * n_half)
    sigma = 1.0
    h_c = class_entropy(labels)
    separated = bayes_bound(h_c, mi_codes_labels(codes, labels, sigma))
    shuffled_labels = rng.permutation(labels)
    shuffled = bayes_bound(h_c, mi_codes_labels(codes, shuffled_labels, sigma))
    assert separated <= 0.05
    assert shuffled >= 0.9 * 0.5 * h_c
    print(f"ACCEPTANCE 9 PASS: Bayes bound {separated:.4f} nats on separated codes, "
          f"{shuffled:.4f} >= {0.9 * 0.5 * h_c:.4f} after label shuffling")


def test_criterion_10_masked_reconstruction_trend():
    wins = 0
    deltas = []
    for seed in range(10):
        ds = shared_style_dataset(16, 4, 60, seed)
        train, test = split(ds, 0.5, seed + 77)
        d0 = ksvd_init(train.signals, 12, 2, 1, seed + 123)
        res = select_dedicated(d0, train.signals, train.labels, 2)
        pre_atoms = [(r.class_id, d0.atoms[:, list(r.selection.indices)]) for r in res]
        upd = update_all_classes(
            pre_atoms, train.signals, train.labels, max_iters=30
        )
        post_atoms = [(r.class_id, r.atoms) for r in upd]
        masked, mask = mask_pixels(test, 0.6, seed + 999)
        _, pred_pre = reconstruct_masked(pre_atoms, masked, mask)
        _, pred_post = reconstruct_masked(post_atoms, masked, mask)
        acc_pre = float((pred_pre == test.labels).mean())
        acc_post = float((pred_post == test.labels).mean())
        wins += acc_post >= acc_pre
        deltas.append(acc_post - acc_pre)
    assert wins >= 8
    print(f"ACCEPTANCE 10 PASS: 60%-masked classification improves or ties in "
          f"{wins}/10 seeds (median delta {100 * float(np.median(deltas)):+.1f} points)")


def test_criterion_11_run_all_byte_identical(tmp_path):
    ds = shared_style_dataset(12, 3, 20, 5)
    train, test = split(ds, 0.5, 6)
    save_csv(train, tmp_path / "train.csv")
    save_csv(test, tmp_path / "test.csv")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("mode=dedicated\natoms=10\nsparsity=2\nksvd_iters=1\niters=5\nseed=3\n")
    args = [
        "run-all", "--config", str(cfg), "--train", str(tmp_path / "train.csv"),
        "--test", str(tmp_path / "test.csv"),
    ]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    b1 = (tmp_path / "r1" / "eval_report.json").read_bytes()
    b2 = (tmp_path / "r2" / "eval_report.json").read_bytes()
    assert b1 == b2
    accuracy = json.loads(b1)["accuracy"]
    print(f"ACCEPTANCE 11 PASS: repeated run-all reports byte-identical "
          f"(accuracy {accuracy:.3f})")
