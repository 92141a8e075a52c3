"""Selection and update do not depend on the order of the signal columns
or on the names of the classes: with the initial dictionary fixed,
permuting the signals (with their labels) and relabeling the classes by
a permutation pi leaves every shared selection as it was, moves class c's
dedicated selection to class pi(c), and leaves the updated atoms within
rounding."""

import numpy as np
import pytest

from itdl.dataset import synth_gaussian_classes
from itdl.itds import select_dedicated, select_shared
from itdl.itdu import update_all_classes
from itdl.sparse_coding import ksvd_init

N_DIM, P, K, T = 32, 8, 64, 4


@pytest.mark.parametrize("seed", [1001, 1002, 1003])
def test_signal_order_and_class_names_change_nothing(seed):
    ds = synth_gaussian_classes(N_DIM, P, 16, 0.5, seed)
    d = ksvd_init(ds.signals, K, T, 5, seed)
    rng = np.random.default_rng(seed)
    order, pi = rng.permutation(ds.size), rng.permutation(P)
    Y, labels = ds.signals[:, order], pi[ds.labels[order]]

    shared = select_shared(d, ds.signals, ds.labels, T)
    assert select_shared(d, Y, labels, T).selection == shared.selection
    dedicated = select_dedicated(d, ds.signals, ds.labels, T)
    moved = select_dedicated(d, Y, labels, T)
    for c in range(P):
        assert moved[pi[c]].selection == dedicated[c].selection

    sets = [(None, shared.selection)] + [(c, r.selection) for c, r in enumerate(dedicated)]
    atoms = [(c, d.atoms[:, list(sel.indices)]) for c, sel in sets]
    renamed = [(None if c is None else int(pi[c]), a) for c, a in atoms]
    before = update_all_classes(atoms, ds.signals, ds.labels, max_iters=20)
    after = update_all_classes(renamed, Y, labels, max_iters=20)
    for b, a in zip(before, after):
        assert a.state.iterations == b.state.iterations
        np.testing.assert_allclose(a.atoms, b.atoms, rtol=0, atol=1e-12)
