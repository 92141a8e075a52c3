"""One matrix rule, dataset.float_matrix, for every exported function that
takes signals or atoms: a matrix that is not 2-d, has no row or no
column, holds nan or inf, or has another row count than the atoms or
signals it meets all raise its ValueError, naming signals or atoms,
whichever function they reach."""

import re

import numpy as np
import pytest

from itdl import itdu
from itdl.classify import code_test_signals, reconstruct_masked
from itdl.dataset import Dataset, float_matrix, synth_gaussian_classes
from itdl.info_measures import build_gp_model, recon_gain
from itdl.itds import select_dedicated, select_shared
from itdl.itdu import update_all_classes, update_dictionary
from itdl.sparse_coding import Dictionary, Selection, ksvd_init, omp_codes

DS = synth_gaussian_classes(6, 3, 4, 0.3, 5)
D = ksvd_init(DS.signals, 8, 2, 1, 6)
A = D.atoms[:, :2]
MASK = np.ones(DS.signals.shape, dtype=bool)

# name -> (call with the matrix, the valid matrix it is made from, what the
# message calls it, whether its row count is checked against another matrix)
CALLERS = {
    "Dataset": (lambda Y: Dataset(Y, DS.labels), DS.signals, "signals", False),
    "ksvd_init": (lambda Y: ksvd_init(Y, 8, 2, 1, 6), DS.signals, "signals", False),
    "omp_codes": (lambda Y: omp_codes(D, Y, 2), DS.signals, "signals", True),
    "recon_gain": (
        lambda Y: recon_gain(D, Selection(indices=(0,)), [1, 2], Y), DS.signals, "signals", True
    ),
    "select_shared": (lambda Y: select_shared(D, Y, DS.labels, 2), DS.signals, "signals", True),
    "select_shared(reconstructive)": (
        lambda Y: select_shared(D, Y, DS.labels, 2, {"reconstructive"}, weights=None),
        DS.signals, "signals", True,
    ),
    "select_dedicated": (
        lambda Y: select_dedicated(D, Y, DS.labels, 2), DS.signals, "signals", True
    ),
    # the signals set the row count that the atoms must match
    "update_dictionary(signals)": (
        lambda Y: update_dictionary(A, Y, DS.labels, max_iters=1), DS.signals, "signals", False
    ),
    "update_all_classes(signals)": (
        lambda Y: update_all_classes([(None, A)], Y, DS.labels, max_iters=1),
        DS.signals, "signals", False,
    ),
    "code_test_signals(signals)": (
        lambda Y: code_test_signals([(0, A)], Y, False), DS.signals, "signals", False
    ),
    "Dictionary": (lambda M: Dictionary(atoms=M), D.atoms, "atoms", False),
    "build_gp_model": (build_gp_model, D.atoms, "atoms", False),
    "update_dictionary(atoms)": (
        lambda M: update_dictionary(M, DS.signals, DS.labels, max_iters=1), A, "atoms", True
    ),
    "update_all_classes(atoms)": (
        lambda M: update_all_classes([(0, A), (2, M)], DS.signals, DS.labels, max_iters=1),
        A, "atoms of class 2", True,
    ),
    "code_test_signals(atoms)": (
        lambda M: code_test_signals([(0, A), (2, M)], DS.signals, False),
        A, "atoms of class 2", True,
    ),
    "reconstruct_masked": (
        lambda M: reconstruct_masked([(0, A), (2, M)], DS, MASK), A, "atoms of class 2", True
    ),
}


def _with(value):
    def edit(m):
        out = m.copy()
        out[1] = value  # in every column, so also in every atom ksvd_init draws
        return out

    return edit


# case -> (malformed matrix from a valid one, message given what the matrix is called)
SHAPE = "{} must be a 2-d matrix with at least one row, got shape "
BAD = {
    "1-d": (lambda m: m[:, 0], lambda what, m: SHAPE.format(what) + f"({m.shape[0]},)"),
    "3-d": (lambda m: m[None], lambda what, m: SHAPE.format(what) + f"(1, {m.shape[0]}, {m.shape[1]})"),
    "no-column": (
        lambda m: m[:, :0],
        lambda what, m: f"no {what}: the {what.split()[0][:-1]} matrix has 0 columns",
    ),
    "no-row": (lambda m: m[:0], lambda what, m: SHAPE.format(what) + f"(0, {m.shape[1]})"),
    "nan": (_with(np.nan), lambda what, m: f"{what} must be finite (they hold nan or inf)"),
    "inf": (_with(-np.inf), lambda what, m: f"{what} must be finite (they hold nan or inf)"),
    "wrong-rows": (
        lambda m: m[:-1],
        lambda what, m: f"{what} must have {m.shape[0]} rows, got shape ({m.shape[0] - 1}, {m.shape[1]})",
    ),
}


@pytest.mark.parametrize(
    "caller, case",
    [(c, case) for c in CALLERS for case in BAD if case != "wrong-rows" or CALLERS[c][3]],
)
def test_every_matrix_taker_raises_the_one_rule(caller, case):
    call, valid, what, _ = CALLERS[caller]
    malformed, message = BAD[case]
    with pytest.raises(ValueError, match="^" + re.escape(message(what, valid)) + "$"):
        call(malformed(valid))


def test_every_atom_set_is_checked_before_the_first_ascent(monkeypatch):
    ascents = []
    monkeypatch.setattr(itdu, "update_dictionary", lambda *a, **k: ascents.append(a))
    bad = A.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match=r"^atoms of class 2 must be finite \(they hold nan or inf\)$"):
        update_all_classes([(0, A), (1, A), (2, bad)], DS.signals, DS.labels)
    assert ascents == []


class TestFloatMatrix:
    def test_a_float64_matrix_is_returned_as_is(self):
        assert float_matrix(A, "atoms") is A

    def test_numbers_of_any_dtype_become_float64(self):
        for values in ([[1, 2], [3, 4]], np.eye(2, dtype=np.float32), np.eye(2, dtype=bool)):
            out = float_matrix(values, "signals", 2)
            assert out.dtype == np.float64
            np.testing.assert_array_equal(out, np.asarray(values, dtype=np.float64))

    @pytest.mark.parametrize(
        "values, dtype",
        [([["1", "2"]], "<U1"), ([[1.0, None]], "object"), ([[1 + 2j]], "complex128")],
        ids=["strings", "none", "complex"],
    )
    def test_non_numbers_are_rejected_by_name(self, values, dtype):
        with pytest.raises(ValueError, match=f"^signals must be numbers, got dtype {dtype}$"):
            float_matrix(values, "signals")
