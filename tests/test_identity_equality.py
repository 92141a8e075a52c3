"""Objects holding arrays compare and hash by identity, and the records
own their arrays.

A dataclass-generated ``==`` would compare array fields elementwise and
raise on truth-testing the result, and its ``__hash__`` would hash the
arrays; these classes use object identity instead. The frozen records
keep a read-only private copy of every array they are given, so the
caller's arrays stay writable and editing them leaves the record as built.
"""

import numpy as np
import pytest

from itdl.classify import LinearModel
from itdl.dataset import Dataset
from itdl.info_measures import GpModel
from itdl.itdu import ClassUpdateResult, UpdateState
from itdl.sparse_coding import Dictionary

FACTORIES = {
    "Dataset": lambda: Dataset(np.ones((2, 3)), np.array([0, 1, 1])),
    "Dictionary": lambda: Dictionary(atoms=np.eye(3)),
    "GpModel": lambda: GpModel(cov=np.eye(3)),
    "LinearModel": lambda: LinearModel(weights=np.ones((2, 3)), bias=np.zeros(2)),
    "UpdateState": lambda: UpdateState(transform=np.eye(2), step=0.5),
    "ClassUpdateResult": lambda: ClassUpdateResult(
        None, np.eye(2), UpdateState(transform=np.eye(2), step=0.5)
    ),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_equality_and_hash_go_by_identity(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


# each record built from arrays that already have its dtype and layout,
# the case where a conversion alone would hand back the caller's arrays
RECORD_INPUTS = {
    "Dataset": (Dataset, {"signals": np.ones((2, 3)), "labels": np.array([0, 1, 1])}),
    "Dictionary": (Dictionary, {"atoms": np.eye(3)}),
    "GpModel": (GpModel, {"cov": 2.0 * np.eye(3)}),
    "LinearModel": (LinearModel, {"weights": np.ones((2, 3)), "bias": np.zeros(2)}),
}


@pytest.mark.parametrize("name", sorted(RECORD_INPUTS))
def test_records_own_their_arrays(name):
    cls, arrays = RECORD_INPUTS[name]
    record = cls(**arrays)
    for key, given in arrays.items():
        kept = getattr(record, key)
        assert not np.shares_memory(kept, given), key
        assert given.flags.writeable and not kept.flags.writeable, key
        before = kept.copy()
        given.flat[0] += 1
        np.testing.assert_array_equal(kept, before)
    if name == "GpModel":
        assert not record.prec.flags.writeable
        np.testing.assert_allclose(record.prec @ record.cov, np.eye(3), atol=1e-15)
