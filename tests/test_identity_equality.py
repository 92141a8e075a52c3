"""Objects holding arrays compare and hash by identity.

A dataclass-generated ``==`` would compare array fields elementwise and
raise on truth-testing the result, and its ``__hash__`` would hash the
arrays; these classes use object identity instead.
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
