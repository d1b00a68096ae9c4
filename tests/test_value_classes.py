"""The frozen value classes that hold arrays compare and hash by identity.

Value equality over array fields has no single truth value (numpy raises on
``bool`` of a comparison of two arrays of more than one entry) and array
fields are unhashable, so these classes keep the object's own ``==`` and
``hash``: every instance is hashable, equal to itself and unequal to every
other instance, even one built from the same numbers.
"""

import numpy as np
import pytest

from alphapost.gaussians import GaussianDist, GridAxis, GridDensity
from alphapost.posteriors import ConjugatePrior, SufficientStats
from alphapost.regression import RegressionDGP
from alphapost.robustness import FiniteSampleInputs, MisspecScenario

VALUE_CLASSES = {
    "GaussianDist": lambda: GaussianDist([0.0, 1.0], [[2.0, 0.5], [0.5, 1.0]]),
    "GridDensity": lambda: GridDensity(GridAxis(-1.0, 1.0, 11), np.zeros(11)),
    "SufficientStats": lambda: SufficientStats(5, [[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]]),
    "ConjugatePrior": lambda: ConjugatePrior([0.0, 1.0], np.eye(2)),
    "RegressionDGP": lambda: RegressionDGP(
        theta0=[1.0, -1.0], gamma0=[1.0], sigma_eps=1.0, cov_ww=np.eye(2), cov_wz=[[0.5], [0.2]], cov_zz=[[1.0]]
    ),
    "MisspecScenario": lambda: MisspecScenario([1.0, -1.0], [1.0, -0.5], np.diag([2.0, 0.5]), np.eye(2), 1.0),
    "FiniteSampleInputs": lambda: FiniteSampleInputs([1.0, -1.0], [1.0, -0.5], 100, 0.01),
}


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_instances_hash_and_compare_by_identity(name):
    x, twin = VALUE_CLASSES[name](), VALUE_CLASSES[name]()
    assert type(x).__name__ == name
    assert hash(x) == hash(x)
    assert x == x
    assert not x != x
    assert x != twin
    assert len({x, twin}) == 2


def test_equal_p2_gaussians_are_distinct_without_raising():
    a = GaussianDist([0.0, 1.0], [[2.0, 0.5], [0.5, 1.0]])
    b = GaussianDist([0.0, 1.0], [[2.0, 0.5], [0.5, 1.0]])
    assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)
    assert (a == b) is False
    assert (a != b) is True
    assert len({a, b}) == 2
    assert {a: 1, b: 2}[a] == 1
