"""Session fixtures shared by the acceptance tests and the cone-sweep
oracle: the p = 2 categories A2, A3 and D4 and every rigid set of each,
built once per session."""

import pytest

from trimodel import meshcat as mc
from trimodel import rigidmodel as rm
from trimodel.exactlin import PrimeField


@pytest.fixture(scope="session")
def cat_a2():
    return mc.build_type_a(2, PrimeField(2))


@pytest.fixture(scope="session")
def cat_a3():
    return mc.build_type_a(3, PrimeField(2))


@pytest.fixture(scope="session")
def cat_d4():
    return mc.build_dynkin(mc.dynkin_d4_subspace(), PrimeField(2))


@pytest.fixture(scope="session")
def rigids_a2(cat_a2):
    return {t: rm.build_rigid(cat_a2, t) for t in rm.all_rigid_subsets(cat_a2)}


@pytest.fixture(scope="session")
def rigids_a3(cat_a3):
    return {t: rm.build_rigid(cat_a3, t) for t in rm.all_rigid_subsets(cat_a3)}


@pytest.fixture(scope="session")
def rigids_d4(cat_d4):
    return {t: rm.build_rigid(cat_d4, t) for t in rm.all_rigid_subsets(cat_d4)}
