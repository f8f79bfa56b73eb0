import pytest
from hypothesis import settings

from problems import reference_problem, slice_exact_problem, transform_demo_problem
from thinpde.presets import rich_problem

# solver-backed property tests take milliseconds to a second per example,
# and wall-clock deadlines would make them flake on slow or busy hosts
settings.register_profile("thinpde", deadline=None)
settings.load_profile("thinpde")


@pytest.fixture(scope="session")
def reference():
    return reference_problem()


@pytest.fixture(scope="session")
def reference_c1():
    return reference_problem(c="1")


@pytest.fixture(scope="session")
def distorted():
    return reference_problem(gamma0="0.2*x1")


@pytest.fixture(scope="session")
def rich():
    return rich_problem()


@pytest.fixture(scope="session")
def slice_exact():
    return slice_exact_problem()


@pytest.fixture(scope="session")
def transform_demo():
    return transform_demo_problem()
