import pytest

from duropoly import MarketParams, compute_cutoffs

# exact roots of the first two affine indifference equations for (1, 2, 0.8)
MU2_08 = 7.0 / 9.0
MU3_08 = 181.0 / 197.0


@pytest.fixture(scope="session")
def p08():
    return MarketParams(1.0, 2.0, 0.8)


@pytest.fixture(scope="session")
def table08(p08):
    return compute_cutoffs(p08)


@pytest.fixture(scope="session")
def p095():
    return MarketParams(1.0, 2.0, 0.95)


@pytest.fixture(scope="session")
def table095(p095):
    return compute_cutoffs(p095)


@pytest.fixture(scope="session")
def pdeg():
    return MarketParams(0.0, 1.0, 0.9)


@pytest.fixture(scope="session")
def tabledeg(pdeg):
    return compute_cutoffs(pdeg)
