import numpy as np
import pytest

from acousticfd import AcousticParams, GridSpec


@pytest.fixture
def square_grid():
    return GridSpec(16, 16)


@pytest.fixture
def aniso_grid():
    return GridSpec(nx=12, ny=10, dx=0.05, dy=0.07)


@pytest.fixture
def params():
    return AcousticParams(c=2.0, eps=0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
