import numpy as np
import pytest
from hypothesis import settings

from aglab.fields import exact_limit_field
from aglab.geometry import Ellipse, Grid, Stadium

# property tests draw the same examples on every run
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def ellipse():
    return Ellipse(1.0, 0.5)


@pytest.fixture(scope="session")
def stadium():
    return Stadium(2.0, 1.0)


@pytest.fixture(scope="session")
def grid64(ellipse):
    return Grid.cover(ellipse, h=1 / 64)


@pytest.fixture(scope="session")
def grid128(ellipse):
    return Grid.cover(ellipse, h=1 / 128)


@pytest.fixture(scope="session")
def limit64(ellipse, grid64):
    return exact_limit_field(grid64)


@pytest.fixture(scope="session")
def limit128(ellipse, grid128):
    return exact_limit_field(grid128)


@pytest.fixture(scope="session")
def boundary_samples(ellipse):
    """Dense boundary sampling used as the closest-point oracle."""
    t = np.linspace(0.0, 2 * np.pi, 1_000_000, endpoint=False)
    return np.stack([ellipse.a * np.cos(t), ellipse.b * np.sin(t)], axis=-1)
