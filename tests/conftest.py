import numpy as np
import pytest

from emwavelets import SourceConfig

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    # the same examples on every run: no random seed, no replay of a local example database
    settings.register_profile("reproducible", derandomize=True, deadline=None, database=None)
    settings.load_profile("reproducible")


@pytest.fixture
def cfg():
    """Unit source along z with b = 1.5: the workhorse configuration."""
    return SourceConfig(a=np.array([0.0, 0.0, 1.0]), b=1.5)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
