import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,  # a failing draw prints its @reproduce_failure line
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
