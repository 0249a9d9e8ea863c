import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

from arcplan import builtin_graph, builtin_scene  # noqa: E402
from arcplan.sceneio import load_expected  # noqa: E402


@pytest.fixture(scope="session")
def scene():
    return builtin_scene()


@pytest.fixture(scope="session")
def graph():
    return builtin_graph()


@pytest.fixture(scope="session")
def expected():
    return load_expected()
