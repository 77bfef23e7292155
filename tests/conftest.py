import pytest

from goodsign.reproduce import lift_base_signings


@pytest.fixture(scope="session")
def lift_pair():
    """The 4-vertex base graph and its two bundled signings."""
    return lift_base_signings()
