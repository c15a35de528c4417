import pytest

from matrixcp import engine


@pytest.fixture(autouse=True)
def empty_memo():
    """Each test starts with an empty process filter memo and token table,
    so a test that counts entries counts only its own."""
    engine.clear_memo()
