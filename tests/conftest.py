import pytest

from kstensor import potential


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k): run the row blocks as on a host with k CPUs, each block but the first on a pool
    thread of its own, so that they run at once."""

    def use(blocks: int) -> None:
        monkeypatch.setattr(potential, "_BLOCKS", blocks)
        potential._pool.cache_clear()

    yield use
    potential._pool.cache_clear()
