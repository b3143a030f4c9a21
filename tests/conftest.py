import pytest

from kstensor import potential
from kstensor.matrixflux import read_matrix


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k): run the row blocks as on a host with k CPUs, each block but the first on a pool
    thread of its own, so that they run at once. The step kernels' size floor is one cell, so
    that they cut even a 16^3 grid into k blocks."""

    def use(blocks: int) -> None:
        monkeypatch.setattr(potential, "_BLOCKS", blocks)
        monkeypatch.setattr(potential, "_MIN_BLOCK_CELLS", 1)
        potential._pool.cache_clear()

    yield use
    potential._pool.cache_clear()


@pytest.fixture
def no_matrix_message():
    """The one error text of a missing flux matrix, on the command line and in a config."""
    with pytest.raises(ValueError) as missing:
        read_matrix(None, None)
    return str(missing.value)
