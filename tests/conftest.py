import numpy as np
import pytest

from sgdetect.grid_graph import build_grid_graph
from sgdetect.sparse_grid import Box, GridSpec, build_sparse_grid


@pytest.fixture(scope="session")
def grid2d():
    return build_sparse_grid(GridSpec(dim=2, rule="sum", level=6), Box.cube((0, 0), 2))


@pytest.fixture(scope="session")
def graph2d(grid2d):
    return build_grid_graph(grid2d)


@pytest.fixture(scope="session")
def grid4d():
    return build_sparse_grid(GridSpec(dim=4, rule="sum", level=8), Box.cube((0, 0, 0, 0), 2))


@pytest.fixture(scope="session")
def graph4d(grid4d):
    return build_grid_graph(grid4d)


@pytest.fixture(scope="session")
def tiny_grid():
    # 5-point plus-shaped grid, diameter 2: the smallest useful archetype host
    return build_sparse_grid(GridSpec(dim=2, rule="sum", level=3), Box.cube((0, 0), 2))


@pytest.fixture(scope="session")
def tiny_graph(tiny_grid):
    return build_grid_graph(tiny_grid)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def write_pgm():
    """A writer of raw (P5) graymaps from [0, 1] matrices, for ``read_pgm``
    round trips and ``image:`` targets."""

    def write(matrix, path, maxval=255):
        matrix = np.asarray(matrix, dtype=np.float64)
        scaled = np.rint(np.clip(matrix, 0.0, 1.0) * maxval).astype(np.uint8)
        with open(path, "wb") as fh:
            fh.write(f"P5\n{matrix.shape[1]} {matrix.shape[0]}\n{maxval}\n".encode())
            fh.write(scaled.tobytes())

    return write
