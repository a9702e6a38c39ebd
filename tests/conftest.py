import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # expose oracles.py to test modules

from frechet_means import (
    DiscreteMeasure,
    enumerate_space,
    frechet_solver,
    interval_grid,
    parse_graph,
)

# Canonical two-graph sample on 4 vertices: the path v1-v2-v3-v4 and the
# three-edge graph {v1v2, v3v4, v1v4}; Hamming distance 2 apart.
S1_TEXT = "4:100101"
S2_TEXT = "4:101001"
# Its order-1 mean set: the two samples plus {v1v2, v3v4} and the 4-cycle.
MEAN_SET_R1_TEXTS = ("4:100001", "4:101001", "4:100101", "4:101101")
MEAN_SET_R2_TEXTS = ("4:100001", "4:101101")

FIXTURE_DIR = Path(__file__).parent.parent / "src" / "frechet_means" / "fixtures"


@pytest.fixture(scope="session")
def cell_budget():
    """``cell_budget(cells)``: a context that sets the package's one cell
    budget (score tiles, the engine's count chunks and its draw blocks)."""
    return lambda cells: mock.patch.object(frechet_solver, "_CHUNK_CELLS", cells)


@pytest.fixture(scope="session")
def g4():
    return enumerate_space(4)


@pytest.fixture(scope="session")
def g5():
    return enumerate_space(5)


@pytest.fixture(scope="session")
def grid201():
    return interval_grid("-1", "1", "0.01")


@pytest.fixture(scope="session")
def s1():
    return parse_graph(S1_TEXT)


@pytest.fixture(scope="session")
def s2():
    return parse_graph(S2_TEXT)


@pytest.fixture(scope="session")
def mu_pm():
    """Half mass at -1, half at +1."""
    return DiscreteMeasure((Fraction(-1), Fraction(1)), (Fraction(1, 2), Fraction(1, 2)))


@pytest.fixture(scope="session")
def mu_pair(s1, s2):
    return DiscreteMeasure.uniform((s1, s2))
