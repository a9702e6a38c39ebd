import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # expose oracles.py to test modules

from frechet_means import (
    DiscreteMeasure,
    enumerate_space,
    interval_grid,
    metric_core,
    parse_graph,
)
from frechet_means.graph_space import _Orbits

# Canonical two-graph sample on 4 vertices: the path v1-v2-v3-v4 and the
# three-edge graph {v1v2, v3v4, v1v4}; Hamming distance 2 apart.
S1_TEXT = "4:100101"
S2_TEXT = "4:101001"
# Its order-1 mean set: the two samples plus {v1v2, v3v4} and the 4-cycle.
MEAN_SET_R1_TEXTS = ("4:100001", "4:101001", "4:100101", "4:101101")
MEAN_SET_R2_TEXTS = ("4:100001", "4:101101")

FIXTURE_DIR = Path(__file__).parent.parent / "src" / "frechet_means" / "fixtures"
WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="session")
def cell_budget():
    """``cell_budget(cells)``: a context that sets the package's one cell
    budget, ``metric_core._CHUNK_CELLS`` (score tiles, the orbit scorer's
    groups of weight rows, the slot-swap cut, the engine's count chunks and
    its draw blocks, and distance, label and report blocks)."""
    return lambda cells: mock.patch.object(metric_core, "_CHUNK_CELLS", cells)


@pytest.fixture(scope="session")
def bench_inputs(tmp_path_factory):
    """A directory holding the seed-0 input files of the benchmark's
    ``mean-g7`` and ``simulate-g6`` workloads (``perfbench/workloads.py``)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    work = tmp_path_factory.mktemp("bench_inputs")
    for name in ("mean-g7", "simulate-g6"):
        workloads.WORKLOADS[name](work, 0)
    return work


@pytest.fixture(scope="session")
def g6_orbits(bench_inputs):
    """The slot-type orbits of the seed-0 ``simulate-g6`` support, in space order."""
    support = json.loads((bench_inputs / "g6.json").read_text(encoding="utf-8"))["support"]
    return _Orbits(enumerate_space(6), np.array(sorted(parse_graph(label).edges for label in support)))


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
