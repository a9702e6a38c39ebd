"""The package attributes that the benchmark's tracer (``perfbench/tracing.py``)
wraps and reads stay in place: its targets resolve, and a traced ``simulate``
and ``mean`` give the counts it derives from ``records`` and ``argmin``."""

import importlib.util
from pathlib import Path

import frechet_means.cli as cli
from conftest import FIXTURE_DIR

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_count(tmp_path):
    tracer = _tracing_module().Tracer()
    assert set(tracer.missing) <= {"metric_core.population_values"}
    tracer.install()
    try:
        assert cli.main(["simulate", str(FIXTURE_DIR / "g4_uniform_pair.json"), "--out", str(tmp_path)]) == 0
        assert cli.main(["mean", str(FIXTURE_DIR / "g4_pair.graphs"), "--out", str(tmp_path / "mean.txt")]) == 0
    finally:
        tracer.remove()
    assert tracer.counters["consistency_lab.checkpoints"] == 300  # 100 replications x 3 checkpoints
    assert tracer.counters["frechet_solver.argmin_points"] == 4  # the g4 pair's four tied graphs
    assert tracer.calls()["cli.main"] == 2
