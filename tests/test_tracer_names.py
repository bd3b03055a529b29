"""The benchmark's tracer (``bench/spans.py``) rebinds library names given as
strings, so a rename in the library breaks ``bench/run.py --trace 1`` with no
other test failing.  This checks every name it lists, and that a traced solve
records a span under each name the pipeline calls and finite layer metrics."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

import limid.cli
import limid.solver
from limid.cli import generate_diagram, serialize
from limid.solver import SolverConfig

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_exists_in_the_library(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    for module, names in ((limid.solver, spans.SOLVER_NAMES), (limid.cli, spans.CLI_NAMES)):
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"{module.__name__} lacks {missing}"


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_records_a_span_and_every_metric_is_finite(spans, capsys, tmp_path):
    d = generate_diagram(12, 5, 3, 2, 3, 0, decision_max_parents=2)
    path = tmp_path / "hard.json"
    path.write_text(serialize(d))
    tracer = spans.Tracer()
    with tracer.installed():
        limid.solver.solve_full(d, SolverConfig(epsilon=0.5))
        assert limid.cli.main(["solve", "--epsilon", "0.5", str(path)]) == 0
    capsys.readouterr()
    recorded = {s.name for s in tracer.spans}
    expected = {f"solver.{name}" for name in spans.SOLVER_NAMES}
    expected |= {f"cli.{name}" for name in spans.CLI_NAMES}
    # solve sums out inside combine_sets, so the sum_out_set shim is never called
    assert recorded == expected - {"solver.sum_out_set"}
    metrics = spans.layer_metrics(tracer.spans)
    assert len(metrics) == 19
    assert all(math.isfinite(value) for value, _ in metrics.values())
