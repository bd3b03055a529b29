"""The benchmark's tracer (``bench/spans.py``) rebinds library names given as
strings, so a rename in the library breaks ``bench/run.py --trace 1`` with no
other test failing.  This checks every name it lists."""

import importlib.util
import sys
from pathlib import Path

import limid.cli
import limid.solver

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
