"""``tools/paired_timing.py`` loads two copies of the package side by side and
times them in turns; timed against itself, a checkout agrees bit for bit."""

import importlib.util
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "paired_timing.py"


def test_a_checkout_timed_against_itself_agrees_bit_for_bit(monkeypatch):
    spec = importlib.util.spec_from_file_location("paired_timing", TOOL)
    tool = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tool)
    spec.loader.exec_module(tool)
    try:
        got = tool.paired_timing(ROOT, ROOT, "hard", rounds=3, count=3)
        # both copies are loaded under their own names, never as the package itself
        assert sys.modules["limid_a"].__file__ != sys.modules["limid_b"].__file__
    finally:
        for name in [k for k in sys.modules if k.split(".")[0] in ("limid_a", "limid_b")]:
            del sys.modules[name]
    assert got["identical"]
    assert got["solves"] == 3 and got["rounds"] == 3
    assert 0 <= got["wins"] <= 3
    lo, hi = got["quartiles"]
    assert all(math.isfinite(x) and x > 0 for x in (got["parent_ms"], got["change_ms"], lo, hi))
    assert lo <= got["ratio"] <= hi
