import re
from pathlib import Path

import pytest

import limid

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_runs_and_matches_the_oracle():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    scope: dict = {}
    exec(compile(block, str(README), "exec"), scope)
    d, result = scope["d"], scope["result"]
    assert result.value == pytest.approx(limid.brute_force_meu(d)[0], abs=1e-12)
    assert result.value == pytest.approx(0.8, abs=1e-12)
