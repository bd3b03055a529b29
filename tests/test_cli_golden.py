"""CLI output pinned by hash: one SHA-256 per (document, command) pair.

The documents are ``small_random_diagram`` seeds 0-39, plus seeds 0-9 with
their built decomposition supplied (which exercises restricting a given
decomposition to the minimal diagram).  Each hash covers the exit code and
the parsed stdout with every float rounded to 12 significant digits, so a
change in floating-point summation order cannot flip it.

Rewrite ``tests/data/cli_golden.json`` only together with a stated change in
CLI output::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from limid.cli import main, serialize
from limid.treedecomp import build_decomposition

from conftest import small_random_diagram

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

COMMANDS = {
    "solve --exact --stats": ["solve", "--exact", "--stats"],
    "solve --epsilon 0.5 --stats": ["solve", "--epsilon", "0.5", "--stats"],
    "reduce": ["reduce"],
    "oracle": ["oracle"],
}


def documents() -> dict[str, str]:
    docs = {}
    for seed in range(40):
        d = small_random_diagram(seed)
        docs[f"seed{seed:02d}"] = serialize(d)
        if seed < 10:
            docs[f"seed{seed:02d}+decomposition"] = serialize(d, build_decomposition(d))
    return docs


def _rounded(x):
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, list):
        return [_rounded(y) for y in x]
    if isinstance(x, dict):
        return {k: _rounded(v) for k, v in x.items()}
    return x


def digests() -> dict[str, str]:
    """The hash of every (document, command) pair, keyed ``"<document> | <command>"``."""
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in documents().items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(text)
            for label, argv in COMMANDS.items():
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv + [str(path)])
                body = json.dumps({"exit": code, "out": _rounded(json.loads(out.getvalue()))},
                                  sort_keys=True)
                found[f"{name} | {label}"] = hashlib.sha256(body.encode()).hexdigest()
    return found


def test_cli_output_matches_the_golden_hashes():
    expected = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(expected)
    mismatched = [key for key in expected if got[key] != expected[key]]
    assert not mismatched, f"CLI output changed for {mismatched}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
