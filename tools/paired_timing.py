"""Time two checkouts of limid against each other in one process, round by
round, on one of the benchmark's pools.

Usage: ``python tools/paired_timing.py PARENT CHANGE {hard,corpus} [--rounds N]``,
PARENT and CHANGE being checkouts of this repository.  Standard library plus
numpy; the hard pool takes about 0.2 s a round on a 2-core VM, the corpus
pool about 0.8 s.

Each checkout's ``src/limid`` is copied into a temporary directory as the
package ``limid_a`` (PARENT) or ``limid_b`` (CHANGE).  The package imports
its own modules relatively, so both load side by side.  Each side builds its
own copy of the pool:

- ``hard``: the benchmark's hard-approx pool, ``generate_diagram(12, 5, 3, 2,
  3, seed, decision_max_parents=2)`` for seeds 0-39, solved by
  ``solve_full`` at epsilon 0.5;
- ``corpus``: its corpus-cli pool, the corpus recipe for seeds 0-199
  serialized, solved by ``cli.main(["solve", ..., "-"])`` exact and at
  epsilon 0.5.

One untimed pass of each side warms it up.  Then the collector is turned
off, and each round times one pass of each side, the two sides taking turns
to go first.  The tool prints each side's median time per solve, the median
change/parent ratio of the rounds with its quartiles, the rounds the change
won, and whether every value agreed bit for bit: ``solve_full``'s values,
or every byte the command line wrote.  Two single benchmark runs of one
tree can differ by several percent, so a claim of "no slowdown" is made on
these paired rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Callable

import numpy as np

HARD_SEEDS = 40
CORPUS_SEEDS = 200


def load(checkout: Path, name: str, into: Path) -> ModuleType:
    """``checkout``'s ``src/limid``, copied into ``into`` and imported as ``name``."""
    shutil.copytree(checkout / "src" / "limid", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    sys.path.insert(0, str(into))
    try:
        package = importlib.import_module(name)
        importlib.import_module(name + ".cli")
    finally:
        sys.path.remove(str(into))
    return package


def corpus_diagram(lib: ModuleType, seed: int):
    """``bench/workloads.py``'s corpus recipe, built by ``lib``."""
    meta = np.random.default_rng([7, seed])
    n_chance = int(meta.integers(1, 6))
    n_decisions = int(meta.integers(0, 4))
    n_values = int(meta.integers(1, 3))
    return lib.cli.generate_diagram(n_chance, n_decisions, card=3, max_parents=2,
                                    n_values=n_values, seed=seed, decision_max_parents=1)


def hard_pass(lib: ModuleType, count: int) -> Callable[[], list]:
    """One pass over the first ``count`` hard diagrams, returning their values."""
    diagrams = [lib.cli.generate_diagram(12, 5, 3, 2, 3, seed, decision_max_parents=2)
                for seed in range(count)]
    cfg = lib.SolverConfig(epsilon=0.5)
    return lambda: [lib.solve_full(d, cfg).value.hex() for d in diagrams]


def corpus_pass(lib: ModuleType, count: int) -> Callable[[], list]:
    """One pass over the first ``count`` corpus documents, exact and at
    epsilon 0.5, returning each exit code and everything written."""
    documents = [lib.cli.serialize(corpus_diagram(lib, seed)) for seed in range(count)]

    def run() -> list:
        outputs = []
        saved = sys.stdin
        try:
            for text in documents:
                for flag in (["--exact"], ["--epsilon", "0.5"]):
                    out, err = io.StringIO(), io.StringIO()
                    sys.stdin = io.StringIO(text)
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = lib.cli.main(["solve", *flag, "-"])
                    outputs.append((code, out.getvalue(), err.getvalue()))
        finally:
            sys.stdin = saved
        return outputs

    return run


POOLS = {"hard": (hard_pass, HARD_SEEDS, 1), "corpus": (corpus_pass, CORPUS_SEEDS, 2)}


def paired_timing(parent: Path, change: Path, pool: str, rounds: int,
                  count: int | None = None) -> dict:
    """Time ``rounds`` paired passes of ``parent`` and ``change`` over the
    first ``count`` instances of ``pool`` (all of them by default)."""
    make, size, per_instance = POOLS[pool]
    count = size if count is None else count
    with tempfile.TemporaryDirectory() as tmp:
        sides = [make(load(checkout, name, Path(tmp)), count)
                 for checkout, name in ((parent, "limid_a"), (change, "limid_b"))]
    warm = [run() for run in sides]
    seconds: list[list[float]] = [[], []]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for r in range(rounds):
            gc.collect()
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                t0 = perf_counter()
                sides[side]()
                seconds[side].append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    ratios = [b / a for a, b in zip(*seconds)]
    quartiles = statistics.quantiles(ratios, n=4) if rounds > 1 else ratios * 3
    solves = count * per_instance
    return {
        "pool": pool, "rounds": rounds, "solves": solves,
        "parent_ms": 1e3 * statistics.median(seconds[0]) / solves,
        "change_ms": 1e3 * statistics.median(seconds[1]) / solves,
        "ratio": statistics.median(ratios), "quartiles": (quartiles[0], quartiles[2]),
        "wins": sum(r < 1.0 for r in ratios), "identical": warm[0] == warm[1],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("pool", choices=sorted(POOLS))
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    got = paired_timing(args.parent, args.change, args.pool, args.rounds)
    print(f"pool {got['pool']}: {got['solves']} solves a pass, {got['rounds']} rounds")
    print(f"parent  {got['parent_ms']:.4f} ms a solve (median)")
    print(f"change  {got['change_ms']:.4f} ms a solve (median)")
    lo, hi = got["quartiles"]
    print(f"change/parent  {got['ratio']:.4f} median, quartiles {lo:.4f}-{hi:.4f}")
    print(f"change faster in {got['wins']} of {got['rounds']} rounds")
    print(f"values bit-identical: {'yes' if got['identical'] else 'NO'}")
    return 0 if got["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
