"""Print one SHA-256 for each of four outputs of the library, so that two
commits can be compared for byte-identical behaviour with one command each.

Usage: ``PYTHONPATH=src python tools/output_digest.py``.  Standard library
plus ``limid``; about 8 seconds and 350 MB on a 2-core VM, most of it the
``oracle`` digest.

The pools: the benchmark's hard pool, ``generate_diagram(12, 5, 3, 2, 3,
seed, decision_max_parents=2)`` for seeds 0-39, and its corpus recipe (as
``bench/workloads.py`` builds it) for seeds 0-199.

- ``solve``: ``solve_full``'s value, ``alpha``, ``m``, every policy table
  and every ``NodeStats``, bit for bit; the hard pool at epsilon 0.5 and
  the corpus at epsilon 0 and 0.5.
- ``cli``: exit code, stdout and stderr of ``solve --exact --stats``,
  ``solve --epsilon 0.5 --stats``, ``reduce`` and ``validate`` on every
  document, and of ``oracle`` on the corpus documents, plus
  ``serialize(parse(doc))``.  The ``oracle`` command is left out on the hard
  pool, which the ``oracle`` digest covers.
- ``validate``: ``validate_diagram``'s report on every diagram and on four
  seeded faulty variants of each: a NaN entry, a negative entry, an entry
  above 1, and every column of a table set within a few ulps of
  ``1 +- PROB_TOL``.
- ``oracle``: ``brute_force_meu``'s value and every policy table, bit for
  bit, on the hard pool, or its refusal message where a cap refuses the
  diagram; it enumerates up to 50 million joint assignments a diagram.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

import numpy as np

from limid import (InfluenceDiagram, InstanceTooLargeError, SolverConfig, brute_force_meu,
                   solve_full, validate_diagram)
from limid.cli import generate_diagram, main, parse, serialize
from limid.model import PROB_TOL

COMMANDS = (["solve", "--exact", "--stats"], ["solve", "--epsilon", "0.5", "--stats"],
            ["reduce"], ["validate"], ["oracle"])


def corpus_diagram(seed: int) -> InfluenceDiagram:
    """``bench/workloads.py``'s corpus recipe."""
    meta = np.random.default_rng([7, seed])
    n_chance = int(meta.integers(1, 6))
    n_decisions = int(meta.integers(0, 4))
    n_values = int(meta.integers(1, 3))
    return generate_diagram(n_chance, n_decisions, card=3, max_parents=2,
                            n_values=n_values, seed=seed, decision_max_parents=1)


def pools() -> list[tuple[str, InfluenceDiagram, tuple[float, ...]]]:
    """Every diagram, named, with the epsilons it is solved at."""
    hard = [(f"hard{seed}", generate_diagram(12, 5, 3, 2, 3, seed, decision_max_parents=2),
             (0.5,)) for seed in range(40)]
    corpus = [(f"corpus{seed}", corpus_diagram(seed), (0.0, 0.5)) for seed in range(200)]
    return hard + corpus


def update_policies(h, strategy) -> None:
    """Feed every policy table of ``strategy`` to ``h``, bit for bit."""
    for p in strategy.policies:
        h.update(repr((p.decision, p.parents, p.table.shape)).encode())
        h.update(p.table.tobytes())


def solve_digest(diagrams) -> str:
    h = hashlib.sha256()
    for name, d, epsilons in diagrams:
        for eps in epsilons:
            result = solve_full(d, SolverConfig(epsilon=eps))
            h.update(repr((name, eps, result.value, result.stats.alpha, result.stats.m)).encode())
            update_policies(h, result.strategy)
            h.update(repr(result.stats.nodes).encode())
    return h.hexdigest()


def run_cli(argv: list[str], text: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``limid`` reading ``text`` on stdin."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["-"])
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def cli_digest(diagrams) -> str:
    h = hashlib.sha256()
    for name, d, _ in diagrams:
        text = serialize(d)
        h.update(serialize(*parse(text)).encode())
        for argv in COMMANDS:
            if argv == ["oracle"] and name.startswith("hard"):
                continue
            h.update(repr((name, argv, run_cli(argv, text))).encode())
    return h.hexdigest()


def faulty(d: InfluenceDiagram, fault: str, rng: np.random.Generator) -> InfluenceDiagram:
    """``d`` with ``fault`` seeded into one to three of its CPTs."""
    chance = sorted(d.cpts)
    cpts = dict(d.cpts)
    for var in rng.choice(chance, size=min(len(chance), int(rng.integers(1, 4))), replace=False):
        table = np.array(d.cpts[var])
        columns = table.reshape(table.shape[0], -1)
        c = int(rng.integers(columns.shape[1]))
        if fault == "edge":
            for c in range(columns.shape[1]):
                ulps = int(rng.integers(-4, 5))
                columns[-1, c] = (1.0 + rng.choice([-1, 1]) * (PROB_TOL + ulps * 2.2e-16)
                                  - columns[:-1, c].sum())
        else:
            columns[int(rng.integers(table.shape[0])), c] = {
                "nan": np.nan, "negative": -0.25, "above": 1.25}[fault]
        cpts[str(var)] = columns.reshape(table.shape)
    return InfluenceDiagram(d.variables, d.arcs, cpts, d.rewards)


def validate_digest(diagrams) -> str:
    h = hashlib.sha256()
    for k, (name, d, _) in enumerate(diagrams):
        h.update(repr((name, validate_diagram(d))).encode())
        if not d.cpts:
            continue
        rng = np.random.default_rng([29, k])
        for fault in ("nan", "negative", "above", "edge"):
            h.update(repr((name, fault, validate_diagram(faulty(d, fault, rng)))).encode())
    return h.hexdigest()


def oracle_digest(diagrams) -> str:
    h = hashlib.sha256()
    for name, d, _ in diagrams:
        if not name.startswith("hard"):
            continue
        try:
            value, strategy = brute_force_meu(d)
        except InstanceTooLargeError as e:
            h.update(repr((name, str(e))).encode())
            continue
        h.update(repr((name, value)).encode())
        update_policies(h, strategy)
    return h.hexdigest()


def main_digest() -> int:
    diagrams = pools()
    print(f"solve     {solve_digest(diagrams)}")
    print(f"cli       {cli_digest(diagrams)}")
    print(f"validate  {validate_digest(diagrams)}")
    print(f"oracle    {oracle_digest(diagrams)}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
