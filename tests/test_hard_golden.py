"""Approximate solves of the benchmark's hard pool pinned by one hash.

The pool is ``generate_diagram(12, 5, 3, 2, 3, seed, decision_max_parents=2)``
for seeds 0-39, solved by ``solve_full`` at epsilon 0.5.  The hash covers,
per seed, the ``repr`` of the value, every policy table of the strategy,
and each node's ``(product_size, c_size)``.  Values enter bit for bit, so a
change in the order of any sum or product flips the hash; so does a change
in which members covering keeps.

A second hash pins the single-value rewrite of the same pool bit for bit:
per seed, ``shape_and_reduce(minimal_diagram(d)[0])``'s every CPT and its
reward (name, shape and bytes), and the widened decomposition's clusters,
edges and root.

Rewrite ``tests/data/hard_golden.json`` only together with a stated change in
solver output::

    PYTHONPATH=src python tests/test_hard_golden.py
"""

import hashlib
import json
from pathlib import Path

from limid import SolverConfig, solve_full
from limid.cli import generate_diagram
from limid.reduction import minimal_diagram
from limid.solver import shape_and_reduce

GOLDEN = Path(__file__).resolve().parent / "data" / "hard_golden.json"
SEEDS = range(40)
EPSILON = 0.5


def pool():
    return (generate_diagram(12, 5, 3, 2, 3, seed, decision_max_parents=2) for seed in SEEDS)


def digest() -> str:
    h = hashlib.sha256()
    for d in pool():
        result = solve_full(d, SolverConfig(epsilon=EPSILON))
        h.update(repr(result.value).encode())
        for p in result.strategy.policies:
            h.update(repr((p.decision, p.table.tolist())).encode())
        h.update(repr([(n.product_size, n.c_size) for n in result.stats.nodes]).encode())
    return h.hexdigest()


def rewrite_digest() -> str:
    h = hashlib.sha256()
    for d in pool():
        reduced = shape_and_reduce(minimal_diagram(d)[0])
        tables = sorted(reduced.diagram.cpts.items()) + sorted(reduced.diagram.rewards.items())
        for name, table in tables:
            h.update(repr((name, table.shape)).encode())
            h.update(table.tobytes())
        t = reduced.decomposition
        h.update(repr((t.clusters, t.edges, t.root)).encode())
    return h.hexdigest()


def test_hard_pool_solves_match_the_golden_hash():
    assert digest() == json.loads(GOLDEN.read_text())["sha256"]


def test_hard_pool_rewrites_match_the_golden_hash():
    assert rewrite_digest() == json.loads(GOLDEN.read_text())["rewrite_sha256"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"sha256": digest(), "rewrite_sha256": rewrite_digest()},
                                 indent=2) + "\n")
