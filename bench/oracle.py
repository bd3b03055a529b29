"""Correctness gate of the benchmark, independent of limid's propagation.

* :func:`einsum_value` evaluates a strategy's expected utility straight
  from the diagram's tables: one ``np.einsum`` contraction of every CPT and
  policy table with each reward table.
* :class:`References` holds brute-force MEUs from ``limid.brute_force_meu``,
  keyed by the SHA-256 of the canonical document, so a cached value can only
  ever be used for the exact diagram it was computed from.

Run ``python3 bench/oracle.py`` from the repository root to rebuild the
cached references of the ``mid-exact`` pool.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

import numpy as np

#: absolute tolerance on every value comparison
TOL = 1e-9

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def einsum_value(d, policies: dict[str, tuple[tuple[str, ...], np.ndarray]]) -> float:
    """Expected utility of the strategy ``policies`` on diagram ``d``.

    ``policies`` maps each decision to its parents and a table of shape
    ``(card, *parent cards)``, the layout limid uses for CPTs as well.
    """
    ids = {v: i for i, v in enumerate(sorted(d.chance_ids + d.decision_ids))}
    factors: list[Any] = []
    for var in d.chance_ids:
        factors += [np.asarray(d.cpt(var)), [ids[var]] + [ids[p] for p in d.parents(var)]]
    for dec in d.decision_ids:
        parents, table = policies[dec]
        factors += [np.asarray(table), [ids[dec]] + [ids[p] for p in parents]]
    total = 0.0
    for var in d.value_ids:
        reward = [np.asarray(d.reward(var)), [ids[p] for p in d.parents(var)]]
        total += float(np.einsum(*factors, *reward, [], optimize="greedy"))
    return total


def strategy_tables(strategy) -> dict[str, tuple[tuple[str, ...], np.ndarray]]:
    """Policies of a library ``Strategy`` in the form :func:`einsum_value` takes."""
    return {p.decision: (tuple(p.parents), p.table) for p in strategy.policies}


def document_tables(d, strategy_doc: dict[str, Any]) -> dict[str, tuple[tuple[str, ...], np.ndarray]]:
    """Policies of a CLI result document (flat tables, child index fastest)."""
    out = {}
    for dec, spec in strategy_doc.items():
        parents = tuple(spec["parents"])
        shape = (d.cardinality(dec),) + tuple(d.cardinality(p) for p in parents)
        table = np.asarray(spec["table"], dtype=float).reshape(shape, order="F")
        out[dec] = (parents, table)
    return out


def document_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class References:
    """Brute-force MEUs, read from ``reference/<workload>.json`` when cached there."""

    def __init__(self, workload: str) -> None:
        self.path = os.path.join(REFERENCE_DIR, f"{workload}.json")
        self.cached: dict[str, float] = {}
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as handle:
                self.cached = json.load(handle)

    def meu(self, d, document: str) -> float:
        key = document_digest(document)
        if key not in self.cached:
            import limid
            # the oracle's default strategy cap is below the mid tier's
            # 27**5 pure strategies; its memory use is bounded by the
            # enumeration cap instead
            self.cached[key] = limid.brute_force_meu(d, cap=10**9)[0]
        return self.cached[key]

    def save(self) -> None:
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(self.cached, handle, indent=1, sort_keys=True)
            handle.write("\n")


def check(d, value: float, policies, epsilon: float, meu: float | None) -> list[str]:
    """Every check one returned value must pass; empty when it passes all."""
    problems = []
    replayed = einsum_value(d, policies)
    if not abs(replayed - value) <= TOL:
        problems.append(f"value {value!r} but the strategy is worth {replayed!r}")
    if meu is not None:
        if epsilon == 0.0 and not abs(meu - value) <= TOL:
            problems.append(f"exact value {value!r} differs from the MEU {meu!r}")
        if epsilon > 0.0 and not (meu <= (1.0 + epsilon) * value + TOL and value <= meu + TOL):
            problems.append(f"value {value!r} breaks MEU <= (1+{epsilon})*value, MEU {meu!r}")
    return problems


if __name__ == "__main__":
    import run
    run.use_source()
    import workloads
    spec = workloads.WORKLOADS["mid-exact"]
    refs = References(spec.name)
    refs.cached = {}
    for inst in workloads.build_instances(spec):
        refs.meu(inst.diagram, inst.document)
    refs.save()
    print(f"wrote {len(refs.cached)} references to {refs.path}")
