"""JSON interchange format, random instance generator, and the ``limid``
command-line front-end.

Document layout::

    {
      "variables": [{"id": ..., "kind": ..., "cardinality": ..., "states": [...]}],
      "arcs": [[from, to], ...],
      "cpts": {id: {"parents": [ids], "table": [numbers]}},
      "rewards": {id: {"parents": [ids], "table": [numbers]}},
      "decomposition": {"clusters": [[ids]], "edges": [[i, j]], "root": i}   # optional
    }

Tables are flat with the conditioned variable's index moving fastest, then
the listed parents in order: the entry for child state c under parent
assignment (p1, ..., pk) sits at offset c + |C| * (p1 + |P1| * (p2 + ...)).
Reward tables follow the same pattern without the leading child index.
Canonical documents sort keys, ids and parent lists.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from typing import Any

import numpy as np

from .model import (
    CHANCE,
    DECISION,
    VALUE,
    InfluenceDiagram,
    InstanceTooLargeError,
    Strategy,
    Variable,
    brute_force_meu,
    validate_diagram,
)
from .solver import (
    DEFAULT_MAX_SET_SIZE,
    SolverConfig,
    SolverResult,
    shape_and_reduce,
    solve_full,
)
from .treedecomp import TreeDecomposition

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 64

MAX_SET_SIZE_ENV = "LIMID_MAX_SET_SIZE"


class DocumentError(ValueError):
    """The input document is malformed or fails validation."""


def _expect(value: Any, kind: type, what: str) -> Any:
    """``value`` if it is a ``kind``: ``list`` for a JSON array, ``dict`` for an object."""
    if not isinstance(value, kind):
        raise DocumentError(f"{what} must be a JSON {'array' if kind is list else 'object'}")
    return value


def _integer(value: Any, what: str) -> int:
    """``value`` as an int: ``2.0`` reads as 2; ``2.7``, ``true`` and ``"2"`` are rejected."""
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise DocumentError(f"{what} must be an integer, got {value!r}")
    return int(value)


# -- table layout -------------------------------------------------------------

def _parse_table(skeleton: InfluenceDiagram, owner: str, spec: Any,
                 lead_card: int | None) -> np.ndarray:
    if not isinstance(spec, dict) or "parents" not in spec or "table" not in spec:
        raise DocumentError(f"table for {owner!r} needs 'parents' and 'table' keys")
    listed = [str(p) for p in _expect(spec["parents"], list, f"'parents' of {owner!r}")]
    parents = list(skeleton.parents(owner))
    if sorted(listed) != parents:
        raise DocumentError(f"table for {owner!r} declares parents {sorted(listed)}, "
                            f"arcs give {parents}")
    lead = () if lead_card is None else (lead_card,)
    shape = lead + tuple(skeleton.cardinality(p) for p in listed)
    table = spec["table"]
    kind = "reward" if lead_card is None else "cpt"
    # numpy would also read nested arrays, booleans and numeric strings
    if not isinstance(table, list) or any(type(x) not in (int, float) for x in table):
        raise DocumentError(f"{kind} table of {owner!r} must be a flat array of numbers")
    try:
        flat = np.asarray(table, dtype=float)
    except OverflowError:
        raise DocumentError(f"{kind} table of {owner!r} holds a number too large") from None
    expected = math.prod(shape)
    if flat.size != expected:
        raise DocumentError(f"table for {owner!r} has {flat.size} entries, "
                            f"expected {expected}")
    arr = flat.reshape(shape, order="F")
    # reorder listed parents into canonical sorted order
    perm = sorted(range(len(listed)), key=lambda i: listed[i])
    offset = len(lead)
    axes = tuple(range(offset)) + tuple(offset + i for i in perm)
    # a view: the diagram makes the one copy of every table it is given
    return arr.transpose(axes)


def _emit_table(parents: tuple[str, ...], arr: np.ndarray) -> dict[str, Any]:
    return {"parents": list(parents), "table": arr.ravel(order="F").tolist()}


# -- documents ----------------------------------------------------------------

def document_to_diagram(doc: Any) -> tuple[InfluenceDiagram, TreeDecomposition | None]:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    variables: list[Variable] = []
    for entry in _expect(doc.get("variables", []), list, "'variables'"):
        if not isinstance(entry, dict) or "id" not in entry or "kind" not in entry:
            raise DocumentError("every variable needs 'id' and 'kind'")
        vid = str(entry["id"])
        card = entry.get("cardinality")
        if card is not None:
            card = _integer(card, f"'cardinality' of {vid!r}")
        states = entry.get("states")
        if states is not None:
            if not isinstance(states, list) or any(type(x) is not str for x in states):
                raise DocumentError(f"'states' of {vid!r} must be a JSON array of strings")
        try:
            variables.append(Variable(vid, str(entry["kind"]), card, states))
        except ValueError as exc:
            raise DocumentError(str(exc)) from None

    arcs = []
    for arc in _expect(doc.get("arcs", []), list, "'arcs'"):
        if not isinstance(arc, (list, tuple)) or len(arc) != 2:
            raise DocumentError(f"arcs must be [from, to] pairs, got {arc!r}")
        arcs.append((str(arc[0]), str(arc[1])))
    # the diagram's own rules refuse duplicate ids, unknown arc ends and
    # self-arcs, and fix each table's parents before any table is read
    try:
        skeleton = InfluenceDiagram(variables, arcs)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None

    cpts: dict[str, np.ndarray] = {}
    for var, spec in _expect(doc.get("cpts", {}), dict, "'cpts'").items():
        var = str(var)
        if not skeleton.has_variable(var):
            raise DocumentError(f"cpt for unknown variable {var!r}")
        if skeleton.kind(var) == VALUE:
            raise DocumentError(f"cpt given for value variable {var!r}")
        cpts[var] = _parse_table(skeleton, var, spec, skeleton.cardinality(var))
    rewards: dict[str, np.ndarray] = {}
    for var, spec in _expect(doc.get("rewards", {}), dict, "'rewards'").items():
        var = str(var)
        if not skeleton.has_variable(var):
            raise DocumentError(f"reward table for unknown variable {var!r}")
        rewards[var] = _parse_table(skeleton, var, spec, None)
    diagram = InfluenceDiagram(skeleton.variables, skeleton.arcs, cpts, rewards)

    decomposition = None
    if "decomposition" in doc:
        spec = doc["decomposition"]
        if not isinstance(spec, dict) or "clusters" not in spec:
            raise DocumentError("decomposition needs a 'clusters' key")
        clusters = [[str(v) for v in _expect(c, list, "each of 'clusters'")]
                    for c in _expect(spec["clusters"], list, "'clusters'")]
        edges = []
        for edge in _expect(spec.get("edges", []), list, "'edges'"):
            if not isinstance(edge, list) or len(edge) != 2:
                raise DocumentError(f"'edges' must hold [i, j] pairs, got {edge!r}")
            edges.append([_integer(i, "a node id in 'edges'") for i in edge])
        root = None if spec.get("root") is None else _integer(spec["root"], "'root'")
        try:
            decomposition = TreeDecomposition(clusters, edges, root=root)
        except ValueError as exc:
            raise DocumentError(f"bad decomposition: {exc}") from None
    return diagram, decomposition


def diagram_to_document(d: InfluenceDiagram,
                        decomposition: TreeDecomposition | None = None) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "variables": [
            {"id": v.id, "kind": v.kind}
            | ({} if v.cardinality is None else {"cardinality": v.cardinality})
            | ({} if v.state_labels is None else {"states": list(v.state_labels)})
            for v in d.variables
        ],
        "arcs": [list(arc) for arc in d.arcs],
        "cpts": {var: _emit_table(d.parents(var), d.cpt(var)) for var in sorted(d.cpts)},
        "rewards": {var: _emit_table(d.parents(var), d.reward(var))
                    for var in sorted(d.rewards)},
    }
    if decomposition is not None:
        block: dict[str, Any] = {
            "clusters": [list(c) for c in decomposition.clusters],
            "edges": [list(e) for e in decomposition.edges],
        }
        if decomposition.root is not None:
            block["root"] = decomposition.root
        doc["decomposition"] = block
    return doc


def parse(text: str) -> tuple[InfluenceDiagram, TreeDecomposition | None]:
    """Parse a document; the diagram is not checked against its invariants
    (see :func:`~limid.model.validate_diagram`)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"malformed JSON: {exc}") from None
    return document_to_diagram(doc)


def serialize(d: InfluenceDiagram, decomposition: TreeDecomposition | None = None) -> str:
    return _dump(diagram_to_document(d, decomposition))


def _dump(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _strategy_document(s: Strategy) -> dict[str, Any]:
    return {p.decision: _emit_table(p.parents, p.table) for p in s.policies}


# -- random instances ----------------------------------------------------------

def generate_diagram(n_chance: int, n_decisions: int, card: int, max_parents: int,
                     n_values: int, seed: int, *,
                     decision_max_parents: int | None = None) -> InfluenceDiagram:
    """Random valid diagram, deterministic per seed.

    The DAG follows a random topological order with every later variable
    drawing at most ``max_parents`` parents uniformly among its
    predecessors (decisions capped separately when requested); chance
    columns are symmetric Dirichlet, rewards uniform on [0, 1], and
    cardinalities uniform on {2, ..., card}.
    """
    if card < 2:
        raise ValueError("card must be at least 2")
    if min(n_chance, n_decisions, n_values, max_parents) < 0:
        raise ValueError("counts must be nonnegative")
    rng = np.random.default_rng(seed)
    chance = [f"c{i}" for i in range(n_chance)]
    decisions = [f"d{i}" for i in range(n_decisions)]
    values = [f"v{i}" for i in range(n_values)]
    cd = sorted(chance + decisions)
    cards = {v: int(c) for v, c in zip(cd, rng.integers(2, card + 1, size=len(cd)))}
    kinds = {v: (CHANCE if v in set(chance) else DECISION) for v in cd}

    order = [cd[i] for i in rng.permutation(len(cd))]
    arcs: list[tuple[str, str]] = []
    parents: dict[str, list[str]] = {}
    for pos, var in enumerate(order):
        limit = max_parents
        if decision_max_parents is not None and kinds[var] == DECISION:
            limit = min(limit, decision_max_parents)
        k = int(rng.integers(0, min(limit, pos) + 1))
        picks = sorted(order[int(i)] for i in rng.choice(pos, size=k, replace=False)) if k else []
        parents[var] = picks
        arcs.extend((p, var) for p in picks)
    for var in values:
        k = int(rng.integers(1, min(max_parents, len(cd)) + 1)) if cd and max_parents else 0
        picks = sorted(cd[int(i)] for i in rng.choice(len(cd), size=k, replace=False)) if k else []
        parents[var] = picks
        arcs.extend((p, var) for p in picks)

    variables = [Variable(v, kinds[v], cards[v]) for v in cd]
    variables += [Variable(v, VALUE) for v in values]

    cpts: dict[str, np.ndarray] = {}
    for var in sorted(chance):
        pa_cards = [cards[p] for p in sorted(parents[var])]
        columns = math.prod(pa_cards)
        draws = rng.dirichlet(np.ones(cards[var]), size=columns)
        cpts[var] = draws.T.reshape([cards[var]] + pa_cards)
    rewards: dict[str, np.ndarray] = {}
    for var in sorted(values):
        pa_cards = [cards[p] for p in sorted(parents[var])]
        rewards[var] = rng.uniform(0.0, 1.0, size=math.prod(pa_cards)).reshape(pa_cards)
    return InfluenceDiagram(variables, arcs, cpts, rewards)


# -- command line ---------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    cap = DEFAULT_MAX_SET_SIZE
    env = os.environ.get(MAX_SET_SIZE_ENV)
    if env:
        bad = f"{MAX_SET_SIZE_ENV} must be an integer of at least 1, got {env!r}"
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(bad) from None
        if cap < 1:
            raise ValueError(bad)
    return SolverConfig(epsilon=0.0 if args.exact else args.epsilon,
                        max_set_size=cap)


def _result_document(result: SolverResult, with_stats: bool) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "value": float(result.value),
        "alpha": float(result.stats.alpha),
        "m": int(result.stats.m),
        "strategy": _strategy_document(result.strategy),
    }
    if with_stats:
        doc["stats"] = [dataclasses.asdict(s) for s in result.stats.nodes]
    return doc


def _require_valid(d: InfluenceDiagram) -> None:
    problems = validate_diagram(d)
    if problems:
        raise DocumentError("invalid diagram: " + "; ".join(problems))


def _cmd_solve(args: argparse.Namespace) -> int:
    diagram, decomposition = parse(_read_input(args.file))
    cfg = _solver_config(args)
    result = solve_full(diagram, cfg, decomposition=decomposition)
    sys.stdout.write(_dump(_result_document(result, args.stats)))
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    diagram, decomposition = parse(_read_input(args.file))
    _require_valid(diagram)
    reduced = shape_and_reduce(diagram, decomposition)
    doc = diagram_to_document(reduced.diagram, reduced.decomposition)
    doc["reduction"] = {
        "utility_lower": reduced.bounds[0],
        "utility_upper": reduced.bounds[1],
        "value_count": len(reduced.o_vars),
        "o_vars": list(reduced.o_vars),
    }
    sys.stdout.write(_dump(doc))
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    diagram, _ = parse(_read_input(args.file))
    _require_valid(diagram)
    value, strategy = brute_force_meu(diagram)
    sys.stdout.write(_dump({"value": value, "strategy": _strategy_document(strategy)}))
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    diagram = generate_diagram(args.chance, args.decisions, args.card,
                               args.max_parents, args.values, args.seed)
    sys.stdout.write(serialize(diagram))
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    diagram, _ = parse(_read_input(args.file))
    problems = validate_diagram(diagram)
    sys.stdout.write(_dump({"violations": problems}))
    return EXIT_OK if not problems else EXIT_INVALID


@functools.cache
def _build_parser() -> _Parser:
    # parsing leaves the parser as it was, so one tree serves every call
    parser = _Parser(prog="limid",
                     description="Approximate and exact solving of limited-memory "
                                 "influence diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute a provably good strategy")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--epsilon", type=float,
                      help="approximation factor (MEU <= (1+epsilon) * value)")
    mode.add_argument("--exact", action="store_true", help="disable pruning")
    p.add_argument("--stats", action="store_true", help="emit per-node statistics")
    p.add_argument("file", help="diagram document, or - for stdin")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("reduce", help="merge all value variables into one")
    p.add_argument("file", help="diagram document, or - for stdin")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("oracle", help="brute-force maximum expected utility")
    p.add_argument("file", help="diagram document, or - for stdin")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("gen", help="generate a random diagram")
    p.add_argument("--chance", type=int, required=True)
    p.add_argument("--decisions", type=int, required=True)
    p.add_argument("--card", type=int, required=True)
    p.add_argument("--max-parents", type=int, required=True)
    p.add_argument("--values", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("validate", help="report diagram invariant violations")
    p.add_argument("file", help="diagram document, or - for stdin")
    p.set_defaults(handler=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InstanceTooLargeError as exc:
        print(f"limid: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DocumentError, ValueError, OSError) as exc:
        print(f"limid: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
