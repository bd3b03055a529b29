"""Outside-in tracing of the limid pipeline.

The tracer never edits the library.  It rebinds the names that
``limid.solver`` and ``limid.cli`` look up at call time to wrappers that
record one span per call: name, start, end, parent span and instance id,
plus a few counts taken at the same boundary (set sizes, decomposition
shape).  Spans stay in memory; :func:`write_spans` dumps them at the end
and :func:`layer_metrics` turns them into the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator

#: names rebound in ``limid.solver``: everything the pipeline calls between
#: validation and the root message
SOLVER_NAMES = (
    "validate_diagram", "build_decomposition", "binarize", "ensure_value_leaves",
    "root_and_order", "reduce_to_single_value", "normalize_utilities", "solve",
    "validate_decomposition", "combine_sets", "sum_out_set", "covering",
)
#: names rebound in ``limid.cli``; ``main`` is the bench's own entry point
CLI_NAMES = ("main", "parse", "solve_full")

SHAPE_SPANS = ("solver.binarize", "solver.ensure_value_leaves", "solver.root_and_order",
               "solver.validate_decomposition")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    instance: str
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _counts(name: str, args: tuple, result: Any) -> dict[str, int]:
    """Counts recorded at a layer boundary, read from its arguments and result."""
    if name in ("solver.combine_sets", "solver.sum_out_set"):
        return {"size": len(result)}
    if name == "solver.covering":
        return {"in": len(args[0]), "out": len(result[0])}
    if name == "solver.solve":
        t = args[1]
        return {"nodes": t.n, "width": max((len(c) for c in t.clusters), default=1) - 1}
    return {}


class Tracer:
    """Collects spans from wrapped callables; one tracer per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance = ""
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self.instance)
            self.spans.append(span)
            self._open.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            span.counts = _counts(name, args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Rebind the traced names for the duration of the block, then restore them."""
        import limid.cli
        import limid.solver
        saved = []
        try:
            for module, prefix, names in ((limid.solver, "solver", SOLVER_NAMES),
                                          (limid.cli, "cli", CLI_NAMES)):
                for attr in names:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(f"{prefix}.{attr}", original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for k in sorted(kids, key=lambda k: k.start):
            lo, hi = max(k.start, reach), min(k.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer totals over every traced solve, as ``name -> (value, unit)``."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for s, t in zip(spans, selfs):
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + t

    def counts(name: str, key: str) -> list[int]:
        return [s.counts[key] for s in spans if s.name == name and key in s.counts]

    sizes = counts("solver.combine_sets", "size") + counts("solver.sum_out_set", "size")
    cover_in = sum(counts("solver.covering", "in"))
    cover_out = sum(counts("solver.covering", "out"))
    nodes = counts("solver.solve", "nodes")
    return {
        "cli.parse_s": (total.get("cli.parse", 0.0), "s"),
        "cli.self_s": (own.get("cli.main", 0.0), "s"),
        "model.validate_s": (total.get("solver.validate_diagram", 0.0), "s"),
        "treedecomp.build_s": (total.get("solver.build_decomposition", 0.0), "s"),
        "treedecomp.shape_s": (sum(total.get(n, 0.0) for n in SHAPE_SPANS), "s"),
        "reduction.reduce_s": (total.get("solver.reduce_to_single_value", 0.0), "s"),
        "reduction.normalize_s": (total.get("solver.normalize_utilities", 0.0), "s"),
        "potential.combine_s": (total.get("solver.combine_sets", 0.0), "s"),
        "potential.combine_members": (sum(counts("solver.combine_sets", "size")), "count"),
        "potential.sumout_s": (total.get("solver.sum_out_set", 0.0), "s"),
        "potential.set_size_max": (max(sizes, default=0), "count"),
        "potential.covering_s": (total.get("solver.covering", 0.0), "s"),
        "potential.covering_in": (cover_in, "count"),
        "potential.covering_out": (cover_out, "count"),
        # nothing offered means nothing dropped: exact workloads read 1.0
        "potential.covering_kept_ratio": (cover_out / cover_in if cover_in else 1.0, "ratio"),
        "solver.solve_s": (total.get("solver.solve", 0.0), "s"),
        "solver.self_s": (own.get("solver.solve", 0.0), "s"),
        "treedecomp.width_max": (max(counts("solver.solve", "width"), default=0), "count"),
        "treedecomp.nodes": (sum(nodes) / len(nodes) if nodes else 0.0, "count"),
    }


def write_spans(spans: list[Span], path: str) -> None:
    """One JSON object per line, in the order the spans were opened."""
    with open(path, "w", encoding="utf-8") as out:
        for i, s in enumerate(spans):
            out.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                  "parent": s.parent, "instance": s.instance,
                                  **s.counts}) + "\n")
