"""Reduction of a diagram with many value variables to one with a single
value variable of identical expected utility under every strategy.

Each reward table U_i over Pa(V_i) is rescaled to u_i = (U_i - lo) / (hi - lo),
where lo and hi bound all rewards, and feeds a chain of binary variables O_i
that track the running average of the rescaled rewards:

    P(O_1 = state0 | Pa(V_1))           =  u_1
    P(O_i = state0 | O_{i-1}, Pa(V_i))  =  ((i - 1) [O_{i-1} = state0] + u_i) / i

so that P(O_i = state0 | x) = (1/i) * sum_{j <= i} u_j(x) for every joint
assignment x of the original chance and decision variables.  A single value
variable on O_q with rewards (q * hi, q * lo) then yields exactly the
original expected utility.

The accompanying decomposition transform inserts O_i into the leaf assigned
to V_i and threads O_{i-1} through every node the Euler tour visits from the
leaf of V_{i-1} through the leaf of V_i, restoring running intersection: a
value leaf grows by at most two variables and no cluster by more than three.

Before any of that, :func:`minimal_diagram` strips what cannot change the
maximum expected utility: decision parents that are d-separated from the
decision's value descendants given the rest of its family, and variables
with no value descendant (Lauritzen & Nilsson, "Representing and Solving
Decision Problems with Limited Information", 2001).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (
    CHANCE,
    DECISION,
    VALUE,
    InfluenceDiagram,
    Policy,
    Strategy,
    Variable,
    pure_policy,
)
from .treedecomp import TreeDecomposition


@dataclass(frozen=True, eq=False)
class ReductionResult:
    """Outcome of :func:`reduce_to_single_value`.

    ``o_vars`` lists the introduced binary chain variables in chain order;
    ``value_order`` lists the original value variables in the same order
    (the order of their leaves along the tree walk), so ``o_vars[i - 1]``
    averages the rescaled rewards of ``value_order[:i]``.
    """

    diagram: InfluenceDiagram
    decomposition: TreeDecomposition
    bounds: tuple[float, float]
    o_vars: tuple[str, ...]
    value_order: tuple[str, ...]


def _check_range(lo: float, hi: float, q: int) -> None:
    # q rewards in [lo, hi] rescale to a reward table of q * hi and q * lo
    if not all(map(math.isfinite, (q * hi, q * lo))):
        raise ValueError(f"rewards span [{lo!r}, {hi!r}]: rescaling them overflows a float")


def _span(lo: float, hi: float) -> tuple[float, float]:
    """A power of two ``unit`` and ``(hi - lo) / unit``, finite for finite
    bounds: ``unit`` is 1 unless ``hi - lo`` overflows, and then 2, since
    ``hi / 2 - lo / 2`` cannot overflow."""
    span = hi - lo
    return (1.0, span) if math.isfinite(span) else (2.0, hi / 2 - lo / 2)


def utility_bounds(d: InfluenceDiagram) -> tuple[float, float]:
    """(lo, hi) over all reward entries; a constant reward widens hi by one,
    or by one ulp where lo + 1 == lo, so (U - lo) / (hi - lo) stays defined."""
    if not d.value_ids:
        raise ValueError("diagram has no value variables")
    lo = min(float(d.reward(v).min()) for v in d.value_ids)
    hi = max(float(d.reward(v).max()) for v in d.value_ids)
    if hi == lo:
        hi = lo + 1.0 if lo + 1.0 != lo else math.nextafter(lo, math.inf)
    _check_range(lo, hi, len(d.value_ids))
    return lo, hi


def _fresh_names(d: InfluenceDiagram, q: int) -> tuple[list[str], str]:
    prefix = "_"
    while True:
        os_ = [f"{prefix}o{i}" for i in range(1, q + 1)]
        val = f"{prefix}v"
        if not any(d.has_variable(name) for name in os_ + [val]):
            return os_, val
        prefix += "_"


def reduce_to_single_value(d: InfluenceDiagram, t: TreeDecomposition) -> ReductionResult:
    """Build the single-value diagram and its widened decomposition.

    ``t`` must be rooted, binary, and carry a value leaf (cluster equal to
    the parent set) for every value variable of ``d``.
    """
    if not t.is_binary():
        raise ValueError("decomposition must be binary")
    leaf_map = t.value_leaf_map
    for v in d.value_ids:
        if v not in leaf_map:
            raise ValueError(f"decomposition has no value leaf for {v!r}")
        if set(t.clusters[leaf_map[v]]) != set(d.parents(v)):
            raise ValueError(f"value leaf cluster for {v!r} does not equal its parent set")

    tour = t.euler_tour()
    first_pos: dict[int, int] = {}
    for pos, node in enumerate(tour):
        first_pos.setdefault(node, pos)
    value_order = tuple(sorted(d.value_ids, key=lambda v: (first_pos[leaf_map[v]], v)))
    q = len(value_order)
    lo, hi = utility_bounds(d)
    # (U - lo) / (hi - lo) with every term in units of _span's power of two
    # (a unit of 1 changes no bit)
    unit, span = _span(lo, hi)
    o_names, v_name = _fresh_names(d, q)

    variables = [v for v in d.variables if v.kind != VALUE]
    arcs = [(a, b) for a, b in d.arcs if d.kind(a) != VALUE and d.kind(b) != VALUE]
    cpts: dict[str, np.ndarray] = dict(d.cpts)
    for i, (orig, o) in enumerate(zip(value_order, o_names), start=1):
        variables.append(Variable(o, CHANCE, 2))
        parents = d.parents(orig)
        arcs.extend((p, o) for p in parents)
        row0 = (d.reward(orig) / unit - lo / unit) / span
        if i > 1:
            prev = o_names[i - 2]
            arcs.append((prev, o))
            # O_{i-1}'s axis goes to its id-sorted place: ids such as "A" or "9"
            # sort before "_"
            row0 = np.moveaxis(np.stack([(i - 1 + row0) / i, row0 / i]), 0,
                               sorted(parents + (prev,)).index(prev))
        cpts[o] = np.stack([row0, 1.0 - row0])
    variables.append(Variable(v_name, VALUE))
    arcs.append((o_names[-1], v_name))
    rewards = {v_name: np.array([q * hi, q * lo])}
    reduced = InfluenceDiagram(variables, arcs, cpts, rewards)

    clusters = [set(c) for c in t.clusters]
    for orig, o in zip(value_order, o_names):
        clusters[leaf_map[orig]].add(o)
    # the tour from leaf i - 1 through leaf i carries O_{i-1} to both leaves
    for i in range(2, q + 1):
        a = first_pos[leaf_map[value_order[i - 2]]]
        b = first_pos[leaf_map[value_order[i - 1]]]
        for node in tour[a:b + 1]:
            clusters[node].add(o_names[i - 2])
    widened = TreeDecomposition(tuple(tuple(sorted(c)) for c in clusters), t.edges,
                                root=t.root)

    return ReductionResult(reduced, widened, (lo, hi), tuple(o_names), value_order)


def normalize_utilities(d: InfluenceDiagram
                        ) -> tuple[InfluenceDiagram, float, float, float]:
    """Affinely map the single reward table onto [0, 1].

    Returns (diagram, offset, scale, unit) with original utilities recovered
    as unit * (offset + scale * normalized); maximizing strategies are
    unaffected.  ``unit`` is a power of two: 1.0 unless the rewards span
    more than the largest float, and then offset and scale count in units
    of 2.0.  A reward spanning [0, 1] maps to itself, with offset 0.0,
    scale 1.0 and unit 1.0.
    """
    if len(d.value_ids) != 1:
        raise ValueError(f"expected one value variable, got {len(d.value_ids)}")
    v = d.value_ids[0]
    table = d.reward(v)
    offset, top = float(table.min()), float(table.max())
    _check_range(offset, top, 1)
    unit, scale = _span(offset, top) if top > offset else (1.0, 1.0)
    offset /= unit
    normalized = InfluenceDiagram(d.variables, d.arcs, d.cpts,
                                  {v: (table / unit - offset) / scale})
    return normalized, offset, scale, unit


# -- minimal diagram ------------------------------------------------------------

def _ancestors(parents: dict[str, set[str]], targets: set[str]) -> set[str]:
    """``targets`` and every variable with a directed path into one of them."""
    found, stack = set(targets), list(targets)
    while stack:
        for p in parents[stack.pop()]:
            if p not in found:
                found.add(p)
                stack.append(p)
    return found


def _requisite_parents(parents: dict[str, set[str]], children: dict[str, set[str]],
                       values: set[str], dec: str) -> set[str]:
    """Parents of ``dec`` not d-separated from its value descendants given the
    rest of its family.

    The test runs on the moral graph of the value descendants' ancestors,
    which hold the whole family.  A parent is requisite when some path there
    joins it to a value descendant without meeting another member of the
    family, so one search from the value descendants, stopped at the family,
    finds every requisite parent at once.
    """
    below, stack = set(), [dec]
    while stack:
        for c in children[stack.pop()]:
            if c not in below:
                below.add(c)
                stack.append(c)
    targets = below & values
    ancestral = _ancestors(parents, targets)
    family = parents[dec] | {dec}
    reached, seen, stack = set(), set(targets), list(targets)
    while stack:
        x = stack.pop()
        kids = children[x] & ancestral
        for y in parents[x].union(kids, *(parents[k] for k in kids)):
            if y in family:
                reached.add(y)
            elif y not in seen:
                seen.add(y)
                stack.append(y)
    return reached & parents[dec]


def minimal_diagram(d: InfluenceDiagram
                    ) -> tuple[InfluenceDiagram, Callable[[Strategy], Strategy]]:
    """The minimal diagram of a valid ``d``, and the lift of its strategies to ``d``.

    Two rules run until neither changes anything: every arc n -> D into a
    decision goes whose n is d-separated from the value variables below D
    given D and its other parents, then every chance or decision variable
    with no value descendant goes.  Neither rule changes the maximum
    expected utility.  ``lift`` widens each kept policy over the parents its
    decision lost, constant along them, and gives each dropped decision its
    first pure policy: the lifted strategy is worth on ``d`` exactly what
    the strategy is worth on the minimal diagram.  A diagram with nothing
    to drop comes back as is, with a lift that returns its argument.
    """
    parents = {v.id: set(d.parents(v.id)) for v in d.variables}
    values = set(d.value_ids)
    changed = False
    while True:
        children: dict[str, set[str]] = {x: set() for x in parents}
        for x, ps in parents.items():
            for p in ps:
                children[p].add(x)
        requisite = {x: _requisite_parents(parents, children, values, x)
                     for x in parents if parents[x] and d.kind(x) == DECISION}
        dropped = {x: keep for x, keep in requisite.items() if keep != parents[x]}
        parents.update(dropped)
        useful = _ancestors(parents, values)
        if not dropped and len(useful) == len(parents):
            break
        changed = True
        parents = {x: ps for x, ps in parents.items() if x in useful}
    if not changed:
        return d, lambda s: s

    minimal = InfluenceDiagram(
        [v for v in d.variables if v.id in parents],
        [(p, x) for x, ps in parents.items() for p in ps],
        {x: d.cpt(x) for x in d.chance_ids if x in parents}, d.rewards)

    def lift(s: Strategy) -> Strategy:
        policies = []
        for dec in d.decision_ids:
            if dec not in parents:
                policies.append(pure_policy(d, dec, 0))
                continue
            policy = s.policy_for(dec)
            full = d.parents(dec)
            cards = (d.cardinality(dec),) + tuple(d.cardinality(q) for q in full)
            kept = (cards[0],) + tuple(c if q in parents[dec] else 1
                                       for q, c in zip(full, cards[1:]))
            table = np.broadcast_to(policy.table.reshape(kept), cards)
            policies.append(Policy(dec, full, table))
        return Strategy(policies)

    return minimal, lift
