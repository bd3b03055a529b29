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
    VALUE,
    InfluenceDiagram,
    Policy,
    Strategy,
    Variable,
    _freeze,
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


def _span(lo: float, hi: float) -> tuple[float, float]:
    """A power of two ``unit`` and ``(hi - lo) / unit``, finite for finite
    bounds: ``unit`` is 1 unless ``hi - lo`` overflows, and then 2, since
    ``hi / 2 - lo / 2`` cannot overflow."""
    span = hi - lo
    return (1.0, span) if math.isfinite(span) else (2.0, hi / 2 - lo / 2)


def utility_bounds(d: InfluenceDiagram) -> tuple[float, float]:
    """(lo, hi) over all reward entries; a constant reward widens hi by one,
    or by one ulp where lo + 1 == lo, so (U - lo) / (hi - lo) stays defined.
    At the largest float, where hi cannot grow, lo shrinks by one ulp."""
    if not d.value_ids:
        raise ValueError("diagram has no value variables")
    rewards = np.concatenate([d.reward(v).ravel() for v in d.value_ids])
    lo, hi = float(rewards.min()), float(rewards.max())
    if hi == lo:
        up = lo + 1.0 if lo + 1.0 != lo else math.nextafter(lo, math.inf)
        lo, hi = (lo, up) if math.isfinite(up) else (math.nextafter(lo, -math.inf), lo)
    # min and max propagate NaN, so a non-finite entry makes lo or hi non-finite
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("reward tables hold a non-finite entry")
    # q rewards in [lo, hi] rescale to a reward table of q * hi and q * lo
    if not math.isfinite(len(d.value_ids) * max(abs(lo), abs(hi))):
        raise ValueError(f"rewards span [{lo!r}, {hi!r}]: rescaling them overflows a float")
    return lo, hi


def _fresh_names(d: InfluenceDiagram, q: int) -> tuple[list[str], str]:
    prefix = "_"
    while True:
        os_ = [f"{prefix}o{i}" for i in range(1, q + 1)]
        val = f"{prefix}v"
        if not any(d.has_variable(name) for name in os_ + [val]):
            return os_, val
        prefix += "_"


def reduce_to_single_value(d: InfluenceDiagram, t: TreeDecomposition,
                           leaves: dict[str, int]) -> ReductionResult:
    """Build the single-value diagram and its widened decomposition.

    ``t`` must be rooted and binary, and ``leaves`` (the map
    :func:`~limid.treedecomp.ensure_value_leaves` returns) must send every
    value variable of ``d`` to a node of ``t`` whose cluster equals its
    parent set.  Each chain table is written once, in its final axis order;
    the other tables are ``d``'s own.  The widened decomposition shares
    ``t``'s edges, root, adjacency and orientation; only its clusters are
    new.
    """
    if not t.is_binary():
        raise ValueError("decomposition must be binary")
    for v in d.value_ids:
        # a node id off the tree names no leaf of it
        if leaves.get(v) not in range(t.n):
            raise ValueError(f"decomposition has no value leaf for {v!r}")
        if set(t.clusters[leaves[v]]) != set(d.parents(v)):
            raise ValueError(f"value leaf cluster for {v!r} does not equal its parent set")

    tour = t.euler_tour()
    first = {v: tour.index(leaves[v]) for v in d.value_ids}  # each leaf's first visit
    value_order = tuple(sorted(d.value_ids, key=lambda v: (first[v], v)))
    q = len(value_order)
    lo, hi = utility_bounds(d)
    # (U - lo) / (hi - lo) in units of _span's power of two (1 changes no bit)
    unit, span = _span(lo, hi)
    o_names, v_name = _fresh_names(d, q)

    variables = [v for v in d.variables if v.kind != VALUE]
    parents = {v.id: d.parents(v.id) for v in variables}
    cpts: dict[str, np.ndarray] = dict(d.cpts)
    for i, (orig, o) in enumerate(zip(value_order, o_names), start=1):
        variables.append(Variable(o, CHANCE, 2))
        parents[o] = d.parents(orig)
        u = (d.reward(orig) / unit - lo / unit) / span
        if i == 1:
            table = np.empty((2,) + u.shape)
            table[0] = u
        else:
            prev = o_names[i - 2]
            # O_{i-1}'s axis goes to its id-sorted place: ids such as "A" or "9"
            # sort before "_"
            parents[o] = tuple(sorted(parents[o] + (prev,)))
            at = parents[o].index(prev)
            table = np.empty((2,) + u.shape[:at] + (2,) + u.shape[at:])
            # row 0 at O_{i-1} = state0, then at state1; a trailing ... makes
            # even a single entry a view that out= can write
            head = (0,) + (slice(None),) * at
            np.divide(i - 1 + u, i, out=table[head + (0, ...)])
            np.divide(u, i, out=table[head + (1, ...)])
        np.subtract(1.0, table[0], out=table[1, ...])
        table.setflags(write=False)
        cpts[o] = table
    variables.append(Variable(v_name, VALUE))
    parents[v_name] = (o_names[-1],)
    arcs = tuple(sorted((p, x) for x, ps in parents.items() for p in ps))
    reduced = object.__new__(InfluenceDiagram)._assemble(
        tuple(sorted(variables, key=lambda v: v.id)), arcs, parents, cpts,
        {v_name: _freeze([q * hi, q * lo])})

    clusters = [set(c) for c in t.clusters]
    for orig, o in zip(value_order, o_names):
        clusters[leaves[orig]].add(o)
    # the tour from leaf i - 1 through leaf i carries O_{i-1} to both leaves
    for i in range(2, q + 1):
        for node in tour[first[value_order[i - 2]]:first[value_order[i - 1]] + 1]:
            clusters[node].add(o_names[i - 2])
    widened = t._sharing(("_adjacency", "_orientation"),
                         clusters=tuple(tuple(sorted(c)) for c in clusters))

    return ReductionResult(reduced, widened, (lo, hi), tuple(o_names), value_order)


def normalize_utilities(d: InfluenceDiagram
                        ) -> tuple[InfluenceDiagram, float, float, float]:
    """Affinely map the single reward table onto [0, 1].

    Returns (diagram, offset, scale, unit) with original utilities recovered
    as unit * (offset + scale * normalized); maximizing strategies are
    unaffected.  ``unit`` is 1.0 unless the rewards span more than the
    largest float, and then offset and scale count in units of 2.0.  A
    reward spanning [0, 1] maps to itself.  The diagram is ``d`` with its
    reward swapped (:meth:`~limid.model.InfluenceDiagram.with_reward`).
    The bounds are :func:`utility_bounds`', so a constant reward maps to
    zeros with ``scale`` the width that function gives it: 1.0 for 3.0, but
    2.0 at 2**53, where it widens by one ulp.
    """
    if len(d.value_ids) != 1:
        raise ValueError(f"expected one value variable, got {len(d.value_ids)}")
    v = d.value_ids[0]
    lo, hi = utility_bounds(d)
    unit, scale = _span(lo, hi)
    offset = lo / unit
    normalized = d.with_reward(v, (d.reward(v) / unit - offset) / scale)
    return normalized, offset, scale, unit


# -- minimal diagram ------------------------------------------------------------

def _reach(links: dict[str, set[str]], start: set[str]) -> set[str]:
    """``start`` and every variable a chain of ``links`` leads to from it:
    over parent sets its ancestors, over child sets its descendants."""
    found, stack = set(start), list(start)
    while stack:
        for x in links[stack.pop()]:
            if x not in found:
                found.add(x)
                stack.append(x)
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
    targets = _reach(children, {dec}) & values  # dec is no value variable
    ancestral = _reach(parents, targets)
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
    with no value descendant goes; neither changes the maximum expected
    utility.  ``lift`` widens each kept policy over the parents its decision
    lost, constant along them, and gives each dropped decision its first
    pure policy, so the lifted strategy keeps its worth.  A diagram with
    nothing to drop comes back as is, with a lift that returns its argument.
    """
    parents = {v.id: set(d.parents(v.id)) for v in d.variables}
    children: dict[str, set[str]] = {x: set() for x in parents}
    for x, ps in parents.items():
        for p in ps:
            children[p].add(x)
    values, decisions = set(d.value_ids), set(d.decision_ids)
    changed = False
    while True:
        requisite = {x: _requisite_parents(parents, children, values, x)
                     for x in parents if parents[x] and x in decisions}
        dropped = {x: keep for x, keep in requisite.items() if keep != parents[x]}
        for x, keep in dropped.items():
            for p in parents[x] - keep:
                children[p].discard(x)
            parents[x] = keep
        useful = _reach(parents, values)
        if not dropped and len(useful) == len(parents):
            break
        changed = True
        for x in [x for x in parents if x not in useful]:
            for p in parents.pop(x):
                children[p].discard(x)
    if not changed:
        return d, lambda s: s

    left = tuple(v for v in d.variables if v.id in parents)
    arcs = tuple(sorted((p, x) for x, ps in parents.items() for p in ps))
    minimal = object.__new__(InfluenceDiagram)._assemble(
        left, arcs, {v.id: tuple(sorted(parents[v.id])) for v in left},
        {x: d.cpt(x) for x in d.chance_ids if x in parents}, dict(d.rewards))

    def lift(s: Strategy) -> Strategy:
        policies = []
        for dec in d.decision_ids:
            full = d.parents(dec)
            if dec not in parents:
                policies.append(pure_policy(d, dec, 0))
            elif len(parents[dec]) == len(full):
                policies.append(s.policy_for(dec))
            else:
                cards = (d.cardinality(dec),) + tuple(map(d.cardinality, full))
                kept = (cards[0],) + tuple(c if q in parents[dec] else 1
                                           for q, c in zip(full, cards[1:]))
                table = np.broadcast_to(s.policy_for(dec).table.reshape(kept), cards)
                policies.append(Policy(dec, full, table))
        return Strategy(policies)

    return minimal, lift
