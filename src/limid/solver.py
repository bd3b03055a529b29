"""Strategy selection by set-valued message passing over a rooted binary
tree decomposition.

Every node is assigned its own tables: conditional tables of chance
variables, the full set of pure policies of decision variables, and the
(normalized) utility table.  Messages flow from the leaves to the root; at
each node its own tables and its children's messages form one product,
the variables leaving the separator are summed out, and the resulting set
is pruned to a covering within a pointwise factor
alpha = 1 + epsilon / (2m).  The three steps run together over blocks of
the product members (:func:`node_message`), so a node's full product is
never held at once, and nothing is built per node ahead of time.  Every
number surviving at the root is the exact expected utility of the strategy
recorded in its policy row, and the maximum E among them satisfies
MEU <= (1 + epsilon) * E.  With pruning disabled the maximum is the exact
MEU.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .model import (
    InfluenceDiagram,
    InstanceTooLargeError,
    Strategy,
    pure_policy,
    pure_policy_count,
    pure_policy_tables,
    validate_diagram,
)
from .potential import (
    PotentialSet,
    combine_sets,
    concat_sets,
    covering,
    covering_bound,
)
from .reduction import ReductionResult, normalize_utilities, reduce_to_single_value
from .treedecomp import (
    TreeDecomposition,
    binarize,
    build_decomposition,
    default_root,
    ensure_value_leaves,
    root_and_order,
    validate_decomposition,
)

DEFAULT_MAX_SET_SIZE = 1_000_000

#: bytes of cluster-scope tables and policy rows one block of a node's product
#: members may take; the product is never built whole beyond one block
BLOCK_BYTES = 1 << 23

#: slack admitted on "utilities lie in [0, 1]" input checks
UTILITY_RANGE_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.

    ``epsilon`` is the approximation factor; ``epsilon == 0`` means exact
    mode (no pruning), and so does an ``epsilon`` too small to move
    ``alpha`` off 1.  ``max_set_size`` caps every potential set the solve
    would build (``None`` for no cap) and must be an integer of at least 1.
    """

    epsilon: float = 0.0
    max_set_size: int | None = DEFAULT_MAX_SET_SIZE

    def __post_init__(self) -> None:
        if not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon!r}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        cap = self.max_set_size
        if cap is not None and (not isinstance(cap, int) or cap < 1):
            raise ValueError(f"max_set_size must be None or an integer of at least 1, "
                             f"got {cap!r}")

    @property
    def exact_mode(self) -> bool:
        return self.epsilon == 0


@dataclass(frozen=True)
class NodeStats:
    node: int
    cluster: tuple[str, ...]
    k_size: int
    a_size: int
    b_size: int
    c_size: int
    smallest_positive: float | None
    size_bound: int | None


@dataclass(frozen=True)
class SolveStats:
    m: int
    alpha: float
    exact: bool
    wall_time: float
    nodes: tuple[NodeStats, ...] = ()

    @property
    def total_pruned_size(self) -> int:
        return sum(s.c_size for s in self.nodes)


@dataclass(frozen=True, eq=False)
class SolverResult:
    value: float
    strategy: Strategy
    stats: SolveStats


def assign_factors(d: InfluenceDiagram, t: TreeDecomposition) -> dict[str, int]:
    """Node assignment for every variable's table.

    Chance and decision variables go to the smallest node covering their
    family; a value variable goes to its value leaf when the decomposition
    has one, else to the smallest node covering its parents.
    """
    clusters = [set(c) for c in t.clusters]
    leaf_map = t.value_leaf_map
    sigma: dict[str, int] = {}
    for v in d.variables:
        if v.kind == "value" and v.id in leaf_map:
            sigma[v.id] = leaf_map[v.id]
            continue
        need = set(d.parents(v.id))
        if v.kind != "value":
            need.add(v.id)
        nodes = [i for i, c in enumerate(clusters) if need <= c]
        if not nodes:
            raise ValueError(f"no cluster covers the factor of {v.id!r}")
        sigma[v.id] = min(nodes)
    return sigma


def _cpt_potential_set(d: InfluenceDiagram, var: str) -> PotentialSet:
    parents = d.parents(var)
    scope = tuple(sorted(parents + (var,)))
    table = np.moveaxis(d.cpt(var), 0, scope.index(var))
    cards = tuple(d.cardinality(x) for x in scope)
    return PotentialSet(scope, cards, table[np.newaxis])


def _policy_potential_set(d: InfluenceDiagram, dec: str,
                          cap: int | None) -> PotentialSet:
    count = pure_policy_count(d, dec)
    if cap is not None and count > cap:
        raise InstanceTooLargeError(
            f"decision {dec!r} has {count} pure policies, over the set-size cap {cap}")
    tables = pure_policy_tables(d, dec)
    scope = tuple(sorted(d.parents(dec) + (dec,)))
    stacked = np.moveaxis(tables, 1, 1 + scope.index(dec))
    cards = tuple(d.cardinality(x) for x in scope)
    indices = np.arange(tables.shape[0]).reshape(-1, 1)
    return PotentialSet(scope, cards, stacked, (dec,), indices)


def _utility_potential_set(d: InfluenceDiagram, var: str) -> PotentialSet:
    parents = d.parents(var)
    cards = tuple(d.cardinality(p) for p in parents)
    return PotentialSet(parents, cards, d.reward(var)[np.newaxis])


def _check_cap(parts: list[PotentialSet], cap: int | None, node: int, stage: str) -> None:
    """Reject a combination whose product set would exceed ``cap`` before it
    is built; combined sets share no decision, so the product size is exact."""
    size = math.prod(len(s) for s in parts)
    if cap is not None and size > cap:
        raise InstanceTooLargeError(
            f"set size {size} at node {node} ({stage}) exceeds the cap {cap}")


def sum_out_set(k: PotentialSet, zs: set[str]) -> PotentialSet:
    """Marginalize ``zs`` out of every member of ``k``.

    :func:`solve` sums out inside :func:`combine_sets`; this one-set form
    stays because ``bench/spans.py`` traces the solver by these names.
    """
    return combine_sets([k], zs)


def _blocks(sizes: Sequence[int], step: int) -> Iterator[list[tuple[int, int]]]:
    """Contiguous runs of the lexicographic product of sets of ``sizes``
    members (each at least one), in order, of at most ``step`` members each;
    a block is given as one member range per set.

    The split set is the earliest one whose later sets together fit in one
    block.  A block takes one member of every earlier set, a run of members
    of the split set and the whole of every later set.  The split set is cut
    into as few runs as fit, all of one length but a shorter last one: a
    split set just over one block gives two half blocks rather than a full
    one and a tiny one, and no block is larger than the one before it under
    the same prefix, so each fits in the memory its predecessor freed.
    The empty product is one block of no ranges.
    """
    if not sizes:
        yield []
        return
    split = next(k for k in range(len(sizes)) if math.prod(sizes[k + 1:]) <= step)
    count = sizes[split]
    runs = -(-count // (step // math.prod(sizes[split + 1:])))
    run = -(-count // runs)
    cuts = list(range(0, count, run)) + [count]
    later = [(0, size) for size in sizes[split + 1:]]
    for prefix in itertools.product(*map(range, sizes[:split])):
        head = [(i, i + 1) for i in prefix]
        for lo, hi in zip(cuts, cuts[1:]):
            yield head + [(lo, hi)] + later


def node_message(parts: list[PotentialSet], gone: set[str], alpha: float | None
                 ) -> tuple[PotentialSet, float | None, int | None]:
    """The product of ``parts`` with ``gone`` summed out, pruned by
    :func:`covering` at ``alpha`` (``None``: exact, no pruning).

    The product members are walked in order in blocks of at most
    ``BLOCK_BYTES`` of joint-scope tables and policy rows (:func:`_blocks`).
    Each block is combined from member slices of ``parts``, viewed without a
    copy, then contracted and pruned on its own; when there are several
    blocks their survivors are pruned once more, which keeps the first
    member of every signature over the whole product, as one covering call
    on it would; a lone block needs no merge.  In exact mode the blocks are
    written straight into the message, allocated once at the product size.
    Also returns the smallest positive entry of the unpruned message and
    covering's survivor bound for it (``None`` when exact).
    """
    cards = {v: c for p in parts for v, c in zip(p.scope, p.cards)}
    width = math.prod(cards.values()) + sum(len(p.decisions) for p in parts)
    step = max(1, BLOCK_BYTES // (8 * width))
    sizes = [len(p) for p in parts]
    blocks = (combine_sets([p.members(lo, hi) for p, (lo, hi) in zip(parts, ranges)], gone)
              for ranges in _blocks(sizes, step))
    if alpha is None:
        return concat_sets(blocks, math.prod(sizes)), None, None
    survivors = []
    found = []
    for block in blocks:
        block, cstats = covering(block, alpha)
        survivors.append(block)
        found.append(cstats)
    merged = concat_sets(survivors, sum(map(len, survivors)))
    lone = len(survivors) == 1
    del survivors, block  # only the concatenation stays live through the merge
    message = merged if lone else covering(merged, alpha)[0]
    # the bound belongs to the smallest entry over all blocks, pruned or not
    smallest, bound = min(((c.smallest_positive, c.size_bound) for c in found
                           if c.smallest_positive is not None), default=(None, None))
    return message, smallest, bound


def solve(d: InfluenceDiagram, t: TreeDecomposition, cfg: SolverConfig) -> SolverResult:
    """Run the propagation on a single-value diagram with utilities in [0, 1].

    Callers with several value variables or out-of-range utilities should
    use :func:`solve_full`, which reduces and normalizes first.
    """
    started = time.perf_counter()
    if len(d.value_ids) != 1:
        raise ValueError("solve needs a diagram with exactly one value variable")
    value_var = d.value_ids[0]
    reward = d.reward(value_var)
    if reward.size and (reward.min() < -UTILITY_RANGE_TOL
                        or reward.max() > 1.0 + UTILITY_RANGE_TOL):
        raise ValueError("utilities must lie in [0, 1]; normalize the diagram first")
    if t.root is None:
        raise ValueError("decomposition must be rooted")
    if any(t.degree(i) > 3 for i in range(t.n)):
        raise ValueError("decomposition must be binary")
    problems = validate_decomposition(d, t)
    if problems:
        raise ValueError("invalid decomposition: " + "; ".join(problems))

    m = t.n
    alpha = 1.0 + cfg.epsilon / (2 * m)
    # an epsilon too small to move alpha off 1 prunes nothing: the solve is
    # exact, which meets any (1 + epsilon) bound
    prune = alpha > 1.0
    cap = cfg.max_set_size
    sigma = assign_factors(d, t)

    hold: dict[int, list[PotentialSet]] = {i: [] for i in range(m)}
    for var in d.chance_ids:
        hold[sigma[var]].append(_cpt_potential_set(d, var))
    for dec in d.decision_ids:
        hold[sigma[dec]].append(_policy_potential_set(d, dec, cap))
    hold[sigma[value_var]].append(_utility_potential_set(d, value_var))

    for i in range(m):
        _check_cap(hold[i], cap, i, "initialization")

    cluster_sets = [set(c) for c in t.clusters]
    node_stats: list[NodeStats] = []
    messages: dict[int, PotentialSet] = {}
    # a node's last visit on the Euler tour follows its whole subtree
    last = {node: pos for pos, node in enumerate(t.euler_tour())}
    for i in sorted(last, key=last.__getitem__):
        own = hold.pop(i)
        parts = own + [messages.pop(c) for c in t.children(i)]
        _check_cap(parts, cap, i, "combination")
        parent = t.parent(i)
        separator = cluster_sets[i] & cluster_sets[parent] if parent is not None else set()
        gone = cluster_sets[i] - separator
        scope = set().union(*(p.scope for p in parts))
        if not gone <= scope:
            raise RuntimeError(f"variables {sorted(gone - scope)} reach node {i} "
                               f"without their defining tables")
        if not own and len(parts) == 1 and not gone:
            # a pass-through node: its one child's message is already covered
            # at alpha, so covering it again would keep every member
            message = parts[0]
            smallest, bound = covering_bound(message, alpha) if prune else (None, None)
        else:
            message, smallest, bound = node_message(parts, gone, alpha if prune else None)
        size = math.prod(len(p) for p in parts)
        node_stats.append(NodeStats(i, t.clusters[i], math.prod(len(p) for p in own),
                                    size, size, len(message), smallest, bound))
        messages[i] = message

    final = messages[t.root]
    if final.scope:
        raise RuntimeError("root message still carries variables")
    values = final.values.reshape(len(final))
    best_value = float(values.max())
    ties = np.nonzero(values == best_value)[0]
    # every root member carries every decision, in id order
    winner = min(ties, key=lambda i: final.policies[i].tolist())
    chosen = dict(zip(final.decisions, final.policies[winner].tolist()))
    strategy = Strategy(pure_policy(d, dec, chosen[dec]) for dec in d.decision_ids)

    stats = SolveStats(m, alpha, not prune, time.perf_counter() - started,
                       tuple(node_stats))
    return SolverResult(best_value, strategy, stats)


def shape_and_reduce(d: InfluenceDiagram,
                     decomposition: TreeDecomposition | None = None) -> ReductionResult:
    """Decomposition shaping and value merging on a valid diagram with at
    least one value variable.

    Validates the supplied decomposition (or builds one), binarizes it,
    gives every value variable a leaf, roots it at :func:`default_root`,
    and reduces to a single value variable.
    """
    # every step is looked up in this module at call time, so tracers can rebind it
    if decomposition is None:
        base = build_decomposition(d)
    else:
        problems = validate_decomposition(d, decomposition)
        if problems:
            raise ValueError("invalid decomposition: " + "; ".join(problems))
        base = decomposition
    shaped = ensure_value_leaves(d, binarize(base))
    rooted = root_and_order(shaped, default_root(shaped))
    return reduce_to_single_value(d, rooted)


def solve_full(d: InfluenceDiagram, cfg: SolverConfig,
               decomposition: TreeDecomposition | None = None) -> SolverResult:
    """Full pipeline on an arbitrary diagram.

    Validates the diagram, shapes a decomposition and merges the value
    variables (:func:`shape_and_reduce`), normalizes the utilities, solves,
    and maps the value back to the original utility scale.  The returned
    strategy covers exactly the original decision variables.
    """
    started = time.perf_counter()
    problems = validate_diagram(d)
    if problems:
        raise ValueError("invalid diagram: " + "; ".join(problems))

    if not d.value_ids:
        # no rewards anywhere: every strategy has expected utility zero
        strategy = Strategy(pure_policy(d, dec, 0) for dec in d.decision_ids)
        stats = SolveStats(0, 1.0, cfg.exact_mode, time.perf_counter() - started)
        return SolverResult(0.0, strategy, stats)

    reduced = shape_and_reduce(d, decomposition)
    normalized, offset, scale = normalize_utilities(reduced.diagram)
    result = solve(normalized, reduced.decomposition, cfg)
    value = offset + scale * result.value
    stats = replace(result.stats, wall_time=time.perf_counter() - started)
    return SolverResult(value, result.strategy, stats)
