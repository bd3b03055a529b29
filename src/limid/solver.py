"""Strategy selection by set-valued message passing over a rooted binary
tree decomposition.

Every table sits at its home, the smallest node whose cluster holds its
scope: conditional tables of chance variables, the full set of pure
policies of decision variables, and the one utility table, which
:func:`solve` first maps affinely onto [0, 1], whatever its finite range.
Messages flow from the leaves to the root; at each node its own tables
and its children's messages form one product, the variables leaving the
separator are summed out, and the resulting set is pruned to a covering
within a pointwise factor alpha = 1 + epsilon / (2m).  The three steps
run together over blocks of the product members (:func:`node_message`),
so a node's full product is never held at once, and nothing is built per
node ahead of time.  Every number surviving at the root is the exact
expected utility of the strategy recorded in its policy row, and the
maximum E among them satisfies MEU <= (1 + epsilon) * E.  With pruning
disabled the maximum is the exact MEU.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .model import (
    DECISION,
    InfluenceDiagram,
    InstanceTooLargeError,
    Strategy,
    _integer,
    pure_policy,
    pure_policy_count,
    pure_policy_tables,
    validate_diagram,
)
from .potential import (
    CoveringStats,
    PotentialSet,
    _UNIT,
    _derived,
    check_entries,
    combine_sets,
    concat_sets,
    covering,
    covering_bound,
)
from .reduction import (
    ReductionResult,
    minimal_diagram,
    normalize_utilities,
    reduce_to_single_value,
)
from .treedecomp import (
    TreeDecomposition,
    binarize,
    build_decomposition,
    default_root,
    ensure_value_leaves,
    homes,
    root_and_order,
    validate_decomposition,
)

DEFAULT_MAX_SET_SIZE = 1_000_000

#: bytes of cluster-scope tables and policy rows one block of a node's product
#: members may take; the product is never built whole beyond one block
BLOCK_BYTES = 1 << 23

@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.

    ``epsilon`` is the approximation factor; ``epsilon == 0`` means exact
    mode (no pruning), and so does an ``epsilon`` too small to move
    ``alpha`` off 1.  ``max_set_size`` (an integer of at least 1) caps each
    decision's pure-policy count and each node's product, of its own tables
    and then with its children's messages, even where it is walked in blocks.
    """

    epsilon: float = 0.0
    max_set_size: int = DEFAULT_MAX_SET_SIZE

    def __post_init__(self) -> None:
        if not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon!r}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        cap = _integer(self.max_set_size)
        if cap is None or cap < 1:
            raise ValueError(f"max_set_size must be an integer of at least 1, "
                             f"got {self.max_set_size!r}")
        object.__setattr__(self, "max_set_size", cap)


@dataclass(frozen=True)
class NodeStats:
    node: int
    cluster: tuple[str, ...]
    k_size: int
    product_size: int
    c_size: int
    smallest_positive: float | None
    size_bound: int | None


@dataclass(frozen=True)
class SolveStats:
    m: int
    alpha: float
    wall_time: float
    nodes: tuple[NodeStats, ...] = ()

    @property
    def exact(self) -> bool:
        return self.alpha == 1.0  # alpha 1 prunes nothing


@dataclass(frozen=True, eq=False)
class SolverResult:
    value: float
    strategy: Strategy
    stats: SolveStats


def _check_decomposition(d: InfluenceDiagram, t: TreeDecomposition) -> None:
    # looks validate_decomposition up in this module, so tracers can rebind it
    problems = validate_decomposition(d, t)
    if problems:
        raise ValueError("invalid decomposition: " + "; ".join(problems))


def _in_scope_order(table: np.ndarray, at: int, scope: tuple[str, ...],
                    var: str) -> np.ndarray:
    """``table``, whose axis ``at`` is ``var``'s and whose later axes follow
    the rest of ``scope``, with that axis moved to ``var``'s place in
    ``scope``: ``table`` itself when ``var`` comes first, else a C-ordered copy."""
    place = scope.index(var)
    if not place:
        return table
    axes = list(range(table.ndim))
    axes.insert(at + place, axes.pop(at))
    return np.ascontiguousarray(table.transpose(axes))


def _table_set(d: InfluenceDiagram, var: str) -> PotentialSet:
    """The one-member set of ``var``'s table, entries checked by :func:`solve`;
    it views the diagram's read-only array where that needs no reordering."""
    scope = d.family(var)
    table = d.reward(var) if var in d.rewards else _in_scope_order(d.cpt(var), 0, scope, var)
    return _derived(scope, table.shape, table[np.newaxis])


def _policy_potential_set(d: InfluenceDiagram, dec: str, cap: int) -> PotentialSet:
    count = pure_policy_count(d, dec)
    if count > cap:
        raise InstanceTooLargeError(
            f"decision {dec!r} has {count} pure policies, over the set-size cap {cap}")
    scope = d.family(dec)
    tables = _in_scope_order(pure_policy_tables(d, dec), 1, scope, dec)
    indices = np.arange(count, dtype=np.int64).reshape(-1, 1)
    return _derived(scope, tables.shape[1:], tables, (dec,), indices)


def _check_cap(size: int, cap: int, node: int, stage: str) -> None:
    """Reject a product of ``size`` members over ``cap`` before it is built;
    combined sets share no decision, so the size is exact."""
    if size > cap:
        raise InstanceTooLargeError(
            f"set size {size} at node {node} ({stage}) exceeds the cap {cap}")


def sum_out_set(k: PotentialSet, zs: set[str]) -> PotentialSet:
    """``combine_sets([k], zs)``, a name ``bench/spans.py`` still traces."""
    return combine_sets([k], zs)


def _blocks(sizes: Sequence[int], step: int) -> Iterator[list[tuple[int, int]]]:
    """Contiguous runs of the lexicographic product of sets of ``sizes``
    members (each at least one), in order, of at most ``step`` members each;
    a block is given as one member range per set.

    The split set is the earliest one whose later sets together fit in one
    block.  A block takes one member of every earlier set, a run of members
    of the split set and the whole of every later set.  The split set is cut
    into as few equal runs as fit, but a shorter last one, so no block is
    larger than the one before it under the same prefix and each fits in
    the memory its predecessor freed.  The empty product is one block of no
    ranges.
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
                 ) -> tuple[PotentialSet, CoveringStats]:
    """The product of ``parts`` with ``gone`` summed out, pruned by
    :func:`covering` at ``alpha`` (``None``: exact, no pruning).

    A product within one block of ``BLOCK_BYTES`` of joint-scope tables and
    policy rows is combined and covered in one go; a larger one in such
    blocks (:func:`_blocks`) of member views, each pruned on its own, and
    their survivors once more, which keeps the first member of every
    signature over the whole product.  In exact mode the blocks go straight
    into the message.  Also returns the unpruned message's stats.
    """
    sizes = [len(p) for p in parts]
    n = math.prod(sizes)
    cards = {v: c for p in parts for v, c in zip(p.scope, p.cards)}
    width = math.prod(cards.values()) + sum(len(p.decisions) for p in parts)
    step = max(1, BLOCK_BYTES // (8 * width))  # one member always fits in a block
    if n <= step:
        message = combine_sets(parts, gone)
        return (message, CoveringStats()) if alpha is None else covering(message, alpha)
    blocks = (combine_sets([p.members(lo, hi) for p, (lo, hi) in zip(parts, ranges)], gone)
              for ranges in _blocks(sizes, step))
    if alpha is None:
        return concat_sets(blocks, n), CoveringStats()
    survivors, found = [], []
    for block in blocks:
        block, cstats = covering(block, alpha)
        survivors.append(block)
        found.append(cstats)
    merged = concat_sets(survivors, sum(map(len, survivors)))
    del survivors, block  # only the concatenation stays live through the merge
    # the bound belongs to the smallest entry over all blocks, pruned or not
    return covering(merged, alpha)[0], min(
        (c for c in found if c.smallest_positive is not None),
        key=lambda c: c.smallest_positive, default=CoveringStats())


def solve(d: InfluenceDiagram, t: TreeDecomposition, cfg: SolverConfig) -> SolverResult:
    """Run the propagation on a diagram with one value variable and any
    finite rewards, mapped onto [0, 1] first by
    :func:`~limid.reduction.normalize_utilities` and the value mapped back.
    :func:`solve_full` merges several value variables first."""
    started = time.perf_counter()
    d, offset, scale, unit = normalize_utilities(d)
    if not t.is_binary():
        raise ValueError("decomposition must be binary")
    _check_decomposition(d, t)
    # the orientation walk reversed lists each subtree before its root; it
    # needs a root, so an unrooted t fails here, before any set is built
    parents, children, walk = t._orientation

    m = t.n
    alpha = 1.0 + cfg.epsilon / (2 * m)
    # an epsilon too small to move alpha off 1 prunes nothing: the solve is
    # exact, which meets any (1 + epsilon) bound
    prune = alpha > 1.0
    cap = cfg.max_set_size
    # a direct call may bring tables no validation has seen: check them all at once
    check_entries(np.concatenate([d.cpt(v).ravel() for v in d.chance_ids]
                                 + [d.reward(v).ravel() for v in d.value_ids]))
    # every table sits at its home, which validation guarantees exists
    home = homes(d, t)
    hold: list[list[PotentialSet]] = [[] for _ in range(m)]
    for var in d.chance_ids + d.decision_ids + d.value_ids:
        hold[home[var]].append(_policy_potential_set(d, var, cap) if d.kind(var) == DECISION
                               else _table_set(d, var))
    own_size = [math.prod(map(len, own)) for own in hold]
    for i, size in enumerate(own_size):
        _check_cap(size, cap, i, "initialization")

    cluster_sets = [set(c) for c in t.clusters]
    node_stats: list[NodeStats] = []
    messages: dict[int, PotentialSet] = {}
    for i in reversed(walk):
        own, hold[i] = hold[i], []
        parts = own + [messages.pop(c) for c in children[i]]
        size = math.prod(map(len, parts))
        _check_cap(size, cap, i, "combination")
        parent = parents[i]
        gone = cluster_sets[i] - cluster_sets[parent] if parent is not None else cluster_sets[i]
        if not parts or (not own and len(parts) == 1 and not gone):
            # an empty node sends the unit, and a pass-through node its one
            # child's message, which is already covered at alpha: covering
            # either would keep every member
            message = parts[0] if parts else _UNIT
            found = covering_bound(message, alpha) if prune else CoveringStats()
        else:
            message, found = node_message(parts, gone, alpha if prune else None)
        node_stats.append(NodeStats(i, t.clusters[i], own_size[i], size, len(message),
                                    found.smallest_positive, found.size_bound))
        messages[i] = message

    # the root sums out its whole cluster, which holds every scope below it
    final = messages[t.root]
    values = final.values.reshape(len(final))
    best_value = float(values.max())
    ties = np.nonzero(values == best_value)[0]
    # every root member carries every decision, in id order
    winner = min(ties, key=lambda i: final.policies[i].tolist())
    chosen = dict(zip(final.decisions, final.policies[winner].tolist()))
    strategy = Strategy(pure_policy(d, dec, chosen[dec]) for dec in d.decision_ids)

    stats = SolveStats(m, alpha, time.perf_counter() - started, tuple(node_stats))
    return SolverResult(unit * (offset + scale * best_value), strategy, stats)


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
        _check_decomposition(d, decomposition)
        base = decomposition
    shaped, leaves = ensure_value_leaves(d, binarize(base))
    rooted = root_and_order(shaped, default_root(shaped, leaves))
    return reduce_to_single_value(d, rooted, leaves)


def _restrict(t: TreeDecomposition, d: InfluenceDiagram) -> TreeDecomposition:
    """``t`` cut to the variables of ``d``, whose families only shrink, less its
    empty nodes: each one's other neighbours join its smallest neighbour.  An
    empty node separates no variable, so the result stays valid; one empty
    node stays when every cluster is empty."""
    clusters = [tuple(v for v in c if d.has_variable(v)) for c in t.clusters]
    adj = [set(t.neighbors(i)) for i in range(t.n)]
    kept = []
    for i, cluster in enumerate(clusters):
        if cluster or not adj[i]:
            kept.append(i)
            continue
        hub = min(adj[i])
        for j in adj[i]:
            adj[j] = (adj[j] | adj[i] if j == hub else adj[j] | {hub}) - {i, j}
    new = {old: pos for pos, old in enumerate(kept)}
    return TreeDecomposition(tuple(clusters[i] for i in kept),
                             tuple((new[i], new[j]) for i in kept for j in adj[i]))


def solve_full(d: InfluenceDiagram, cfg: SolverConfig,
               decomposition: TreeDecomposition | None = None) -> SolverResult:
    """Full pipeline on an arbitrary diagram.

    Validates the diagram, reduces it to its minimal diagram
    (:func:`~limid.reduction.minimal_diagram`) with a supplied decomposition
    checked against ``d`` and restricted to the kept variables, shapes a
    decomposition and merges the value variables (:func:`shape_and_reduce`),
    and solves (:func:`solve`).  The strategy is lifted back to ``d``, with
    its original decisions and parents; ``stats`` describe the solve of the
    minimal diagram.
    """
    started = time.perf_counter()
    problems = validate_diagram(d)
    if problems:
        raise ValueError("invalid diagram: " + "; ".join(problems))

    minimal, lift = minimal_diagram(d)
    if not minimal.value_ids:
        # no rewards anywhere: every strategy has expected utility zero
        if decomposition is not None:
            _check_decomposition(d, decomposition)
        stats = SolveStats(0, 1.0, time.perf_counter() - started)
        return SolverResult(0.0, lift(Strategy(())), stats)
    if decomposition is not None and minimal is not d:
        _check_decomposition(d, decomposition)
        decomposition = _restrict(decomposition, minimal)
    reduced = shape_and_reduce(minimal, decomposition)
    result = solve(reduced.diagram, reduced.decomposition, cfg)
    stats = replace(result.stats, wall_time=time.perf_counter() - started)
    return SolverResult(result.value, lift(result.strategy), stats)
