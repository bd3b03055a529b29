"""Sets of dense potentials tagged with the pure policies that produced them.

A potential is a nonnegative table over the joint assignments of its scope
(an id-sorted tuple of discrete variables).  A :class:`PotentialSet`
stacks the tables of its members over one common scope and records their
provenance as a policy-index matrix: ``decisions`` is an id-sorted tuple of
decision ids, and row ``i`` of ``policies`` holds the pure-policy index each
of those decisions takes in member ``i``.  A maximizing member can thus be
turned back into a strategy.

Sets are combined by multiplication over their Cartesian product (members
in lexicographic order) with the marginalization fused in: ``combine_sets``
builds any contiguous range of product members already summed down to the
remaining scope, so a caller can walk a large product in blocks without
ever holding it whole.  The solver places each decision's policies at
exactly one node and sibling subtrees are disjoint, so combined sets never
share a decision; that is checked once per combination.

``covering`` prunes a set down to one representative per bucket of the
signature y -> floor(log_alpha P(y)), with a distinct sentinel for zero
entries.  Any two members sharing a signature dominate each other within a
pointwise factor alpha, so every pruned member stays alpha-covered by a
survivor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: signature value standing in for entries that are exactly zero
_ZERO_SENTINEL = np.iinfo(np.int64).min

#: quotients this close to an integer are snapped to it, keeping bucket
#: signatures stable at bucket boundaries
_LOG_SNAP = 1e-12


def _frozen(a: np.ndarray, dtype: type, shape: tuple[int, ...]) -> np.ndarray:
    a = np.array(a, dtype=dtype, order="C").reshape(shape)
    a.flags.writeable = False
    return a


def _check_ids(ids: tuple[str, ...], what: str) -> None:
    if any(x >= y for x, y in zip(ids, ids[1:])):
        raise ValueError(f"{what} must be sorted by id without repeats")


@dataclass(frozen=True, eq=False)
class PotentialSet:
    """Potentials over one common scope, each tagged with pure-policy indices.

    ``values`` has shape ``(n, *cards)``; ``policies`` has shape
    ``(n, len(decisions))`` and defaults to no decisions at all.
    """

    scope: tuple[str, ...]
    cards: tuple[int, ...]
    values: np.ndarray
    decisions: tuple[str, ...] = ()
    policies: np.ndarray | None = None

    def __post_init__(self) -> None:
        scope = tuple(self.scope)
        cards = tuple(int(c) for c in self.cards)
        decisions = tuple(self.decisions)
        _check_ids(scope, "potential set scope")
        _check_ids(decisions, "potential set decisions")
        n = np.shape(self.values)[0]
        values = _frozen(self.values, float, (n,) + cards)
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ValueError("potential set entries must be nonnegative and finite")
        policies = np.zeros((n, 0)) if self.policies is None else self.policies
        if np.shape(policies) != (n, len(decisions)):
            raise ValueError("one policy index per member and decision required")
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "cards", cards)
        object.__setattr__(self, "decisions", decisions)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "policies", _frozen(policies, np.int64, (n, len(decisions))))

    def __len__(self) -> int:
        return self.values.shape[0]


def combine_sets(sets: Sequence[PotentialSet], sum_out: Iterable[str] = (),
                 start: int = 0, stop: int | None = None) -> PotentialSet:
    """Members ``start`` to ``stop`` of the Cartesian-product multiplication of
    ``sets``, with the variables ``sum_out`` marginalized out of every member.

    Member order is the lexicographic product order of the input members,
    the first set varying slowest; the empty product is the scalar unit.
    Tables are multiplied left to right over the joint scope and summed in
    one ``sum`` over the marginalized axes, so a member comes out with the
    same numbers in whatever range it is built.  Raises ``RuntimeError``
    when two inputs carry policies of the same decision and ``ValueError``
    on inconsistent cardinalities or a variable to sum out that no input has.
    """
    card_by_var: dict[str, int] = {}
    decisions: list[str] = []
    for s in sets:
        shared = set(decisions) & set(s.decisions)
        if shared:
            raise RuntimeError(f"decisions {sorted(shared)} met twice during combination")
        decisions.extend(s.decisions)
        for var, card in zip(s.scope, s.cards):
            if card_by_var.setdefault(var, card) != card:
                raise ValueError(f"inconsistent cardinality for {var!r}")
    zs = set(sum_out)
    if not zs <= card_by_var.keys():
        raise ValueError(f"cannot sum out {sorted(zs - card_by_var.keys())}: not in scope")
    if not sets:
        return PotentialSet((), (), np.ones((1,)))
    scope = tuple(sorted(card_by_var))
    cards = tuple(card_by_var[v] for v in scope)
    sizes = tuple(len(s) for s in sets)
    total = math.prod(sizes)
    stop = total if stop is None else stop
    if not 0 <= start <= stop <= total:
        raise ValueError(f"member range {start}..{stop} outside the product of {total}")
    n = stop - start
    order = sorted(decisions)
    policies = np.empty((n, len(order)), dtype=np.int64)
    if n == total:
        # the whole product: each set's member axis broadcasts against the others
        rows = [(1,) * k + (size,) + (1,) * (len(sets) - k - 1) for k, size in enumerate(sizes)]
        picks = [s.values.reshape(r + _joint_shape(s, scope, cards)) for s, r in zip(sets, rows)]
        grid = policies.reshape(sizes + (len(order),))
        policy_picks = [s.policies.reshape(r + (len(s.decisions),)) for s, r in zip(sets, rows)]
    else:
        members = np.unravel_index(np.arange(start, stop), sizes)
        picks = [s.values[m].reshape((n,) + _joint_shape(s, scope, cards))
                 for s, m in zip(sets, members)]
        grid = policies
        policy_picks = [s.policies[m] for s, m in zip(sets, members)]
    for s, pick in zip(sets, policy_picks):
        grid[..., [order.index(dec) for dec in s.decisions]] = pick
    values = picks[0]
    for pick in picks[1:]:
        values = values * pick
    values = np.ascontiguousarray(values.reshape((n,) + cards))
    if zs:
        values = values.sum(axis=tuple(1 + i for i, v in enumerate(scope) if v in zs))
        cards = tuple(c for v, c in zip(scope, cards) if v not in zs)
        scope = tuple(v for v in scope if v not in zs)
    return PotentialSet(scope, cards, values, tuple(order), policies)


def _joint_shape(s: PotentialSet, scope: tuple[str, ...],
                 cards: tuple[int, ...]) -> tuple[int, ...]:
    """The table shape of ``s`` laid over the joint ``scope``, 1 on axes it lacks."""
    return tuple(c if v in s.scope else 1 for v, c in zip(scope, cards))


def concat_sets(sets: Sequence[PotentialSet]) -> PotentialSet:
    """The members of ``sets`` one after another; all share scope and decisions."""
    first = sets[0]
    return PotentialSet(first.scope, first.cards, np.concatenate([s.values for s in sets]),
                        first.decisions, np.concatenate([s.policies for s in sets]))


def floor_log(value: float, alpha: float) -> int:
    """floor(log_alpha(value)) with boundary snapping; ``value`` must be > 0."""
    q = math.log(value) / math.log(alpha)
    r = round(q)
    return int(r) if abs(q - r) <= _LOG_SNAP else int(math.floor(q))


@dataclass(frozen=True)
class CoveringStats:
    """Bookkeeping for a single covering call."""

    input_size: int
    output_size: int
    smallest_positive: float | None
    assignments: int
    size_bound: int | None
    alpha: float
    had_zero: bool


def covering(k: PotentialSet, alpha: float) -> tuple[PotentialSet, CoveringStats]:
    """Prune ``k`` to a subset covering it within a pointwise factor ``alpha``.

    Members are bucketed on the integer signature floor(log_alpha value)
    per assignment (zero entries get their own sentinel); the first member
    of each bucket survives.  The returned stats carry the guaranteed cap
    ``(1 - floor(log_alpha t)) ** assignments`` on the number of survivors,
    valid whenever all entries are positive and at most one.
    """
    if not alpha > 1.0:
        raise ValueError("alpha must be greater than 1")
    n = len(k)
    eta = math.prod(k.cards)
    if n == 0:
        return k, CoveringStats(0, 0, None, eta, None, alpha, False)
    flat = k.values.reshape(n, eta)
    positive = flat > 0.0
    had_zero = bool(np.any(~positive))

    sig = np.full(flat.shape, _ZERO_SENTINEL, dtype=np.int64)
    if np.any(positive):
        q = np.log(flat[positive]) / math.log(alpha)
        r = np.rint(q)
        sig[positive] = np.where(np.abs(q - r) <= _LOG_SNAP, r, np.floor(q)).astype(np.int64)
    # one opaque byte string per row: np.unique(sig, axis=0) forms the same groups
    # but compares rows field by field, several times slower
    rows = sig.view(np.dtype((np.void, sig.itemsize * eta))).ravel()
    keep = np.sort(np.unique(rows, return_index=True)[1])
    pruned = PotentialSet(k.scope, k.cards, k.values[keep], k.decisions, k.policies[keep])

    smallest, bound = covering_bound(k, alpha)
    stats = CoveringStats(n, len(pruned), smallest, eta, bound, alpha, had_zero)
    return pruned, stats


def covering_bound(k: PotentialSet, alpha: float) -> tuple[float | None, int | None]:
    """The smallest positive entry t of ``k`` (``None`` if there is none) and
    the cap ``(1 - floor_log(t, alpha)) ** assignments`` on the survivors of
    :func:`covering`, valid whenever all entries are positive and at most one."""
    positive = k.values[k.values > 0.0]
    if not positive.size:
        return None, None
    smallest = float(positive.min())
    return smallest, (1 - floor_log(smallest, alpha)) ** math.prod(k.cards)


def is_covering(k: PotentialSet, kprime: PotentialSet, alpha: float,
                slack: float = 1e-12) -> bool:
    """Exhaustively check that every member of ``k`` is pointwise dominated
    by ``alpha`` times some member of ``kprime``."""
    if len(k) == 0:
        return True
    eta = math.prod(k.cards)
    covered = k.values.reshape(len(k), 1, eta)
    covers = kprime.values.reshape(1, len(kprime), eta)
    ok = np.all(covered <= alpha * covers * (1.0 + slack), axis=2)
    return bool(ok.any(axis=1).all())
