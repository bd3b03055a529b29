"""Sets of dense potentials tagged with the pure policies that produced them.

A potential is a nonnegative table over the joint assignments of its scope
(an id-sorted tuple of discrete variables).  A :class:`PotentialSet`
stacks the tables of its members over one common scope and records their
provenance as a policy-index matrix: ``decisions`` is an id-sorted tuple of
decision ids, and row ``i`` of ``policies`` holds the pure-policy index each
of those decisions takes in member ``i``.  A maximizing member can thus be
turned back into a strategy.

Sets are combined by pairwise multiplication (Cartesian product, rows laid
out in lexicographic pair order) and marginalized member-wise.  The solver
places each decision's policies at exactly one node and sibling subtrees
are disjoint, so combined sets never share a decision; that is checked once
per combination.

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


def _combine_pair(a: PotentialSet, b: PotentialSet) -> PotentialSet:
    shared = set(a.decisions) & set(b.decisions)
    if shared:
        raise RuntimeError(f"decisions {sorted(shared)} met twice during combination")
    card_by_var = dict(zip(a.scope, a.cards))
    for var, card in zip(b.scope, b.cards):
        if card_by_var.setdefault(var, card) != card:
            raise ValueError(f"inconsistent cardinality for {var!r}")
    scope = tuple(sorted(card_by_var))
    cards = tuple(card_by_var[v] for v in scope)
    shape_a = tuple(c if v in a.scope else 1 for v, c in zip(scope, cards))
    shape_b = tuple(c if v in b.scope else 1 for v, c in zip(scope, cards))
    na, nb = len(a), len(b)
    lhs = a.values.reshape((na, 1) + shape_a)
    rhs = b.values.reshape((1, nb) + shape_b)
    values = (lhs * rhs).reshape((na * nb,) + cards)

    # member i * nb + j pairs row i of a with row j of b
    joined = a.decisions + b.decisions
    columns = sorted(range(len(joined)), key=joined.__getitem__)
    policies = np.concatenate([np.repeat(a.policies, nb, axis=0),
                               np.tile(b.policies, (na, 1))], axis=1)
    return PotentialSet(scope, cards, values, tuple(joined[c] for c in columns),
                        policies[:, columns])


def combine_sets(sets: Sequence[PotentialSet]) -> PotentialSet:
    """Cartesian-product multiplication of potential sets.

    Member order is the lexicographic product order of the input members;
    the empty product is the scalar unit.  Raises ``RuntimeError`` when two
    inputs carry policies of the same decision.
    """
    if not sets:
        return PotentialSet((), (), np.ones((1,)))
    out = sets[0]
    for nxt in sets[1:]:
        out = _combine_pair(out, nxt)
    return out


def sum_out_set(k: PotentialSet, zs: Iterable[str]) -> PotentialSet:
    """Marginalize ``zs`` out of every member; policies are carried through."""
    zs = set(zs)
    if not zs <= set(k.scope):
        raise ValueError(f"cannot sum out {sorted(zs - set(k.scope))}: not in scope")
    if not zs:
        return k
    axes = tuple(1 + i for i, v in enumerate(k.scope) if v in zs)
    keep = tuple(i for i, v in enumerate(k.scope) if v not in zs)
    scope = tuple(k.scope[i] for i in keep)
    cards = tuple(k.cards[i] for i in keep)
    return PotentialSet(scope, cards, k.values.sum(axis=axes), k.decisions, k.policies)


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

    smallest = float(flat[positive].min()) if np.any(positive) else None
    bound = None if smallest is None else (1 - floor_log(smallest, alpha)) ** eta
    stats = CoveringStats(n, len(pruned), smallest, eta, bound, alpha, had_zero)
    return pruned, stats


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
