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
broadcasts each set's member axis against the others and sums the product
straight down to the remaining scope.  A caller walks a large product in
blocks by combining member slices of the sets (:meth:`PotentialSet.members`,
views without a copy), so the product is never held whole.  The solver
places each decision's policies at exactly one node and sibling subtrees
are disjoint, so combined sets never share a decision; that is checked
once per combination.

``covering`` prunes a set down to one representative per bucket of the
signature y -> floor(log_alpha P(y)), with a distinct code for zero
entries.  Any two members sharing a signature dominate each other within a
pointwise factor alpha, so every pruned member stays alpha-covered by a
survivor.  Members are grouped on an exact key: their signatures are packed
into ``int64`` words as they are computed, so no signature matrix exists.
The packing range runs from one signature below the smallest positive
entry's to one above the largest entry's, a margin for last-bit
disagreements between ``math.log`` and ``np.log``.

Arrays handed to the :class:`PotentialSet` constructor are copied and
checked, so no caller can change a set afterwards.  Every other set is
derived from valid sets (member slices, products, sums, covering gathers,
concatenations) and takes its arrays over as they are, read-only, with no
second check.  Only a product or a sum can make a new number, so
:func:`combine_sets` checks that its entries stay finite; slices, gathers
and concatenations copy entries of valid sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

#: quotients this close to an integer are snapped to it, keeping bucket
#: signatures stable at bucket boundaries
_LOG_SNAP = 1e-12

#: the error for entries outside [0, inf)
_BAD_ENTRIES = "potential set entries must be nonnegative and finite"

#: entries per row chunk of covering's passes (the smallest positive entry,
#: then signatures packed straight into their keys), which bounds their
#: temporaries
_CHUNK_ENTRIES = 1 << 14


def _check_ids(ids: tuple[str, ...], what: str) -> None:
    if any(x >= y for x, y in zip(ids, ids[1:])):
        raise ValueError(f"{what} must be sorted by id without repeats")


@dataclass(frozen=True, eq=False)
class PotentialSet:
    """Potentials over one common scope, each tagged with pure-policy indices.

    ``values`` has shape ``(n, *cards)``; ``policies`` has shape
    ``(n, len(decisions))`` and defaults to no decisions at all.  The
    constructor copies both arrays, validates them (shape, finite,
    nonnegative) and makes them read-only.
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
        values = np.array(self.values, dtype=float, order="C").reshape((n,) + cards)
        # min and max propagate NaN, so two reductions check every entry
        if not (values.min(initial=0.0) >= 0.0 and math.isfinite(values.max(initial=0.0))):
            raise ValueError(_BAD_ENTRIES)
        policies = np.zeros((n, 0)) if self.policies is None else self.policies
        if np.shape(policies) != (n, len(decisions)):
            raise ValueError("one policy index per member and decision required")
        policies = np.array(policies, dtype=np.int64, order="C").reshape(n, len(decisions))
        _take(self, scope, cards, values, decisions, policies)

    def __len__(self) -> int:
        return self.values.shape[0]

    def members(self, start: int, stop: int) -> PotentialSet:
        """Members ``start`` to ``stop`` as a set viewing this set's arrays, without a copy."""
        if not 0 <= start <= stop <= len(self):
            raise ValueError(f"member range {start}..{stop} outside a set of {len(self)}")
        return _derived(self.scope, self.cards, self.values[start:stop], self.decisions,
                        self.policies[start:stop])


def _take(k: PotentialSet, scope: tuple[str, ...], cards: tuple[int, ...], values: np.ndarray,
          decisions: tuple[str, ...], policies: np.ndarray) -> PotentialSet:
    """``k`` with these fields, its arrays taken over as they are and made
    read-only, with no check."""
    values.flags.writeable = False
    policies.flags.writeable = False
    for name, field in zip(("scope", "cards", "values", "decisions", "policies"),
                           (scope, cards, values, decisions, policies)):
        object.__setattr__(k, name, field)
    return k


def _derived(*fields) -> PotentialSet:
    """A set derived from valid sets, made by :func:`_take` with no second check."""
    return _take(object.__new__(PotentialSet), *fields)


def combine_sets(sets: Sequence[PotentialSet], sum_out: Iterable[str] = ()) -> PotentialSet:
    """The Cartesian-product multiplication of ``sets``, with the variables
    ``sum_out`` marginalized out of every member.

    Member order is the lexicographic product order of the input members,
    the first set varying slowest; the empty product is the scalar unit.
    Each set's member axis broadcasts against the others; tables are
    multiplied left to right over the joint scope and summed in one ``sum``
    over the marginalized axes, so a member comes out with the same numbers
    whichever member slices of the sets it is built from.  Raises
    ``RuntimeError`` when two inputs carry policies of the same decision and
    ``ValueError`` on inconsistent cardinalities, a variable to sum out that
    no input has, or a product or sum that overflows to inf (or gives NaN
    from inf * 0).
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
        return _derived((), (), np.ones((1,)), (), np.empty((1, 0), dtype=np.int64))
    scope = tuple(sorted(card_by_var))
    cards = tuple(card_by_var[v] for v in scope)
    sizes = tuple(len(s) for s in sets)
    n = math.prod(sizes)
    order = sorted(decisions)
    policies = np.empty((n, len(order)), dtype=np.int64)
    grid = policies.reshape(sizes + (len(order),))
    values = None
    for k, s in enumerate(sets):
        row = (1,) * k + (sizes[k],) + (1,) * (len(sets) - k - 1)
        grid[..., [order.index(dec) for dec in s.decisions]] = \
            s.policies.reshape(row + (len(s.decisions),))
        pick = s.values.reshape(row + _joint_shape(s, scope, cards))
        values = pick if values is None else values * pick
    values = np.ascontiguousarray(values.reshape((n,) + cards))
    if zs:
        values = values.sum(axis=tuple(1 + i for i, v in enumerate(scope) if v in zs))
        cards = tuple(c for v, c in zip(scope, cards) if v not in zs)
        scope = tuple(v for v in scope if v not in zs)
    # entries are nonnegative, so one max (which propagates NaN) checks them all
    if not math.isfinite(values.max(initial=0.0)):
        raise ValueError(_BAD_ENTRIES)
    return _derived(scope, cards, values, tuple(order), policies)


def _joint_shape(s: PotentialSet, scope: tuple[str, ...],
                 cards: tuple[int, ...]) -> tuple[int, ...]:
    """The table shape of ``s`` laid over the joint ``scope``, 1 on axes it lacks."""
    return tuple(c if v in s.scope else 1 for v, c in zip(scope, cards))


def concat_sets(sets: Iterable[PotentialSet], total: int) -> PotentialSet:
    """The ``total`` members of ``sets`` one after another; all share scope
    and decisions.  Each set is written into the result as it arrives, so an
    iterator of sets is never held whole; a lone set is returned as it is."""
    lo = 0
    for s in sets:
        if lo == 0:
            if len(s) == total:
                return s
            first = s
            values = np.empty((total,) + s.values.shape[1:])
            policies = np.empty((total, len(s.decisions)), dtype=np.int64)
        values[lo:lo + len(s)] = s.values
        policies[lo:lo + len(s)] = s.policies
        lo += len(s)
    return _derived(first.scope, first.cards, values, first.decisions, policies)


def floor_log(value: float, alpha: float) -> int:
    """floor(log_alpha(value)) with boundary snapping; ``value`` must be > 0."""
    q = math.log(value) / math.log(alpha)
    r = round(q)
    return int(r) if abs(q - r) <= _LOG_SNAP else int(math.floor(q))


@dataclass(frozen=True)
class CoveringStats:
    """A covering input's smallest positive entry and the survivor cap it gives, or ``None``s."""

    smallest_positive: float | None = None
    size_bound: int | None = None


def covering(k: PotentialSet, alpha: float) -> tuple[PotentialSet, CoveringStats]:
    """Prune ``k`` to a subset covering it within a pointwise factor ``alpha``.

    Members are bucketed on the integer signature floor(log_alpha value)
    per assignment (zero entries get their own code); the first member of
    each bucket survives, in input order.  Rows are grouped on an exact key
    that packs each row's signatures into ``int64`` words as they are
    computed (:func:`_packed_keys`), so no signature matrix exists.  When
    every member survives, ``k`` itself is returned.  The returned stats
    carry the guaranteed cap ``(1 - floor(log_alpha t)) ** assignments`` on
    the number of survivors, valid whenever all entries are positive and at
    most one.
    """
    if not alpha > 1.0:
        raise ValueError("alpha must be greater than 1")
    n = len(k)
    stats = covering_bound(k, alpha)
    if n < 2:  # nothing to prune
        return k, stats
    keep = _first_rows(_packed_keys(k.values.reshape(n, -1), alpha, stats.smallest_positive))
    if len(keep) < n:
        k = _derived(k.scope, k.cards, k.values[keep], k.decisions, k.policies[keep])
    return k, stats


def covering_bound(k: PotentialSet, alpha: float) -> CoveringStats:
    """The :class:`CoveringStats` that :func:`covering` returns for ``k``, without pruning it."""
    eta = math.prod(k.cards)
    flat = k.values.reshape(len(k), eta)
    smallest = math.inf
    for rows in _chunks(flat):
        x = flat[rows]
        # a masked min reduction takes several times longer than this
        smallest = min(smallest, float(np.where(x > 0.0, x, math.inf).min()))
    if smallest == math.inf:
        return CoveringStats()
    return CoveringStats(smallest, (1 - floor_log(smallest, alpha)) ** eta)


def _chunks(a: np.ndarray) -> Iterator[slice]:
    """Row ranges of ``a`` holding ``_CHUNK_ENTRIES`` entries each (at least one row)."""
    step = max(1, _CHUNK_ENTRIES // a.shape[1])
    return (slice(lo, lo + step) for lo in range(0, len(a), step))


def _packed_keys(flat: np.ndarray, alpha: float, smallest: float | None) -> np.ndarray:
    """One exact ``int64`` key row per row of ``flat``, whose smallest
    positive entry is ``smallest`` (``None`` if none, when every row gets
    the same key).

    An entry's code is 0 for zero and ``s - lo + 1`` for a signature ``s``,
    with ``lo = floor_log(smallest) - 1`` and ``hi = floor_log(largest) + 1``:
    one signature of margin on each side absorbs any last-bit disagreement
    between ``math.log`` and ``np.log``.  ``63 // bits`` codes of
    ``bits = (hi - lo + 1).bit_length()`` pack into each word (finite
    entries keep ``hi - lo`` below 2**63), so rows share a signature exactly
    when their words are equal.  Signatures and codes are made a row chunk
    at a time, so their temporaries stay bounded.
    """
    if smallest is None:
        return np.zeros((len(flat), 1), dtype=np.int64)
    lo = floor_log(smallest, alpha) - 1
    hi = floor_log(float(flat.max()), alpha) + 1
    bits = (hi - lo + 1).bit_length()
    per = 63 // bits
    column = np.arange(flat.shape[1])
    words = np.empty((len(flat), -(-flat.shape[1] // per)), dtype=np.int64)
    log_alpha = math.log(alpha)
    for rows in _chunks(flat):
        x = flat[rows]
        positive = x > 0.0
        # divide by log(alpha): multiplying by its reciprocal rounds differently
        q = np.log(x, out=np.zeros(x.shape), where=positive)
        q /= log_alpha
        r = np.rint(q)
        near = np.abs(q - r) <= _LOG_SNAP
        np.floor(q, out=q)
        np.copyto(q, r, where=near)
        code = q.astype(np.int64)
        code -= lo - 1
        code *= positive  # zero entries take code 0
        code <<= bits * (column % per)
        np.bitwise_or.reduceat(code, column[::per], axis=1, out=words[rows])
    return words


def _first_rows(words: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of every distinct row of ``words``."""
    order = np.argsort(words[:, 0]) if words.shape[1] == 1 else np.lexsort(words.T)
    words = words[order]
    starts = np.flatnonzero(np.concatenate(([True], (words[1:] != words[:-1]).any(axis=1))))
    # an unstable sort leaves a group in any order; its least index is its first row
    return np.sort(np.minimum.reduceat(order, starts))
