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
signature y -> floor(log_alpha P(y)), with a distinct sentinel for zero
entries.  Any two members sharing a signature dominate each other within a
pointwise factor alpha, so every pruned member stays alpha-covered by a
survivor.

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

#: signature value standing in for entries that are exactly zero
_ZERO_SENTINEL = np.iinfo(np.int64).min

#: quotients this close to an integer are snapped to it, keeping bucket
#: signatures stable at bucket boundaries
_LOG_SNAP = 1e-12

#: the error for entries outside [0, inf)
_BAD_ENTRIES = "potential set entries must be nonnegative and finite"

#: entries per row chunk of covering's signature pass, which bounds its float
#: temporaries; a set of at most this many entries skips the row key
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
    """The smallest positive entry of a covering call's input and the cap it
    gives on the survivors, as :func:`covering_bound` returns them."""

    smallest_positive: float | None
    size_bound: int | None


def covering(k: PotentialSet, alpha: float) -> tuple[PotentialSet, CoveringStats]:
    """Prune ``k`` to a subset covering it within a pointwise factor ``alpha``.

    Members are bucketed on the integer signature floor(log_alpha value)
    per assignment (zero entries get their own sentinel); the first member
    of each bucket survives, in input order.  Signatures are computed in row
    chunks of ``_CHUNK_ENTRIES`` entries into one ``int64`` matrix, so the
    float temporaries stay bounded.  A set larger than one chunk is grouped
    on a 64-bit key per signature row, and the groups are checked exactly
    against the rows; on any collision, and for sets within one chunk, rows
    are grouped as raw bytes.  When every member survives, ``k`` itself is
    returned.  The returned stats carry the guaranteed cap
    ``(1 - floor(log_alpha t)) ** assignments`` on the number of survivors,
    valid whenever all entries are positive and at most one.
    """
    if not alpha > 1.0:
        raise ValueError("alpha must be greater than 1")
    n = len(k)
    eta = math.prod(k.cards)
    if n == 0:
        return k, CoveringStats(None, None)
    sig, smallest = _signatures(k.values.reshape(n, eta), alpha)
    keep = _first_rows(sig)
    del sig  # freed before the survivors are gathered, to lower the peak
    if len(keep) < n:
        k = _derived(k.scope, k.cards, k.values[keep], k.decisions, k.policies[keep])
    return k, CoveringStats(*_size_bound(smallest, alpha, eta))


def covering_bound(k: PotentialSet, alpha: float) -> tuple[float | None, int | None]:
    """The smallest positive entry t of ``k`` (``None`` if there is none) and
    the cap ``(1 - floor_log(t, alpha)) ** assignments`` on the survivors of
    :func:`covering`, valid whenever all entries are positive and at most one."""
    eta = math.prod(k.cards)
    flat = k.values.reshape(len(k), eta)
    smallest = math.inf
    for rows in _chunks(flat):
        x = flat[rows]
        smallest = min(smallest, _smallest_positive(x, x > 0.0))
    return _size_bound(smallest, alpha, eta)


def _chunks(a: np.ndarray) -> Iterator[slice]:
    """Row ranges of ``a`` holding ``_CHUNK_ENTRIES`` entries each (at least one row)."""
    step = max(1, _CHUNK_ENTRIES // a.shape[1])
    return (slice(lo, lo + step) for lo in range(0, len(a), step))


def _smallest_positive(x: np.ndarray, positive: np.ndarray) -> float:
    # a masked min reduction takes several times longer than this
    return float(np.where(positive, x, math.inf).min())


def _size_bound(smallest: float, alpha: float, eta: int) -> tuple[float | None, int | None]:
    if smallest == math.inf:
        return None, None
    return smallest, (1 - floor_log(smallest, alpha)) ** eta


def _signatures(flat: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    """The ``int64`` signature of every entry of ``flat`` and its smallest
    positive entry (``inf`` if none)."""
    sig = np.empty(flat.shape, dtype=np.int64)
    log_alpha = math.log(alpha)
    smallest = math.inf
    for rows in _chunks(flat):
        x = flat[rows]
        positive = x > 0.0
        smallest = min(smallest, _smallest_positive(x, positive))
        # divide by log(alpha): multiplying by its reciprocal rounds differently
        q = np.log(x, out=np.zeros(x.shape), where=positive)
        q /= log_alpha
        r = np.rint(q)
        near = np.abs(q - r) <= _LOG_SNAP
        np.floor(q, out=q)
        np.copyto(q, r, where=near)
        # the sentinel -2**63 is exact in float64, so it survives the cast
        np.copyto(q, float(_ZERO_SENTINEL), where=~positive)
        np.copyto(sig[rows], q, casting="unsafe")
    return sig, smallest


def _key_multipliers(width: int) -> np.ndarray:
    """Fixed odd 64-bit multipliers, one per signature column."""
    return np.random.default_rng(width).integers(2**64, size=width, dtype=np.uint64) | np.uint64(1)


def _row_keys(sig: np.ndarray) -> np.ndarray:
    """One ``uint64`` key per row of ``sig``.

    Every entry is mixed before the columns are summed: with a plain
    multiply-add key the zero sentinel -2**63 maps to 2**63 under any odd
    multiplier, so rows differing only in where their zeros sit would collide.
    """
    u = sig.view(np.uint64)
    key = np.zeros(len(u), dtype=np.uint64)
    for j, mult in enumerate(_key_multipliers(u.shape[1])):
        h = u[:, j] ^ (u[:, j] >> np.uint64(31))
        h *= mult
        h ^= h >> np.uint64(29)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(32)
        key += h
    return key


def _first_rows(sig: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of every distinct row of ``sig``."""
    if sig.size > _CHUNK_ENTRIES:
        keys = _row_keys(sig)
        # an unstable sort groups equal keys; each group's least row is its first
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        del keys
        first = np.minimum.reduceat(order, starts)
        # a key group is one signature only if every row equals the group's first
        # row; both are taken in sorted order, so no inverse map is built
        owner = np.repeat(first, np.diff(starts, append=len(order)))
        if all(np.array_equal(sig[order[rows]], sig[owner[rows]]) for rows in _chunks(sig)):
            return np.sort(first)
    # one opaque byte string per row: np.unique(sig, axis=0) forms the same groups
    # but compares rows field by field, several times slower
    rows = sig.view(np.dtype((np.void, sig.itemsize * sig.shape[1]))).ravel()
    return np.sort(np.unique(rows, return_index=True)[1])


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
