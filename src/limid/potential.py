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

Arrays handed to the :class:`PotentialSet` constructor are copied, so no
caller can change a set afterwards; arrays this module allocates itself
(products, sums, gathers, concatenations) are adopted as they are through
:meth:`PotentialSet.adopt`, and member slices share their set's read-only
arrays.
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

#: entries per row chunk of covering's signature pass, which bounds its float
#: temporaries; a set of at most this many entries skips the row key
_CHUNK_ENTRIES = 1 << 14


def _frozen(a: np.ndarray, dtype: type, shape: tuple[int, ...], copy: bool) -> np.ndarray:
    a = (np.array if copy else np.asarray)(a, dtype=dtype, order="C").reshape(shape)
    a.flags.writeable = False
    return a


def _check_ids(ids: tuple[str, ...], what: str) -> None:
    if any(x >= y for x, y in zip(ids, ids[1:])):
        raise ValueError(f"{what} must be sorted by id without repeats")


@dataclass(frozen=True, eq=False)
class PotentialSet:
    """Potentials over one common scope, each tagged with pure-policy indices.

    ``values`` has shape ``(n, *cards)``; ``policies`` has shape
    ``(n, len(decisions))`` and defaults to no decisions at all.  The
    constructor copies both arrays; :meth:`adopt` takes them over.  Either
    way they are validated (shape, finite, nonnegative) and read-only.
    """

    scope: tuple[str, ...]
    cards: tuple[int, ...]
    values: np.ndarray
    decisions: tuple[str, ...] = ()
    policies: np.ndarray | None = None

    def __post_init__(self) -> None:
        self._settle(copy=True)

    @classmethod
    def adopt(cls, scope: Sequence[str], cards: Sequence[int], values: np.ndarray,
              decisions: Sequence[str] = (), policies: np.ndarray | None = None
              ) -> PotentialSet:
        """A set that takes ``values`` and ``policies`` over without copying.

        Only for arrays the caller has just allocated and keeps no other
        reference to, such as product, sum, gather or concatenation results.
        """
        k = object.__new__(cls)
        for name, field in (("scope", scope), ("cards", cards), ("values", values),
                            ("decisions", decisions), ("policies", policies)):
            object.__setattr__(k, name, field)
        k._settle(copy=False)
        return k

    def _settle(self, copy: bool) -> None:
        scope = tuple(self.scope)
        cards = tuple(int(c) for c in self.cards)
        decisions = tuple(self.decisions)
        _check_ids(scope, "potential set scope")
        _check_ids(decisions, "potential set decisions")
        n = np.shape(self.values)[0]
        values = _frozen(self.values, float, (n,) + cards, copy)
        # min and max propagate NaN, so two reductions check every entry
        if not (values.min(initial=0.0) >= 0.0 and math.isfinite(values.max(initial=0.0))):
            raise ValueError("potential set entries must be nonnegative and finite")
        policies = np.zeros((n, 0)) if self.policies is None else self.policies
        if np.shape(policies) != (n, len(decisions)):
            raise ValueError("one policy index per member and decision required")
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "cards", cards)
        object.__setattr__(self, "decisions", decisions)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "policies",
                           _frozen(policies, np.int64, (n, len(decisions)), copy))

    def __len__(self) -> int:
        return self.values.shape[0]

    def members(self, start: int, stop: int) -> PotentialSet:
        """Members ``start`` to ``stop`` as a set viewing this set's arrays, without a copy."""
        if not 0 <= start <= stop <= len(self):
            raise ValueError(f"member range {start}..{stop} outside a set of {len(self)}")
        k = object.__new__(PotentialSet)
        for name in ("scope", "cards", "decisions"):
            object.__setattr__(k, name, getattr(self, name))
        # slices of read-only arrays are read-only views
        object.__setattr__(k, "values", self.values[start:stop])
        object.__setattr__(k, "policies", self.policies[start:stop])
        return k


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
    ``ValueError`` on inconsistent cardinalities or a variable to sum out
    that no input has.
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
        return PotentialSet.adopt((), (), np.ones((1,)))
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
    return PotentialSet.adopt(scope, cards, values, tuple(order), policies)


def _joint_shape(s: PotentialSet, scope: tuple[str, ...],
                 cards: tuple[int, ...]) -> tuple[int, ...]:
    """The table shape of ``s`` laid over the joint ``scope``, 1 on axes it lacks."""
    return tuple(c if v in s.scope else 1 for v, c in zip(scope, cards))


def concat_sets(sets: Sequence[PotentialSet]) -> PotentialSet:
    """The members of ``sets`` one after another; all share scope and decisions."""
    first = sets[0]
    return PotentialSet.adopt(first.scope, first.cards, np.concatenate([s.values for s in sets]),
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
        return k, CoveringStats(0, 0, None, eta, None, alpha, False)
    sig, smallest, had_zero = _signatures(k.values.reshape(n, eta), alpha)
    keep = _first_rows(sig)
    del sig  # freed before the survivors are gathered, to lower the peak
    if len(keep) < n:
        k = PotentialSet.adopt(k.scope, k.cards, k.values[keep], k.decisions, k.policies[keep])
    smallest, bound = _size_bound(smallest, alpha, eta)
    return k, CoveringStats(n, len(keep), smallest, eta, bound, alpha, had_zero)


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


def _signatures(flat: np.ndarray, alpha: float) -> tuple[np.ndarray, float, bool]:
    """The ``int64`` signature of every entry of ``flat``, its smallest
    positive entry (``inf`` if none) and whether it has a zero entry."""
    sig = np.empty(flat.shape, dtype=np.int64)
    log_alpha = math.log(alpha)
    smallest = math.inf
    had_zero = False
    for rows in _chunks(flat):
        x = flat[rows]
        positive = x > 0.0
        smallest = min(smallest, _smallest_positive(x, positive))
        had_zero = had_zero or not positive.all()
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
    return sig, smallest, had_zero


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
