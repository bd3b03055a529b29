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
straight down to the remaining scope.  A caller may walk a large product in
blocks of member slices (:meth:`PotentialSet.members`, views), never holding
it whole.  The solver places each decision's policies at exactly one node,
so combined sets never share a decision; that is checked once per
combination.

``covering`` prunes a set down to one representative per bucket of the
signature y -> floor(log_alpha P(y)), with a distinct code for zero
entries.  Any two members sharing a signature dominate each other within a
pointwise factor alpha, so every pruned member stays alpha-covered by a
survivor.  Grouping is exact: a few rows by a dict on the bytes of their
float signatures, more by sorting ``int64`` keys that the signatures are
packed into as they are computed, so no large signature matrix exists.

Arrays handed to the :class:`PotentialSet` constructor are copied and
checked.  Every other set is made by :func:`_derived`, which takes arrays
over read-only with no check: those of valid sets, or a diagram's tables
once :func:`check_entries` has passed them.  Only a product or a sum can
make a new number, so :func:`combine_sets` checks that its entries stay finite.
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

#: covering groups at most this many rows in a dict, not by packing and sorting
#: keys (the two take about as long near 192 rows of 12 entries)
_DICT_ROWS = 128


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
        check_entries(values)
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
    values.setflags(write=False)
    policies.setflags(write=False)
    # the fields of a frozen dataclass, written past its __setattr__
    vars(k).update(scope=scope, cards=cards, values=values, decisions=decisions,
                   policies=policies)
    return k


def _derived(scope: tuple[str, ...], cards: tuple[int, ...], values: np.ndarray,
             decisions: tuple[str, ...] = (), policies: np.ndarray | None = None
             ) -> PotentialSet:
    """A set made by :func:`_take` with no check: derived from valid sets, or
    built from arrays that no caller can write.  No ``policies`` means no
    decisions."""
    if policies is None:
        policies = np.empty((len(values), 0), dtype=np.int64)
    return _take(object.__new__(PotentialSet), scope, cards, values, decisions, policies)


def check_entries(values: np.ndarray) -> None:
    """Raise ``ValueError`` unless every entry of ``values`` is nonnegative and finite."""
    # min and max propagate NaN, so two reductions check every entry
    if not (values.min(initial=0.0) >= 0.0 and math.isfinite(values.max(initial=0.0))):
        raise ValueError(_BAD_ENTRIES)


def combine_sets(sets: Sequence[PotentialSet], sum_out: Iterable[str] = ()) -> PotentialSet:
    """The Cartesian-product multiplication of ``sets``, with the variables
    ``sum_out`` marginalized out of every member.

    Member order is the lexicographic product order of the input members,
    the first set varying slowest; the empty product is the scalar unit.
    Tables are multiplied left to right over the joint scope and summed in
    one reduction, so a member comes out with the same numbers whichever
    member slices of the sets it is built from.  Raises ``RuntimeError``
    when two inputs carry policies of the same decision and ``ValueError``
    on inconsistent cardinalities, a variable to sum out that no input has,
    or a product or sum that overflows to inf (or gives NaN from inf * 0).
    """
    card_by_var: dict[str, int] = {}
    decisions: list[str] = []
    for s in sets:
        decisions += s.decisions
        for var, card in zip(s.scope, s.cards):
            if card_by_var.setdefault(var, card) != card:
                raise ValueError(f"inconsistent cardinality for {var!r}")
    if len(set(decisions)) < len(decisions):
        twice = sorted({dec for dec in decisions if decisions.count(dec) > 1})
        raise RuntimeError(f"decisions {twice} met twice during combination")
    zs = set(sum_out)
    if not zs <= card_by_var.keys():
        raise ValueError(f"cannot sum out {sorted(zs - card_by_var.keys())}: not in scope")
    if not sets:
        return _derived((), (), np.ones((1,)))
    m = len(sets)
    scope = sorted(card_by_var)
    axis = {v: i for i, v in enumerate(scope, m)}
    sizes = [s.values.shape[0] for s in sets]
    values = None
    for k, s in enumerate(sets):
        # member axis k, then the set's table laid over the joint scope
        shape = [1] * (m + len(scope))
        shape[k] = sizes[k]
        for var, card in zip(s.scope, s.cards):
            shape[axis[var]] = card
        pick = s.values.reshape(shape)
        values = pick if values is None else values * pick
    n = math.prod(sizes)
    values = values.reshape([n] + [card_by_var[v] for v in scope])
    if not values.flags.c_contiguous:
        values = np.ascontiguousarray(values)
    if zs:
        values = np.add.reduce(values, axis=tuple(axis[v] - m + 1 for v in scope if v in zs))
        scope = [v for v in scope if v not in zs]
    # entries are nonnegative, so one max (which propagates NaN) checks them all
    if not math.isfinite(np.maximum.reduce(values, axis=None, initial=0.0)):
        raise ValueError(_BAD_ENTRIES)
    cards = tuple(card_by_var[v] for v in scope)
    if not decisions:
        return _derived(tuple(scope), cards, values)
    order = sorted(decisions)
    column = {dec: j for j, dec in enumerate(order)}
    policies = np.empty((n, len(order)), dtype=np.int64)
    grid = policies.reshape(sizes + [len(order)])
    for k, s in enumerate(sets):
        if s.decisions:
            # both id-sorted, so a set's columns ascend and are often one run
            cols = [column[dec] for dec in s.decisions]
            if cols[-1] - cols[0] == len(cols) - 1:
                cols = slice(cols[0], cols[-1] + 1)
            row = [1] * m + [len(s.decisions)]
            row[k] = sizes[k]
            grid[..., cols] = s.policies.reshape(row)
    return _derived(tuple(scope), cards, values, tuple(order), policies)


def concat_sets(sets: Iterable[PotentialSet], total: int) -> PotentialSet:
    """The ``total`` members of ``sets`` one after another, all of one scope and
    decisions, each written into the result as it arrives from an iterator."""
    lo = 0
    for s in sets:
        if lo == 0:
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
    each bucket survives, in input order (``k`` itself if all do).  Up to
    ``_DICT_ROWS`` rows are grouped in a dict on their float signatures'
    bytes (zeros at -inf), more by sorting :func:`_packed_keys`.  The stats
    carry the cap ``(1 - floor(log_alpha t)) ** assignments`` on the
    survivors, valid whenever all entries are positive and at most one.
    """
    if not alpha > 1.0:
        raise ValueError("alpha must be greater than 1")
    n = len(k)
    stats = covering_bound(k, alpha)
    if n < 2:  # nothing to prune
        return k, stats
    flat = k.values.reshape(n, -1)
    if n > _DICT_ROWS:
        keep = _first_rows(_packed_keys(flat, alpha, stats.smallest_positive))
    else:
        positive = flat > 0.0
        sig = _signatures(flat, positive, alpha)
        np.copyto(sig, -math.inf, where=~positive)
        sig += 0.0  # a snapped -0.0 becomes 0.0, so equal signatures have equal bytes
        raw, width = sig.tobytes(), sig[0].nbytes
        keys = [raw[i:i + width] for i in range(0, len(raw), width)]
        # walked backwards, each key keeps its first row
        keep = sorted(dict(zip(reversed(keys), range(n - 1, -1, -1))).values())
    if len(keep) < n:
        k = _derived(k.scope, k.cards, k.values[keep], k.decisions, k.policies[keep])
    return k, stats


def covering_bound(k: PotentialSet, alpha: float) -> CoveringStats:
    """The :class:`CoveringStats` that :func:`covering` returns for ``k``, without pruning it."""
    flat = k.values.reshape(len(k), math.prod(k.cards))
    smallest = float(flat.min(initial=math.inf))
    if not smallest > 0.0:
        # zeros are masked out a row chunk at a time (a masked min reduction is slower)
        smallest = math.inf
        for rows in _chunks(flat):
            x = flat[rows]
            smallest = min(smallest, float(np.where(x > 0.0, x, math.inf).min()))
    if smallest == math.inf:
        return CoveringStats()
    return CoveringStats(smallest, (1 - floor_log(smallest, alpha)) ** flat.shape[1])


def _chunks(a: np.ndarray) -> Iterator[slice]:
    """Row ranges of ``a`` holding ``_CHUNK_ENTRIES`` entries each (at least one row)."""
    step = max(1, _CHUNK_ENTRIES // a.shape[1])
    return (slice(lo, lo + step) for lo in range(0, len(a), step))


def _signatures(x: np.ndarray, positive: np.ndarray, alpha: float) -> np.ndarray:
    """floor(log_alpha x), snapped at bucket edges, as floats; 0 off ``positive``."""
    q = np.log(x, out=np.zeros(x.shape), where=positive)
    # divide by log(alpha): multiplying by its reciprocal rounds differently
    q /= math.log(alpha)
    r = np.rint(q)
    near = np.abs(q - r) <= _LOG_SNAP
    np.floor(q, out=q)
    np.copyto(q, r, where=near)
    return q


def _packed_keys(flat: np.ndarray, alpha: float, smallest: float | None) -> np.ndarray:
    """One exact ``int64`` key row per row of ``flat``, whose smallest
    positive entry is ``smallest`` (``None`` if none, when every row gets
    the same key).

    An entry's code is 0 for zero and ``s - lo + 1`` for a signature ``s``,
    with ``lo = floor_log(smallest) - 1`` and ``hi = floor_log(largest) + 1``,
    a margin for last-bit disagreements between ``math.log`` and ``np.log``.
    ``63 // bits`` codes of ``bits = (hi - lo + 1).bit_length()`` pack into
    each word, so rows share a signature exactly when their words are
    equal.  Codes are made a row chunk at a time, bounding temporaries.
    """
    if smallest is None:
        return np.zeros((len(flat), 1), dtype=np.int64)
    lo = floor_log(smallest, alpha) - 1
    hi = floor_log(float(flat.max()), alpha) + 1
    bits = (hi - lo + 1).bit_length()
    per = 63 // bits
    column = np.arange(flat.shape[1])
    words = np.empty((len(flat), -(-flat.shape[1] // per)), dtype=np.int64)
    for rows in _chunks(flat):
        x = flat[rows]
        positive = x > 0.0
        code = _signatures(x, positive, alpha).astype(np.int64)
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
