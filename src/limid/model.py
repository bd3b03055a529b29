"""Core data model for limited-memory influence diagrams.

A diagram couples a DAG over chance, decision and value variables with one
conditional probability table per chance variable and one additive reward
table per value variable.  A strategy fixes a policy (conditional
distribution over actions given the decision's parents) for every decision
variable; its expected utility is

    E = sum_x  prod_C P(C|Pa(C))(x) * prod_D P(D|Pa(D))(x) * sum_V U(Pa(V))(x)

over joint assignments x of the chance and decision variables.

Everything in this module is deliberately oracle-grade: expected utilities
are obtained by enumerating joint assignments outright, and the maximum
expected utility by evaluating every pure strategy.  Results are therefore
trustworthy at small scale and independent of the message-passing solver.
The joint assignments form one array with an axis per chance and decision
variable, in id order; each table is broadcast over those axes as a
transposed view.  The oracles hold at most two such arrays of 8-byte
entries, about 800 MB at ``ENUMERATION_CAP``.

Table conventions: parent axes are always ordered by variable id, tables
are dense ndarrays with one axis per variable (conditioned child first),
and flat indices follow C order over those axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

CHANCE = "chance"
DECISION = "decision"
VALUE = "value"

#: tolerance for "columns sum to one" checks on probability tables
PROB_TOL = 1e-12

#: hard ceiling on joint assignments enumerated by the oracles
ENUMERATION_CAP = 50_000_000

DEFAULT_STRATEGY_CAP = 10_000_000


class InstanceTooLargeError(RuntimeError):
    """An enumeration would exceed the configured resource cap."""


def _freeze(a: object) -> np.ndarray:
    """A read-only C-ordered float copy of ``a``, which no caller can write to."""
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


def _integer(x: object) -> int | None:
    """``x`` as a Python int, which serializes, if it is an int or a numpy
    integer; else ``None``.  A bool is an int to isinstance, but no count
    or id, and neither is 2.5 or 1.0."""
    return None if isinstance(x, bool) or not isinstance(x, (int, np.integer)) else int(x)


@dataclass(frozen=True)
class Variable:
    """A chance, decision or value variable.

    Chance and decision variables carry a cardinality (>= 1); value
    variables carry none and no state labels, they stand for a reward table
    over their parents.
    """

    id: str
    kind: str
    cardinality: int | None = None
    state_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in (CHANCE, DECISION, VALUE):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind == VALUE:
            if self.cardinality is not None or self.state_labels is not None:
                raise ValueError(f"value variable {self.id!r} must not carry a cardinality "
                                 "or state labels")
        else:
            card = _integer(self.cardinality)
            if card is None and self.cardinality is not None:
                raise ValueError(f"variable {self.id!r}: cardinality must be an integer, "
                                 f"got {self.cardinality!r}")
            if card is None or card < 1:
                raise ValueError(f"variable {self.id!r} needs a cardinality >= 1")
            object.__setattr__(self, "cardinality", card)
        if self.state_labels is not None:
            object.__setattr__(self, "state_labels", tuple(self.state_labels))
            if self.cardinality is not None and len(self.state_labels) != self.cardinality:
                raise ValueError(f"variable {self.id!r}: {len(self.state_labels)} labels "
                                 f"for cardinality {self.cardinality}")


@dataclass(frozen=True, eq=False)
class InfluenceDiagram:
    """An immutable influence diagram.

    ``cpts`` maps each chance variable to an array of shape
    ``(card, *parent cards)`` and ``rewards`` maps each value variable to an
    array of shape ``(*parent cards)``, parents sorted by id;
    ``chance_ids``, ``decision_ids`` and ``value_ids`` list each kind's
    ids in id order.  Flat inputs are reshaped.  Every table given is
    copied into a read-only array, even another diagram's.  A diagram
    derived by :meth:`with_reward` or by :mod:`limid.reduction` shares its
    source's tables, and a table the library allocates is made read-only
    where it is made.  Construction enforces structure only (known ids,
    table shapes); semantic invariants are reported by
    :func:`validate_diagram`.
    """

    variables: tuple[Variable, ...]
    arcs: tuple[tuple[str, str], ...]
    cpts: Mapping[str, np.ndarray]
    rewards: Mapping[str, np.ndarray]

    def __init__(self, variables: Iterable[Variable], arcs: Iterable[tuple[str, str]],
                 cpts: Mapping[str, object] | None = None,
                 rewards: Mapping[str, object] | None = None) -> None:
        variables = tuple(sorted(variables, key=lambda v: v.id))
        by_id = {v.id: v for v in variables}
        if len(by_id) != len(variables):
            raise ValueError("duplicate variable ids")
        arcs = tuple(sorted({(str(a), str(b)) for a, b in arcs}))
        parents: dict[str, list[str]] = {v.id: [] for v in variables}
        for a, b in arcs:
            if a not in by_id or b not in by_id:
                raise ValueError(f"arc ({a!r}, {b!r}) references an unknown variable")
            if a == b:
                raise ValueError(f"self-arc on {a!r}")
            # value variables never parent tables; offenders are reported by
            # validate_diagram rather than breaking table shapes here.  Arcs
            # come sorted, so each parent list comes out sorted.
            if by_id[a].kind != VALUE:
                parents[b].append(a)
        self._assemble(variables, arcs, {x: tuple(ps) for x, ps in parents.items()}, {}, {})
        cpt_map: dict[str, np.ndarray] = {}
        for var, table in dict(cpts or {}).items():
            if var not in by_id:
                raise ValueError(f"cpt for unknown variable {var!r}")
            lead = (by_id[var].cardinality,) if by_id[var].kind != VALUE else ()
            cpt_map[var] = self._shaped("cpt", var, table, lead)
        reward_map: dict[str, np.ndarray] = {}
        for var, table in dict(rewards or {}).items():
            if var not in by_id:
                raise ValueError(f"reward table for unknown variable {var!r}")
            reward_map[var] = self._shaped("reward table", var, table, ())
        vars(self).update(cpts=cpt_map, rewards=reward_map)

    def _assemble(self, variables: tuple[Variable, ...], arcs: tuple[tuple[str, str], ...],
                  parents: dict[str, tuple[str, ...]], cpts: dict[str, np.ndarray],
                  rewards: dict[str, np.ndarray]) -> InfluenceDiagram:
        """Write every field from a valid diagram's parts, unchecked: sorted
        ``variables``, ``arcs`` and table ``parents``, and shaped read-only tables."""
        ids: dict[str, list[str]] = {CHANCE: [], DECISION: [], VALUE: []}
        families = {}
        for v in variables:
            ids[v.kind].append(v.id)
            ps = parents[v.id]
            families[v.id] = ps if v.kind == VALUE else tuple(sorted(ps + (v.id,)))
        # the fields of a frozen dataclass, written past its __setattr__
        vars(self).update(variables=variables, arcs=arcs, _by_id={v.id: v for v in variables},
                          _table_parents=parents, _families=families, cpts=cpts,
                          rewards=rewards, chance_ids=tuple(ids[CHANCE]),
                          decision_ids=tuple(ids[DECISION]), value_ids=tuple(ids[VALUE]))
        return self

    def _shaped(self, tag: str, var: str, table: object, lead: tuple[int, ...]) -> np.ndarray:
        """``table`` as ``var``'s read-only table, of shape ``lead`` and its
        parents' cardinalities, copied by :func:`_freeze`."""
        cards = lead + tuple(self._by_id[p].cardinality for p in self._table_parents[var])
        arr = np.asarray(table, dtype=float)
        try:
            arr = arr.reshape(cards)
        except ValueError:
            raise ValueError(f"{tag} for {var!r} has size {arr.size}, "
                             f"expected shape {cards}") from None
        return _freeze(arr)

    def with_reward(self, var: str, table: object) -> InfluenceDiagram:
        """This diagram with value variable ``var``'s reward table replaced by
        ``table``, checked and frozen as the constructor would; everything
        else, every other table included, is shared with this diagram."""
        if not self.has_variable(var) or self.kind(var) != VALUE:
            raise ValueError(f"{var!r} is not a value variable of the diagram")
        out = object.__new__(InfluenceDiagram)
        vars(out).update(vars(self))
        vars(out)["rewards"] = {**self.rewards, var: self._shaped("reward table", var, table, ())}
        return out

    # -- lookups -----------------------------------------------------------

    def has_variable(self, var: str) -> bool:
        return var in self._by_id

    def kind(self, var: str) -> str:
        return self._by_id[var].kind

    def cardinality(self, var: str) -> int:
        card = self._by_id[var].cardinality
        if card is None:
            raise ValueError(f"{var!r} is a value variable and has no cardinality")
        return card

    def parents(self, var: str) -> tuple[str, ...]:
        """Sorted chance/decision parents of ``var`` (table scope)."""
        return self._table_parents[var]

    def family(self, var: str) -> tuple[str, ...]:
        """Sorted scope of ``var``'s table: its parents, plus ``var`` unless it is a value."""
        return self._families[var]

    def cpt(self, var: str) -> np.ndarray:
        return self.cpts[var]

    def reward(self, var: str) -> np.ndarray:
        return self.rewards[var]


# -- validation -------------------------------------------------------------

def validate_diagram(d: InfluenceDiagram) -> list[str]:
    """Return all invariant violations of ``d``, empty iff the diagram is valid."""
    report: list[str] = []
    acyclic = _acyclic(d.arcs)
    if not acyclic:
        report.append("arcs contain a cycle")

    tails = {a for a, _ in d.arcs}
    for var in d.value_ids:
        if var in tails:
            report.append(f"value variable {var!r} has a child")

    for var in d.chance_ids:
        if var not in d.cpts:
            report.append(f"chance variable {var!r} has no cpt")
    for var in d.cpts:
        if d.kind(var) != CHANCE:
            report.append(f"{var!r} is not a chance variable but has a cpt")
    for var in d.value_ids:
        if var not in d.rewards:
            report.append(f"value variable {var!r} has no reward table")
    for var in d.rewards:
        if d.kind(var) != VALUE:
            report.append(f"{var!r} is not a value variable but has a reward table")

    if acyclic:
        cpts = [(var, table) for var, table in sorted(d.cpts.items()) if d.kind(var) == CHANCE]
        # one pass over all tables clears most diagrams; only when it fails are
        # the tables checked one by one, naming each fault
        if not _probability_tables([table for _, table in cpts]):
            for var, table in cpts:
                report += [f"cpt of {var!r} {fault}" for fault in _distribution_faults(table)]
        for var, table in sorted(d.rewards.items()):
            if not np.all(np.isfinite(table)):
                report.append(f"reward table of {var!r} has non-finite entries")
    return report


def _acyclic(arcs: tuple[tuple[str, str], ...]) -> bool:
    """Whether ``arcs`` form no directed cycle: removing every variable with
    no arc left coming in, one at a time, removes every arc."""
    children: dict[str, list[str]] = {}
    waiting: dict[str, int] = {}
    for a, b in arcs:
        children.setdefault(a, []).append(b)
        waiting[b] = waiting.get(b, 0) + 1
    ready = [a for a in children if a not in waiting]
    left = len(arcs)
    while ready:
        for b in children.get(ready.pop(), ()):
            left -= 1
            waiting[b] -= 1
            if not waiting[b]:
                ready.append(b)
    return not left


def _distribution_faults(table: np.ndarray) -> list[str]:
    """What keeps ``table`` from being a conditional distribution over its
    first axis: entries outside [0, 1], NaN among them, and columns that do
    not sum to one within ``PROB_TOL``; empty for a distribution."""
    faults = []
    # NaN fails both comparisons
    if not np.all((table >= 0.0) & (table <= 1.0)):
        faults.append("has entries outside [0, 1]")
    if np.any(np.abs(table.sum(axis=0) - 1.0) > PROB_TOL):
        faults.append("has columns not summing to 1")
    return faults


def _probability_tables(tables: list[np.ndarray]) -> bool:
    """Whether every one of the conditional ``tables`` passes
    :func:`_distribution_faults`, in one pass per child cardinality.

    The tables of child cardinality ``c`` are laid side by side as columns
    and each column summed in row order, an order that may differ from
    ``table.sum(axis=0)``.  Two orders of summing ``c`` entries in [0, 1]
    whose sum is near one differ by less than ``c`` machine epsilons, so a
    column passes here only that far inside the tolerance, and a pass here
    is a pass of every table's own check.
    """
    by_card: dict[int, list[np.ndarray]] = {}
    for t in tables:
        by_card.setdefault(t.shape[0], []).append(t.reshape(t.shape[0], -1))
    for card, group in by_card.items():
        columns = np.concatenate(group, axis=1)
        # min and max return NaN if any entry is NaN, and NaN fails both comparisons
        if not (columns.min() >= 0.0 and columns.max() <= 1.0 and (
                np.abs(columns.sum(axis=0) - 1.0) <= PROB_TOL - card * np.finfo(float).eps).all()):
            return False
    return True


# -- policies and strategies -------------------------------------------------

@dataclass(frozen=True, eq=False)
class Policy:
    """A conditional distribution over a decision's actions, parents sorted."""

    decision: str
    parents: tuple[str, ...]
    table: np.ndarray  # shape (card, *parent cards)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "table", _freeze(self.table))


@dataclass(frozen=True, eq=False)
class Strategy:
    """One policy per decision variable, ordered by decision id."""

    policies: tuple[Policy, ...]

    def __init__(self, policies: Iterable[Policy]) -> None:
        policies = tuple(sorted(policies, key=lambda p: p.decision))
        if len({p.decision for p in policies}) != len(policies):
            raise ValueError("strategy assigns several policies to one decision")
        object.__setattr__(self, "policies", policies)

    def policy_for(self, decision: str) -> Policy:
        for p in self.policies:
            if p.decision == decision:
                return p
        raise KeyError(decision)


def parent_assignment_count(d: InfluenceDiagram, var: str) -> int:
    return math.prod(d.cardinality(p) for p in d.parents(var))


def pure_policy_count(d: InfluenceDiagram, decision: str) -> int:
    """Number of pure policies, card ** (number of parent assignments)."""
    if d.kind(decision) != DECISION:
        raise ValueError(f"{decision!r} is not a decision variable")
    return d.cardinality(decision) ** parent_assignment_count(d, decision)


def pure_policy(d: InfluenceDiagram, decision: str, index: int) -> Policy:
    """The ``index``-th pure policy in deterministic enumeration order.

    Policies are ordered lexicographically by the tuple of chosen actions
    over parent assignments (first assignment most significant, assignments
    in C order over the sorted parents).
    """
    card = d.cardinality(decision)
    parents = d.parents(decision)
    shape = (card,) + tuple(d.cardinality(p) for p in parents)
    gamma = math.prod(shape[1:])
    if not 0 <= index < card ** gamma:
        raise ValueError(f"policy index {index} out of range for {decision!r}")
    # index's base-card digits, the last parent assignment least significant
    # (pure_policy_tables' rule), in Python ints so a count past int64 still
    # indexes; only its nonzero low digits are divided out, so a large family
    # costs one pass over its table
    actions = np.zeros(gamma, dtype=np.int64)
    j = gamma
    while index:
        j -= 1
        index, actions[j] = divmod(index, card)
    table = np.zeros(shape)
    table.reshape(card, gamma)[actions, np.arange(gamma)] = 1.0
    return Policy(decision, parents, table)


def pure_policy_tables(d: InfluenceDiagram, decision: str) -> np.ndarray:
    """Stacked tables of every pure policy, shape (count, card, *parent cards)."""
    card = d.cardinality(decision)
    gamma = parent_assignment_count(d, decision)
    n = card ** gamma
    rows = np.arange(n, dtype=np.int64)
    tables = np.zeros((n, card, gamma))
    for j in range(gamma):
        acts = (rows // card ** (gamma - 1 - j)) % card
        tables[rows, acts, j] = 1.0
    shape = (n, card) + tuple(d.cardinality(p) for p in d.parents(decision))
    return tables.reshape(shape)


# -- exact evaluation ---------------------------------------------------------

def _spread(table: np.ndarray, scope: tuple[str, ...], ids: tuple[str, ...]) -> np.ndarray:
    """``table``, whose axes follow ``scope``, as a view over the joint axes
    ``ids`` (sorted): its axes in id order, and one of size one for each id
    ``scope`` lacks, along which it broadcasts."""
    cards = dict(zip(scope, table.shape))
    order = sorted(range(len(scope)), key=scope.__getitem__)
    return table.transpose(order).reshape([cards.get(x, 1) for x in ids])


def _check_strategy(d: InfluenceDiagram, s: Strategy) -> None:
    if tuple(p.decision for p in s.policies) != d.decision_ids:
        raise ValueError("strategy does not cover exactly the diagram's decisions")
    for p in s.policies:
        if p.parents != d.parents(p.decision):
            raise ValueError(f"policy for {p.decision!r} has parents {p.parents}, "
                             f"diagram has {d.parents(p.decision)}")
        shape = (d.cardinality(p.decision),) + tuple(d.cardinality(q) for q in p.parents)
        if p.table.shape != shape:
            raise ValueError(f"policy table for {p.decision!r} has shape {p.table.shape}, "
                             f"expected {shape}")
        faults = _distribution_faults(p.table)
        if faults:
            raise ValueError(f"policy table for {p.decision!r} {faults[0]}")


def expected_utility(d: InfluenceDiagram, s: Strategy) -> float:
    """Expected utility of strategy ``s``, by full enumeration of joint assignments."""
    _check_strategy(d, s)
    ids, weights = _base_weights(d)
    for p in s.policies:
        weights *= _spread(p.table, (p.decision,) + p.parents, ids)
    return float(np.sum(weights))


def _base_weights(d: InfluenceDiagram) -> tuple[tuple[str, ...], np.ndarray]:
    """The joint axes, the chance and decision ids in id order, and an array
    over them: P(chance | decisions) times total utility, per joint assignment."""
    ids = tuple(sorted(d.chance_ids + d.decision_ids))
    cards = tuple(d.cardinality(x) for x in ids)
    total = math.prod(cards)
    if total > ENUMERATION_CAP:
        raise InstanceTooLargeError(f"{total} joint assignments exceed the enumeration cap")
    base = np.ones(cards)
    for var in d.chance_ids:
        base *= _spread(d.cpt(var), (var,) + d.parents(var), ids)
    util = np.zeros(cards)
    for var in d.value_ids:
        util += _spread(d.reward(var), d.parents(var), ids)
    base *= util
    return ids, base


def brute_force_meu(d: InfluenceDiagram,
                    cap: int = DEFAULT_STRATEGY_CAP) -> tuple[float, Strategy]:
    """Maximize expected utility over every combination of pure strategies.

    Each pure strategy's expected utility is the defining enumeration sum;
    the sums are evaluated jointly by grouping assignments on the
    (parent assignment, action) cells they hit per decision, which is an
    exact regrouping of the same products.  Ties are broken by the first
    strategy in deterministic enumeration order.
    """
    decisions = d.decision_ids
    counts = [pure_policy_count(d, dec) for dec in decisions]
    total_strategies = math.prod(counts)
    if total_strategies > cap:
        raise InstanceTooLargeError(
            f"instance too large: {total_strategies} pure strategies exceed the cap {cap}")

    ids, base = _base_weights(d)
    if not decisions:
        return float(np.sum(base)), Strategy(())

    cards = [d.cardinality(dec) for dec in decisions]
    gammas = [parent_assignment_count(d, dec) for dec in decisions]
    sites = [g * c for g, c in zip(gammas, cards)]
    site_total = math.prod(sites)
    if site_total > ENUMERATION_CAP:
        raise InstanceTooLargeError(f"instance too large: {site_total} policy cells")

    # per-assignment signature: which (parent assignment, action) cell each
    # decision takes, mixed radix over decisions
    sig = np.zeros(base.shape, dtype=np.int64)
    for dec, card, site in zip(decisions, cards, sites):
        sig *= site
        # parent assignment pa (C order) and action a make cell pa * card + a
        cells = np.arange(site).reshape(tuple(d.cardinality(p) for p in d.parents(dec)) + (card,))
        sig += _spread(cells, d.parents(dec) + (dec,), ids)
    weights = np.bincount(sig.ravel(), weights=base.ravel(), minlength=site_total)

    # contract all decisions but the last against their explicit policy matrices
    acc = weights.reshape(1, site_total)
    rest = site_total
    for dec, card, gamma, site, n in list(zip(decisions, cards, gammas, sites, counts))[:-1]:
        rest //= site
        rows = np.arange(n, dtype=np.int64)
        mat = np.zeros((n, site))
        for j in range(gamma):
            acts = (rows // card ** (gamma - 1 - j)) % card
            mat[rows, j * card + acts] = 1.0
        acc = np.einsum("pcr,nc->pnr", acc.reshape(acc.shape[0], site, rest), mat)
        acc = acc.reshape(acc.shape[0] * n, rest)

    # the last decision separates per parent assignment: pick the best action
    # in every cell (first action on ties)
    card_k, gamma_k = cards[-1], gammas[-1]
    acc = acc.reshape(acc.shape[0], gamma_k, card_k)
    per_site_best = acc.max(axis=2)
    totals = per_site_best.sum(axis=1)
    best = int(np.argmax(totals))
    value = float(totals[best])

    digits = np.argmax(acc[best], axis=1)
    last_index = 0
    for a in digits:
        last_index = last_index * card_k + int(a)
    indices = []
    rem = best
    for n in reversed(counts[:-1]):
        indices.append(rem % n)
        rem //= n
    indices = list(reversed(indices)) + [last_index]
    strategy = Strategy(pure_policy(d, dec, i) for dec, i in zip(decisions, indices))
    return value, strategy
