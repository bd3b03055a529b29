import math

import numpy as np
import pytest

from limid import (
    InfluenceDiagram,
    InstanceTooLargeError,
    Policy,
    PotentialSet,
    ReductionResult,
    Strategy,
    Variable,
    pure_policy,
    pure_policy_count,
    utility_bounds,
)
from limid.cli import generate_diagram

#: relative slack admitted by is_covering's dominance test
_COVER_SLACK = 1e-12

#: cap on joint assignments enumerated by verify_chain_identity
CHAIN_CHECK_CAP = 1_000_000


def two_agent_diagram() -> InfluenceDiagram:
    """Two decisions feeding a two-link chain of outcomes, one reward each."""
    return InfluenceDiagram(
        [
            Variable("c1", "chance", 2),
            Variable("c2", "chance", 2),
            Variable("d1", "decision", 2),
            Variable("d2", "decision", 2),
            Variable("v1", "value"),
            Variable("v2", "value"),
        ],
        [("d1", "c1"), ("c1", "v1"), ("c1", "c2"), ("d2", "c2"), ("c2", "v2")],
        cpts={
            "c1": [[0.9, 0.4], [0.1, 0.6]],
            # axes (c2, c1, d2)
            "c2": [[[0.7, 0.2], [0.5, 0.1]], [[0.3, 0.8], [0.5, 0.9]]],
        },
        rewards={"v1": [1.0, 0.0], "v2": [0.3, 0.8]},
    )


def pick_diagram() -> InfluenceDiagram:
    """One binary decision, one binary outcome, one reward on the outcome."""
    return InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("d", "decision", 2), Variable("v", "value")],
        [("d", "c"), ("c", "v")],
        cpts={"c": [[0.8, 0.3], [0.2, 0.7]]},
        rewards={"v": [1.0, 0.0]},
    )


def policy_cells_diagram() -> InfluenceDiagram:
    """Three one-action decisions over two 20-state chance parents: one pure
    strategy, but 400 ** 3 policy cells for the oracle to group on."""
    chance = [Variable(p, "chance", 20) for p in ("p", "q")]
    decisions = [Variable(f"d{i}", "decision", 1) for i in range(3)]
    arcs = [(p.id, dec.id) for p in chance for dec in decisions] + [("p", "v")]
    return InfluenceDiagram(chance + decisions + [Variable("v", "value")], arcs,
                            {p.id: np.full(20, 0.05) for p in chance}, {"v": np.arange(20.0)})


def small_random_diagram(seed: int, *, max_values: int = 2) -> InfluenceDiagram:
    """Desk-scale random diagram; decision parents capped so every pure
    strategy space stays brute-forceable."""
    meta = np.random.default_rng([7, seed])
    n_chance = int(meta.integers(1, 6))
    n_decisions = int(meta.integers(0, 4))
    n_values = int(meta.integers(1, max_values + 1))
    return generate_diagram(n_chance, n_decisions, card=3, max_parents=2,
                            n_values=n_values, seed=seed, decision_max_parents=1)


def random_strategy(d: InfluenceDiagram, rng: np.random.Generator,
                    pure: bool = False) -> Strategy:
    policies = []
    for dec in d.decision_ids:
        card = d.cardinality(dec)
        parents = d.parents(dec)
        pa_cards = tuple(d.cardinality(p) for p in parents)
        columns = int(np.prod(pa_cards)) if pa_cards else 1
        if pure:
            table = np.zeros((card, columns))
            table[rng.integers(0, card, size=columns), np.arange(columns)] = 1.0
        else:
            table = rng.dirichlet(np.ones(card), size=columns).T
        policies.append(Policy(dec, parents, table.reshape((card,) + pa_cards)))
    return Strategy(policies)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240831)


# -- reference checks ---------------------------------------------------------------

def is_pure(p: Policy) -> bool:
    t = p.table
    onehot = np.all((t == 0.0) | (t == 1.0))
    return bool(onehot and np.all(t.sum(axis=0) == 1.0))


def pure_policies(d: InfluenceDiagram, decision: str) -> list[Policy]:
    """All pure policies for ``decision``, in deterministic order."""
    return [pure_policy(d, decision, i) for i in range(pure_policy_count(d, decision))]


def is_covering(k: PotentialSet, kprime: PotentialSet, alpha: float) -> bool:
    """Exhaustively check that every member of ``k`` is pointwise dominated
    by ``alpha`` times some member of ``kprime``."""
    if len(k) == 0:
        return True
    eta = math.prod(k.cards)
    covered = k.values.reshape(len(k), 1, eta)
    covers = kprime.values.reshape(1, len(kprime), eta)
    ok = np.all(covered <= alpha * covers * (1.0 + _COVER_SLACK), axis=2)
    return bool(ok.any(axis=1).all())


def einsum_value(d: InfluenceDiagram, strategy: Strategy) -> float:
    """Expected utility of ``strategy`` on ``d`` by one ``np.einsum`` contraction
    of every table per reward, apart from the library's evaluators."""
    ids = {v: i for i, v in enumerate(sorted(d.chance_ids + d.decision_ids))}
    factors = []
    for var in d.chance_ids:
        factors += [d.cpt(var), [ids[var]] + [ids[p] for p in d.parents(var)]]
    for p in strategy.policies:
        factors += [p.table, [ids[p.decision]] + [ids[q] for q in p.parents]]
    return sum(float(np.einsum(*factors, d.reward(v), [ids[p] for p in d.parents(v)], [],
                               optimize="greedy"))
               for v in d.value_ids)


def verify_chain_identity(r: ReductionResult, d: InfluenceDiagram) -> float:
    """Max deviation of P(O_i = state0 | x) from the running average of the
    rescaled rewards u_j(x), j <= i, over all joint assignments x and chain
    positions i.

    The left side comes from the forward recurrence over the chain tables of
    ``r``, the right from ``d``'s own reward tables.
    """
    ids = tuple(sorted(d.chance_ids + d.decision_ids))
    cards = tuple(d.cardinality(x) for x in ids)
    total = math.prod(cards)
    if total > CHAIN_CHECK_CAP:
        raise InstanceTooLargeError(f"{total} joint assignments exceed the chain check cap")
    # one index grid per variable, an enumeration apart from the oracles'
    states = dict(zip(ids, np.unravel_index(np.arange(total), cards))) if ids else {}
    lo, hi = utility_bounds(d)
    deviation = 0.0
    running = np.zeros(total)
    prob = None
    for i, (orig, o) in enumerate(zip(r.value_order, r.o_vars), start=1):
        running += (d.reward(orig)[tuple(states[p] for p in d.parents(orig))] - lo) / (hi - lo)
        # P(O_i = state0 | O_{i-1} = s, x) for s = 0, 1; the only parent
        # outside ``states`` is O_{i-1}
        table = r.diagram.cpt(o)[0]
        zero, one = (table[tuple(states.get(p, s) for p in r.diagram.parents(o))]
                     for s in (0, 1))
        prob = zero if i == 1 else zero * prob + one * (1.0 - prob)
        deviation = max(deviation, float(np.max(np.abs(prob - running / i))))
    return deviation
