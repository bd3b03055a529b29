import itertools
import re
import tracemalloc
from graphlib import CycleError, TopologicalSorter

import numpy as np
import pytest

from limid import (
    InfluenceDiagram,
    InstanceTooLargeError,
    Policy,
    Strategy,
    Variable,
    brute_force_meu,
    expected_utility,
    pure_policy,
    pure_policy_count,
    validate_diagram,
)
from limid.model import CHANCE, DECISION, PROB_TOL, VALUE, _spread, pure_policy_tables
from limid.reduction import minimal_diagram, normalize_utilities
from limid.solver import SolverConfig, shape_and_reduce, solve_full

from conftest import (
    is_pure,
    pick_diagram,
    policy_cells_diagram,
    pure_policies,
    random_strategy,
    small_random_diagram,
    two_agent_diagram,
)


def literal_expected_utility(d: InfluenceDiagram, s: Strategy) -> float:
    """Per-assignment reference sum, kept independent of the vectorized path."""
    ids = sorted(d.chance_ids + d.decision_ids)
    cards = [d.cardinality(x) for x in ids]
    total = 0.0
    for joint in itertools.product(*(range(c) for c in cards)):
        at = dict(zip(ids, joint))
        prob = 1.0
        for var in d.chance_ids:
            prob *= d.cpt(var)[(at[var],) + tuple(at[p] for p in d.parents(var))]
        for p in s.policies:
            prob *= p.table[(at[p.decision],) + tuple(at[q] for q in p.parents)]
        util = 0.0
        for var in d.value_ids:
            util += d.reward(var)[tuple(at[p] for p in d.parents(var))]
        total += prob * util
    return total


# -- variables and validation -------------------------------------------------

def test_variable_invariants():
    with pytest.raises(ValueError):
        Variable("v", "value", 2)
    with pytest.raises(ValueError):
        Variable("c", "chance")
    with pytest.raises(ValueError):
        Variable("c", "chance", 0)
    with pytest.raises(ValueError):
        Variable("x", "utility", 2)
    # a bool is an int subclass, but never a cardinality; nor is a fraction
    for flag in (True, False, 2.5, 2.0, "2"):
        with pytest.raises(ValueError, match="'x': cardinality must be an integer"):
            Variable("x", "chance", flag)
    assert Variable("x", "chance", np.int64(3)).cardinality == 3


X = Variable("x", "chance", 2)


@pytest.mark.parametrize("build, message", [
    (lambda: Variable("x", "chance", 2, ("a", "b", "c")),
     "variable 'x': 3 labels for cardinality 2"),
    (lambda: InfluenceDiagram([X, X], []), "duplicate variable ids"),
    (lambda: InfluenceDiagram([X], [("x", "z")]), "arc ('x', 'z') references an unknown variable"),
    (lambda: InfluenceDiagram([X], [("x", "x")]), "self-arc on 'x'"),
    (lambda: InfluenceDiagram([X], [], cpts={"z": [1.0]}), "cpt for unknown variable 'z'"),
    (lambda: InfluenceDiagram([X], [], rewards={"z": 1.0}),
     "reward table for unknown variable 'z'"),
    (lambda: pick_diagram().cardinality("v"), "'v' is a value variable and has no cardinality"),
    (lambda: pure_policy(pick_diagram(), "d", 2), "policy index 2 out of range for 'd'"),
    (lambda: Strategy([pure_policy(pick_diagram(), "d", 0)] * 2),
     "strategy assigns several policies to one decision"),
    (lambda: expected_utility(pick_diagram(), Strategy([Policy("d", (), [0.5, 0.25, 0.25])])),
     "policy table for 'd' has shape (3,), expected (2,)"),
    # a policy is a conditional distribution, as a cpt is
    (lambda: expected_utility(pick_diagram(), Strategy([Policy("d", (), [1.5, -0.5])])),
     "policy table for 'd' has entries outside [0, 1]"),
    (lambda: expected_utility(pick_diagram(), Strategy([Policy("d", (), [np.nan, 1.0])])),
     "policy table for 'd' has entries outside [0, 1]"),
    (lambda: expected_utility(pick_diagram(), Strategy([Policy("d", (), [0.4, 0.4])])),
     "policy table for 'd' has columns not summing to 1"),
], ids=["labels", "duplicate-id", "unknown-arc-end", "self-arc", "unknown-cpt",
        "unknown-reward", "value-cardinality", "policy-index", "two-policies", "policy-shape",
        "policy-outside", "policy-nan", "policy-sum"])
def test_each_model_fault_is_refused_with_its_message(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_ids_are_strings():
    # None once made a variable, and 1 a bare TypeError from sorting beside "v"
    for vid in (None, 1, ("c",)):
        message = f"variable id must be a string, got {vid!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Variable(vid, "chance", 2)
    # an arc end is never turned into a string: (1, "v") does not name "1", and
    # an unhashable end is refused the same way
    one, v = Variable("1", "chance", 1), Variable("v", "value")
    for end in (1, ["1"]):
        message = f"arc ({end!r}, 'v') references an unknown variable"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            InfluenceDiagram([one, v], [(end, "v")], {"1": [1.0]}, {"v": [0.0]})
    d = InfluenceDiagram([one, v], [("1", "v")], {"1": [1.0]}, {"v": [0.0]})
    assert d.parents("v") == ("1",)


def test_a_strategy_has_no_policy_for_a_decision_it_lacks():
    with pytest.raises(KeyError, match="^'z'$"):
        Strategy([pure_policy(pick_diagram(), "d", 0)]).policy_for("z")


def test_cycle_check_matches_a_topological_sort(rng):
    outcomes = set()
    for _ in range(400):
        n = int(rng.integers(2, 9))
        kinds = rng.choice([CHANCE, DECISION, VALUE], size=n)
        variables = [Variable(f"x{i}", str(k), None if k == VALUE else 2)
                     for i, k in enumerate(kinds)]
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        if rng.random() < 0.5:
            # mostly forward arcs, so acyclic sets come up as often as cyclic ones
            pairs = [(i, j) for i, j in pairs if i < j] + [pairs[int(rng.integers(len(pairs)))]]
        chosen = rng.random(len(pairs)) < rng.random()
        arcs = [(f"x{i}", f"x{j}") for (i, j), keep in zip(pairs, chosen) if keep]
        d = InfluenceDiagram(variables, arcs)
        sorter = TopologicalSorter()
        for a, b in d.arcs:
            sorter.add(b, a)
        try:
            sorter.prepare()
            cyclic = False
        except CycleError:
            cyclic = True
        report = validate_diagram(d)
        assert ("arcs contain a cycle" in report) == cyclic
        # the cycle is always the first violation reported
        assert not cyclic or report[0] == "arcs contain a cycle"
        outcomes.add(cyclic)
    assert outcomes == {False, True}


def test_cached_id_tuples_match_the_variables():
    def diagrams():
        for seed in range(20):
            d = small_random_diagram(seed)
            yield d
            minimal = minimal_diagram(d)[0]
            yield minimal
            if minimal.value_ids:
                reduced = shape_and_reduce(minimal).diagram
                yield reduced
                yield normalize_utilities(reduced)[0]
        yield two_agent_diagram()
        yield pick_diagram()

    for d in diagrams():
        for kind, ids in ((CHANCE, d.chance_ids), (DECISION, d.decision_ids),
                          (VALUE, d.value_ids)):
            assert ids == tuple(v.id for v in d.variables if v.kind == kind)


def test_validate_accepts_two_agent_diagram():
    assert validate_diagram(two_agent_diagram()) == []


def test_validate_reports_bad_cpt_column():
    d = InfluenceDiagram(
        [Variable("c", "chance", 2)], [], cpts={"c": [0.6, 0.3]}, rewards={})
    report = validate_diagram(d)
    assert any("'c'" in line and "summing" in line for line in report)
    # several bad tables at once, among good ones: each named, in id order
    tables = {"a": [np.nan, 1.0], "b": [-0.5, 1.5], "c": [0.6, 0.3], "d": [1.2, 0.3],
              "e": [0.5, 0.5], "f": [[0.2, 0.5], [0.8, 0.6]]}
    d = InfluenceDiagram([Variable("p", "chance", 2)] + [Variable(v, "chance", 2) for v in tables],
                         [("p", "f")], cpts={"p": [0.5, 0.5], **tables}, rewards={})
    assert validate_diagram(d) == [
        "cpt of 'a' has entries outside [0, 1]",
        "cpt of 'b' has entries outside [0, 1]",
        "cpt of 'c' has columns not summing to 1",
        "cpt of 'd' has entries outside [0, 1]",
        "cpt of 'd' has columns not summing to 1",
        "cpt of 'f' has columns not summing to 1",
    ]


@pytest.mark.parametrize("excess, ok", [(1e-12 - 2e-16, True), (1e-12 + 3e-16, False)])
def test_validate_decides_columns_at_the_tolerance_edge_as_each_table_does(excess, ok):
    # a column this close to PROB_TOL fails the one-pass check's margin, so the
    # table's own check decides it
    d = InfluenceDiagram([Variable("c", "chance", 2), Variable("e", "chance", 2)], [],
                         cpts={"c": [0.5, 0.5 + excess], "e": [0.5, 0.5]}, rewards={})
    assert validate_diagram(d) == ([] if ok else ["cpt of 'c' has columns not summing to 1"])


def random_cpt(rng, faults: bool) -> np.ndarray:
    """A C-ordered table of 2-12 states over 0-3 parents, some of whose
    columns sum to one within a few ulps of ``PROB_TOL``; with ``faults``
    they may reach further out, or hold NaN or entries outside [0, 1]."""
    card = int(rng.integers(2, 13))
    # one-column tables are where a flat-order sum and numpy's part: make them common
    parents = 0 if rng.uniform() < 0.4 else int(rng.integers(1, 4))
    shape = (card,) + tuple(int(c) for c in rng.integers(1, 5, size=parents))
    table = np.ascontiguousarray(rng.dirichlet(np.ones(card), size=int(np.prod(shape[1:]))).T)
    table, flat = table.reshape(shape), table
    for c in range(flat.shape[1]):
        fault = rng.uniform()
        if fault < 0.4:
            # the last entry puts the column sum at the tolerance's edge
            ulps = rng.integers(-4, 5 if faults else 2)
            flat[-1, c] = 1.0 + rng.choice([-1, 1]) * (PROB_TOL + ulps * 2.2e-16) - flat[:-1, c].sum()
        elif faults and fault < 0.45:
            flat[int(rng.integers(card)), c] = np.nan
        elif faults and fault < 0.5:
            flat[int(rng.integers(card)), c] = rng.choice([-0.25, 1.25])
    return table


def test_cpt_checks_match_each_table_checked_alone(rng):
    # the one-pass check adds a column's entries in flat order, as
    # table.sum(axis=0) does but for a one-column table, which numpy sums
    # pairwise: a column at the tolerance's edge must still fall on the side
    # its table's own sum puts it
    for trial in range(400):
        tables = {f"c{k}": random_cpt(rng, trial % 2 == 0) for k in range(int(rng.integers(1, 4)))}
        variables, arcs, cpts, want = [], [], {}, []
        for var, table in tables.items():
            variables.append(Variable(var, "chance", table.shape[0]))
            for j, card in enumerate(table.shape[1:]):
                variables.append(Variable(f"{var}p{j}", "chance", card))
                cpts[f"{var}p{j}"] = np.full(card, 1.0 / card)
                arcs.append((f"{var}p{j}", var))
            cpts[var] = table
            if not np.all((table >= 0.0) & (table <= 1.0)):
                want.append(f"cpt of {var!r} has entries outside [0, 1]")
            if np.any(np.abs(table.sum(axis=0) - 1.0) > PROB_TOL):
                want.append(f"cpt of {var!r} has columns not summing to 1")
        assert validate_diagram(InfluenceDiagram(variables, arcs, cpts, {})) == want
    # one-column tables at the edge itself, where the two orders part most often
    for trial in range(300):
        card = int(rng.integers(3, 13))
        table = rng.dirichlet(np.ones(card))
        table[-1] = 1.0 + rng.choice([-1, 1]) * PROB_TOL - table[:-1].sum()
        d = InfluenceDiagram([Variable("c", "chance", card)], [], {"c": table}, {})
        bad = abs(table.sum() - 1.0) > PROB_TOL
        assert validate_diagram(d) == (["cpt of 'c' has columns not summing to 1"] if bad else [])


def test_tables_are_copied_from_callers_and_passed_through_by_derived_diagrams():
    cpt, reward = np.array([0.5, 0.5]), np.array([0.0, 1.0])
    held = np.array([0.25, 0.75])
    held.flags.writeable = False  # its owner may make it writeable again
    variables = [Variable("c", "chance", 2), Variable("u", "chance", 2), Variable("v", "value")]
    arcs = [("c", "v")]
    d = InfluenceDiagram(variables, arcs, {"c": cpt, "u": held}, {"v": reward})
    cpt[0] = reward[1] = 9.0
    held.flags.writeable = True
    held[0] = 9.0
    assert d.cpt("c").tolist() == [0.5, 0.5] and d.reward("v").tolist() == [0.0, 1.0]
    assert d.cpt("u").tolist() == [0.25, 0.75]
    assert not d.cpt("c").flags.writeable
    # a diagram built from another's tables gets equal copies; derived ones share them
    again = InfluenceDiagram(variables, arcs, d.cpts, d.rewards)
    for mine, theirs in ((again.cpt("c"), d.cpt("c")), (again.reward("v"), d.reward("v"))):
        assert mine is not theirs and np.array_equal(mine, theirs)
        assert not mine.flags.writeable
    minimal, _ = minimal_diagram(d)  # drops "u", which no reward depends on
    assert not minimal.has_variable("u") and minimal.cpt("c") is d.cpt("c")
    normalized = normalize_utilities(minimal)[0]
    assert normalized.cpt("c") is d.cpt("c")
    reduced = shape_and_reduce(minimal).diagram
    assert reduced.cpt("c") is d.cpt("c")


def test_with_tables_copies_what_it_is_given_and_shares_the_rest():
    d = two_agent_diagram()
    cpt, reward = np.array([0.3, 0.6, 0.7, 0.4]), np.array([0.5, 0.25])
    got = d.with_tables(cpts={"c1": cpt}, rewards={"v2": reward})
    cpt[0] = reward[0] = 9.0
    assert got.cpt("c1").tolist() == [[0.3, 0.6], [0.7, 0.4]]
    assert got.reward("v2").tolist() == [0.5, 0.25]
    assert not got.cpt("c1").flags.writeable and not got.reward("v2").flags.writeable
    assert got.cpt("c2") is d.cpt("c2") and got.reward("v1") is d.reward("v1")
    assert got.variables is d.variables and got.arcs is d.arcs
    assert d.reward("v2").tolist() == [0.3, 0.8]  # the source keeps its own tables
    with pytest.raises(ValueError, match="^cpt for unknown variable 'z'$"):
        d.with_tables(cpts={"z": [1.0]})
    with pytest.raises(ValueError, match="^reward table for unknown variable 'z'$"):
        d.with_tables(rewards={"z": 1.0})
    with pytest.raises(ValueError, match=re.escape(
            "reward table for 'v2' has size 3, expected shape (2,)")):
        d.with_tables(rewards={"v2": [0.0, 0.5, 1.0]})


def test_table_shape_leads_a_cpt_with_its_own_cardinality():
    d = InfluenceDiagram([Variable("a", "chance", 3), Variable("b", "chance", 4),
                          Variable("d", "decision", 2), Variable("v", "value")],
                         [("a", "d"), ("a", "b"), ("d", "b"), ("a", "v"), ("b", "v")])
    assert d.table_shape("cpt", "b") == (4, 3, 2)  # parents in id order
    assert d.table_shape("cpt", "d") == (2, 3)
    assert d.table_shape("reward table", "v") == (3, 4)
    # a value variable has no cardinality to lead with; validation reports its cpt
    assert d.table_shape("cpt", "v") == (3, 4)
    for tag in ("cpt", "reward table"):
        with pytest.raises(ValueError, match=f"^{tag} for unknown variable 'z'$"):
            d.table_shape(tag, "z")


def test_validate_reports_value_child():
    d = InfluenceDiagram(
        [Variable("c1", "chance", 2), Variable("c2", "chance", 2), Variable("v1", "value")],
        [("c1", "v1"), ("v1", "c2")],
        cpts={"c1": [0.5, 0.5], "c2": [0.5, 0.5]},
        rewards={"v1": [1.0, 0.0]},
    )
    assert any("'v1'" in line and "child" in line for line in validate_diagram(d))


def test_validate_reports_missing_tables_and_cycles():
    d = InfluenceDiagram(
        [Variable("a", "chance", 2), Variable("b", "chance", 2)],
        [("a", "b"), ("b", "a")],
        cpts={}, rewards={})
    report = validate_diagram(d)
    assert any("cycle" in line for line in report)
    assert any("'a'" in line and "no cpt" in line for line in report)


@pytest.mark.parametrize("cpts, rewards, violation", [
    ({"d": [0.5, 0.5]}, {}, "'d' is not a chance variable but has a cpt"),
    ({}, {"c": [1.0, 0.0]}, "'c' is not a value variable but has a reward table"),
    ({}, {"v": [np.nan, 0.0]}, "reward table of 'v' has non-finite entries"),
], ids=["decision-cpt", "chance-reward", "nan-reward"])
def test_validate_names_a_misplaced_table_or_a_non_finite_reward(cpts, rewards, violation):
    d = pick_diagram()
    assert validate_diagram(d.with_tables(cpts, rewards)) == [violation]
    d = InfluenceDiagram(d.variables, d.arcs, {**d.cpts, **cpts}, {**d.rewards, **rewards})
    assert validate_diagram(d) == [violation]


# -- pure policy enumeration ---------------------------------------------------

def binary_decision_diagram(card=2, parent_cards=()):
    variables = [Variable("d", "decision", card), Variable("v", "value")]
    arcs = [("d", "v")]
    cpts = {}
    for i, c in enumerate(parent_cards):
        pid = f"p{i}"
        variables.append(Variable(pid, "chance", c))
        arcs.append((pid, "d"))
        cpts[pid] = np.full(c, 1.0 / c)
    return InfluenceDiagram(variables, arcs, cpts, rewards={"v": np.zeros(card)})


@pytest.mark.parametrize("card,parent_cards,expected", [
    (2, (), 2),
    (3, (2,), 9),
    (2, (2, 2), 16),
    (3, (2, 3), 3 ** 6),
])
def test_pure_policy_counts(card, parent_cards, expected):
    d = binary_decision_diagram(card, parent_cards)
    assert pure_policy_count(d, "d") == expected
    policies = pure_policies(d, "d")
    assert len(policies) == expected
    # the stacked tables the solver starts from are the pure policies, in order
    tables = pure_policy_tables(d, "d")
    assert tables.shape == (expected,) + d.table_shape("cpt", "d")
    for row, policy in zip(tables, policies):
        assert np.array_equal(row, policy.table)


def test_enumerate_rejects_non_decision():
    d = pick_diagram()
    with pytest.raises(ValueError):
        pure_policy_count(d, "c")


def test_pure_policies_are_pure_and_ordered():
    d = binary_decision_diagram(3, (2,))
    policies = pure_policies(d, "d")
    assert all(is_pure(p) for p in policies)
    # index 0 always picks action 0; the last index always the last action
    assert np.array_equal(policies[0].table, [[1, 1], [0, 0], [0, 0]])
    assert np.array_equal(policies[-1].table, [[0, 0], [0, 0], [1, 1]])
    # lexicographic: the first parent assignment is the most significant digit
    assert np.array_equal(policies[3].table, [[0, 1], [1, 0], [0, 0]])
    again = pure_policies(d, "d")
    assert all(np.array_equal(a.table, b.table) for a, b in zip(policies, again))


def test_pure_policy_indexes_past_int64():
    d = binary_decision_diagram(3, (41,))
    assert pure_policy_count(d, "d") == 3 ** 41 > 2 ** 63
    last = pure_policy(d, "d", 3 ** 41 - 1).table
    assert np.array_equal(last, np.eye(3)[[2] * 41].T)
    # the first parent assignment is the most significant digit
    lead = pure_policy(d, "d", 3 ** 40).table
    assert np.array_equal(lead, np.eye(3)[[1] + [0] * 40].T)


# -- expected utility -----------------------------------------------------------

def test_expected_utility_frozen_examples():
    d = pick_diagram()
    take_first = Strategy([pure_policy(d, "d", 0)])
    assert expected_utility(d, take_first) == pytest.approx(0.8, abs=1e-12)
    uniform = Strategy([Policy("d", (), [0.5, 0.5])])
    assert expected_utility(d, uniform) == pytest.approx(0.55, abs=1e-12)
    assert literal_expected_utility(d, take_first) == pytest.approx(0.8, abs=1e-12)
    assert literal_expected_utility(d, uniform) == pytest.approx(0.55, abs=1e-12)


def test_expected_utility_zero_rewards():
    d = InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("d", "decision", 2), Variable("v", "value")],
        [("d", "c"), ("c", "v")],
        cpts={"c": [[0.8, 0.3], [0.2, 0.7]]},
        rewards={"v": [0.0, 0.0]},
    )
    assert expected_utility(d, Strategy([pure_policy(d, "d", 1)])) == 0.0


def test_expected_utility_rejects_mismatched_strategies():
    d = two_agent_diagram()
    with pytest.raises(ValueError):
        expected_utility(d, Strategy([pure_policy(d, "d1", 0)]))
    bad_parent = Policy("d1", ("c1",), [[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        expected_utility(d, Strategy([bad_parent, pure_policy(d, "d2", 0)]))
    bad_columns = Policy("d1", (), [0.4, 0.4])
    with pytest.raises(ValueError):
        expected_utility(d, Strategy([bad_columns, pure_policy(d, "d2", 0)]))


def test_expected_utility_matches_literal_enumeration(rng):
    for seed in range(8):
        d = small_random_diagram(seed)
        s = random_strategy(d, rng)
        assert expected_utility(d, s) == pytest.approx(
            literal_expected_utility(d, s), abs=1e-12)


def test_expected_utility_within_total_reward_range(rng):
    for seed in range(6):
        d = small_random_diagram(seed)
        lows = highs = 0.0
        for v in d.value_ids:
            lows += float(d.reward(v).min())
            highs += float(d.reward(v).max())
        for _ in range(5):
            e = expected_utility(d, random_strategy(d, rng))
            assert lows - 1e-9 <= e <= highs + 1e-9


def test_expected_utility_linear_in_single_policy(rng):
    for seed in range(5):
        d = small_random_diagram(seed)
        if not d.decision_ids:
            continue
        target = d.decision_ids[0]
        base = random_strategy(d, rng)
        other = random_strategy(d, rng)
        lam = float(rng.uniform())
        mixed_table = (lam * base.policy_for(target).table
                       + (1 - lam) * other.policy_for(target).table)
        mixed = Strategy(
            [Policy(target, d.parents(target), mixed_table)]
            + [p for p in base.policies if p.decision != target])
        swapped = Strategy(
            [other.policy_for(target)]
            + [p for p in base.policies if p.decision != target])
        expected = lam * expected_utility(d, base) + (1 - lam) * expected_utility(d, swapped)
        assert expected_utility(d, mixed) == pytest.approx(expected, abs=1e-12)


# -- brute force ----------------------------------------------------------------

def test_brute_force_frozen_example():
    d = pick_diagram()
    value, strategy = brute_force_meu(d)
    assert value == pytest.approx(0.8, abs=1e-12)
    assert np.array_equal(strategy.policy_for("d").table, [1.0, 0.0])


def test_brute_force_no_decisions():
    d = InfluenceDiagram(
        [Variable("c", "chance", 3), Variable("v", "value")],
        [("c", "v")],
        cpts={"c": [0.2, 0.5, 0.3]},
        rewards={"v": [1.0, 2.0, 4.0]},
    )
    value, strategy = brute_force_meu(d)
    assert strategy.policies == ()
    assert value == pytest.approx(expected_utility(d, strategy), abs=1e-12)
    assert value == pytest.approx(0.2 + 1.0 + 1.2, abs=1e-12)


@pytest.mark.parametrize("d, want", [
    # a reward without parents adds its one entry under every assignment
    (InfluenceDiagram([Variable("d", "decision", 2), Variable("v1", "value"),
                       Variable("v2", "value")],
                      [("d", "v1")], rewards={"v1": [1.0, 2.0], "v2": 1.5}), 3.5),
    # no chance or decision variable: one empty joint assignment
    (InfluenceDiagram([Variable("v", "value")], [], rewards={"v": 3.0}), 3.0),
], ids=["parentless-reward", "rewards-alone"])
def test_the_oracles_and_the_solver_agree_without_reward_parents(d, want):
    value, strategy = brute_force_meu(d)
    assert value == want
    assert expected_utility(d, strategy) == want
    for epsilon in (0.0, 0.5):
        assert solve_full(d, SolverConfig(epsilon=epsilon)).value == want


def test_brute_force_constant_reward_is_strategy_independent(rng):
    u = 0.7
    d = InfluenceDiagram(
        [
            Variable("c1", "chance", 2), Variable("c2", "chance", 2),
            Variable("d1", "decision", 2), Variable("d2", "decision", 2),
            Variable("v1", "value"), Variable("v2", "value"),
        ],
        [("d1", "c1"), ("c1", "v1"), ("c1", "c2"), ("d2", "c2"), ("c2", "v2")],
        cpts={"c1": [[0.5, 0.5], [0.5, 0.5]],
              "c2": [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]},
        rewards={"v1": [u, u], "v2": [u, u]},
    )
    value, _ = brute_force_meu(d)
    assert value == pytest.approx(2 * u, abs=1e-12)
    assert expected_utility(d, random_strategy(d, rng)) == pytest.approx(2 * u, abs=1e-12)


def test_brute_force_matches_literal_maximization():
    for seed in range(10):
        d = small_random_diagram(seed)
        if not d.decision_ids:
            continue
        value, strategy = brute_force_meu(d)
        spaces = [pure_policies(d, dec) for dec in d.decision_ids]
        values = [literal_expected_utility(d, Strategy(combo))
                  for combo in itertools.product(*spaces)]
        assert value == pytest.approx(max(values), abs=1e-10)
        # with a unique maximizer the argmax strategies agree as well
        ordered = sorted(values, reverse=True)
        if len(ordered) > 1 and ordered[0] - ordered[1] > 1e-9:
            best = list(itertools.product(*spaces))[int(np.argmax(values))]
            for got, want in zip(strategy.policies, best):
                assert np.array_equal(got.table, want.table)


def test_brute_force_dominates_random_strategies(rng):
    for seed in range(4):
        d = small_random_diagram(seed)
        value, _ = brute_force_meu(d)
        for _ in range(100):
            assert expected_utility(d, random_strategy(d, rng)) <= value + 1e-9


def test_the_oracle_decodes_policy_indices_numpy_cannot_index():
    # numpy indexes at most 64 axes and int64 sizes; the oracle's last decision
    # is solved per parent assignment, so neither bounds it
    arcs = [("a", "d"), ("b", "d"), ("c", "d"), ("a", "v"), ("d", "v")]
    # one action over 75 parent assignments, under the default cap
    variables = [Variable("a", "chance", 5), Variable("b", "chance", 5),
                 Variable("c", "chance", 3), Variable("d", "decision", 1), Variable("v", "value")]
    cpts = {"a": np.full(5, 0.2), "b": np.full(5, 0.2), "c": np.full(3, 1 / 3)}
    d = InfluenceDiagram(variables, arcs, cpts, {"v": np.arange(5.0).reshape(5, 1)})
    value, strategy = brute_force_meu(d)
    assert value == pytest.approx(2.0)
    assert np.array_equal(strategy.policy_for("d").table, np.ones((1, 5, 5, 3)))
    # two actions over 70 parent assignments: 2 ** 70 pure policies, under a raised cap
    variables = [Variable("a", "chance", 2), Variable("b", "chance", 5),
                 Variable("c", "chance", 7), Variable("d", "decision", 2), Variable("v", "value")]
    cpts = {"a": np.full(2, 0.5), "b": np.full(5, 0.2), "c": np.full(7, 1 / 7)}
    d = InfluenceDiagram(variables, arcs, cpts, {"v": [[0.0, 1.0], [3.0, 2.0]]})
    value, strategy = brute_force_meu(d, cap=2 ** 80)
    assert value == pytest.approx(2.0)
    # the best action is 1 where a is 0 and 0 where a is 1, whatever b and c are
    want = np.zeros((2, 2, 5, 7))
    want[1, 0] = want[0, 1] = 1.0
    assert np.array_equal(strategy.policy_for("d").table, want)


def test_brute_force_cap():
    d = binary_decision_diagram(3, (3, 3))  # 3 ** 9 pure policies
    with pytest.raises(InstanceTooLargeError):
        brute_force_meu(d, cap=1000)


def test_the_oracles_refuse_before_they_enumerate():
    # 2 ** 26 joint assignments: a count checked before any grid is built
    chance = [Variable(f"c{i:02d}", "chance", 2) for i in range(26)]
    d = InfluenceDiagram(chance + [Variable("v", "value")], [("c00", "v")],
                         {c.id: [0.5, 0.5] for c in chance}, {"v": [0.0, 1.0]})
    for oracle in (brute_force_meu, lambda d: expected_utility(d, Strategy(()))):
        with pytest.raises(InstanceTooLargeError,
                           match="^67108864 joint assignments exceed the enumeration cap$"):
            oracle(d)
    with pytest.raises(InstanceTooLargeError,
                       match="^instance too large: 64000000 policy cells$"):
        brute_force_meu(policy_cells_diagram())


def test_the_policy_cell_cap_fires_before_the_joint_arrays_exist():
    # 1,638,400 joint assignments, within the enumeration cap, and 400 ** 3 policy cells
    cells = policy_cells_diagram()
    extra = [Variable(f"e{i:02d}", "chance", 2) for i in range(12)]
    d = InfluenceDiagram(cells.variables + tuple(extra), cells.arcs,
                         {**cells.cpts, **{e.id: [0.5, 0.5] for e in extra}}, cells.rewards)
    tracemalloc.start()
    try:
        with pytest.raises(InstanceTooLargeError,
                           match="^instance too large: 64000000 policy cells$"):
            brute_force_meu(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_the_oracles_hold_a_fixed_number_of_joint_arrays():
    # 18 binary chance variables in a chain and one decision: 2 ** 19 joint
    # assignments; an index grid per variable alone would take 152 bytes each
    chance = [Variable(f"c{i:02d}", "chance", 2) for i in range(18)]
    arcs = [(a.id, b.id) for a, b in zip(chance, chance[1:])]
    cpts = {c.id: [[0.9, 0.2], [0.1, 0.8]] for c in chance[1:]}
    d = InfluenceDiagram(chance + [Variable("d", "decision", 2), Variable("v", "value")],
                         arcs + [("c17", "d"), ("c17", "v"), ("d", "v")],
                         {**cpts, "c00": [0.5, 0.5]}, {"v": [[1.0, 0.0], [0.0, 1.0]]})
    _, strategy = brute_force_meu(d)
    for oracle in (brute_force_meu, lambda d: expected_utility(d, strategy)):
        tracemalloc.start()
        try:
            oracle(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2 ** 19


@pytest.mark.parametrize("ids, scope", [
    (("a", "b", "c", "d"), ("c", "a")),
    (("a", "b", "c", "d"), ("d", "b", "a")),
    (("a", "b", "c", "d"), ("d", "c", "b", "a")),
    (("a", "b", "c", "d"), ("b", "d", "a", "c")),
    (("a", "b", "c", "d"), ()),  # a parentless reward
    ((), ()),  # a diagram with no chance or decision variable
])
def test_spread_matches_explicit_indexing(ids, scope, rng):
    # equal cardinalities, so an axis left untransposed keeps the shape and
    # shows only in the entries
    table = rng.random((3,) * len(scope))
    view = np.broadcast_to(_spread(table, scope, ids), (3,) * len(ids))
    for x in itertools.product(range(3), repeat=len(ids)):
        assert view[x] == table[tuple(x[ids.index(v)] for v in scope)]


def test_determinism_bit_identical():
    for seed in (3, 11):
        d = small_random_diagram(seed)
        v1, s1 = brute_force_meu(d)
        v2, s2 = brute_force_meu(d)
        assert v1 == v2
        for a, b in zip(s1.policies, s2.policies):
            assert a.table.tobytes() == b.table.tobytes()
