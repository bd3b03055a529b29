import dataclasses
import re

import numpy as np
import pytest

import limid.reduction
import limid.solver
from limid import (
    InfluenceDiagram,
    Variable,
    brute_force_meu,
    expected_utility,
    pure_policy,
    validate_diagram,
)
from limid.cli import generate_diagram
from limid.reduction import (
    minimal_diagram,
    normalize_utilities,
    reduce_to_single_value,
    utility_bounds,
)
from limid.solver import SolverConfig, solve_full
from limid.treedecomp import (
    TreeDecomposition,
    binarize,
    build_decomposition,
    default_root,
    ensure_value_leaves,
    root_and_order,
    validate_decomposition,
)

from conftest import (
    pick_diagram,
    random_strategy,
    small_random_diagram,
    two_agent_diagram,
    verify_chain_identity,
)


def shaped_decomposition(d):
    shaped = ensure_value_leaves(d, binarize(build_decomposition(d)))
    return root_and_order(shaped, default_root(shaped))


def reduce_diagram(d):
    return reduce_to_single_value(d, shaped_decomposition(d))


# -- bounds ---------------------------------------------------------------------

def test_utility_bounds_examples():
    d = pick_diagram()
    assert utility_bounds(d) == (0.0, 1.0)

    const = InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("v", "value")],
        [("c", "v")], {"c": [0.5, 0.5]}, {"v": [5.0, 5.0]})
    assert utility_bounds(const) == (5.0, 6.0)

    two = InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("v1", "value"), Variable("v2", "value")],
        [("c", "v1"), ("c", "v2")],
        {"c": [0.5, 0.5]}, {"v1": [-2.0, 3.0], "v2": [7.0, 0.0]})
    assert utility_bounds(two) == (-2.0, 7.0)


def test_a_constant_reward_past_two_to_the_53_widens_by_one_ulp():
    for reward in (1e17, -1e17):
        const = InfluenceDiagram(
            [Variable("c", "chance", 2), Variable("v", "value")],
            [("c", "v")], {"c": [0.5, 0.5]}, {"v": [reward, reward]})
        assert utility_bounds(const) == (reward, np.nextafter(reward, np.inf))


def test_rewards_wider_than_a_float_rescale_in_units_of_two():
    # hi - lo overflows, but halves of both bounds and their difference fit
    wide = normalizable([1e308, -1e308])
    assert utility_bounds(wide) == (-1e308, 1e308)
    d, offset, scale, unit = normalize_utilities(wide)
    assert (offset, scale, unit) == (-5e307, 1e308, 2.0)
    assert np.array_equal(d.reward("v"), [1.0, 0.0])
    red = reduce_diagram(wide)
    assert np.array_equal(red.diagram.cpt(red.o_vars[0])[0], [1.0, 0.0])
    assert np.array_equal(red.diagram.reward(red.diagram.value_ids[0]), [1e308, -1e308])


def test_rewards_too_wide_to_rescale_name_their_range():
    # each bound fits, but two rewards' sum q * hi does not
    two = InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("v1", "value"), Variable("v2", "value")],
        [("c", "v1"), ("c", "v2")], {"c": [0.5, 0.5]}, {"v1": [1e308, 0.0], "v2": [0.0, 0.0]})
    with pytest.raises(ValueError, match=re.escape("rewards span [0.0, 1e+308]")):
        utility_bounds(two)


def test_utility_bounds_requires_value_variable():
    d = InfluenceDiagram([Variable("c", "chance", 2)], [], {"c": [0.5, 0.5]}, {})
    with pytest.raises(ValueError):
        utility_bounds(d)


# -- the reduction ------------------------------------------------------------------

def test_single_value_wrapper(rng):
    d = pick_diagram()
    red = reduce_diagram(d)
    assert len(red.o_vars) == 1
    assert len(red.diagram.value_ids) == 1
    # original chance/decision tables survive verbatim
    assert np.array_equal(red.diagram.cpt("c"), d.cpt("c"))
    assert red.diagram.decision_ids == d.decision_ids
    # value parent is the last chain variable
    assert red.diagram.parents(red.diagram.value_ids[0]) == (red.o_vars[-1],)
    for _ in range(10):
        s = random_strategy(d, rng)
        assert expected_utility(red.diagram, s) == pytest.approx(
            expected_utility(d, s), abs=1e-9)


def test_chain_conditionals_at_position_two():
    d = two_agent_diagram()
    red = reduce_diagram(d)
    assert len(red.o_vars) == 2
    first, second = red.o_vars
    orig = red.value_order[1]
    assert red.diagram.parents(second) == (first,) + d.parents(orig)
    # rewards span [0, 1], so u_2 is the reward itself
    u = d.reward(orig)
    table = red.diagram.cpt(second)
    assert np.array_equal(table[0], [(1 + u) / 2, u / 2])
    assert np.array_equal(table.sum(axis=0), np.ones((2, 2)))


def test_reduced_tables_are_proper(rng):
    for seed in range(8):
        d = small_random_diagram(seed, max_values=3)
        red = reduce_diagram(d)
        assert validate_diagram(red.diagram) == []
        for var in red.o_vars:
            table = red.diagram.cpt(var)
            assert np.all(table >= 0.0) and np.all(table <= 1.0)
            assert np.max(np.abs(table.sum(axis=0) - 1.0)) <= 1e-15


def test_equivalence_on_random_diagrams(rng):
    for seed in range(12):
        d = small_random_diagram(seed, max_values=3)
        red = reduce_diagram(d)
        for _ in range(8):
            s = random_strategy(d, rng)
            assert expected_utility(red.diagram, s) == pytest.approx(
                expected_utility(d, s), abs=1e-9)


def test_width_bound_and_decomposition_validity():
    for seed in range(12):
        d = small_random_diagram(seed, max_values=3)
        rooted = shaped_decomposition(d)
        red = reduce_to_single_value(d, rooted)
        assert red.decomposition.width() <= rooted.width() + 3
        assert validate_decomposition(red.diagram, red.decomposition) == []
        assert red.decomposition.root == rooted.root


def test_reduction_preconditions():
    d = pick_diagram()
    unrooted = ensure_value_leaves(d, binarize(build_decomposition(d)))
    with pytest.raises(ValueError, match="rooted"):
        reduce_to_single_value(d, unrooted)
    no_leaves = root_and_order(binarize(build_decomposition(d)), 0)
    with pytest.raises(ValueError, match="no value leaf"):
        reduce_to_single_value(d, no_leaves)
    star = TreeDecomposition((("c", "d"),) * 5, tuple((0, j) for j in range(1, 5)), root=0)
    with pytest.raises(ValueError, match="decomposition must be binary"):
        reduce_to_single_value(d, star)


def renamed(d, names):
    """``d`` with variables renamed by ``names``, table axes re-sorted by new id."""
    def new(x):
        return names.get(x, x)

    def resorted(table, parents, lead):
        order = sorted(range(len(parents)), key=lambda k: new(parents[k]))
        return np.transpose(table, tuple(range(lead)) + tuple(lead + k for k in order))

    return InfluenceDiagram(
        [dataclasses.replace(v, id=new(v.id)) for v in d.variables],
        [(new(a), new(b)) for a, b in d.arcs],
        {new(x): resorted(d.cpt(x), d.parents(x), 1) for x in d.chance_ids},
        {new(v): resorted(d.reward(v), d.parents(v), 0) for v in d.value_ids})


def test_chain_tables_follow_the_mixture_and_leaves_hold_the_chain():
    moved = 0
    for seed in range(10):
        base = generate_diagram(4, 2, card=3, max_parents=2, n_values=3, seed=seed,
                                decision_max_parents=1)
        # "A" and "9" sort before "_", so O_{i-1} is not always the first axis
        d = renamed(base, {"c0": "A", "c1": "9"})
        assert validate_diagram(d) == []
        rooted = shaped_decomposition(d)
        red = reduce_to_single_value(d, rooted)
        lo, hi = utility_bounds(d)
        for i, (orig, o) in enumerate(zip(red.value_order, red.o_vars), start=1):
            prev = red.o_vars[i - 2] if i > 1 else None
            parents = red.diagram.parents(o)
            assert set(parents) == set(d.parents(orig)) | ({prev} if prev else set())
            if prev and parents[0] != prev:
                moved += 1
            table = red.diagram.cpt(o)
            for idx in np.ndindex(table.shape[1:]):
                at = dict(zip(parents, idx))
                u = (d.reward(orig)[tuple(at[p] for p in d.parents(orig))] - lo) / (hi - lo)
                want = ((i - 1) * (at.get(prev) == 0) + u) / i
                assert table[(0,) + idx] == pytest.approx(want, abs=1e-15)
                assert table[(1,) + idx] == pytest.approx(1.0 - want, abs=1e-15)
            leaf = red.decomposition.clusters[rooted.value_leaf_map[orig]]
            assert set(leaf) == set(d.parents(orig)) | {o} | ({prev} if prev else set())
    assert moved > 0


# -- chain identity --------------------------------------------------------------------

def test_chain_identity_single_value_is_exact():
    d = pick_diagram()
    red = reduce_diagram(d)
    assert verify_chain_identity(red, d) == 0.0


def test_chain_identity_three_values():
    for seed in range(6):
        d = small_random_diagram(seed, max_values=3)
        red = reduce_diagram(d)
        assert verify_chain_identity(red, d) <= 1e-12


def test_a_chain_table_off_the_mixture_fails_the_identity():
    d = two_agent_diagram()
    red = reduce_diagram(d)
    first, second = red.o_vars
    assert red.diagram.parents(second)[0] == first
    # move 1e-3 of mass between the rows at c2 = 0, for
    # both states of O_1: the columns still sum to one
    table = red.diagram.cpt(second).copy()
    table[0, :, 0] += 1e-3
    table[1, :, 0] -= 1e-3
    mutated = InfluenceDiagram(red.diagram.variables, red.diagram.arcs,
                               {**red.diagram.cpts, second: table}, red.diagram.rewards)
    assert validate_diagram(mutated) == []
    assert verify_chain_identity(red, d) <= 1e-12
    assert verify_chain_identity(dataclasses.replace(red, diagram=mutated), d) > 1e-6


def test_constant_rewards_make_the_chain_deterministic():
    d = InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("v1", "value"), Variable("v2", "value")],
        [("c", "v1"), ("c", "v2")],
        {"c": [0.5, 0.5]}, {"v1": [3.0, 3.0], "v2": [3.0, 3.0]})
    red = reduce_diagram(d)
    # every u_i is 0: O_1 is state1 for sure, and so is each later O_i given
    # O_{i-1} = state1, the only state it can take
    assert np.array_equal(red.diagram.cpt(red.o_vars[0]), [[0.0, 0.0], [1.0, 1.0]])
    for o in red.o_vars[1:]:
        assert red.diagram.parents(o)[0] in red.o_vars
        assert np.array_equal(red.diagram.cpt(o)[:, 1], [[0.0, 0.0], [1.0, 1.0]])
    assert verify_chain_identity(red, d) == 0.0
    # constant total utility is preserved
    s = random_strategy(d, np.random.default_rng(0))
    assert expected_utility(red.diagram, s) == pytest.approx(6.0, abs=1e-12)


# -- normalization -----------------------------------------------------------------------

def normalizable(rewards):
    return InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("v", "value")],
        [("c", "v")], {"c": [0.5, 0.5]}, {"v": rewards})


def test_normalize_examples():
    d, offset, scale, unit = normalize_utilities(normalizable([2.0, 6.0]))
    assert (offset, scale, unit) == (2.0, 4.0, 1.0)
    assert np.array_equal(d.reward("v"), [0.0, 1.0])

    d, offset, scale, unit = normalize_utilities(normalizable([0.0, 1.0]))
    assert (offset, scale, unit) == (0.0, 1.0, 1.0)
    assert np.array_equal(d.reward("v"), [0.0, 1.0])

    d, offset, scale, unit = normalize_utilities(normalizable([3.0, 3.0]))
    assert (offset, scale, unit) == (3.0, 1.0, 1.0)
    assert np.array_equal(d.reward("v"), [0.0, 0.0])


def test_normalize_commutes_with_expectation(rng):
    for seed in range(6):
        base = small_random_diagram(seed)
        red = reduce_diagram(base)
        normalized, offset, scale, unit = normalize_utilities(red.diagram)
        for _ in range(5):
            s = random_strategy(base, rng)
            raw = expected_utility(red.diagram, s)
            scaled = unit * (offset + scale * expected_utility(normalized, s))
            assert scaled == pytest.approx(raw, abs=1e-9)


def test_normalize_swaps_the_reward_table_and_shares_the_rest():
    for seed in range(10):
        reduced = reduce_diagram(small_random_diagram(seed)).diagram
        normalized = normalize_utilities(reduced)[0]
        assert normalized.variables is reduced.variables and normalized.arcs is reduced.arcs
        assert normalized.cpts.keys() == reduced.cpts.keys()
        assert all(normalized.cpt(x) is reduced.cpt(x) for x in reduced.cpts)
        (v,) = normalized.value_ids
        table = normalized.reward(v)
        assert table is not reduced.reward(v) and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.5
        fresh = InfluenceDiagram(reduced.variables, reduced.arcs, reduced.cpts, {v: table})
        for x in (u.id for u in reduced.variables):
            assert normalized.family(x) == fresh.family(x)
        # the swapped table is checked as the constructor checks it
        with pytest.raises(ValueError, match=f"reward table for {v!r} has size 3"):
            reduced.with_reward(v, [0.0, 0.5, 1.0])
        for other in (reduced.chance_ids[0], "nowhere"):
            with pytest.raises(ValueError, match="not a value variable"):
                reduced.with_reward(other, table)


def test_the_widened_tree_is_canonical_and_shares_its_parent_tree():
    for seed in range(20):
        d = small_random_diagram(seed, max_values=3)
        t = shaped_decomposition(d)
        widened = reduce_to_single_value(d, t).decomposition
        fresh = TreeDecomposition(widened.clusters, t.edges, root=t.root)
        assert widened == fresh
        assert widened.edges is t.edges and widened._adjacency is t._adjacency
        for i in range(t.n):
            assert widened.parent(i) == fresh.parent(i)
            assert widened.children(i) == fresh.children(i)
        assert widened._holders == fresh._holders != t._holders


def test_normalize_rejects_multiple_values():
    with pytest.raises(ValueError):
        normalize_utilities(two_agent_diagram())


# -- minimal diagram ---------------------------------------------------------------------

def informed_diagram():
    """``d`` sees ``x`` and ``n``, but only ``x`` bears on the reward ``v`` below
    ``d``; ``n`` pays out through ``v2`` beside it.  Nothing below the chain
    ``b -> e -> f`` is rewarded.  Every number is a dyadic fraction, so every
    evaluation is exact."""
    return InfluenceDiagram(
        [Variable("b", "chance", 2), Variable("d", "decision", 2),
         Variable("e", "decision", 2), Variable("f", "chance", 2),
         Variable("n", "chance", 2), Variable("x", "chance", 2),
         Variable("v", "value"), Variable("v2", "value")],
        [("x", "d"), ("n", "d"), ("d", "v"), ("x", "v"), ("n", "v2"),
         ("b", "e"), ("e", "f")],
        {"b": [0.5, 0.5], "f": [[0.75, 0.25], [0.25, 0.75]],
         "n": [0.5, 0.5], "x": [0.25, 0.75]},
        # v over (d, x): guess x to earn 1 or 0.5
        {"v": [[1.0, 0.0], [0.25, 0.5]], "v2": [0.5, 0.75]})


def test_minimal_diagram_drops_a_non_requisite_parent_and_a_barren_chain():
    d = informed_diagram()
    minimal, _ = minimal_diagram(d)
    assert [v.id for v in minimal.variables] == ["d", "n", "v", "v2", "x"]
    assert minimal.parents("d") == ("x",)
    assert minimal.arcs == (("d", "v"), ("n", "v2"), ("x", "d"), ("x", "v"))
    assert np.array_equal(minimal.cpt("x"), d.cpt("x"))


def test_the_lifted_strategy_is_worth_the_returned_value():
    d = informed_diagram()
    got = solve_full(d, SolverConfig(epsilon=0.0))
    # x = 0 (1/4): d = 0 earns 1; x = 1 (3/4): d = 1 earns 1/2; v2 adds 5/8
    assert got.value == 1.25
    assert expected_utility(d, got.strategy) == got.value
    assert brute_force_meu(d)[0] == got.value
    assert [(p.decision, p.parents) for p in got.strategy.policies] == \
           [("d", ("n", "x")), ("e", ("b",))]
    # constant along the dropped n: the action follows x alone
    assert got.strategy.policy_for("d").table[1].tolist() == [[0.0, 1.0], [0.0, 1.0]]
    assert np.array_equal(got.strategy.policy_for("e").table, pure_policy(d, "e", 0).table)


def test_a_parent_seen_through_an_observed_collider_stays():
    # n -> c <- h -> v: observing c opens the path from n to the reward
    d = InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("d", "decision", 2),
         Variable("h", "chance", 2), Variable("n", "chance", 2), Variable("v", "value")],
        [("n", "c"), ("h", "c"), ("c", "d"), ("n", "d"), ("h", "v"), ("d", "v")],
        {"c": np.full((2, 2, 2), 0.5), "h": [0.5, 0.5], "n": [0.5, 0.5]},
        {"v": [[1.0, 0.0], [0.0, 1.0]]})
    minimal, lift = minimal_diagram(d)
    assert minimal is d
    assert minimal.parents("d") == ("c", "n")


def _reference_minimal(d):
    """Parents per variable of the minimal diagram by the textbook route: one
    arc at a time, each tested on the moral graph of its own ancestral set."""
    parents = {v.id: set(d.parents(v.id)) for v in d.variables}
    values = set(d.value_ids)

    def ancestors(nodes):
        found, stack = set(nodes), list(nodes)
        while stack:
            for p in parents[stack.pop()] - found:
                found.add(p)
                stack.append(p)
        return found

    def separated(n, targets, given):
        adj = {x: set() for x in ancestors({n} | targets | given)}
        for x in adj:
            for p in parents[x]:
                adj[x].add(p)
                adj[p] |= parents[x] - {p} | {x}
        seen, stack = {n}, [n]
        while stack:
            for y in adj[stack.pop()] - given - seen:
                if y in targets:
                    return False
                seen.add(y)
                stack.append(y)
        return True

    def below(x):
        kids = {c for c in parents if x in parents[c]}
        return kids.union(*map(below, kids))

    while True:
        arc = next(((n, dec) for dec in sorted(x for x in parents if x in d.decision_ids)
                    for n in sorted(parents[dec])
                    if separated(n, below(dec) & values, parents[dec] - {n} | {dec})), None)
        if arc is not None:
            parents[arc[1]].discard(arc[0])
            continue
        useful = ancestors(values)
        if len(useful) == len(parents):
            return parents
        parents = {x: ps for x, ps in parents.items() if x in useful}


@pytest.mark.parametrize("pool", [
    lambda s: small_random_diagram(s, max_values=3),
    lambda s: generate_diagram(12, 5, 3, 2, 3, s, decision_max_parents=2),
    lambda s: generate_diagram(10, 6, 3, 3, 3, s),
], ids=["corpus", "hard", "dense"])
def test_minimal_diagram_matches_the_arc_by_arc_reference(pool):
    for seed in range(40):
        d = pool(seed)
        minimal, _ = minimal_diagram(d)
        assert {v.id: set(minimal.parents(v.id)) for v in minimal.variables} == \
               _reference_minimal(d), seed


def test_lift_keeps_every_strategy_value(rng):
    changed = 0
    for seed in range(40):
        d = small_random_diagram(seed, max_values=3)
        minimal, lift = minimal_diagram(d)
        changed += minimal is not d
        for _ in range(4):
            s = random_strategy(minimal, rng)
            assert expected_utility(d, lift(s)) == pytest.approx(
                expected_utility(minimal, s), abs=1e-12)
    assert changed


def test_a_diagram_with_nothing_to_drop_comes_back_as_is():
    d = two_agent_diagram()
    minimal, lift = minimal_diagram(d)
    s = random_strategy(d, np.random.default_rng(1))
    assert minimal is d and lift(s) is s


def test_the_oracles_never_call_the_reduction(monkeypatch):
    def refuse(d):
        raise AssertionError("the reduction ran")

    monkeypatch.setattr(limid.reduction, "minimal_diagram", refuse)
    monkeypatch.setattr(limid.solver, "minimal_diagram", refuse)
    d = informed_diagram()
    value, strategy = brute_force_meu(d)
    assert expected_utility(d, strategy) == value == 1.25
    with pytest.raises(AssertionError, match="the reduction ran"):
        solve_full(d, SolverConfig(epsilon=0.0))
