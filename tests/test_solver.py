import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import limid.solver
from limid import (
    InfluenceDiagram,
    InstanceTooLargeError,
    Variable,
    brute_force_meu,
    expected_utility,
    pure_policy,
)
from limid.cli import generate_diagram
from limid.reduction import minimal_diagram, normalize_utilities
from limid.solver import SolverConfig, shape_and_reduce, solve, solve_full
from limid.treedecomp import (
    TreeDecomposition,
    binarize,
    build_decomposition,
    default_root,
    ensure_value_leaves,
    root_and_order,
    validate_decomposition,
)

from conftest import is_pure, pick_diagram, small_random_diagram, two_agent_diagram


def rooted_decomposition(d):
    shaped, leaves = ensure_value_leaves(d, binarize(build_decomposition(d)))
    return root_and_order(shaped, default_root(shaped, leaves))


# -- configuration ------------------------------------------------------------------

def test_config_zero_epsilon_forces_exact():
    d = two_agent_diagram()
    assert solve_full(d, SolverConfig(epsilon=0.0)).stats.exact
    assert not solve_full(d, SolverConfig(epsilon=0.5)).stats.exact
    with pytest.raises(ValueError):
        SolverConfig(epsilon=-0.1)


def test_an_epsilon_too_small_to_move_alpha_solves_exactly():
    d = two_agent_diagram()
    exact = solve_full(d, SolverConfig(epsilon=0.0))
    tiny = solve_full(d, SolverConfig(epsilon=1e-15))
    assert tiny.stats.alpha == 1.0 and tiny.stats.exact
    assert tiny.value == exact.value
    assert not solve_full(d, SolverConfig(epsilon=0.5)).stats.exact


@pytest.mark.parametrize("epsilon", [0.0, 1e-17, 0.5])
def test_a_solve_is_exact_when_alpha_is_one(epsilon):
    # a diagram without value variables is solved exactly at every epsilon
    none = solve_full(generate_diagram(3, 2, 3, 2, 0, 5), SolverConfig(epsilon=epsilon)).stats
    assert none.alpha == 1.0 and none.exact
    one = solve_full(pick_diagram(), SolverConfig(epsilon=epsilon)).stats
    assert one.exact == (one.alpha == 1.0) == (epsilon < 0.5)
    if one.exact:
        assert all(s.c_size == s.product_size for s in one.nodes)


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
def test_config_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        SolverConfig(epsilon=epsilon)


@pytest.mark.parametrize("cap", [0, -3, 1.5, "10", True])
def test_config_rejects_bad_max_set_size(cap):
    with pytest.raises(ValueError, match="max_set_size"):
        SolverConfig(epsilon=0.5, max_set_size=cap)


def test_config_accepts_a_positive_cap_and_refuses_none():
    assert SolverConfig(max_set_size=1).max_set_size == 1
    with pytest.raises(ValueError, match="max_set_size"):
        SolverConfig(max_set_size=None)


@pytest.mark.parametrize("cap", [np.int64(5), np.int32(5), np.uint8(5)])
def test_config_takes_a_numpy_integer_cap_as_a_python_int(cap):
    got = SolverConfig(max_set_size=cap).max_set_size
    assert got == 5 and type(got) is int
    with pytest.raises(ValueError, match="must be an integer of at least 1, got"):
        SolverConfig(max_set_size=cap - cap)


# -- solve on a prepared diagram -------------------------------------------------------

def test_two_strategy_diagram_exact_and_approximate():
    d = pick_diagram()  # utilities already in [0, 1], one value variable
    t = rooted_decomposition(d)
    exact = solve(d, t, SolverConfig(epsilon=0.0))
    assert exact.value == pytest.approx(0.8, abs=1e-12)
    loose = solve(d, t, SolverConfig(epsilon=0.5))
    assert loose.value in (pytest.approx(0.3, abs=1e-12), pytest.approx(0.8, abs=1e-12))
    assert loose.value >= 0.8 / 1.5 - 1e-9


def test_alpha_follows_node_count():
    d = pick_diagram()
    # four duplicated clusters in a path: all families and Pa(v) covered
    t = TreeDecomposition(
        (("c", "d"), ("c", "d"), ("c", "d"), ("c", "d")),
        ((0, 1), (1, 2), (2, 3)), root=0)
    result = solve(d, t, SolverConfig(epsilon=0.4))
    assert result.stats.m == 4
    assert result.stats.alpha == pytest.approx(1.05, abs=1e-15)
    assert result.value == pytest.approx(0.8, abs=1e-9)


def test_no_decision_diagram_any_epsilon():
    d = InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("v", "value")],
        [("c", "v")], {"c": [0.25, 0.75]}, {"v": [1.0, 0.0]})
    t = rooted_decomposition(d)
    for eps in (0.0, 0.3, 1.0):
        result = solve(d, t, SolverConfig(epsilon=eps))
        assert result.value == pytest.approx(0.25, abs=1e-12)
        assert result.strategy.policies == ()


def test_solve_preconditions(monkeypatch):
    cfg = SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError, match="one value variable"):
        solve(two_agent_diagram(), rooted_decomposition(two_agent_diagram()), cfg)
    # any finite reward solves: solve maps it onto [0, 1] and the value back
    scaled = InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("v", "value")],
        [("c", "v")], {"c": [0.5, 0.5]}, {"v": [5.0, 0.0]})
    assert solve(scaled, rooted_decomposition(scaled), cfg).value == 2.5
    assert brute_force_meu(scaled)[0] == 2.5
    d = pick_diagram()
    star = TreeDecomposition((("c", "d"),) * 5, tuple((0, j) for j in range(1, 5)), root=0)
    with pytest.raises(ValueError, match="decomposition must be binary"):
        solve(d, star, cfg)

    # an unrooted tree fails before any decision's policy set is built
    def refuse(*args):
        raise AssertionError("policy set built for an unrooted decomposition")

    monkeypatch.setattr(limid.solver, "_policy_potential_set", refuse)
    unrooted, _ = ensure_value_leaves(d, binarize(build_decomposition(d)))
    with pytest.raises(ValueError, match="rooted"):
        solve(d, unrooted, cfg)


@pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
def test_a_direct_solve_checks_the_entries_no_validation_saw(bad):
    # solve_full validates first; a direct solve checks every table in one pass
    d = InfluenceDiagram([Variable("c", "chance", 2), Variable("v", "value")], [("c", "v")],
                         {"c": [bad, 0.5]}, {"v": [1.0, 0.0]})
    with pytest.raises(ValueError, match="nonnegative and finite"):
        solve(d, rooted_decomposition(d), SolverConfig(epsilon=0.5))


def strategy_tables(result):
    return [(p.decision, p.parents, p.table.tolist()) for p in result.strategy.policies]


def solved_fields(result):
    return (result.value, result.stats.m, result.stats.alpha, result.stats.nodes,
            strategy_tables(result))


@pytest.mark.parametrize("epsilon", [0.0, 0.5])
def test_a_reward_spanning_zero_to_one_solves_unchanged(epsilon):
    cfg = SolverConfig(epsilon=epsilon)
    for seed in range(20):
        reduced = shape_and_reduce(small_random_diagram(seed))
        unit, _, _, _ = normalize_utilities(reduced.diagram)
        again, offset, scale, power = normalize_utilities(unit)
        assert (offset, scale, power) == (0.0, 1.0, 1.0)
        assert solved_fields(solve(unit, reduced.decomposition, cfg)) == \
            solved_fields(solve(again, reduced.decomposition, cfg))


def test_an_affine_reward_maps_the_exact_value_and_keeps_the_strategy():
    a, b = 3.7, -2.2
    cfg = SolverConfig(epsilon=0.0)
    for seed in range(20):
        reduced = shape_and_reduce(small_random_diagram(seed))
        merged = reduced.diagram
        v = merged.value_ids[0]
        moved = InfluenceDiagram(merged.variables, merged.arcs, merged.cpts,
                                 {v: a * merged.reward(v) + b})
        base = solve(merged, reduced.decomposition, cfg)
        got = solve(moved, reduced.decomposition, cfg)
        assert got.value == pytest.approx(a * base.value + b, abs=1e-9)
        assert strategy_tables(got) == strategy_tables(base)


def test_max_set_size_reports_node():
    d = pick_diagram()
    t = rooted_decomposition(d)
    with pytest.raises(InstanceTooLargeError) as err:
        solve(d, t, SolverConfig(epsilon=0.0, max_set_size=1))
    assert "cap" in str(err.value)


def test_cap_fires_before_the_product_is_built():
    # the unreduced diagram: solve_full would strip it down to a few small sets
    d = generate_diagram(12, 5, 3, 2, 3, 0, decision_max_parents=2)
    tracemalloc.start()
    try:
        reduced = shape_and_reduce(d)
        with pytest.raises(InstanceTooLargeError) as err:
            solve(normalize_utilities(reduced.diagram)[0], reduced.decomposition,
                  SolverConfig(epsilon=0.0, max_set_size=20000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == \
        "set size 4782969 at node 7 (combination) exceeds the cap 20000"
    assert peak < 64 * 2**20


def einsum_value(d, strategy):
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


def test_the_capped_hard_instance_solves_exactly_once_minimal():
    d = generate_diagram(12, 5, 3, 2, 3, 0, decision_max_parents=2)
    got = solve_full(d, SolverConfig(epsilon=0.0, max_set_size=20000))
    assert [p.decision for p in got.strategy.policies] == list(d.decision_ids)
    assert all(p.parents == d.parents(p.decision) for p in got.strategy.policies)
    assert got.value == pytest.approx(einsum_value(d, got.strategy), abs=1e-9)


def test_hard_solve_builds_no_per_node_initial_sets():
    # a node's own tables wait unmultiplied until the node is reached
    d = generate_diagram(12, 5, 3, 2, 3, 18, decision_max_parents=2)
    tracemalloc.start()
    try:
        solve_full(d, SolverConfig(epsilon=0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_ties_go_to_the_smallest_policy_indices():
    # "a" changes nothing; actions 1 and 2 of "b" are equally good
    p_good = np.array([0.2, 0.9, 0.9])
    d = InfluenceDiagram(
        [Variable("a", "decision", 3), Variable("b", "decision", 3),
         Variable("c", "chance", 2), Variable("v", "value")],
        [("a", "c"), ("b", "c"), ("c", "v")],
        {"c": np.stack([np.tile(1.0 - p_good, (3, 1)), np.tile(p_good, (3, 1))])},
        {"v": [0.0, 1.0]})
    for eps in (0.0, 0.5):
        got = solve_full(d, SolverConfig(epsilon=eps))
        assert got.value == pytest.approx(0.9, abs=1e-12)
        want = (pure_policy(d, "a", 0), pure_policy(d, "b", 1))
        assert [p.table.tolist() for p in got.strategy.policies] == \
               [p.table.tolist() for p in want]


# -- table placement -----------------------------------------------------------------

def test_solve_places_every_table_at_its_home():
    d = pick_diagram()
    # a value leaf that does not hold v's parent c: the reward table still
    # goes to its home, node 1, and the root message carries no variable
    wrong_leaf = TreeDecomposition((("d",), ("c", "d")), ((0, 1),), root=0)
    got = solve(d, wrong_leaf, SolverConfig(epsilon=0.0))
    assert got.value == pytest.approx(brute_force_meu(d)[0], abs=1e-12)
    assert got.value == pytest.approx(0.8, abs=1e-12)
    uncovered = TreeDecomposition((("c",), ("d",)), ((0, 1),), root=0)
    with pytest.raises(ValueError, match="invalid decomposition: family of 'c' not covered"):
        solve(d, uncovered, SolverConfig(epsilon=0.0))


# -- the full pipeline ----------------------------------------------------------------------

def test_solve_full_matches_direct_solve():
    d = pick_diagram()
    direct = solve(d, rooted_decomposition(d), SolverConfig(epsilon=0.0))
    full = solve_full(d, SolverConfig(epsilon=0.0))
    assert full.value == pytest.approx(direct.value, abs=1e-12)


@pytest.mark.parametrize("epsilon", [0.0, 0.5])
def test_solve_full_reports_its_solve_stats_with_its_own_wall_time(epsilon):
    cfg = SolverConfig(epsilon=epsilon)
    for seed in range(4):
        d = generate_diagram(12, 5, 3, 2, 3, seed, decision_max_parents=2)
        r = shape_and_reduce(minimal_diagram(d)[0])
        full = solve_full(d, cfg).stats
        direct = solve(r.diagram, r.decomposition, cfg).stats
        assert replace(full, wall_time=0.0) == replace(direct, wall_time=0.0)


def test_solve_full_exact_matches_oracle():
    for seed in range(10):
        d = small_random_diagram(seed)
        oracle, _ = brute_force_meu(d)
        got = solve_full(d, SolverConfig(epsilon=0.0))
        assert got.value == pytest.approx(oracle, abs=1e-9)


def test_solve_full_approximation_sandwich():
    for seed in range(8):
        d = small_random_diagram(seed)
        oracle, _ = brute_force_meu(d)
        for eps in (0.1, 0.5, 1.0):
            got = solve_full(d, SolverConfig(epsilon=eps))
            assert got.value <= oracle + 1e-9
            assert oracle <= (1 + eps) * got.value + 1e-9


def test_returned_strategy_reproduces_value():
    for seed in range(8):
        d = small_random_diagram(seed)
        for eps in (0.0, 0.5):
            got = solve_full(d, SolverConfig(epsilon=eps))
            assert expected_utility(d, got.strategy) == pytest.approx(got.value, abs=1e-9)
            assert all(is_pure(p) for p in got.strategy.policies)


def test_constant_utility_diagram():
    d = InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("d", "decision", 2), Variable("v", "value")],
        [("d", "c"), ("c", "v")],
        {"c": [[0.8, 0.3], [0.2, 0.7]]}, {"v": [2.5, 2.5]})
    got = solve_full(d, SolverConfig(epsilon=0.5))
    assert got.value == pytest.approx(2.5, abs=1e-9)


def test_zero_value_variables():
    d = InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("d", "decision", 2)],
        [("d", "c")], {"c": [[0.8, 0.3], [0.2, 0.7]]}, {})
    got = solve_full(d, SolverConfig(epsilon=0.0))
    assert got.value == 0.0
    assert [p.decision for p in got.strategy.policies] == ["d"]


def test_solve_full_accepts_supplied_decomposition():
    d = two_agent_diagram()
    supplied = build_decomposition(d)
    got = solve_full(d, SolverConfig(epsilon=0.0), decomposition=supplied)
    oracle, _ = brute_force_meu(d)
    assert got.value == pytest.approx(oracle, abs=1e-9)
    broken = TreeDecomposition((("c1",),), ())
    with pytest.raises(ValueError):
        solve_full(d, SolverConfig(epsilon=0.0), decomposition=broken)


def test_a_restricted_decomposition_drops_exactly_its_empty_nodes():
    # built for the original diagram, a decomposition is cut to the minimal
    # diagram's variables; the nodes left empty go and the rest stays valid
    dropped = 0
    for seed in range(60):
        d = small_random_diagram(seed)
        minimal, _ = minimal_diagram(d)
        if minimal is d or not minimal.value_ids:
            continue
        supplied = build_decomposition(d)
        cut = limid.solver._restrict(supplied, minimal)
        assert validate_decomposition(minimal, cut) == [] and all(cut.clusters)
        kept = [c for c in supplied.clusters if any(map(minimal.has_variable, c))]
        assert [tuple(filter(minimal.has_variable, c)) for c in kept] == list(cut.clusters)
        dropped += supplied.n - cut.n
        got = solve_full(d, SolverConfig(epsilon=0.0), decomposition=supplied)
        assert got.value == pytest.approx(brute_force_meu(d)[0], abs=1e-9)
    assert dropped
    # empty node 0's smallest neighbour is empty node 1, which must take over
    # 0's other neighbours before it goes in turn
    d = InfluenceDiagram([Variable(x, "chance", 2) for x in "abcxy"]
                         + [Variable("v1", "value"), Variable("v2", "value")],
                         [("a", "v1"), ("b", "v1"), ("c", "v2")],
                         {x: [0.25, 0.75] for x in "abcxy"},
                         {"v1": [[1.0, 0.0], [0.0, 2.0]], "v2": [1.0, 3.0]})
    star = TreeDecomposition((("x",), ("y",), ("a", "b", "x"), ("c", "x")),
                             ((0, 1), (0, 2), (0, 3)))
    assert limid.solver._restrict(star, minimal_diagram(d)[0]) == \
           TreeDecomposition((("a", "b"), ("c",)), ((0, 1),))
    got = solve_full(d, SolverConfig(epsilon=0.0), decomposition=star)
    assert got.value == pytest.approx(brute_force_meu(d)[0], abs=1e-12)
    # a reward with no parents keeps no variable at all: one empty node stays
    d = InfluenceDiagram([Variable("a", "chance", 2), Variable("b", "decision", 2),
                          Variable("v", "value")], [("a", "b")], {"a": [0.5, 0.5]}, {"v": [3.0]})
    chain = TreeDecomposition((("a",), ("a", "b"), ("b",)), ((0, 1), (1, 2)))
    assert limid.solver._restrict(chain, minimal_diagram(d)[0]) == TreeDecomposition(((),), ())
    assert solve_full(d, SolverConfig(epsilon=0.5), decomposition=chain).value == 3.0


def test_solve_full_rejects_invalid_diagram():
    bad = InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("v", "value")],
        [("c", "v")], {"c": [0.6, 0.3]}, {"v": [0.0, 1.0]})
    with pytest.raises(ValueError):
        solve_full(bad, SolverConfig(epsilon=0.0))


def test_negative_rewards_round_trip():
    d = InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("d", "decision", 2), Variable("v", "value")],
        [("d", "c"), ("c", "v")],
        {"c": [[0.8, 0.3], [0.2, 0.7]]}, {"v": [-1.0, -4.0]})
    oracle, _ = brute_force_meu(d)
    got = solve_full(d, SolverConfig(epsilon=0.0))
    assert got.value == pytest.approx(oracle, abs=1e-9)
    assert got.value == pytest.approx(-1.0 * 0.8 + -4.0 * 0.2, abs=1e-9)


# -- statistics and determinism -----------------------------------------------------------------

def test_exact_work_upper_bounds_pruned_work():
    for seed in range(8):
        d = small_random_diagram(seed)
        exact = solve_full(d, SolverConfig(epsilon=0.0))
        for eps in (0.1, 0.5, 1.0):
            pruned = solve_full(d, SolverConfig(epsilon=eps))
            assert (sum(s.c_size for s in pruned.stats.nodes)
                    <= sum(s.c_size for s in exact.stats.nodes))


def test_stats_shape():
    d = pick_diagram()
    got = solve_full(d, SolverConfig(epsilon=0.5))
    assert len(got.stats.nodes) == got.stats.m
    for s in got.stats.nodes:
        assert s.c_size <= s.product_size
        assert s.k_size >= 1


def test_pass_through_nodes_are_not_covered_again(monkeypatch):
    covered, passed = [], []
    real_covering, real_bound = limid.solver.covering, limid.solver.covering_bound

    def bound(k, alpha):
        passed.append((k, alpha))
        return real_bound(k, alpha)

    monkeypatch.setattr(limid.solver, "covering",
                        lambda k, alpha: covered.append(len(k)) or real_covering(k, alpha))
    monkeypatch.setattr(limid.solver, "covering_bound", bound)
    got = solve_full(two_agent_diagram(), SolverConfig(epsilon=0.3))
    assert passed and len(covered) + len(passed) == got.stats.m
    for k, alpha in passed:
        # the message handed on is already a covering: pruning it again keeps it whole
        again, stats = real_covering(k, alpha)
        assert again.values.tobytes() == k.values.tobytes()
        assert np.array_equal(again.policies, k.policies)
        assert real_bound(k, alpha) == stats


def test_empty_nodes_send_the_unit_without_a_product(monkeypatch):
    sizes = []
    real = limid.solver.node_message
    monkeypatch.setattr(limid.solver, "node_message",
                        lambda parts, gone, alpha: sizes.append(len(parts))
                        or real(parts, gone, alpha))
    empty = 0
    for seed in range(6):
        d = generate_diagram(12, 5, 3, 2, 3, seed, decision_max_parents=2)
        minimal = minimal_diagram(d)[0]
        reduced = shape_and_reduce(minimal)
        t = reduced.decomposition
        held = set(limid.solver.homes(reduced.diagram, t).values())
        for epsilon in (0.0, 0.5):
            got = solve(reduced.diagram, t, SolverConfig(epsilon=epsilon))
            assert got.stats.m == t.n == len(got.stats.nodes)
            for row in got.stats.nodes:
                if row.node in held or t.children(row.node):
                    continue
                empty += 1
                bound = (1.0, 1) if epsilon else (None, None)
                assert (row.k_size, row.product_size, row.c_size) == (1, 1, 1)
                assert (row.smallest_positive, row.size_bound) == bound
            assert got.value == solve_full(d, SolverConfig(epsilon=epsilon)).value
    assert empty and 0 not in sizes


def test_determinism():
    for seed in (2, 9):
        d = small_random_diagram(seed)
        a = solve_full(d, SolverConfig(epsilon=0.3))
        b = solve_full(d, SolverConfig(epsilon=0.3))
        assert a.value == b.value
        for pa, pb in zip(a.strategy.policies, b.strategy.policies):
            assert pa.table.tobytes() == pb.table.tobytes()
        assert [(s.product_size, s.c_size) for s in a.stats.nodes] == \
               [(s.product_size, s.c_size) for s in b.stats.nodes]
